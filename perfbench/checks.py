"""Output checks: exit code, golden stdout and closed-form oracles.

``check`` returns the list of problems with one invocation's result; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def torus_charvar(p: int, q: int) -> set[int]:
    """Orders N with mu_N-primitive roots in V1 of the torus knot T(p, q).

    The Alexander polynomial is (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)),
    the product of Phi_N over N | pq with N dividing neither p nor q.
    """
    return {n for n in range(1, p * q + 1)
            if (p * q) % n == 0 and p % n and q % n}


def genus_lcs_ranks(g: int) -> tuple[int, int, int]:
    """Ranks of gamma_d/gamma_{d+1}, d = 1, 2, 3, of the genus-g surface group.

    The graded Lie algebra is free on 2g generators modulo one quadratic
    relation, so degree 2 loses one and degree 3 loses the 2g brackets of
    that relation with a generator.
    """
    n = 2 * g
    return n, math.comb(n, 2) - 1, (n ** 3 - n) // 3 - n


def _rank(abelian: str) -> int:
    """Free rank of an abelian group printed as 'Z^2 x Z/5', 'Z', '1'..."""
    rank = 0
    for part in abelian.split(" x "):
        part = part.strip()
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
    return rank


def oracle_problems(oracle: tuple, stdout: str) -> list[str]:
    kind = oracle[0]
    if kind == "torus":
        _, p, q = oracle
        expected = {
            "command": "charvar", "mode": "rank-one", "schema": 1,
            "strata": {
                "1": {"cyclotomic": {str(n): 1 for n in torus_charvar(p, q)},
                      "full": False, "includes_one": True, "residual": "1"},
                "2": {"cyclotomic": {}, "full": False, "includes_one": False,
                      "residual": "1"},
            },
        }
        try:
            got = json.loads(stdout)
        except ValueError:
            return [f"T({p},{q}): stdout is not JSON"]
        return [] if got == expected else [f"T({p},{q}): V1/V2 differ from the oracle"]
    if kind == "kernel":
        n = oracle[1]
        lines = stdout.splitlines()
        problems = []
        if not lines or lines[0] != f"index {n}":
            problems.append(f"kernel Z/{n}: index is not {n}")
        want = 5 if n % 10 == 0 else 1
        if not lines or not lines[-1].startswith("abelianization ") \
                or _rank(lines[-1][len("abelianization "):]) != want:
            problems.append(f"kernel Z/{n}: free rank is not {want}")
        return problems
    if kind == "genus":
        g = oracle[1]
        want = [f"gamma_{d}/gamma_{d + 1} = Z^{r}"
                for d, r in enumerate(genus_lcs_ranks(g), start=1)]
        return [] if stdout.splitlines() == want else [f"genus {g}: LCS ranks differ"]
    raise ValueError(f"unknown oracle {kind!r}")


def check(inv, exit_code: int | None, stdout: bytes, stderr: bytes,
          golden_dir: Path = GOLDEN) -> list[str]:
    """Problems with one result; ``exit_code`` None means it timed out."""
    if exit_code is None:
        return [f"{inv.id}: timed out"]
    problems = []
    if exit_code != inv.exit:
        problems.append(f"{inv.id}: exit code {exit_code}, expected {inv.exit}")
    if stderr:
        problems.append(f"{inv.id}: unexpected stderr: {stderr[-200:]!r}")
    if inv.golden and stdout != (golden_dir / f"{inv.id}.out").read_bytes():
        problems.append(f"{inv.id}: stdout differs from the golden")
    if inv.oracle:
        problems += oracle_problems(inv.oracle, stdout.decode(errors="replace"))
    return problems
