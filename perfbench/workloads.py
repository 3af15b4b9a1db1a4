"""The three workloads as lists of CLI invocations, built from a seed.

Every invocation carries what the checker needs: the expected exit code, a
golden stdout recorded at the commit that defined the benchmark, and/or an
oracle with a closed-form answer.  Inputs that depend on the seed are written
as ``.grp`` files into the work directory; the program only sees the files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path("perfbench") / "inputs"

# Torus knots T(p, q) with p*q in this band.  The band stops at 200 because
# the cyclotomic factoring bound is 200 today, and above it the answer is
# known to be wrong; a golden taken from it would reject the fix.
TORUS_BAND = (100, 200)
KERNEL_INDICES = (8, 12)   # kernels of G -> Z/N, N drawn from this range
# The cost grows faster than N (seconds of CPU at the defining commit: 0.74,
# 0.94, 1.26, 2.0, 2.4 for N = 8..12), so a pass runs one of these pairs,
# which cover every N and whose costs agree within 4% of their mean, and
# costs nearly the same for every seed.
KERNEL_PAIRS = ((8, 12), (9, 12), (10, 11))


@dataclass(frozen=True)
class Invocation:
    id: str
    argv: tuple[str, ...]
    exit: int = 0
    golden: bool = False          # compare stdout with perfbench/golden/<id>.out
    oracle: tuple = ()            # ("torus", p, q) | ("kernel", N) | ("genus", g)


REPRODUCE = (
    Invocation("pipeline-text", ("pipeline", "--preset", "degtyarev"),
               golden=True),
    Invocation("pipeline-json", ("--json", "pipeline", "--preset", "degtyarev"),
               golden=True),
    Invocation("verify-curves", ("verify-curves",), golden=True),
    Invocation("center-projective",
               ("center", "--preset", "degtyarev-projective"), golden=True),
    Invocation("obstruct-finite-320",
               ("obstruct", "--finite", "320", "--ab", "Z/5"), exit=1,
               golden=True),
    Invocation("homs-320", ("homs", "--preset", "degtyarev-affine",
                            "--target", "degtyarev-320"), golden=True),
)


def torus_pool() -> list[tuple[int, int]]:
    lo, hi = TORUS_BAND
    return [(p, q) for p in range(2, hi) for q in range(p + 1, hi)
            if math.gcd(p, q) == 1 and lo <= p * q <= hi]


def draw_torus_knots(seed: int) -> list[tuple[int, int]]:
    """A knot drawn from the pool and its mirror in degree order.

    The pool is ordered by the degree (p-1)(q-1) of the Alexander
    polynomial, which sets the cost of factoring it; pairing the i-th knot
    with the i-th from the end keeps the cost of a pass nearly the same
    for every seed.
    """
    pool = sorted(torus_pool(), key=lambda pq: ((pq[0] - 1) * (pq[1] - 1), pq))
    i = random.Random(seed).randrange(len(pool) // 2)
    return [pool[i], pool[-1 - i]]


def draw_kernel_indices(seed: int) -> tuple[int, int]:
    """Two distinct indices in KERNEL_INDICES, drawn as one of KERNEL_PAIRS."""
    return random.Random(seed).choice(KERNEL_PAIRS)


def kernel_invocation(n: int) -> Invocation:
    return Invocation(f"kernel-{n}",
                      ("subgroup", "--preset", "degtyarev-affine",
                       "--spec", f"kernel Z/{n} x->1 y->1"),
                      golden=True, oracle=("kernel", n))


CHARVAR_PRESETS = tuple(
    Invocation(f"charvar-{name}", ("--json", "charvar", "--preset", name),
               golden=True)
    for name in ("degtyarev-affine", "degtyarev-affine-xt"))

KERNELS_FIXED = (
    Invocation("kernel-p1-2-5-10",
               ("subgroup", "--preset", "p1-2-5-10",
                "--spec", "kernel Z/10 x->5 y->8"), golden=True),
    Invocation("lcs-raw-kernel-4",
               ("lcs", "--class", "3", str(INPUTS / "kernel-4.grp")),
               golden=True),
    Invocation("lcs-raw-kernel-6",
               ("lcs", "--class", "3", str(INPUTS / "kernel-6.grp")),
               golden=True),
    Invocation("lcs-genus2", ("lcs", "--class", "3", "--preset", "genus2"),
               golden=True, oracle=("genus", 2)),
)

WORKLOADS = ("reproduce", "charvar", "kernels")


def build(workload: str, seed: int, work_dir: Path) -> list[Invocation]:
    """The invocations of one pass; writes seeded input files to work_dir."""
    if workload == "reproduce":
        return list(REPRODUCE)
    if workload == "charvar":
        out = list(CHARVAR_PRESETS)
        for p, q in draw_torus_knots(seed):
            path = work_dir / f"torus-{p}-{q}.grp"
            path.write_text(f"# torus knot T({p},{q})\ngens x y;\nrel x^{p} = y^{q};\n")
            out.append(Invocation(f"torus-{p}-{q}", ("--json", "charvar", str(path)),
                                  oracle=("torus", p, q)))
        return out
    if workload == "kernels":
        return [kernel_invocation(n) for n in draw_kernel_indices(seed)] \
            + list(KERNELS_FIXED)
    raise ValueError(f"unknown workload {workload!r}")


def golden_invocations() -> list[Invocation]:
    """Every invocation whose stdout is compared with a recorded golden."""
    lo, hi = KERNEL_INDICES
    return [*REPRODUCE, *CHARVAR_PRESETS,
            *(kernel_invocation(n) for n in range(lo, hi + 1)), *KERNELS_FIXED]
