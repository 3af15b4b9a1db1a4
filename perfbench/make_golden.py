"""Record the frozen inputs and golden outputs the checker compares against.

Usage (from the root of a checkout): python3 perfbench/make_golden.py

Writes only files that do not exist yet, so re-running it never replaces
what counts as correct.  The files were recorded once, at the commit that
defined the benchmark; delete one deliberately to record it again.

- inputs/kernel-{4,6}.grp: the raw, unsimplified Reidemeister-Schreier
  presentations of the index-4 and index-6 kernels of degtyarev-affine
  (``subgroup --tietze-budget 0``), frozen so that the LCS work stays the
  same even if the rewriting changes.
- golden/<id>.out: stdout of every invocation with ``golden=True``; the
  recorded exit code must equal the one the invocation expects.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads
from run import child_env

ROOT = Path(__file__).resolve().parent.parent
HERE = Path("perfbench")


def cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "meridian.cli", *argv],
                          capture_output=True, env=child_env())


def freeze_kernel(index: int) -> None:
    path = workloads.INPUTS / f"kernel-{index}.grp"
    if path.exists():
        return
    res = cli("--json", "subgroup", "--preset", "degtyarev-affine",
              "--spec", f"kernel Z/{index} x->1 y->1", "--tietze-budget", "0")
    res.check_returncode()
    doc = json.loads(res.stdout)
    lines = [f"# Raw Reidemeister-Schreier presentation of the index-{index}",
             f"# kernel of degtyarev-affine -> Z/{index}, x->1 y->1 (no Tietze moves).",
             "gens " + " ".join(doc["generators"]) + ";"]
    lines += [f"rel {r};" for r in doc["relators"]]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def main() -> int:
    os.chdir(ROOT)
    for index in (4, 6):
        freeze_kernel(index)
    for inv in workloads.golden_invocations():
        path = HERE / "golden" / f"{inv.id}.out"
        if path.exists():
            continue
        res = cli(*inv.argv)
        if res.returncode != inv.exit or res.stderr:
            print(f"{inv.id}: exit {res.returncode}, expected {inv.exit};"
                  f" stderr {res.stderr[-300:]!r}", file=sys.stderr)
            return 1
        path.write_bytes(res.stdout)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
