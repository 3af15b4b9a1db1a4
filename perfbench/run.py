"""Cold-process benchmark of the meridian CLI.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {reproduce,charvar,kernels}
                             --seed N --seconds S --trace {0,1}
``--workload all`` runs the three workloads one after the other, each for
``--seconds`` and each with its own report.

Every invocation is a fresh process that runs ``meridian.cli`` as
``python -m`` does, started one at a time from this process: a closed loop
with one client.  A pass runs all of a workload's invocations back to back.
After the first, passes repeat while the next invocation is expected to end
within ``--seconds``, so the last pass may stop part way; traced runs stop
only between passes.
Every output is checked (exit code, golden stdout, closed-form oracles), and
a wrong answer counts as failed.

Times are scaled to a reference speed.  The speed of a shared VM drifts by
tens of percent over seconds to minutes, and a pure-Python loop slows down
with it, so ``reference_work`` runs in this process after every child, and a
child's wall and CPU times are multiplied by REFERENCE_S over the median of
the samples taken within REFERENCE_WINDOW_S of the child.  The window follows
the drift but spans enough samples to average out their own noise.  The
unscaled pass walls are printed as well.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_s and cpu_s (the scaled times of the invocations, each the median over
passes, summed), peak_rss_mb (the largest over invocations of the median
child peak RSS) and setup_s (median scaled wall of a process that only
imports ``meridian.cli``, sampled after every invocation).  With
``--trace 1`` every invocation runs traced (see tracer.py) and then
untraced, the two outputs must be equal, and the last line reports the
per-layer metrics of layers.py: medians over passes of times measured inside
the traced processes, unscaled.  trace.overhead_s is the time tracing added
to a pass, as the tracer measures it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_build") / "perfbench"
RUN_LIMIT_S = 170          # every child is killed before the run passes this
REFERENCE_SAMPLES = 3      # reference_work() runs after each child
REFERENCE_S = 0.0206       # its median on the VM of perfbench/baseline.json
REFERENCE_WINDOW_S = 4.0

# Timed children run meridian.cli the way ``python -m`` does and write the
# peak RSS of their own image (VmHWM, in kB) at exit.  wait4's ru_maxrss
# cannot give it: Linux carries the peak RSS of the image before exec, that
# of this driver, into the child's ru_maxrss.
CLI_WRITING_HWM = """\
import atexit, runpy
def _write_hwm(path={path!r}):
    with open('/proc/self/status') as status:
        kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
    with open(path, 'w') as out:
        out.write(kb)
atexit.register(_write_hwm)
runpy.run_module('meridian.cli', run_name='__main__', alter_sys=True)
"""


def child_env() -> dict:
    """Environment of every meridian process the benchmark starts; run from
    the root of a checkout."""
    env = dict(os.environ)
    for knob in ("MERIDIAN_MAX_COSETS", "PYTHONDONTWRITEBYTECODE",
                 "PYTHONUNBUFFERED"):
        env.pop(knob, None)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Children load bytecode as an installed package would, but the cache
    # lives in the build directory rather than in src/.
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / WORK / "pycache")
    # Set iteration order follows string hashing and moves the work done by
    # up to 40% (homs: 2.9 s or 4.1 s), so every child hashes the same way.
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_work() -> float:
    """Seconds this process takes for a fixed pure-Python computation."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    total = Fraction(0)
    for i in range(1, 24000):
        counts[i % 257] = counts.get(i % 257, 0) + i * i % 7
        if i % 20 == 0:
            total += Fraction(i, i + 1)
    sorted(range(60000), key=lambda x: -x)
    return time.perf_counter() - start


class Runner:
    """Starts one child at a time and measures it with os.wait4.

    Files of this run go to ``work``; a killed or interrupted run kills the
    child it is waiting for before it exits.
    """

    def __init__(self, started: float, work: Path):
        self.env = child_env()
        self.started = started
        self.work = work
        self.hwm_path = work / "vmhwm"
        self.cli = [sys.executable, "-c",
                    CLI_WRITING_HWM.format(path=str(self.hwm_path))]
        self.reference: list[tuple[float, float]] = []   # (time, seconds)
        self.sample_reference()

    def sample_reference(self) -> None:
        for _ in range(REFERENCE_SAMPLES):
            self.reference.append((time.perf_counter(), reference_work()))

    def scale(self, res: dict) -> float:
        """REFERENCE_S over the median reference sample near a child run."""
        lo = res["start"] - REFERENCE_WINDOW_S
        hi = res["end"] + REFERENCE_WINDOW_S
        return REFERENCE_S / statistics.median(
            seconds for t, seconds in self.reference if lo <= t <= hi)

    def run(self, argv: list[str]) -> dict:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        self.hwm_path.unlink(missing_ok=True)
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.sample_reference()
        hwm_kb = self.hwm_path.read_text() if self.hwm_path.exists() else "0"
        return {
            "wall": end - start,
            "cpu": usage.ru_utime + usage.ru_stime,
            "start": start,
            "end": end,
            "rss_mb": int(hwm_kb) / 1024,
            "exit": None if timed_out.is_set() else proc.returncode,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
        }


def measure_setup(runner: Runner) -> dict:
    """Runs a fresh process that only imports meridian.cli."""
    res = runner.run([sys.executable, "-c", "import meridian.cli"])
    if res["exit"] != 0:
        raise SystemExit("cannot import meridian.cli: "
                         + res["stderr"].decode(errors="replace")[-500:])
    return res


def run_pass(runner: Runner, invocations, traced: bool, problems: list,
             fits, took: dict) -> dict:
    """One pass over the invocations; its timed runs are keyed by the
    invocation's position, since a seed may draw the same input twice.

    Untraced, each invocation is followed by one set-up sample.  Traced,
    each invocation runs traced and then untraced, and the two outputs must
    be equal.  Every checked run appends its problems to ``problems``.  The
    pass ends early, with ``cut`` set, at the first position that does not
    ``fits``; ``took`` collects the seconds each position's step took.
    """
    totals = {"timed": {}, "cut": False, "setup": [], "overhead": 0.0,
              "stats": []}
    spans_path = runner.work / "spans.json"
    for i, inv in enumerate(invocations):
        if not fits(i):
            totals["cut"] = True
            break
        step_start = time.perf_counter()
        if traced:
            spans_path.unlink(missing_ok=True)
            res = runner.run([sys.executable, str(Path("perfbench") / "tracer.py"),
                              str(spans_path), *inv.argv])
            found = checks.check(inv, res["exit"], res["stdout"], res["stderr"])
            if not found and spans_path.exists():
                doc = json.loads(spans_path.read_text())
                totals["stats"].append((inv.id, layers.process_stats(
                    doc["spans"], res["wall"] - doc["own_s"])))
                totals["overhead"] += doc["overhead_s"]
            elif not found:
                found = [f"{inv.id}: the tracer wrote no spans"]
            problems.append(found)
        plain = runner.run([*runner.cli, *inv.argv])
        found = checks.check(inv, plain["exit"], plain["stdout"], plain["stderr"])
        if traced:
            if (res["exit"], res["stdout"]) != (plain["exit"], plain["stdout"]):
                found.append(f"{inv.id}: traced output differs from untraced")
        else:
            totals["setup"].append(measure_setup(runner))
        problems.append(found)
        del plain["stdout"], plain["stderr"]
        totals["timed"][i] = plain
        took.setdefault(i, []).append(time.perf_counter() - step_start)
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (Path("src") / "meridian" / "cli.py").is_file():
        print("error: src/meridian/cli.py not found; run from a meridian"
              " checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        work = WORK / f"run-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            measure(args, name, Runner(time.perf_counter(), work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def measure(args, workload: str, runner: Runner) -> None:
    started = runner.started
    invocations = workloads.build(workload, args.seed, runner.work)
    print(f"workload {workload}, seed {args.seed}: "
          + ", ".join(inv.id for inv in invocations))

    measure_setup(runner)           # compiles the bytecode cache once
    problems: list[list[str]] = []
    took: dict[int, list[float]] = {}
    deadline = time.perf_counter() + args.seconds
    hard_deadline = started + RUN_LIMIT_S - 10

    def fits(i: int) -> bool:
        """After the first pass: whether invocation ``i`` is expected to end
        before --seconds are up.  Traced runs measure whole passes only."""
        if i not in took:
            return True
        now, longest = time.perf_counter(), max(max(t) for t in took.values())
        if now + longest > hard_deadline:
            return False
        if args.trace:
            expected = sum(statistics.median(t) for t in took.values()) \
                if i == 0 else 0.0
        else:
            expected = statistics.median(took[i])
        return now + expected <= deadline

    passes = []
    while not passes or not passes[-1]["cut"]:
        passes.append(run_pass(runner, invocations, bool(args.trace), problems,
                               fits, took))
    whole = [p for p in passes if not p["cut"]]

    failed = sum(1 for p in problems if p)
    for p in problems:
        for line in p:
            print(line, file=sys.stderr)

    median = statistics.median
    if args.trace:
        metrics = layers.report([layers.pass_metrics(s for _, s in p["stats"])
                                 for p in whole],
                                median(p["overhead"] for p in whole))
        first = layers.pass_metrics(s for _, s in passes[0]["stats"])
        print("layer self time (s): " + ", ".join(
            f"{m} {v:.3f}" for m, v in layers.module_self_times(first).items()))
        for inv_id, stats in passes[0]["stats"]:
            top = max((k for k in stats if k.endswith(".self_s")),
                      key=stats.get, default="none")
            print(f"  {inv_id}: largest self time {top} {stats.get(top, 0):.3f} s")
    else:
        def per_invocation(key, scaled=True):
            return [median(p["timed"][i][key]
                           * (runner.scale(p["timed"][i]) if scaled else 1)
                           for p in passes if i in p["timed"])
                    for i in range(len(invocations))]

        metrics = {
            "wall_s": {"value": sum(per_invocation("wall")), "unit": "s"},
            "cpu_s": {"value": sum(per_invocation("cpu")), "unit": "s"},
            "peak_rss_mb": {"value": max(per_invocation("rss_mb", False)),
                            "unit": "MB"},
            "setup_s": {"value": median(r["wall"] * runner.scale(r)
                                        for p in passes for r in p["setup"]),
                        "unit": "s"},
        }
    print(f"{len(whole)} whole passes and"
          f" {sum(len(p['timed']) for p in passes)} timed invocations;"
          " unscaled pass walls (s): " + " ".join(
              f"{sum(r['wall'] for r in p['timed'].values()):.3f}" for p in whole))
    print("speed scale per pass (median): " + " ".join(
        f"{median(runner.scale(r) for r in p['timed'].values()):.3f}"
        for p in passes if p["timed"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / len(problems):.6g}"
          f" ({failed} of {len(problems)} invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
