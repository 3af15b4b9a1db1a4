"""Self-tests of the benchmark: checker, oracles, tracer and input generator.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def by_id(inv_id: str):
    return next(inv for inv in workloads.golden_invocations() if inv.id == inv_id)


def golden(inv_id: str) -> bytes:
    return (checks.GOLDEN / f"{inv_id}.out").read_bytes()


def test_checker_accepts_the_golden():
    inv = by_id("verify-curves")
    assert checks.check(inv, 0, golden(inv.id), b"") == []


def test_checker_flags_one_flipped_byte():
    inv = by_id("verify-curves")
    out = bytearray(golden(inv.id))
    out[len(out) // 2] ^= 0x01
    assert checks.check(inv, 0, bytes(out), b"")


def test_checker_flags_wrong_exit_code_and_timeout():
    inv = by_id("obstruct-finite-320")
    assert inv.exit == 1
    assert checks.check(inv, 1, golden(inv.id), b"") == []
    assert checks.check(inv, 0, golden(inv.id), b"")
    assert checks.check(inv, None, golden(inv.id), b"")


def test_checker_flags_stderr():
    inv = by_id("verify-curves")
    assert checks.check(inv, 0, golden(inv.id), b"Traceback ...")


def test_torus_oracle():
    assert checks.torus_charvar(2, 3) == {6}
    assert checks.torus_charvar(3, 5) == {15}
    assert checks.torus_charvar(2, 9) == {6, 18}


def test_genus_oracle():
    assert checks.genus_lcs_ranks(2) == (4, 5, 16)
    inv = by_id("lcs-genus2")
    assert checks.oracle_problems(inv.oracle, golden(inv.id).decode()) == []


def test_torus_oracle_judges_charvar_json():
    doc = {"command": "charvar", "mode": "rank-one", "schema": 1,
           "strata": {"1": {"cyclotomic": {"6": 1}, "full": False,
                            "includes_one": True, "residual": "1"},
                      "2": {"cyclotomic": {}, "full": False,
                            "includes_one": False, "residual": "1"}}}
    assert checks.oracle_problems(("torus", 2, 3), json.dumps(doc)) == []
    doc["strata"]["1"]["cyclotomic"] = {"6": 1, "12": 1}
    assert checks.oracle_problems(("torus", 2, 3), json.dumps(doc))


def test_kernel_oracle_matches_goldens():
    lo, hi = workloads.KERNEL_INDICES
    for n in range(lo, hi + 1):
        text = golden(f"kernel-{n}").decode()
        assert checks.oracle_problems(("kernel", n), text) == []
        assert checks.oracle_problems(("kernel", n + 1), text)


def test_seeded_inputs_repeat_and_stay_in_range(tmp_path):
    assert workloads.build("charvar", 7, tmp_path) == \
        workloads.build("charvar", 7, tmp_path)
    lo, hi = workloads.TORUS_BAND
    for seed in range(20):
        knots = workloads.draw_torus_knots(seed)
        assert len(knots) == 2 and knots[0] != knots[1]
        assert all(lo <= p * q <= hi for p, q in knots)
        a, b = workloads.draw_kernel_indices(seed)
        assert 8 <= a < b <= 12


def test_self_time_subtracts_children():
    spans = [["m.f", 0.0, 10.0, -1, {}],
             ["m.g", 1.0, 4.0, 0, {}],
             ["m.g", 2.0, 3.0, 1, {}],
             ["m.h", 11.0, 12.0, -1, {"n": 5}]]
    stats = layers.process_stats(spans, 15.0)
    assert stats["m.f.self_s"] == 7.0
    assert stats["m.g.self_s"] == 3.0
    assert stats["m.g.total_s"] == 3.0      # the nested call is not added twice
    assert stats["m.g.calls"] == 2
    assert stats["cli.other_s"] == 4.0
    assert stats["m.h.distinct_n"] == 1


def run(argv, traced, tmp_path):
    spans = tmp_path / "spans.json"
    prefix = [sys.executable, str(BENCH / "tracer.py"), str(spans)] if traced \
        else [sys.executable, "-m", "meridian.cli"]
    res = subprocess.run(prefix + argv, capture_output=True,
                         env=bench.child_env(), cwd=ROOT, timeout=120)
    return res, (json.loads(spans.read_text())["spans"] if traced else None)


@pytest.mark.parametrize("argv", [
    ["abelianize", "--preset", "degtyarev-affine"],
    ["lcs", "--class", "3", "--preset", "genus2"],
    ["obstruct", "--finite", "320", "--ab", "Z/5"],
    ["--json", "charvar", "--preset", "genus2"],
    ["subgroup", "--preset", "free2", "--spec", "bogus"],
])
def test_tracer_leaves_outputs_unchanged(argv, tmp_path):
    plain, _ = run(argv, False, tmp_path)
    traced, spans = run(argv, True, tmp_path)
    assert (traced.returncode, traced.stdout, traced.stderr) == \
        (plain.returncode, plain.stdout, plain.stderr)
    assert spans, "no traced function ran"
    names = {f"{m}.{f}" for m, fs in layers.TRACED.items() for f in fs}
    for name, start, end, parent, _ in spans:
        assert name in names and start <= end and parent < len(spans)


def test_tracer_reaches_names_imported_elsewhere(tmp_path):
    """cli holds tietze_simplify under its own name; abelianization reaches
    smith_normal_form through the globals of its module."""
    _, spans = run(["zvk", "degtyarev-table1", "--simplify"], True, tmp_path)
    assert any(s[0] == "fpgroups.tietze_simplify" for s in spans)
    _, spans = run(["abelianize", "--preset", "degtyarev-affine"], True, tmp_path)
    top = [i for i, s in enumerate(spans) if s[0] == "abelian.abelianization"]
    assert any(s[0] == "abelian.smith_normal_form" and s[3] in top for s in spans)


def test_timed_child_matches_python_m_and_reports_its_own_rss(tmp_path,
                                                               monkeypatch):
    """The timed child runs meridian.cli as ``python -m`` does; its peak RSS
    is that of its own image, not the driver's."""
    argv = ["obstruct", "--finite", "320", "--ab", "Z/5"]
    plain, _ = run(argv, False, tmp_path)
    monkeypatch.chdir(ROOT)
    runner = bench.Runner(0.0, tmp_path)
    ballast = bytearray(200 * 2 ** 20)     # lifts the driver's peak RSS
    res = runner.run([*runner.cli, *argv])
    del ballast
    assert (res["exit"], res["stdout"], res["stderr"]) == \
        (plain.returncode, plain.stdout, plain.stderr)
    assert 0 < res["rss_mb"] < 200
    assert runner.scale(res) > 0 and res["wall"] > 0


def test_tracer_reports_its_own_cost(tmp_path):
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans),
                    "lcs", "--class", "3", "--preset", "genus2"],
                   capture_output=True, env=bench.child_env(), cwd=ROOT,
                   timeout=120, check=True)
    doc = json.loads(spans.read_text())
    assert doc["spans"] and 0 < doc["overhead_s"] < doc["own_s"] + 0.1
