import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import meridian.abelian
import meridian.braids
import meridian.charvar
import meridian.cosets
import meridian.curves
import meridian.nilpotent
from meridian import cli
from meridian.braids import parse_monodromy, zvk_presentation
from meridian.cli import preset_text
from meridian.cosets import SubgroupSpec, reidemeister_schreier, todd_coxeter
from meridian.fpgroups import parse_presentation, print_presentation, tietze_simplify

from conftest import DENSE_11X7

MODULE = [sys.executable, "-m", "meridian.cli"]
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
INPUTS = GOLDEN.parent / "inputs"
README = GOLDEN.parent.parent / "README.md"
TEST_GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(MODULE + list(args), capture_output=True,
                          text=True, env=env)


def count_calls(monkeypatch, function, position=0) -> list:
    """The argument at ``position`` (the first by default) of every call to a
    meridian function, however it was imported, for the rest of the test."""
    calls = []

    def counted(*args):
        calls.append(args[position])
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("meridian") and \
                getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def test_import_loads_every_layer_and_no_dataclasses():
    # perfbench's tracer finds each layer module in sys.modules after this
    # one import; dataclasses (and the inspect it loads) cost start-up time
    code = ("import sys; before = set(sys.modules); import meridian.cli;"
            " print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0
    loaded = set(out.stdout.split())
    layers = {f"meridian.{name}" for name in (
        "abelian", "braids", "charvar", "cli", "cosets", "curves", "exactalg",
        "fpgroups", "nilpotent", "orbifold")}
    assert layers <= loaded
    assert not loaded & {"dataclasses", "inspect"}


class TestBasics:
    def test_free2_abelianize(self):
        out = run("abelianize", "--preset", "free2")
        assert out.returncode == 0
        assert out.stdout == "Z^2\n"

    def test_orbifold_source(self):
        out = run("abelianize", "--orbifold", "g=0 k=0 m=2,5,10")
        assert out.stdout == "Z/10\n"

    def test_order_preset(self):
        out = run("order", "--preset", "degtyarev-projective")
        assert out.returncode == 0
        assert out.stdout == "order 320\n"

    def test_zvk(self):
        out = run("zvk", "degtyarev-newbraid", "--simplify")
        assert out.returncode == 0
        assert "gens" in out.stdout and "rel" in out.stdout

    def test_lcs(self):
        out = run("lcs", "--preset", "genus2")
        assert out.stdout.splitlines() == [
            "gamma_1/gamma_2 = Z^4",
            "gamma_2/gamma_3 = Z^5",
            "gamma_3/gamma_4 = Z^16",
        ]

    def test_charvar_orbifold(self):
        out = run("charvar", "--orbifold", "g=0 k=0 m=2,2,5,5")
        lines = out.stdout.splitlines()
        assert "V1 = mu10-primitive" in lines
        assert "V2 = mu10-primitive" in lines
        assert "V3 = {}" in lines

    def test_subgroup(self):
        out = run("subgroup", "--preset", "p1-2-5-10",
                  "--spec", "kernel Z/10 x->5 y->8")
        assert out.returncode == 0
        assert "index 10" in out.stdout
        assert "abelianization Z^4" in out.stdout

    def test_verify_curves(self):
        out = run("verify-curves")
        assert out.returncode == 0
        assert out.stdout.count("PASS") == 4
        assert "FAIL" not in out.stdout

    def test_verify_curves_json_is_pinned(self, capsys):
        assert cli.main(["--json", "verify-curves"]) == 0
        out = capsys.readouterr().out
        assert '"detail": "c = -256"' in out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "1960911af898e1d72b7faa70fc28fba54011e0efd6f9e2095a0fee2fbfa54076"

    def test_charvar_xt_preset(self):
        out = run("charvar", "--preset", "degtyarev-affine-xt")
        assert "V1 = {1} u mu10-primitive" in out.stdout.splitlines()

    def test_center(self):
        out = run("center", "--preset", "degtyarev-projective")
        assert out.stdout == "order 320\ncenter of order 4: Z/2 x Z/2\n"


class TestExitCodes:
    def test_negative_answer_is_exit_one(self):
        out = run("homs", "--preset", "c-2-3", "--target", "cyclic-5")
        assert out.returncode == 1

    def test_positive_answer_is_exit_zero(self):
        out = run("homs", "--preset", "degtyarev-affine",
                  "--target", "dihedral-10")
        assert out.returncode == 0
        assert "20" in out.stdout.splitlines()[0]

    def test_input_error_is_exit_two(self):
        out = run("abelianize", "/nonexistent/file.grp")
        assert out.returncode == 2
        out = run("order")  # no source given
        assert out.returncode == 2

    def test_resource_limit_is_exit_three(self):
        out = run("order", "--preset", "free2", "--max-cosets", "100")
        assert out.returncode == 3

    def test_cap_counts_table_rows(self):
        # the order-320 group needs 461 rows of the table of <x*y>, and the
        # cap must also hold its 320 elements
        out = run("order", "--preset", "degtyarev-projective",
                  "--max-cosets", "5600")
        assert out.returncode == 0
        assert out.stdout == "order 320\n"

    def test_homs_search_cap_is_exit_three(self):
        out = run("homs", "--preset", "degtyarev-affine",
                  "--target", "degtyarev-320", "--cap", "10")
        assert out.returncode == 3
        assert out.stderr.startswith("resource limit: search space")

    @pytest.mark.parametrize("target", ["cyclic-0", "cyclic-x", "dihedral-3"])
    def test_bad_target_order_is_exit_two(self, target):
        out = run("homs", "--preset", "c-2-3", "--target", target)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr

    def test_homs_limit(self):
        spec = ("homs", "--preset", "degtyarev-projective", "--target",
                "cyclic-5")
        out = run(*spec, "--limit", "-1")
        assert out.returncode == 2
        assert out.stderr == "error: --limit must be at least 0\n"
        out = run(*spec, "--limit", "0")
        assert out.returncode == 0
        assert out.stdout == "epimorphisms onto cyclic-5 (order 5): 4\n"

    def test_negative_tietze_budget_is_exit_two(self):
        out = run("subgroup", "--preset", "p1-2-5-10",
                  "--spec", "kernel Z/10 x->5 y->8", "--tietze-budget", "-1")
        assert out.returncode == 2

    def test_tietze_budget_stop_is_noted(self):
        spec = ("subgroup", "--preset", "degtyarev-affine",
                "--spec", "kernel Z/4 x->1 y->1")
        pres = parse_presentation(preset_text("degtyarev-affine", ".grp"))
        table = todd_coxeter(pres, SubgroupSpec.kernel_of((4,), [(1,), (1,)]))
        for budget, note in (("3", True), ("20000", False)):
            out = run(*spec, "--tietze-budget", budget)
            sub = reidemeister_schreier(pres, table, int(budget)).presentation
            assert out.returncode == 0
            assert out.stdout.splitlines()[1:-1] == \
                print_presentation(sub).splitlines()
            assert out.stderr == (
                f"note: Tietze simplification stopped at --tietze-budget"
                f" {budget} after {budget} moves; more moves were available\n"
                if note else "")

    def test_spec_outside_kernel_is_refused_before_the_walk(self):
        # the target has 10^8 elements; walking it first would take minutes
        start = time.perf_counter()
        out = run("subgroup", "--preset", "degtyarev-affine",
                  "--spec", "kernel Z/100000000 x->1 y->2")
        elapsed = time.perf_counter() - start
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("error: relator x*y*x*y*x*y^-1*x^-1*y^-1*x^-1*y^-1"
                              " maps outside the kernel\n")
        assert elapsed < 2

    def test_kernel_cap_is_exit_three(self):
        spec = ("order", "--preset", "degtyarev-affine", "--subgroup")
        out = run(*spec, "kernel Z/1000 x->1 y->1", "--max-cosets", "10")
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr == \
            "resource limit: coset enumeration exceeded 10 cosets\n"
        # the 10^8 elements of the target are counted, not walked
        start = time.perf_counter()
        out = run(*spec, "kernel Z/100000000 x->1 y->1")
        elapsed = time.perf_counter() - start
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr == \
            "resource limit: coset enumeration exceeded 1000000 cosets\n"
        assert elapsed < 2

    @pytest.mark.parametrize("args,message", [
        (("order", "--preset", "degtyarev-projective", "--max-cosets", "0"),
         "--max-cosets must be at least 1"),
        (("obstruct", "--finite", "0"), "--finite must be at least 1"),
        (("obstruct", "--finite", "-4"), "--finite must be at least 1"),
        (("homs", "--preset", "free2", "--target", "cyclic-2", "--cap", "-1"),
         "--cap must be at least 0"),
        (("order", "--preset", "c-2-3", "--subgroup", "kernel Z/0 x->1"),
         "kernel target moduli must be at least 1"),
        (("obstruct", "--finite", "12", "--ab", "Z/0"),
         "abelian group 'Z/0': ranks must be at least 0 and orders at least 1"),
        (("obstruct", "--finite", "12", "--ab", "Z^-1"),
         "abelian group 'Z^-1': ranks must be at least 0 and orders at least 1"),
    ])
    def test_out_of_range_numbers_are_exit_two(self, args, message):
        out = run(*args)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["charvar", "obstruct"])
    @pytest.mark.parametrize("preset,ab", [("free2", "Z^2"), ("genus2", "Z^4")])
    def test_unsupported_abelianization_is_named(self, command, preset, ab):
        out = run(command, "--preset", preset)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == (f"error: abelianization {ab}: characteristic"
                              " varieties need a finite abelianization or Z\n")

    @pytest.mark.parametrize("typed,canonical", [
        ("Z/2 x Z/2 x Z/3", "Z/6 x Z/2"),
        ("Z/1 x Z/5", "Z/5"),
    ])
    def test_typed_factors_reduce_to_invariant_factors(self, typed, canonical):
        first = run("obstruct", "--finite", "12", "--ab", typed)
        second = run("obstruct", "--finite", "12", "--ab", canonical)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout

    def test_obstruct_negative(self):
        out = run("obstruct", "--finite", "320", "--ab", "Z/5")
        assert out.returncode == 1
        out = run("obstruct", "--finite", "12", "--ab", "Z/4")
        assert out.returncode == 0
        assert "(2,2,3) order 6: survives" in out.stdout


class TestSubgroupSpecWords:
    """Subgroup generators are freely reduced words, never cyclically
    reduced: y*x*y^-1 is a conjugate of x, not x itself."""

    def test_conjugate_generator_in_s3(self, tmp_path):
        path = tmp_path / "s3.grp"
        path.write_text("gens x y; rel x^2; rel y^3; rel (x*y)^2;\n")
        out = run("order", str(path), "--subgroup", "gens y*x*y^-1 x")
        assert out.returncode == 0
        assert out.stdout == "index 1\n"

    def test_conjugate_generator_in_affine_group(self):
        out = run("subgroup", "--preset", "degtyarev-affine",
                  "--spec", "gens x*y*x^-1 y")
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "index 1"

    def test_bad_word_is_exit_two(self):
        out = run("order", "--preset", "c-2-3", "--subgroup", "gens x*z")
        assert out.returncode == 2
        assert out.stderr == "error: 1:3: undeclared generator 'z'\n"

    @pytest.mark.parametrize("spec,index", [
        ("gens [x, y]", 2), ("gens [x,y]", 2), ("gens x*y  y^2", 1),
    ])
    def test_words_may_contain_spaces(self, tmp_path, spec, index):
        path = tmp_path / "s3.grp"
        path.write_text("gens x y; rel x^2; rel y^3; rel (x*y)^2;\n")
        out = run("order", str(path), "--subgroup", spec)
        assert out.returncode == 0
        assert out.stdout == f"index {index}\n"


class TestMalformedInputMessages:
    """Malformed numbers and statements are reported in the program's own
    words, never as Python's int() or unpacking errors."""

    def check(self, out, message):
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"error: {message}\n"
        assert "invalid literal" not in out.stderr
        assert "unpack" not in out.stderr

    def test_braid_statement_without_colon(self, tmp_path):
        path = tmp_path / "bad.braid"
        path.write_text("strands 3;\npath a s1;\n")
        self.check(run("zvk", str(path)), "2:1: expected 'path <name>: ...'")

    def test_kernel_modulus(self):
        self.check(run("order", "--preset", "c-2-3",
                       "--subgroup", "kernel Z/x x->1"),
                   "expected an integer in 'Z/x'")

    def test_finite_abelianization(self):
        self.check(run("obstruct", "--finite", "320", "--ab", "Z/x"),
                   "expected an integer in 'Z/x'")

    def test_orbifold_multiplicity(self):
        self.check(run("charvar", "--orbifold", "g=0 k=0 m=2,x"),
                   "expected integers in signature field 'm=2,x'")


class TestInputBoundary:
    """Exit code 2 means bad input: an InputError or an unreadable file.
    Any other exception is a fault of the program and is not caught."""

    BAD_FILES = {
        "bad.braid": b"strands 3;\npath a: s1;\ncompose m: a * b;\n",
        "latin1.grp": b"gens x; rel x^2; # \xe9\xff\n",
        "zero.braid": b"strands 0;\n",
        "affine.braid": b"strands 3;\nbraid a: s1^3;\nbraid b: s2^2;\n",
        # P1(2,5,10) x Z/10: it maps onto P1(2,5,10), and its
        # abelianization Z/10 x Z/10 has more than one map onto Z/10
        "p1x10.grp": b"gens a b c z; rel a^2; rel b^5; rel c^10; rel a*b*c;"
                     b" rel z^10; rel [z,a]; rel [z,b]; rel [z,c];\n",
    }
    NO_INFINITY = ("the monodromy has no 'infinity:' line, and the projective"
                   " group needs the infinity meridian")

    @pytest.mark.parametrize("args,message", [
        (("obstruct", "--preset", "c-2-3"),
         "expected abelianization Z (or finite of exponent divisible by 10)"),
        (("obstruct", "--preset", "degtyarev-projective"),
         "expected abelianization Z (or finite of exponent divisible by 10)"),
        (("obstruct", "--finite", "12", "--ab", "Z"),
         "expected a finite abelianization"),
        (("abelianize", "--orbifold", "g=-1"),
         "genus and puncture count must be nonnegative"),
        (("abelianize", "--orbifold", "q=1"), "unknown signature field 'q'"),
        (("abelianize", "--orbifold", "m=1"),
         "orbifold multiplicities must be at least 2"),
        (("zvk", "bad.braid"), "3:16: unknown path name 'b'"),
        (("abelianize", "latin1.grp"), "'utf-8' codec can't decode byte 0xe9"
         " in position 19: invalid continuation byte"),
        (("zvk", "zero.braid"), "1:1: a braid needs at least one strand"),
        (("zvk", "affine.braid", "--projective"), NO_INFINITY),
        (("pipeline", "--preset", "affine.braid"), NO_INFINITY),
        (("obstruct", "p1x10.grp"),
         "abelianization Z/10 x Z/10 is not cyclic: its maps onto Z/10 are"
         " not unique, and only Z or a cyclic Z/N with 10 | N is supported"),
    ])
    def test_bad_input_is_exit_two(self, tmp_path, args, message):
        for name, data in self.BAD_FILES.items():
            (tmp_path / name).write_bytes(data)
        out = run(*(str(tmp_path / a) if a in self.BAD_FILES else a
                    for a in args))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"error: {message}\n"

    def test_affine_zvk_needs_no_infinity_line(self, tmp_path):
        path = tmp_path / "affine.braid"
        path.write_bytes(self.BAD_FILES["affine.braid"])
        out = run("zvk", str(path))
        assert out.returncode == 0
        assert out.stdout == ("gens g1 g2 g3;\nrel g2*g1*g2*g1^-1*g2^-1*g1^-1;\n"
                              "rel g3*g2*g3^-1*g2^-1;\n")

    @pytest.mark.parametrize("args,message", [
        (("order", "--orbifold", "g=0 k=0 m=2,3,5", "--preset", "free2"),
         "argument --preset: not allowed with argument --orbifold"),
        (("abelianize", "--preset", "c-2-3", "other.grp"),
         "argument file: not allowed with argument --preset"),
        (("lcs", "other.grp", "--orbifold", "g=0 k=0 m=2,5,10"),
         "argument --orbifold: not allowed with argument file"),
    ])
    def test_two_presentation_sources_are_exit_two(self, args, message):
        # one source is used, and a second one is not silently dropped
        out = run(*args)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.endswith(f": error: {message}\n")

    @pytest.mark.parametrize("fault",[ValueError, KeyError, ZeroDivisionError])
    def test_internal_faults_are_not_input_errors(self, monkeypatch, capsys,
                                                  fault):
        def broken(pres):
            raise fault("internal")

        monkeypatch.setattr(cli, "characteristic_variety", broken)
        assert cli.main(["charvar", "--preset", "c-2-3"]) == 70
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith(f"{fault.__name__}: {fault('internal')}\n")


class TestRankOneCharvar:
    @pytest.mark.parametrize("text,v1", [
        ("gens x1 x2 x3; rel x3 = x2*x1*x2^-1; rel x1 = x3*x2*x3^-1;"
         " rel x2 = x1*x3*x1^-1;", "{1} u mu6-primitive"),
        ("gens g1 g2 g3; rel g2^-1*g1*g2*g3^-1*g2^-1;"
         " rel g3*g2*g1^-1*g2^-1*g1^-1*g2;", "{1} u roots of x^2 - x - 1"),
        ("gens g1 g2 g3 g4; rel g4*g3; rel g4^-2*g2^-1*g1^-1;"
         " rel g3*g2*g1*g2*g4;", "{1}"),
    ])
    def test_strata(self, tmp_path, text, v1):
        path = tmp_path / "g.grp"
        path.write_text(text + "\n")
        out = run("charvar", str(path))
        assert out.returncode == 0
        assert out.stdout == f"character torus: C*\nV1 = {v1}\nV2 = {{}}\n"

    def test_listing_is_an_invariant_of_the_group(self, tmp_path):
        # two presentations of Z: strata are listed up to the first empty
        # one, whatever the number of generators
        outputs = []
        for name, text in (("one.grp", "gens x;\n"),
                           ("two.grp", "gens x y; rel x*y^-1;\n")):
            path = tmp_path / name
            path.write_text(text)
            outputs.append([run(*flag, "charvar", str(path))
                            for flag in ((), ("--json",))])
        for text, doc in outputs:
            assert (text.returncode, doc.returncode) == (0, 0)
            assert text.stdout == "character torus: C*\nV1 = {1}\nV2 = {}\n"
        assert outputs[0][1].stdout == outputs[1][1].stdout
        assert set(json.loads(outputs[0][1].stdout)["strata"]) == {"1", "2"}


def torus_knot_orders(p, q):
    """N with mu_N-primitive roots in V1 of the torus knot T(p, q), p and q
    coprime: the roots of its Alexander polynomial
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    return {n for n in range(2, p * q + 1)
            if p * q % n == 0 and p % n and q % n}


class TestTorusKnotsBeyondOrder200:
    """Torus knots T(p, q) with pq > 200, whose V1 is mu_pq-primitive and
    more; a cap on N once left those roots in an unfactored residual."""

    def write_knot(self, tmp_path, p, q):
        path = tmp_path / f"torus-{p}-{q}.grp"
        path.write_text(f"gens x y;\nrel x^{p} = y^{q};\n")
        return str(path)

    def test_t_11_19_text(self, tmp_path):
        out = run("charvar", self.write_knot(tmp_path, 11, 19))
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert "V1 = {1} u mu209-primitive" in lines
        assert "V2 = {}" in lines

    @pytest.mark.parametrize("p,q", [(7, 31), (13, 17), (11, 23)])
    def test_json_strata_match_closed_form(self, tmp_path, p, q):
        out = run("--json", "charvar", self.write_knot(tmp_path, p, q))
        assert out.returncode == 0
        strata = json.loads(out.stdout)["strata"]
        assert strata["1"]["cyclotomic"] == {
            str(n): 1 for n in torus_knot_orders(p, q)}
        assert strata["1"]["residual"] == "1"
        assert strata["2"]["cyclotomic"] == {}
        assert strata["2"]["residual"] == "1"

class TestTorusBraids:
    """The braid (s1*...*s(p-1))^q is the monodromy of y^p = x^q; its ZvK
    group is the T(p, q) torus-knot group, whose V1 away from 1 is the
    primitive N-th roots of unity with N | pq dividing neither p nor q."""

    @pytest.mark.parametrize("p,q", [(5, 19), (6, 25), (7, 29), (9, 20),
                                     (11, 19)])
    def test_zvk_then_charvar_matches_closed_form(self, tmp_path, capsys,
                                                  p, q):
        braid = tmp_path / "torus.braid"
        word = "*".join(f"s{i}" for i in range(1, p))
        braid.write_text(f"strands {p};\nbraid b: ({word})^{q};\n")
        assert cli.main(["zvk", "--simplify", str(braid)]) == 0
        grp = tmp_path / "torus.grp"
        grp.write_text(capsys.readouterr().out)
        assert cli.main(["charvar", str(grp)]) == 0
        v1 = " u ".join(["{1}"] + [f"mu{n}-primitive"
                                   for n in sorted(torus_knot_orders(p, q))])
        assert capsys.readouterr().out == \
            f"character torus: C*\nV1 = {v1}\nV2 = {{}}\n"


class TestDeterminismAndJson:
    @pytest.mark.parametrize("args", [
        ("pipeline", "--preset", "degtyarev"),
        ("charvar", "--preset", "degtyarev-affine"),
        ("homs", "--preset", "degtyarev-affine", "--target", "dihedral-10"),
        ("obstruct", "--finite", "12", "--ab", "Z/4"),
    ])
    def test_byte_identical_reruns(self, args):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    @pytest.mark.parametrize("args", [
        ("pipeline", "--preset", "degtyarev"),
        ("--json", "pipeline", "--preset", "degtyarev"),
        ("homs", "--preset", "degtyarev-affine", "--target", "degtyarev-320"),
        ("lcs", "--class", "3", str(INPUTS / "kernel-6.grp")),
        ("subgroup", "--preset", "degtyarev-affine",
         "--spec", "kernel Z/11 x->1 y->1"),
    ])
    def test_stdout_independent_of_hash_seed(self, args):
        outs = [subprocess.run(MODULE + list(args), capture_output=True,
                               env={**os.environ, "PYTHONHASHSEED": seed})
                for seed in ("0", "1")]
        assert [out.returncode for out in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout

    def test_json_documents(self):
        out = run("--json", "abelianize", "--preset", "degtyarev-projective")
        doc = json.loads(out.stdout)
        assert doc["schema"] == 1
        assert doc["display"] == "Z/5"
        out = run("--json", "pipeline", "--preset", "degtyarev")
        doc = json.loads(out.stdout)
        assert doc["schema"] == 1
        assert doc["projective_order"] == 320
        assert doc["meridian5_order"] == 320
        assert doc["center"] == "Z/2 x Z/2"
        assert doc["obstruction"] == "no-surjection"

    def test_pipeline_text(self):
        out = run("pipeline", "--preset", "degtyarev")
        assert out.returncode == 0
        text = out.stdout
        assert "abelianization: Z" in text
        assert "projective quotient (infinity meridian added): order 320" in text
        assert "meridian^5 quotient: order 320" in text
        assert "center: order 4, Z/2 x Z/2" in text
        assert "V1 = {1} u mu10-primitive" in text
        assert "V2 = {}" in text
        assert "infinite-orbifold obstruction: no-surjection" in text
        assert "finite-orbifold obstruction for the projective group: no-target" in text

    @pytest.mark.parametrize("args,golden", [
        (("pipeline", "--preset", "degtyarev"), "pipeline-text.out"),
        (("--json", "pipeline", "--preset", "degtyarev"), "pipeline-json.out"),
        (("center", "--preset", "degtyarev-projective"),
         "center-projective.out"),
        (("homs", "--preset", "degtyarev-affine", "--target", "degtyarev-320"),
         "homs-320.out"),
        *((("subgroup", "--preset", "degtyarev-affine",
            "--spec", f"kernel Z/{n} x->1 y->1"), f"kernel-{n}.out")
          for n in range(8, 13)),
        (("subgroup", "--preset", "p1-2-5-10", "--spec", "kernel Z/10 x->5 y->8"),
         "kernel-p1-2-5-10.out"),
        (("verify-curves",), "verify-curves.out"),
    ])
    def test_pipeline_matches_golden(self, args, golden):
        out = subprocess.run(MODULE + list(args), capture_output=True)
        assert out.returncode == 0
        assert out.stdout == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("json_flag,golden", [
        ((), "obstruct-degtyarev-affine.out"),
        (("--json",), "obstruct-degtyarev-affine-json.out"),
    ])
    def test_obstruct_matches_golden(self, json_flag, golden):
        # the kernel-evidence lines are the class-3 LCS of the index-10 kernel
        out = subprocess.run(
            MODULE + [*json_flag, "obstruct", "--preset", "degtyarev-affine"],
            capture_output=True)
        assert (out.returncode, out.stderr) == (1, b"")
        assert out.stdout == (TEST_GOLDEN / golden).read_bytes()

    def test_obstruct_on_cyclic_finite_abelianization(self):
        # P1(2,5,10) itself, abelianization Z/10: not excluded
        out = subprocess.run(MODULE + ["obstruct", "--preset", "p1-2-5-10"],
                             capture_output=True)
        assert (out.returncode, out.stderr) == (0, b"")
        assert out.stdout == \
            (TEST_GOLDEN / "obstruct-p1-2-5-10.out").read_bytes()

    @pytest.mark.parametrize("argv,ranks", [
        # affine, projective and meridian^5; the index-10 kernel of the
        # infinite-orbifold obstruction reaches d(H1) by eliminations
        (["pipeline", "--preset", "degtyarev"], [3, 3, 3]),
        # no letter is isolated, and rank 4 = d(Z^4)
        (["lcs", "--class", "3", "--preset", "genus2"], []),
    ])
    def test_tietze_calls(self, monkeypatch, capsys, argv, ranks):
        simplified = count_calls(monkeypatch, tietze_simplify)
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert [pres.rank for pres in simplified] == ranks

    @pytest.mark.parametrize("kernel", ["kernel-4", "kernel-6"])
    def test_raw_kernel_lcs_matches_golden(self, kernel):
        out = subprocess.run(
            MODULE + ["lcs", "--class", "3", str(INPUTS / f"{kernel}.grp")],
            capture_output=True)
        assert out.returncode == 0
        assert out.stdout == (GOLDEN / f"lcs-raw-{kernel}.out").read_bytes()

    def test_pipeline_computes_rank_one_variety_once(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, meridian.charvar.charvar_rank_one)
        assert cli.main(["pipeline", "--preset", "degtyarev"]) == 0
        assert "infinite-orbifold obstruction: no-surjection" in \
            capsys.readouterr().out
        assert len(calls) == 1

    def test_verify_curves_builds_presets_once(self, monkeypatch, capsys):
        calls = []
        build = meridian.curves.curve_presets

        def counted():
            calls.append(None)
            return build()

        monkeypatch.setattr(meridian.curves, "curve_presets", counted)
        assert cli.main(["verify-curves"]) == 0
        assert capsys.readouterr().out == \
            (GOLDEN / "verify-curves.out").read_text()
        assert len(calls) == 1

    @pytest.mark.parametrize("argv,code,count", [
        (["charvar", "--preset", "degtyarev-projective"], 0, 1),
        (["charvar", "--preset", "degtyarev-affine"], 0, 1),
        (["obstruct", "--preset", "degtyarev-affine"], 1, 1),
        (["pipeline", "--preset", "degtyarev"], 0, 1),
        (["subgroup", "--preset", "p1-2-5-10",
          "--spec", "kernel Z/10 x->5 y->8"], 0, 0),
        (["obstruct", "--finite", "320", "--ab", "Z/5"], 1, 0),
    ])
    def test_each_presentation_abelianized_once(self, monkeypatch, capsys,
                                                argv, code, count):
        calls = count_calls(monkeypatch, meridian.abelian.abelianization)
        assert cli.main(argv) == code
        assert capsys.readouterr().err == ""
        assert len(calls) == len(set(calls)) == count

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--preset", "degtyarev"],
        ["center", "--preset", "degtyarev-projective"],
        ["homs", "--preset", "degtyarev-affine", "--target", "degtyarev-320"],
    ])
    def test_finite_groups_enumerate_a_cyclic_subgroup(self, monkeypatch,
                                                       capsys, argv):
        # the trivial subgroup is enumerated through <g1*...*gn>, never alone
        words = count_calls(monkeypatch, meridian.cosets._felsch, 2)
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert words and all(words)

    def test_pipeline_builds_one_zvk_presentation(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, meridian.braids.zvk_presentation)
        assert cli.main(["pipeline", "--preset", "degtyarev"]) == 0
        assert "order 320" in capsys.readouterr().out
        assert len(calls) == 1

    def test_pipeline_notes_tietze_budget_stops(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "tietze_simplify",
                            lambda pres, budget=10000: tietze_simplify(pres, 1))
        assert cli.main(["pipeline", "--preset", "degtyarev"]) == 0
        out, err = capsys.readouterr()
        assert err == "".join(
            f"note: Tietze simplification of the {name} presentation stopped"
            f" at its budget after 1 moves; more moves were available\n"
            for name in ("affine", "projective", "meridian^5"))
        assert "order 320" in out and "note" not in out

    @pytest.mark.parametrize("preset", [
        "degtyarev-projective", "p1-2-5-10", "p1-2-2-5-5", "c-2-3"])
    def test_finite_torus_builds_fox_matrix_once(self, monkeypatch, capsys,
                                                 preset):
        calls = count_calls(monkeypatch, meridian.charvar.fox_matrix)
        assert cli.main(["charvar", "--preset", preset]) == 0
        assert capsys.readouterr().out.startswith("character torus: Z/")
        assert len(calls) == 1

    @pytest.mark.parametrize("monodromy", ["degtyarev-table1",
                                           "degtyarev-newbraid"])
    def test_zvk_simplify_notes_tietze_budget_stop(self, monkeypatch, capsys,
                                                   monodromy):
        argv = ["zvk", monodromy, "--simplify"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(cli, "tietze_simplify",
                            lambda pres, budget=10000: tietze_simplify(pres, 1))
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ("note: Tietze simplification of the zvk presentation"
                       " stopped at its budget after 1 moves; more moves were"
                       " available\n")
        mono = parse_monodromy(preset_text(monodromy, ".braid"))
        raw = zvk_presentation(mono.strands, mono.braids, "block")
        assert out == print_presentation(tietze_simplify(raw, 1).presentation)

    def test_lcs_notes_tietze_budget_stop(self, monkeypatch, capsys):
        # the graded quotients are group invariants, so a simplification cut
        # short still gives the raw presentation's answer
        monkeypatch.setattr(cli, "tietze_simplify",
                            lambda pres, budget=10000: tietze_simplify(pres, 1))
        argv = ["lcs", "--class", "3", str(INPUTS / "kernel-6.grp")]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ("note: Tietze simplification of the lcs presentation"
                       " stopped at its budget after 1 moves; more moves were"
                       " available\n")
        assert out == (GOLDEN / "lcs-raw-kernel-6.out").read_text()

    def test_lcs_simplifies_once_and_computes_once(self, monkeypatch, capsys):
        simplified = count_calls(monkeypatch, tietze_simplify)
        graded = count_calls(monkeypatch, meridian.nilpotent.lcs_quotients)
        argv = ["lcs", "--class", "3", str(INPUTS / "kernel-4.grp")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(simplified) == 1
        assert graded == [tietze_simplify(simplified[0]).presentation]
        assert graded[0].rank < simplified[0].rank

    def test_pipeline_on_table1(self):
        out = run("pipeline", "--preset", "degtyarev-table1")
        assert out.returncode == 0
        assert "projective quotient (infinity meridian added): order 320" in out.stdout


class TestPipelineOnMonodromyFiles:
    """`pipeline --preset FILE` agrees with the subcommands run one by one:
    the projective abelianization and the finite-orbifold verdict are those
    of the projective group, whose order the pipeline prints."""

    FILES = {
        # the meridian^5 quotient has abelianization Z/5, the projective one
        # Z/6 and (2,2,3) survives there
        "six-lines": "strands 6;\nbraid a: s1;\nbraid b: s2;\nbraid c: s3;\n"
                     "braid d: s4;\nbraid e: s5;\n"
                     "infinity: (g6*g5*g4*g3*g2*g1)^-1;\n",
        "conic": "strands 2;\nbraid a: s1;\nbraid b: s1;\n"
                 "infinity: (g2*g1)^-1;\n",
    }

    @staticmethod
    def output(capsys, *argv):
        cli.main(list(argv))
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def projective_group(self, capsys, tmp_path, name):
        braid = tmp_path / f"{name}.braid"
        braid.write_text(self.FILES[name])
        grp = tmp_path / f"{name}.grp"
        grp.write_text(self.output(capsys, "zvk", str(braid), "--projective"))
        return str(braid), str(grp)

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_text(self, capsys, tmp_path, name):
        braid, grp = self.projective_group(capsys, tmp_path, name)
        ab = self.output(capsys, "abelianize", grp).strip()
        lines = self.output(capsys, "pipeline", "--preset", braid).splitlines()
        order = [line.split()[-1] for line in lines
                 if line.startswith("projective quotient")]
        assert f"projective abelianization: {ab}" in lines
        verdict = self.output(capsys, "obstruct", "--finite", *order,
                              "--ab", ab).splitlines()[0]
        assert verdict.replace("verdict:", "finite-orbifold obstruction for"
                               " the projective group:") == lines[-1]

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_json(self, capsys, tmp_path, name):
        braid, grp = self.projective_group(capsys, tmp_path, name)
        ab = json.loads(self.output(capsys, "--json", "abelianize", grp))
        doc = json.loads(self.output(capsys, "--json", "pipeline",
                                     "--preset", braid))
        assert doc["projective_abelianization"] == ab["display"]
        finite = json.loads(self.output(
            capsys, "--json", "obstruct", "--finite",
            str(doc["projective_order"]), "--ab", ab["display"]))
        assert doc["finite_obstruction"] == finite["verdict"]


class TestLcsOfDenseRelators:
    """Trivial groups whose exponent matrices have large integer kernel
    vectors: the class-3 quotients arrive, and all three are trivial."""

    FIVE_GENERATORS = """gens g1 g2 g3 g4 g5;
rel g1^4*g4*g3^3*g5^-2;
rel g1*g4^3*g5^4*g4^3*g2^-3;
rel g5^-3*g2^-4*g5^-3*g1^3*g4^3;
rel g4^3*g3^2*g1^2*g5^2*g2^-2;
rel g4^-3*g5^-4*g2^3*g3^-3*g2^-3*g3^-2;
rel g3^4*g2^-2*g4^3*g1^-4*g4^-4;
rel g4^-2*g2^2*g3^2*g1^3*g2^-1*g1^3;
rel g2^-1*g3^4*g4^2*g1*g5^-3;
"""
    # relator i is a1^m[i][0] * ... * a7^m[i][6]
    DENSE_11X7_TEXT = "gens a1 a2 a3 a4 a5 a6 a7;\n" + "".join(
        "rel " + "*".join(f"a{j}^{e}" for j, e in enumerate(row, 1) if e)
        + ";\n" for row in DENSE_11X7)

    @pytest.mark.parametrize("text", [FIVE_GENERATORS, DENSE_11X7_TEXT],
                             ids=["five-generators", "dense-11x7"])
    def test_class_three_is_trivial(self, tmp_path, text):
        path = tmp_path / "dense.grp"
        path.write_text(text)
        out = run("lcs", "--class", "3", str(path))
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == ("gamma_1/gamma_2 = 1\ngamma_2/gamma_3 = 1\n"
                              "gamma_3/gamma_4 = 1\n")


# stdout of `zvk` on both monodromy presets under every option, pinned byte
# for byte: the simplified text literally, the rest by its sha256 digest
SIMPLIFIED_NEWBRAID = (
    'gens g1 g3;\n'
    'rel g3*g1*g3^-1*g1*g3*g1*g3^-1*g1*g3*g1*g3^-1*g1^-1*g3*g1^-1*g3^-1*g1^-1*g3*g1^-1*g3^-1*g1^-1;\n'
    'rel g3*g1*g3*g1*g3*g1^-1*g3^-1*g1^-1*g3^-1*g1^-1;\n')
SIMPLIFIED_NEWBRAID_PROJECTIVE_NONE = (
    'gens g1 g3;\n'
    'rel g3*g1*g3^-1*g1*g3*g1*g3^-1*g1*g3;\n'
    'rel g3*g1^-1*g3^-2*g1*g3^-1*g1^-1*g3*g1^-2*g3*g1*g3^-1*g1*g3^-1*g1*g3*g1^-1*g3*g1^-1*g3*g1;\n'
    'rel g3^-1*g1*g3^-1*g1^-1*g3^2*g1*g3*g1*g3^-2*g1*g3^-1*g1^-1*g3*g1^-1;\n'
    'rel g3*g1*g3*g1*g3*g1^-1*g3^-1*g1^-1*g3^-1*g1^-1;\n')
SIMPLIFIED_NEWBRAID_PROJECTIVE_BLOCK = (
    'gens g1 g3;\n'
    'rel g3*g1*g3^-1*g1*g3*g1*g3^-1*g1*g3;\n'
    'rel g3^-1*g1*g3^-1*g1^-1*g3^2*g1*g3*g1*g3^-2*g1*g3^-1*g1^-1*g3*g1^-1;\n'
    'rel g3*g1*g3*g1*g3*g1^-1*g3^-1*g1^-1*g3^-1*g1^-1;\n')
SIMPLIFIED_TABLE1 = (
    'gens g1 g2 g3;\n'
    'rel g3*g2*g3*g2*g3*g2^-1*g3^-1*g2^-1*g3^-1*g2^-1;\n'
    'rel g2^-1*g3^-1*g2*g3*g2*g1^-1*g3*g2^-1*g3^-1*g1;\n'
    'rel g1^-1*g3*g2*g3^-1*g1*g3*g2*g3^-1*g2^-1*g3^-1;\n'
    'rel g1*g3*g2*g3^-1*g1^-1*g3*g2^-1*g3^-1*g1^-1*g3;\n'
    'rel g3*g2*g1^2*g3*g2*g1*g2^-1*g3^-1*g1^-2*g3*g1^2*g2^-1*g3*g2*g1^-2*g3*g2^-1*g3^-1*g1^-1*g2^-1*g3^-1*g2^-1;\n'
    'rel g2*g1^2*g3*g2*g1*g2^-1*g3^-1*g1^-2*g3*g1^2*g3*g2*g1*g2^-1*g3^-1*g1^-2*g3^-1*g1^2*g2^-1*g3*g2*g1^-2*g3*g2^-1*g3^-1*g1^-1*g2^-1*g3^-1;\n')
SIMPLIFIED_TABLE1_PROJECTIVE = (
    'gens g2 g3;\n'
    'rel g3*g2*g3*g2*g3*g2^-1*g3^-1*g2^-1*g3^-1*g2^-1;\n'
    'rel g3*g2*g3^-1*g2*g3*g2*g3^-1*g2*g3;\n'
    'rel g2*g3^-1*g2*g3^-1*g2^-1*g3*g2^-2*g3*g2*g3^-2*g2^-1*g3^3*g2*g3*g2^-1*g3^-1;\n')
ZVK_STDOUT = {
    'zvk degtyarev-newbraid --reduction none':
        '0bc5ec782aaeef0206424de38f0920e42a828e6af0c817cb3d781f15b2b7aad3',
    '--json zvk degtyarev-newbraid --reduction none':
        '22174c749e22d084544618c843708d229e02b73086f23c4c9c44ee8756020c78',
    'zvk degtyarev-newbraid --reduction none --simplify':
        SIMPLIFIED_NEWBRAID,
    '--json zvk degtyarev-newbraid --reduction none --simplify':
        'be62956fea5f8b44a2286682d93d9685c215c5f4ed9f9c5054109aa443978a59',
    'zvk degtyarev-newbraid --reduction none --projective':
        '192321b531b3b1d056a8efaf7e30755442b73f8cd68c7ec1cb61f0a59ddac0d2',
    '--json zvk degtyarev-newbraid --reduction none --projective':
        '7ac342d88db1127e82db12367f462038b6b1eeb91e862169fe049d75126f758e',
    'zvk degtyarev-newbraid --reduction none --projective --simplify':
        SIMPLIFIED_NEWBRAID_PROJECTIVE_NONE,
    '--json zvk degtyarev-newbraid --reduction none --projective --simplify':
        'ce0aa1f1ffce0416686b93f47a2abcdeec7b7ebdbecf52c731bafa4e9468094e',
    'zvk degtyarev-newbraid --reduction block':
        'd8beb24d8d253e7711f3695408c6bc0218128916bc3af17b77c71d43cf877075',
    '--json zvk degtyarev-newbraid --reduction block':
        '664d1d4f176511d4f2015b02351024438996d6dbee7ef30c2a3123feef733f4f',
    'zvk degtyarev-newbraid --reduction block --simplify':
        SIMPLIFIED_NEWBRAID,
    '--json zvk degtyarev-newbraid --reduction block --simplify':
        'be62956fea5f8b44a2286682d93d9685c215c5f4ed9f9c5054109aa443978a59',
    'zvk degtyarev-newbraid --reduction block --projective':
        'd579fafd1563b25d4780397a68396cfffb7b00a31926a958ad7558afce0e2188',
    '--json zvk degtyarev-newbraid --reduction block --projective':
        '1eed3eedb14f8f28cce652b3b0e1f41f49aba09431338beb5450705a93a7076d',
    'zvk degtyarev-newbraid --reduction block --projective --simplify':
        SIMPLIFIED_NEWBRAID_PROJECTIVE_BLOCK,
    '--json zvk degtyarev-newbraid --reduction block --projective --simplify':
        'af1e1d09f107fc4ded8e61257ced4a44f65a48cb438574b6aa0c9f7b01ef144e',
    'zvk degtyarev-table1 --reduction none':
        '7e34b68114ced1b2c92e32b3482dba2d3bd3bd8013d3e0b4c64e35095f1ec5ae',
    '--json zvk degtyarev-table1 --reduction none':
        'efeb0a46049aaf9f30d62fd5d1b62798398257326bbea34b015fcdf58b8abbea',
    'zvk degtyarev-table1 --reduction none --simplify':
        SIMPLIFIED_TABLE1,
    '--json zvk degtyarev-table1 --reduction none --simplify':
        '7629895c42c2b447f426d88263a630148b83ffa927caf249ab219e1f575a40fb',
    'zvk degtyarev-table1 --reduction none --projective':
        '16fdf58c84808b5696425a864c1d93a9f0338749f3d84636ec4ac6948277c39e',
    '--json zvk degtyarev-table1 --reduction none --projective':
        'e1eaf273f81d723714d10be003a8bf028ff4cff9fd17fe8e328a4a931fd9a76f',
    'zvk degtyarev-table1 --reduction none --projective --simplify':
        SIMPLIFIED_TABLE1_PROJECTIVE,
    '--json zvk degtyarev-table1 --reduction none --projective --simplify':
        'ecbded56ab26ea91c35317319631702dcae9cd7e2b0af93c267c2e0a5d739c94',
    'zvk degtyarev-table1 --reduction block':
        '7e34b68114ced1b2c92e32b3482dba2d3bd3bd8013d3e0b4c64e35095f1ec5ae',
    '--json zvk degtyarev-table1 --reduction block':
        'efeb0a46049aaf9f30d62fd5d1b62798398257326bbea34b015fcdf58b8abbea',
    'zvk degtyarev-table1 --reduction block --simplify':
        SIMPLIFIED_TABLE1,
    '--json zvk degtyarev-table1 --reduction block --simplify':
        '7629895c42c2b447f426d88263a630148b83ffa927caf249ab219e1f575a40fb',
    'zvk degtyarev-table1 --reduction block --projective':
        '16fdf58c84808b5696425a864c1d93a9f0338749f3d84636ec4ac6948277c39e',
    '--json zvk degtyarev-table1 --reduction block --projective':
        'e1eaf273f81d723714d10be003a8bf028ff4cff9fd17fe8e328a4a931fd9a76f',
    'zvk degtyarev-table1 --reduction block --projective --simplify':
        SIMPLIFIED_TABLE1_PROJECTIVE,
    '--json zvk degtyarev-table1 --reduction block --projective --simplify':
        'ecbded56ab26ea91c35317319631702dcae9cd7e2b0af93c267c2e0a5d739c94',
}


@pytest.mark.parametrize("argv", list(ZVK_STDOUT))
def test_zvk_stdout_is_pinned(capsys, argv):
    assert cli.main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    expected = ZVK_STDOUT[argv]
    if expected.startswith("gens"):
        assert out == expected
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == expected


# stdout of kernel-mode subgroup specs that no benchmark golden covers, by
# sha256 digest, text and --json
KERNEL_STDOUT = {
    ("subgroup", "degtyarev-affine", "kernel Z/2 x->1 y->1"): (
        "ad02e71134586c17901acd5849efdfcd3a4e930c8210dbcf94b47f0d39055f99",
        "cded94a44c7c3a0ba6b830dfe2d7d1e505ae7abc5ac619177d4d415ffa832da0"),
    ("subgroup", "degtyarev-affine", "kernel Z/3 x->1 y->1"): (
        "0e4c68eeeed43e61a24997380d22b891e78de7a48473fdaa80e430fd45683203",
        "71c87bb7a61fcbdd3b119639556d532b5831d13b664755d414c407b443c26bc5"),
    ("subgroup", "degtyarev-affine", "kernel Z/4 x->1 y->1"): (
        "aa34493a855c7832d921ed68bc37bc374555c7a2c96653d4bdfaf6ee12ca7da7",
        "0b590dd5b5045b9ccf3b199ac108cc2a4b60eac335b12bbf5636db1150d45e95"),
    ("subgroup", "degtyarev-affine", "kernel Z/5 x->1 y->1"): (
        "85a6d5d1b300240d4dcc1ad549bbc66def416242b6c34e51e9e2a695c1883024",
        "54c4255a38eaa54cdcce74b9022d210af6b4b47ba36037ea3edf058d53124dfa"),
    ("subgroup", "degtyarev-affine", "kernel Z/6 x->1 y->1"): (
        "dec74277819fd1e1430087fddd9dadc4e49e9eb439ef345b83478ccb257f4989",
        "7291952689614c9ffee25f67c6995f90f9ac0d963ea7acdbd2c51257ef73a6b5"),
    ("subgroup", "degtyarev-affine", "kernel Z/7 x->1 y->1"): (
        "182cbc4437cda47beb4dedd0e6e45f030ff955e393c83515e9bce991fb558f29",
        "033a13d65102a79937db0f2abc95c4d6df03fedb8e1da20426c34a1ee74fb638"),
    ("subgroup", "genus2", "kernel Z/2xZ/2 a1->1,0 b1->0,1"): (
        "b4f4116786c2243600258a6cc0f32c2a7aa04227a7e17091f883e2c2c6bbbf81",
        "475b50fbe52f3e11dfc17173f55f490f938c8847c059d4d487105b9a76df4ba3"),
    ("subgroup", "c-2-3", "kernel Z/6 x->3 y->2"): (
        "afb3ba64a9cbde09fc06fd3ce8fcac3e92f2d906612fbb6054c7d43da06867d8",
        "7bd4edebde1baebca614c6e2c91df46c62f632537505332427f16c6a48457fa6"),
    ("order", "free2", "kernel Z/3 x->1 y->2"): (
        "fa902b34e3a20fc1bee37c44ddf7da1b6cb3f0b7bf359c5388ccaca60d610c05",
        "af3521ba9fd67d10d3a3649ff036d517c5c6f28202157bb3a1e3765a55099e7a"),
}


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("command, preset, spec", list(KERNEL_STDOUT))
def test_kernel_stdout_is_pinned(capsys, command, preset, spec, json_flag):
    option = "--spec" if command == "subgroup" else "--subgroup"
    argv = [command, "--preset", preset, option, spec]
    assert cli.main(["--json"] * json_flag + argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        KERNEL_STDOUT[command, preset, spec][json_flag]


def readme_commands() -> list[list[str]]:
    """Arguments of every `meridian ...` line of the README's command-line
    examples."""
    section = README.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("meridian ")]
    assert commands
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_run(capsys, argv):
    assert cli.main(argv) in (0, 1)
    assert capsys.readouterr().err == ""
