"""Acceptance suite: every headline number, one criterion per test.

Each test prints a PASS line once its assertions go through, so running
``pytest tests/test_acceptance.py -v -s`` gives one line per criterion.
"""

import random

import pytest

from meridian.abelian import AbelianGroup, abelianization, characters_of_order_dividing
from meridian.braids import (
    BraidWord,
    artin_action,
    braid_equal,
    compose_path_monodromy,
    parse_monodromy,
    sigma,
    zvk_presentation,
)
from meridian.charvar import (
    characteristic_variety,
    charvar_finite_torus,
    charvar_rank_one,
    fox_derivative,
    twisted_complex,
)
from meridian.cli import preset_text
from meridian.cosets import (
    SubgroupSpec,
    cyclic_table,
    dihedral_table,
    find_epimorphisms,
    regular_rep_and_center,
    reidemeister_schreier,
    todd_coxeter,
)
from meridian.curves import (
    curve_presets,
    degtyarev_discriminant,
    plucker_dual_degree,
    verify_parametrization,
    verify_pencil_identity,
)
from meridian.exactalg import CycloNumber
from meridian.fpgroups import parse_presentation, tietze_simplify
from meridian.nilpotent import free_lie_ranks, lcs_quotients
from meridian.orbifold import (
    OrbifoldSignature,
    classify,
    obstruct_finite,
    obstruct_infinite_rank_one,
    orbifold_presentation,
)
from conftest import check_snf, random_presentation


def bw(*letters):
    return BraidWord(3, letters)


def conj(a, b):
    return a * b * a.inverse()


@pytest.fixture(scope="module")
def table1():
    return parse_monodromy(preset_text("degtyarev-table1", ".braid"))


@pytest.fixture(scope="module")
def newbraid():
    return parse_monodromy(preset_text("degtyarev-newbraid", ".braid"))


@pytest.fixture(scope="module")
def affine(presets):
    return presets["degtyarev-affine"]


def test_acceptance_1_braid_monodromy(table1):
    """Composing the path table reproduces the three monodromy braids."""
    composed = {name: compose_path_monodromy(3, table1.paths, steps)
                for name, steps in table1.compositions}
    assert braid_equal(composed["mu_plus"], bw(2, 2, 2, 2, 2))
    assert braid_equal(composed["mu_0"], conj(bw(2, 2, -1, 2), bw(1)))
    assert braid_equal(composed["mu_minus"],
                       conj(bw(2, 2, -1, 2), bw(2, 2, 2, 2, 2)))
    # the stated conjugation identity holds in B_3 ...
    assert braid_equal(conj(bw(2, 2, -1, 2, 1), bw(2, 2, 2, 2, 2)),
                       conj(bw(2, 2), bw(1, 1, 1, 1, 1)))
    # ... but its left side is not the composed third braid: the conjugator
    # s2^2 s1^-1 s2 s1 carries one letter too many.  The faithful action
    # settles it, and the order-320 arbiter below backs the composed value.
    assert not braid_equal(composed["mu_minus"],
                           conj(bw(2, 2, -1, 2, 1), bw(2, 2, 2, 2, 2)))
    t = bw(2, 2, -1, 2)
    shorts = [conj(bw(-2, 1), bw(2, 2, 2, 2, 2)), bw(1), bw(2, 2, 2, 2, 2)]
    for name, short in zip(("mu_plus", "mu_0", "mu_minus"), shorts):
        assert braid_equal(t.inverse() * composed[name] * t, short)
    print("ACCEPTANCE 1 PASS: braid monodromy composition verified by the"
          " faithful action, conjugation identity and order-320 arbiter")


def test_acceptance_2_zvk_pipeline(newbraid):
    """Monodromy to order-320 quotient with Z/5 homology and Klein center."""
    raw = zvk_presentation(3, newbraid.braids, "block")
    simplified = tietze_simplify(raw)
    ab = abelianization(simplified.presentation)
    assert (ab.rank, ab.torsion) == (1, ())

    projective = raw.with_relators([newbraid.infinity])
    quintic = projective.with_relators([(1,) * 5])
    table = todd_coxeter(tietze_simplify(quintic).presentation)
    assert table.index == 320

    table_inf = todd_coxeter(tietze_simplify(projective).presentation)
    assert table_inf.index == 320      # the meridian relation is induced

    ab5 = abelianization(quintic)
    assert (ab5.rank, ab5.torsion) == (0, (5,))

    center, invariants = regular_rep_and_center(table)
    assert len(center) == 4
    assert invariants.torsion == (2, 2)
    print("ACCEPTANCE 2 PASS: abelianization Z; projective quotient of order"
          " 320 with abelianization Z/5 and Klein four-group center")


def test_acceptance_3_characteristic_varieties(affine, presets):
    variety = charvar_rank_one(affine)
    s1, s2 = variety.stratum(1), variety.stratum(2)
    assert s1.includes_one and s1.cyclotomic == {10: 1} \
        and s1.residual.degree < 1
    assert s2.is_empty()

    v2510 = charvar_finite_torus(presets["p1-2-5-10"])
    assert {c.order() for c in v2510.stratum(1)} == {10}
    assert len(v2510.stratum(1)) == 4 and v2510.stratum(2) == []

    v2255 = charvar_finite_torus(presets["p1-2-2-5-5"])
    assert v2255.stratum(1) == v2255.stratum(2)
    assert {c.order() for c in v2255.stratum(2)} == {10}

    v23 = charvar_finite_torus(presets["c-2-3"])
    assert {c.order() for c in v23.stratum(1)} == {6}
    assert len(v23.stratum(1)) == 2 and v23.stratum(2) == []
    print("ACCEPTANCE 3 PASS: V1 = {1} u primitive 10th roots with V2 empty"
          " for the affine group; orbifold varieties as expected")


def test_acceptance_4_finite_obstruction():
    report_320 = obstruct_finite(320, AbelianGroup(0, (5,)))
    assert report_320.verdict == "no-target"

    report_12 = obstruct_finite(12, AbelianGroup(0, (4,)))
    assert [tuple(s.multiplicities)
            for s in report_12.surviving()] == [(2, 2, 3)]
    print("ACCEPTANCE 4 PASS: no spherical target for (320, Z/5); the"
          " (2,2,3) target survives for (12, Z/4)")


def test_acceptance_5_subgroup_invariants(affine, presets):
    orb = presets["p1-2-5-10"]
    ab = abelianization(orb)
    k2 = reidemeister_schreier(orb, todd_coxeter(
        orb, SubgroupSpec.kernel_of((10,), list(ab.gen_images)))).presentation
    k2_ab = abelianization(k2)
    assert (k2_ab.rank, k2_ab.torsion) == (4, ())
    k2_lcs = lcs_quotients(k2)
    assert (k2_lcs.degree(2).rank, k2_lcs.degree(2).torsion) == (5, ())
    assert (k2_lcs.degree(3).rank, k2_lcs.degree(3).torsion) == (16, ())
    # the obstruction takes the kernel to be the genus-2 surface group
    assert k2_lcs == lcs_quotients(orbifold_presentation(OrbifoldSignature(2)))

    quotient = affine.with_relators([(1, 2) * 5])
    k1 = reidemeister_schreier(quotient, todd_coxeter(
        quotient, SubgroupSpec.kernel_of((10,), [(1,), (1,)]))).presentation
    k1_lcs = lcs_quotients(k1)
    assert (k1_lcs.degree(2).rank, k1_lcs.degree(2).torsion) == (2, ())
    assert (k1_lcs.degree(3).rank, k1_lcs.degree(3).torsion) == (0, (5,))

    report = obstruct_infinite_rank_one(affine, characteristic_variety(affine))
    assert report.verdict == "no-surjection"
    assert all(c.excluded for c in report.comparisons)
    print("ACCEPTANCE 5 PASS: genus-2 kernel has H_1 = Z^4 with lcs ranks"
          " 5 and 16; the degree-5 curve kernel gives 2 and 0 with Z/5"
          " torsion; no surjection onto either infinite orbifold")


def test_acceptance_6_epimorphisms(affine):
    assert find_epimorphisms(affine, dihedral_table(10))
    assert find_epimorphisms(parse_presentation("gens x; rel x^2;"),
                             cyclic_table(3)) == []
    print("ACCEPTANCE 6 PASS: the affine group surjects onto the dihedral"
          " group of order 10; Z/2 admits no map onto Z/3")


def test_acceptance_7_curve_identities():
    curves = curve_presets()
    ok, residual = verify_pencil_identity(curves)
    assert ok and residual.is_zero()
    assert verify_parametrization(curves)
    report = degtyarev_discriminant(curves)
    assert report.proportional and report.constant
    assert plucker_dual_degree(5, [(4, 2)] * 3) == 5
    print("ACCEPTANCE 7 PASS: pencil identity, parametrization, discriminant"
          f" (constant {report.constant}) and dual degree 5 all verified")


def test_acceptance_8_property_suites():
    rng = random.Random(80)

    # Fox fundamental identity and the chain condition on random data
    for _ in range(25):
        pres = random_presentation(rng, max_rank=3, max_relators=3)
        group = abelianization(pres)
        modulus = group.exponent() or 6
        for chi in characters_of_order_dividing(group, min(modulus, 12))[:4]:
            cx = twisted_complex(pres, chi, group)
            for i in range(len(pres.relators)):
                total = CycloNumber.rational(chi.modulus, 0)
                for j in range(pres.rank):
                    total = total + cx.d2.entries[i][j] * cx.d1[j]
                assert total.is_zero()
        for rel in pres.relators:
            for k in range(1, pres.rank + 1):
                fox_derivative(rel, k, group)

    # Witt formula agreement for free groups
    for n in (1, 2, 3, 4):
        free = parse_presentation(
            "gens " + " ".join(f"a{i}" for i in range(n)) + ";")
        q = lcs_quotients(free)
        for d in (1, 2, 3):
            assert (q.degree(d).rank, q.degree(d).torsion) == \
                (free_lie_ranks(n, d), ())

    # Nielsen-Schreier at indices 2..4
    free2 = parse_presentation("gens x y;")
    for index in (2, 3, 4):
        sub = reidemeister_schreier(free2, todd_coxeter(
            free2, SubgroupSpec.kernel_of((index,), [(1,), (0,)]))).presentation
        ab = abelianization(sub)
        assert (ab.rank, ab.torsion) == (1 + index, ())

    # Smith forms of random 5x5 matrices
    for _ in range(15):
        check_snf([[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)])

    # braid relations hold and the action is faithful on test words
    for n in (3, 4):
        for j in range(1, n - 1):
            assert braid_equal(
                sigma(n, j) * sigma(n, j + 1) * sigma(n, j),
                sigma(n, j + 1) * sigma(n, j) * sigma(n, j + 1))
        for j in range(1, n - 1):
            for k in range(j + 2, n):
                assert braid_equal(sigma(n, j) * sigma(n, k),
                                   sigma(n, k) * sigma(n, j))
        assert not braid_equal(sigma(n, 1), sigma(n, 1) ** -1)
    for _ in range(50):
        b = BraidWord(3, tuple(rng.choice([-2, -1, 1, 2])
                               for _ in range(rng.randint(0, 8))))
        full = (3, 2, 1)
        assert artin_action(b, full) == full

    # spherical order 2/chi against coset enumeration, orders up to 120
    sigs = [(n, n) for n in range(2, 121)]
    sigs += [(2, 2, n) for n in range(2, 61)]
    sigs += [(2, 3, 3), (2, 3, 4), (2, 3, 5)]
    for ms in sigs:
        sig = OrbifoldSignature(0, 0, ms)
        cls = classify(sig)
        assert cls.kind == "spherical"
        if cls.order <= 120:
            assert todd_coxeter(orbifold_presentation(sig)).index == cls.order
    print("ACCEPTANCE 8 PASS: Fox and chain identities, Witt ranks,"
          " Nielsen-Schreier, Smith transforms, braid relations and"
          " spherical orders all verified")
