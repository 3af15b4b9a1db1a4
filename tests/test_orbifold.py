from fractions import Fraction

import pytest

from meridian.abelian import (AbelianGroup, abelian_invariants, abelianization,
                              surjects_onto)
from meridian.charvar import characteristic_variety
from meridian.cosets import todd_coxeter
from meridian.fpgroups import parse_presentation, print_presentation
from meridian.orbifold import (
    OrbifoldSignature,
    classify,
    obstruct_finite,
    obstruct_infinite_rank_one,
    orbifold_presentation,
    parse_signature,
)


class TestSignature:
    def test_parse(self):
        sig = parse_signature("g=0 k=0 m=2,5,10")
        assert sig == OrbifoldSignature(0, 0, (2, 5, 10))

    def test_multiplicities_sorted(self):
        assert OrbifoldSignature(0, 0, (5, 2, 10)).multiplicities == (2, 5, 10)

    def test_invalid_multiplicity(self):
        with pytest.raises(ValueError):
            OrbifoldSignature(0, 0, (1, 2))

    def test_chi_additive_in_punctures(self):
        for g in (0, 1):
            for ms in ((), (2, 3), (2, 5, 10)):
                for k in (0, 1, 2):
                    a = OrbifoldSignature(g, k, ms).euler_characteristic()
                    b = OrbifoldSignature(g, k + 1, ms).euler_characteristic()
                    assert b == a - 1


class TestPresentation:
    def test_2510(self):
        pres = orbifold_presentation(OrbifoldSignature(0, 0, (2, 5, 10)))
        long_relator = "*".join(["x", "y"] * 10)
        assert print_presentation(pres) == \
            f"gens x y;\nrel x^2;\nrel y^5;\nrel {long_relator};\n"

    def test_2255_group_invariants(self, presets):
        ours = orbifold_presentation(OrbifoldSignature(0, 0, (2, 2, 5, 5)))
        bundled = presets["p1-2-2-5-5"]
        a, b = abelianization(ours), abelianization(bundled)
        assert (a.rank, a.torsion) == (b.rank, b.torsion) == (0, (10,))

    def test_c23(self):
        pres = orbifold_presentation(OrbifoldSignature(0, 1, (2, 3)))
        assert pres.generators == ("x", "y")
        assert pres.relators == ((1, 1), (2, 2, 2))

    def test_punctured_free_part(self):
        pres = orbifold_presentation(OrbifoldSignature(1, 2, (3,)))
        # free of rank 2*1+2-1 = 3 plus one torsion generator
        assert pres.generators == ("f1", "f2", "f3", "x")
        assert pres.relators == ((4, 4, 4),)

    def test_closed_surface(self, presets):
        pres = orbifold_presentation(OrbifoldSignature(2, 0, ()))
        a, b = abelianization(pres), abelianization(presets["genus2"])
        assert (a.rank, a.torsion) == (b.rank, b.torsion)

    def test_dihedral_abelianization_dichotomy(self):
        for n in range(3, 12):
            pres = orbifold_presentation(OrbifoldSignature(0, 0, (2, 2, n)))
            ab = abelianization(pres)
            if n % 2:
                assert (ab.rank, ab.torsion) == (0, (2,))
            else:
                assert (ab.rank, ab.torsion) == (0, (2, 2))


class TestClassify:
    def test_235_spherical(self):
        cls = classify(OrbifoldSignature(0, 0, (2, 3, 5)))
        assert cls.kind == "spherical"
        assert cls.order == 60
        assert cls.chi == Fraction(1, 30)

    def test_223_spherical_and_enumerated(self):
        sig = OrbifoldSignature(0, 0, (2, 2, 3))
        cls = classify(sig)
        assert (cls.kind, cls.order) == ("spherical", 6)
        assert todd_coxeter(orbifold_presentation(sig)).index == 6

    def test_2510_hyperbolic(self):
        cls = classify(OrbifoldSignature(0, 0, (2, 5, 10)))
        assert cls.kind == "hyperbolic"
        assert cls.chi == Fraction(-1, 5)

    def test_euclidean(self):
        assert classify(OrbifoldSignature(0, 0, (2, 3, 6))).kind == "euclidean"
        assert classify(OrbifoldSignature(1, 0, ())).kind == "euclidean"

    def test_bad_signatures(self):
        assert classify(OrbifoldSignature(0, 0, (5,))).kind == "bad"
        assert classify(OrbifoldSignature(0, 0, (2, 3))).kind == "bad"

    def test_spherical_orders_match_enumeration_up_to_120(self):
        sigs = []
        for n in range(2, 61):
            sigs.append((n, n))
            if 2 * n <= 120:
                sigs.append((2, 2, n))
        sigs += [(2, 3, 3), (2, 3, 4), (2, 3, 5)]
        for ms in sigs:
            sig = OrbifoldSignature(0, 0, ms)
            cls = classify(sig)
            assert cls.kind == "spherical"
            if cls.order <= 120:
                pres = orbifold_presentation(sig)
                assert todd_coxeter(pres).index == cls.order


class TestObstructFinite:
    def test_degtyarev_has_no_target(self):
        report = obstruct_finite(320, AbelianGroup(0, (5,)))
        assert report.verdict == "no-target"
        assert report.surviving() == []
        # only order-dividing candidates were even examined
        assert all(320 % c.order == 0 for c in report.candidates)

    def test_quartic_keeps_223(self):
        report = obstruct_finite(12, AbelianGroup(0, (4,)))
        assert report.verdict == "candidates"
        assert [tuple(s.multiplicities) for s in report.surviving()] == [(2, 2, 3)]

    def test_trivial_abelianization_keeps_only_perfect_target(self):
        # the icosahedral group is perfect, so a perfect order-60 group
        # passes both necessary conditions for it (it is the identity
        # surjection when the group is the icosahedral group itself);
        # the dihedral and the other triangle candidates all die
        report = obstruct_finite(60, AbelianGroup(0, ()))
        assert report.verdict == "candidates"
        assert [tuple(s.multiplicities)
                for s in report.surviving()] == [(2, 3, 5)]

    def test_infinite_abelianization_rejected(self):
        with pytest.raises(ValueError):
            obstruct_finite(10, AbelianGroup(1, ()))

    def test_candidates_against_their_presentations(self):
        """Each candidate's abelianization, read off its exponent rows in
        closed form, against the abelianization of its presentation, for
        every candidate of every order 2..400."""
        targets = {}
        for order in range(2, 401):
            for ab in (AbelianGroup(0, ()), AbelianGroup(0, (4,)),
                       AbelianGroup(0, (2, 2))):
                for c in obstruct_finite(order, ab).candidates:
                    if c.signature not in targets:
                        targets[c.signature] = abelian_invariants(
                            orbifold_presentation(c.signature))
                    target = targets[c.signature]
                    assert c.survives == surjects_onto(ab, target)
                    assert c.reason.endswith(f"onto {target}")
        assert len(targets) == 198 + 3


class TestObstructInfinite:
    def test_affine_degtyarev_excludes_both(self, presets):
        pres = presets["degtyarev-affine"]
        report = obstruct_infinite_rank_one(pres, characteristic_variety(pres))
        assert report.verdict == "no-surjection"
        excluded = {str(c.target): c.excluded for c in report.comparisons}
        assert excluded == {"g=0 k=0 m=2,2,5,5": True, "g=0 k=0 m=2,5,10": True}
        evidence = " ".join(e for c in report.comparisons for e in c.evidence)
        assert "Z^5" in evidence and "Z^4" in evidence

    def test_orbifold_itself_is_not_excluded(self, presets):
        pres = presets["p1-2-5-10"]
        report = obstruct_infinite_rank_one(pres, characteristic_variety(pres))
        assert report.verdict == "not-excluded"
        by_target = {str(c.target): c for c in report.comparisons}
        assert not by_target["g=0 k=0 m=2,5,10"].excluded
        assert by_target["g=0 k=0 m=2,2,5,5"].excluded

    def test_free_rank_one_fails_v1_condition(self):
        pres = parse_presentation("gens x;")
        report = obstruct_infinite_rank_one(pres, characteristic_variety(pres))
        assert report.verdict == "no-surjection"
        assert all(c.excluded for c in report.comparisons)

    def test_wrong_mode(self, presets):
        pres = presets["c-2-3"]
        with pytest.raises(ValueError):
            obstruct_infinite_rank_one(pres, characteristic_variety(pres))
