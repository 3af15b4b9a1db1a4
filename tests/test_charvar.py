import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import meridian.charvar
from meridian.abelian import Character, abelianization, characters_of_order_dividing
from meridian.charvar import (
    CharVarError,
    FiniteTorusVariety,
    RankOneVariety,
    characteristic_variety,
    charvar_finite_torus,
    charvar_rank_one,
    fox_derivative,
    fox_matrix,
    twisted_complex,
    twisted_h1_dim,
)
from meridian.exactalg import CycloNumber, poly_det
from meridian.fpgroups import (
    Presentation,
    parse_presentation,
    reduce_word,
    tietze_simplify,
)
from conftest import random_presentation, random_word


class TestFoxDerivative:
    def test_square(self):
        group = abelianization(Presentation(("x",), ()))
        assert fox_derivative((1, 1), 1, group) == {(0,): 1, (1,): 1}

    def test_product_rule_other_variable(self):
        group = abelianization(Presentation(("x", "y"), ()))
        assert fox_derivative((1, 2), 2, group) == {(1, 0): 1}

    def test_inverse(self):
        group = abelianization(Presentation(("x",), ()))
        assert fox_derivative((-1,), 1, group) == {(-1,): -1}

    def test_product_rule_random(self):
        rng = random.Random(30)
        group = abelianization(Presentation(("x", "y", "z"), ()))
        from meridian.fpgroups import multiply

        for _ in range(150):
            u, v = random_word(rng, 3, 6), random_word(rng, 3, 6)
            w = multiply(u, v)
            if w != u + v:
                continue       # only test non-cancelling concatenations
            for k in (1, 2, 3):
                du = fox_derivative(u, k, group)
                dv = fox_derivative(v, k, group)
                shifted = {}
                ubar = group.image_of_word(u)
                for mono, c in dv.items():
                    key = tuple(a + b for a, b in zip(ubar, mono))
                    shifted[key] = shifted.get(key, 0) + c
                combined = dict(du)
                for mono, c in shifted.items():
                    combined[mono] = combined.get(mono, 0) + c
                combined = {m: c for m, c in combined.items() if c}
                assert combined == fox_derivative(w, k, group)

    def test_fundamental_identity_random(self):
        # sum_k d(r)/dg_k (g_k - 1) = r - 1 in the group ring
        rng = random.Random(31)
        for _ in range(100):
            pres = random_presentation(rng)
            group = abelianization(pres)
            for rel in pres.relators:
                total: dict = {}
                for k in range(1, pres.rank + 1):
                    d = fox_derivative(rel, k, group)
                    gk = group.image_of_word((k,))
                    for mono, c in d.items():
                        plus = tuple((a + b) % o if o else a + b for a, b, o in
                                     zip(mono, gk, group.coordinate_orders))
                        total[plus] = total.get(plus, 0) + c
                        total[mono] = total.get(mono, 0) - c
                expected = {group.image_of_word(rel): 1,
                            group.image_of_word(()): -1}
                expected = {m: c for m, c in expected.items() if c}
                if group.image_of_word(rel) == group.image_of_word(()):
                    expected = {}
                assert {m: c for m, c in total.items() if c} == expected


class TestTwistedComplex:
    def test_chain_condition_random(self):
        rng = random.Random(32)
        for _ in range(40):
            pres = random_presentation(rng, max_rank=3, max_relators=3)
            group = abelianization(pres)
            n = group.exponent() or 6
            n = min(n, 12) if n else 6
            for chi in characters_of_order_dividing(group, n)[:6]:
                cx = twisted_complex(pres, chi, group)
                matrix = fox_matrix(pres, group)
                for i, rel in enumerate(pres.relators):
                    total = CycloNumber.rational(chi.modulus, 0)
                    for j in range(pres.rank):
                        total = total + cx.d2.entries[i][j] * cx.d1[j]
                    assert total.is_zero()

    def test_trivial_character_gives_betti_number(self, presets):
        aff = presets["degtyarev-affine"]
        chi = characters_of_order_dividing(abelianization(aff), 1)[0]
        assert twisted_h1_dim(aff, chi) == 1
        orb = presets["p1-2-5-10"]
        chi = characters_of_order_dividing(abelianization(orb), 1)[0]
        assert twisted_h1_dim(orb, chi) == 0

    def test_orbifold_2510_primitive_depth(self, presets):
        pres = presets["p1-2-5-10"]
        group = abelianization(pres)
        for chi in characters_of_order_dividing(group, 10):
            expected = 1 if chi.order() == 10 else 0
            assert twisted_h1_dim(pres, chi) == expected

    def test_orbifold_2255_primitive_depth(self, presets):
        pres = presets["p1-2-2-5-5"]
        group = abelianization(pres)
        for chi in characters_of_order_dividing(group, 10):
            expected = 2 if chi.order() == 10 else 0
            assert twisted_h1_dim(pres, chi) == expected

    def test_affine_at_minus_one(self, presets):
        pres = presets["degtyarev-affine-xt"]
        chi = Character(2, (1,))
        assert twisted_h1_dim(pres, chi) == 0

    def test_inconsistent_character_rejected(self, presets):
        with pytest.raises(CharVarError):
            twisted_h1_dim(presets["p1-2-5-10"], Character(3, (1,)))


class TestFiniteTorus:
    def test_2510(self, presets):
        v = charvar_finite_torus(presets["p1-2-5-10"])
        assert v.modulus == 10
        assert {c.order() for c in v.stratum(1)} == {10}
        assert len(v.stratum(1)) == 4
        assert v.stratum(2) == []
        assert v.describe(1) == "mu10-primitive"

    def test_2255(self, presets):
        v = charvar_finite_torus(presets["p1-2-2-5-5"])
        assert v.stratum(1) == v.stratum(2)
        assert {c.order() for c in v.stratum(2)} == {10}
        assert v.stratum(3) == []

    def test_c23(self, presets):
        v = charvar_finite_torus(presets["c-2-3"])
        assert v.modulus == 6
        assert {c.order() for c in v.stratum(1)} == {6}
        assert len(v.stratum(1)) == 2
        assert v.stratum(2) == []

    def test_wrong_mode(self, presets):
        with pytest.raises(CharVarError):
            charvar_finite_torus(presets["degtyarev-affine"])

    @pytest.mark.parametrize("name", ["p1-2-5-10", "p1-2-2-5-5", "c-2-3"])
    def test_contains_primitive_against_twisted_dims(self, presets, name):
        pres = presets[name]
        v = characteristic_variety(pres)
        group = abelianization(pres)
        for n in range(2, 13):
            dims = [twisted_h1_dim(pres, chi)
                    for chi in characters_of_order_dividing(group, n)
                    if chi.order() == n]
            for k in (1, 2, 3):
                assert v.contains_primitive(k, n) == \
                    (bool(dims) and min(dims) >= k), (n, k)

    def test_depths_match_twisted_complex_per_character(self, presets):
        # the variety evaluates one Fox matrix at every character, while
        # twisted_complex builds its own each time
        rng = random.Random(7)
        cases = [presets[name] for name in (
            "degtyarev-projective", "p1-2-5-10", "p1-2-2-5-5", "c-2-3")]
        cases += [random_presentation(rng, 3, 4) for _ in range(40)]
        checked = 0
        for pres in cases:
            group = abelianization(pres)
            if group.rank or group.exponent() > 12:
                continue
            v = charvar_finite_torus(pres, group)
            assert v.depths == [(xi, twisted_complex(pres, xi, group).h1_dim())
                                for xi, _ in v.depths]
            checked += 1
        assert checked >= 10

    def test_contains_primitive_tenth_roots(self, presets):
        v2510 = charvar_finite_torus(presets["p1-2-5-10"])
        assert v2510.contains_primitive(1, 10)
        assert not v2510.contains_primitive(2, 10)
        v2255 = charvar_finite_torus(presets["p1-2-2-5-5"])
        assert v2255.contains_primitive(2, 10)
        assert not v2255.contains_primitive(3, 10)
        assert not charvar_finite_torus(presets["c-2-3"]).contains_primitive(1, 10)

    def test_nesting(self, presets):
        for name in ("p1-2-5-10", "p1-2-2-5-5", "c-2-3"):
            v = charvar_finite_torus(presets[name])
            for k in (1, 2, 3):
                assert set_of(v.stratum(k + 1)) <= set_of(v.stratum(k))


def set_of(chars):
    return {c.exponents for c in chars}


class TestCharacteristicVariety:
    def test_mode_follows_abelianization(self, presets):
        assert isinstance(characteristic_variety(presets["c-2-3"]),
                          FiniteTorusVariety)
        assert isinstance(characteristic_variety(presets["degtyarev-affine"]),
                          RankOneVariety)

    def test_mixed_abelianization_rejected(self):
        with pytest.raises(CharVarError, match="abelianization Z x Z/2"):
            characteristic_variety(parse_presentation("gens x y; rel y^2;"))


class TestRankOne:
    def test_affine_both_coordinate_systems(self, presets):
        for name in ("degtyarev-affine", "degtyarev-affine-xt"):
            v = charvar_rank_one(presets[name])
            s1 = v.stratum(1)
            assert s1.includes_one
            assert s1.cyclotomic == {10: 1}
            assert s1.residual.degree < 1
            assert v.stratum(2).is_empty()

    def test_free_rank_one(self):
        v = charvar_rank_one(parse_presentation("gens x;"))
        assert v.stratum(1).includes_one
        assert not v.stratum(1).cyclotomic
        assert v.stratum(2).is_empty()

    def test_trefoil(self):
        v = charvar_rank_one(parse_presentation("gens a b; rel a*b*a*b^-1*a^-1*b^-1;"))
        s1 = v.stratum(1)
        assert s1.includes_one and s1.cyclotomic == {6: 1}
        assert v.stratum(2).is_empty()

    def test_wrong_mode(self, presets):
        with pytest.raises(CharVarError):
            charvar_rank_one(presets["p1-2-5-10"])

    def test_cross_oracle_against_twisted_dims(self, presets):
        pres = presets["degtyarev-affine"]
        v = charvar_rank_one(pres)
        group = abelianization(pres)
        for n in range(1, 31):
            for k in range(n):
                chi = Character(n, tuple(e * k for e in (1,)))
                order = chi.order()
                member = v.stratum(1).contains_primitive(order)
                assert (twisted_h1_dim(pres, chi) >= 1) == member

    def test_cross_oracle_past_order_200(self):
        # T(11,19): V1 away from 1 is the primitive 209th roots of unity
        pres = parse_presentation("gens x y; rel x^11 = y^19;")
        v = charvar_rank_one(pres)
        for order in (1, 11, 19, 209):
            chi = Character(209, (209 // order,))
            member = v.stratum(1).contains_primitive(order)
            assert (twisted_h1_dim(pres, chi) >= 1) == member
        assert v.stratum(1).contains_primitive(209)

    def test_wirtinger_trefoil(self):
        # the Fox matrix has entries with different powers of t in one row
        v = charvar_rank_one(parse_presentation(
            "gens x1 x2 x3; rel x3 = x2*x1*x2^-1; rel x1 = x3*x2*x3^-1;"
            " rel x2 = x1*x3*x1^-1;"))
        assert v.stratum(1).describe() == "{1} u mu6-primitive"
        assert v.stratum(2).is_empty()

    def test_unit_gcd_decides_the_stratum(self, monkeypatch):
        # V2 of the Wirtinger trefoil: the 1-minors are its nine Fox entries,
        # and the gcd of the first two, -t and t - 1, is already 1
        sizes = []

        def counted(m):
            sizes.append(len(m))
            return poly_det(m)

        monkeypatch.setattr(meridian.charvar, "poly_det", counted)
        v = charvar_rank_one(parse_presentation(
            "gens x1 x2 x3; rel x3 = x2*x1*x2^-1; rel x1 = x3*x2*x3^-1;"
            " rel x2 = x1*x3*x1^-1;"))
        assert v.stratum(2).is_empty()
        assert sizes == [2] * 9 + [1] * 2

    def test_no_root_at_zero(self):
        v = charvar_rank_one(parse_presentation(
            "gens g1 g2 g3; rel g2^-1*g1*g2*g3^-1*g2^-1;"
            " rel g3*g2*g1^-1*g2^-1*g1^-1*g2;"))
        assert v.stratum(1).describe() == "{1} u roots of x^2 - x - 1"
        # the gcd of the minors is t^3, a unit on the character torus
        v = charvar_rank_one(parse_presentation(
            "gens g1 g2 g3 g4; rel g4*g3; rel g4^-2*g2^-1*g1^-1;"
            " rel g3*g2*g1*g2*g4;"))
        assert v.stratum(1).describe() == "{1}"

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_wirtinger_torus_knots_t2n(self, n):
        # V1 away from 1 is the primitive d-th roots, d | 2n, d !| 2, d !| n
        text = "gens " + " ".join(f"x{i}" for i in range(1, n + 1)) + ";"
        for i in range(n):
            a, b, c = (f"x{(i + j) % n + 1}" for j in range(3))
            text += f" rel {c} = {b}*{a}*{b}^-1;"
        v = charvar_rank_one(parse_presentation(text))
        orders = {d for d in range(3, 2 * n + 1) if 2 * n % d == 0 and n % d}
        assert v.stratum(1).includes_one
        assert v.stratum(1).cyclotomic == {d: 1 for d in orders}
        assert v.stratum(1).residual.degree < 1
        assert v.stratum(2).is_empty()

    def test_tietze_invariance(self, presets):
        pres = presets["degtyarev-affine"]
        simplified = tietze_simplify(pres).presentation
        v1 = charvar_rank_one(pres)
        v2 = charvar_rank_one(simplified)
        for k in (1, 2):
            a, b = v1.stratum(k), v2.stratum(k)
            assert (a.cyclotomic, a.includes_one, a.is_empty()) == \
                (b.cyclotomic, b.includes_one, b.is_empty())


@st.composite
def rank_one_presentations(draw):
    rank = draw(st.integers(2, 4))
    letter = st.sampled_from([x for x in range(-rank, rank + 1) if x])
    words = st.lists(letter, min_size=1, max_size=9).map(reduce_word)
    relators = draw(st.lists(words, min_size=1, max_size=rank + 1))
    pres = Presentation(tuple(f"g{i}" for i in range(1, rank + 1)),
                        tuple(relators))
    group = abelianization(pres)
    assume(group.rank == 1 and not group.torsion)
    return pres


@settings(max_examples=150)
@given(rank_one_presentations())
def test_rank_one_strata_against_twisted_dims(pres):
    v = characteristic_variety(pres)
    for k in (1, 2, 3):
        residual = v.stratum(k).residual
        assert residual.degree < 1 or residual.coeffs[0] != 0
    for n in range(2, 13):
        dim = twisted_h1_dim(pres, Character(n, (1,)))
        for k in (1, 2, 3):
            assert (dim >= k) == v.contains_primitive(k, n)
