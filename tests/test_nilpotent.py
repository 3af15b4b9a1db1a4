import random

import pytest
from hypothesis import given, settings, strategies as st

from meridian.abelian import AbelianGroup, abelianization
from meridian.cosets import SubgroupSpec, reidemeister_schreier, todd_coxeter
from meridian.fpgroups import (
    Presentation,
    commutator,
    multiply,
    parse_presentation,
    power,
    tietze_simplify,
)
from meridian.nilpotent import (
    HallBasis,
    _bracket_tensor3,
    _clean,
    _lie3_coords,
    _lie3_leads,
    free_lie_ranks,
    lcs_quotients,
    magnus,
)
from conftest import random_presentation, random_word


class TestWittNumbers:
    @pytest.mark.parametrize("n,d,expected", [
        (4, 2, 6), (4, 3, 20), (2, 3, 2), (2, 2, 1), (3, 3, 8), (1, 2, 0),
    ])
    def test_values(self, n, d, expected):
        assert free_lie_ranks(n, d) == expected

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            free_lie_ranks(2, 4)

    def test_hall_basis_counts(self):
        for n in range(1, 7):
            basis = HallBasis(n)
            assert len(basis.degree2) == free_lie_ranks(n, 2)
            assert len(basis.degree3) == free_lie_ranks(n, 3)


def parts(m):
    return _clean(m.d1), _clean(m.d2), _clean(m.d3)


class TestMagnus:
    def test_inverse(self):
        rng = random.Random(40)
        for _ in range(200):
            w = random_word(rng, 3)
            m = magnus(3, w)
            for one in (m.mul(m.inverse()), m.inverse().mul(m)):
                assert not any(c for part in (one.d1, one.d2, one.d3)
                               for c in part.values())

    def test_morphism(self):
        rng = random.Random(41)
        for _ in range(100):
            u, v = random_word(rng, 3), random_word(rng, 3)
            lhs = magnus(3, multiply(u, v))
            rhs = magnus(3, u).mul(magnus(3, v))
            assert parts(lhs) == parts(rhs)

    @settings(max_examples=100)
    @given(st.randoms(), st.integers(-7, 7))
    def test_power_of_a_word(self, rng, c):
        w = random_word(rng, 3)
        assert parts(magnus(3, power(w, c))) == parts(magnus(3, w).power(c))

    @settings(max_examples=100)
    @given(st.randoms(), st.integers(-2 ** 40, 2 ** 40),
           st.integers(-2 ** 40, 2 ** 40))
    def test_power_adds_exponents(self, rng, a, b):
        x = magnus(3, random_word(rng, 3))
        assert parts(x.power(a + b)) == parts(x.power(a).mul(x.power(b)))

    def test_gamma_detection(self):
        # [x, y] has vanishing degree 1, [[x, y], x] also vanishing degree 2
        c = commutator((1,), (2,))
        m = magnus(2, c)
        assert not _clean(m.d1) and _clean(m.d2)
        cc = commutator(c, (1,))
        m = magnus(2, cc)
        assert not _clean(m.d1) and not _clean(m.d2) and _clean(m.d3)

    def test_lie3_coords_round_trip(self):
        rng = random.Random(42)
        for n in (2, 3, 4):
            basis = HallBasis(n).degree3
            for _ in range(30):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                tensor: dict = {}
                for c, triple in zip(coeffs, basis):
                    if not c:
                        continue
                    for mono, v in _bracket_tensor3(triple).items():
                        tensor[mono] = tensor.get(mono, 0) + c * v
                tensor = {m: v for m, v in tensor.items() if v}
                assert _lie3_coords(tensor, n) == coeffs

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_lie3_leads_are_units(self, n):
        leads = _lie3_leads(n)
        assert len(leads) == free_lie_ranks(n, 3)
        assert all(abs(c) == 1 for _, c, _ in leads.values())

    def test_non_lie_tensor_rejected(self):
        with pytest.raises(ArithmeticError):
            _lie3_coords({(1, 1, 1): 1}, 2)


class TestLcsQuotients:
    def test_free_groups_match_witt(self):
        for n in (1, 2, 3, 4):
            pres = parse_presentation(
                "gens " + " ".join(f"a{i}" for i in range(n)) + ";")
            q = lcs_quotients(pres)
            for d in (1, 2, 3):
                g = q.degree(d)
                assert (g.rank, g.torsion) == (free_lie_ranks(n, d), ())

    def test_z_squared(self):
        q = lcs_quotients(parse_presentation("gens a b; rel [a,b];"))
        assert (q.degree(1).rank, q.degree(1).torsion) == (2, ())
        for d in (2, 3):
            assert (q.degree(d).rank, q.degree(d).torsion) == (0, ())

    def test_genus_two_surface(self, presets):
        q = lcs_quotients(presets["genus2"])
        assert (q.degree(2).rank, q.degree(2).torsion) == (5, ())
        assert (q.degree(3).rank, q.degree(3).torsion) == (16, ())

    def test_degree_one_is_abelianization(self):
        rng = random.Random(43)
        for _ in range(40):
            pres = random_presentation(rng, max_rank=3, max_relators=3)
            ab = abelianization(pres)
            d1 = lcs_quotients(pres, max_class=1).degree(1)
            assert (d1.rank, d1.torsion) == (ab.rank, ab.torsion)

    def test_degtyarev_kernel(self, presets):
        pres = presets["degtyarev-affine"].with_relators([(1, 2) * 5])
        table = todd_coxeter(pres, SubgroupSpec.kernel_of((10,), [(1,), (1,)]))
        kernel = reidemeister_schreier(pres, table).presentation
        q = lcs_quotients(kernel)
        assert (q.degree(2).rank, q.degree(2).torsion) == (2, ())
        assert (q.degree(3).rank, q.degree(3).torsion) == (0, (5,))

    def test_tietze_invariance(self, presets):
        for pres in presets.values():
            simplified = tietze_simplify(pres).presentation
            a, b = lcs_quotients(pres), lcs_quotients(simplified)
            for d in (1, 2, 3):
                assert (a.degree(d).rank, a.degree(d).torsion) == \
                    (b.degree(d).rank, b.degree(d).torsion)

    def test_class_cap(self, presets):
        with pytest.raises(ValueError):
            lcs_quotients(presets["genus2"], max_class=4)


@settings(max_examples=200)
@given(st.randoms())
def test_quotients_of_simplified_presentation(rng):
    # `meridian lcs` computes on the Tietze-simplified presentation; the
    # graded quotients are invariants of the group, so nothing may change
    pres = random_presentation(rng)
    simplified = tietze_simplify(pres).presentation
    for c in (1, 2, 3):
        assert lcs_quotients(pres, c) == lcs_quotients(simplified, c)


@st.composite
def syllable_presentations(draw):
    """Ranks 2-4 with rank to rank+4 relators of 1-4 syllables g^e, |e| <= 7.

    Their exponent matrices are small and dense, the shape on which kernel
    products spelled out as words from Smith-form kernel vectors could
    exhaust memory.
    """
    rank = draw(st.integers(2, 4))
    exponents = st.sampled_from([e for e in range(-7, 8) if e])
    relators = []
    for _ in range(draw(st.integers(rank, rank + 4))):
        word = []
        for _ in range(draw(st.integers(1, 4))):
            g, e = draw(st.integers(1, rank)), draw(exponents)
            word += [g if e > 0 else -g] * abs(e)
        relators.append(tuple(word))
    return Presentation(tuple(f"g{i}" for i in range(1, rank + 1)),
                        tuple(relators))


@settings(max_examples=150)
@given(syllable_presentations())
def test_cyclic_abelianization_kills_higher_quotients(pres):
    # gamma_2/gamma_3 is spanned by the images of [x, y], which are bilinear
    # and alternating in the abelianization; gamma_3/gamma_4 is spanned by
    # the brackets of gamma_2/gamma_3 with it.  Over a cyclic group both vanish.
    q = lcs_quotients(pres)
    d1 = q.degree(1)
    if d1.rank + len(d1.torsion) <= 1:
        assert q.degree(2) == q.degree(3) == AbelianGroup(0, ())
