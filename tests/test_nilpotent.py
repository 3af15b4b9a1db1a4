import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from meridian.abelian import (
    AbelianGroup,
    abelian_invariants,
    abelianization,
    quotient_invariants,
)
from meridian.braids import parse_monodromy, zvk_presentation
from meridian.cli import preset_text
from meridian.cosets import (
    SubgroupSpec,
    reidemeister_schreier,
    schreier_rewrite,
    todd_coxeter,
)
from meridian.fpgroups import (
    Presentation,
    commutator,
    eliminate_generators,
    multiply,
    parse_presentation,
    power,
    tietze_simplify,
)
from meridian.nilpotent import (
    Truncated,
    _bracket,
    _times_letter,
    free_lie_ranks,
    lcs_quotients,
    lyndon_words,
    magnus,
)
from meridian.orbifold import OrbifoldSignature, orbifold_presentation
from conftest import random_presentation, random_word
import reference_lcs


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
        # the Hall basis of the reference route
        for n in range(1, 7):
            basis = reference_lcs.HallBasis(n)
            assert len(basis.degree2) == free_lie_ranks(n, 2)
            assert len(basis.degree3) == free_lie_ranks(n, 3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lyndon_word_counts(self, n):
        for d in (2, 3):
            words = lyndon_words(n, d)
            assert len(words) == free_lie_ranks(n, d)
            assert words == sorted(set(words))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hall_brackets_at_lyndon_words_are_unimodular(self, n):
        # Lyndon coordinates and Hall coordinates are two bases of L_2 and
        # L_3: the Hall brackets read at the Lyndon words form a square
        # integer matrix of determinant +-1, so the rows span Z^dim
        basis = reference_lcs.HallBasis(n)
        degree2 = [{(i, j): 1, (j, i): -1} for (i, j) in basis.degree2]
        degree3 = [reference_lcs._bracket_tensor3(t) for t in basis.degree3]
        for tensors, d in ((degree2, 2), (degree3, 3)):
            words = lyndon_words(n, d)
            matrix = [[t.get(w, 0) for w in words] for t in tensors]
            assert len(matrix) == len(words)
            assert quotient_invariants(matrix, len(words)) == \
                AbelianGroup(0, ())


class TestMagnus:
    def test_inverse(self):
        rng = random.Random(40)
        for _ in range(200):
            w = random_word(rng, 3)
            m = magnus(w)
            assert m.mul(m.power(-1)) == m.power(-1).mul(m) == Truncated.one()

    def test_morphism(self):
        rng = random.Random(41)
        for _ in range(100):
            u, v = random_word(rng, 3), random_word(rng, 3)
            assert magnus(multiply(u, v)) == magnus(u).mul(magnus(v))

    @settings(max_examples=100)
    @given(st.randoms(), st.integers(-7, 7))
    def test_power_of_a_word(self, rng, c):
        w = random_word(rng, 3)
        assert magnus(power(w, c)) == magnus(w).power(c)

    @settings(max_examples=100)
    @given(st.randoms(), st.integers(-2 ** 40, 2 ** 40),
           st.integers(-2 ** 40, 2 ** 40))
    def test_power_adds_exponents(self, rng, a, b):
        x = magnus(random_word(rng, 3))
        assert x.power(a + b) == x.power(a).mul(x.power(b))

    @settings(max_examples=100)
    @given(st.randoms(), st.integers(1, 3))
    def test_twisted_relator(self, rng, i):
        # (r^g) r^-1 = g r g^-1 r^-1 = 1 + (xv - vx) g^-1 r^-1 for
        # g = 1 + x, r = 1 + v, as lcs_quotients forms it
        r = random_word(rng, 3)
        word = multiply(multiply((i,), r), multiply((-i,), power(r, -1)))
        twist = _bracket(i, magnus(r))
        _times_letter(twist, -i)
        expected = magnus(word)
        expected[0] = {}
        assert twist.mul(magnus(r).power(-1)) == expected

    def test_gamma_detection(self):
        # [x, y] has vanishing degree 1, [[x, y], x] also vanishing degree 2
        c = commutator((1,), (2,))
        m = magnus(c)
        assert not m[1] and m[2]
        m = magnus(commutator(c, (1,)))
        assert not m[1] and not m[2] and m[3]

    def test_lie3_coords_round_trip(self):
        # the Hall coordinates of the reference route
        rng = random.Random(42)
        for n in (2, 3, 4):
            basis = reference_lcs.HallBasis(n).degree3
            for _ in range(30):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                tensor: dict = {}
                for c, triple in zip(coeffs, basis):
                    if not c:
                        continue
                    for mono, v in reference_lcs._bracket_tensor3(
                            triple).items():
                        tensor[mono] = tensor.get(mono, 0) + c * v
                tensor = {m: v for m, v in tensor.items() if v}
                assert reference_lcs._lie3_coords(tensor, n) == coeffs

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_lie3_leads_are_units(self, n):
        # the lead monomials of the reference route
        leads = reference_lcs._lie3_leads(n)
        assert len(leads) == free_lie_ranks(n, 3)
        assert all(abs(c) == 1 for _, c, _ in leads.values())

    def test_non_lie_tensor_rejected(self):
        with pytest.raises(ArithmeticError):
            reference_lcs._lie3_coords({(1, 1, 1): 1}, 2)


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

    @pytest.mark.parametrize("genus,ranks", [(3, (6, 14, 64)),
                                             (4, (8, 27, 160))])
    def test_surface_groups_match_labute(self, genus, ranks):
        q = lcs_quotients(orbifold_presentation(OrbifoldSignature(genus)))
        assert q.degrees == tuple(AbelianGroup(r, ()) for r in ranks)

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


def labute_ranks(n):
    """Ranks of the graded quotients of degree 1..3 of a one-relator group
    on n generators whose relator lies in gamma_2 with a degree-2 initial
    form that is not a proper multiple in the free Lie ring.  Labute
    (J. Algebra 1970): they are free abelian of the ranks r_k with
    prod_k (1 - t^k)^(r_k) = 1 - n t + t^2."""
    r2 = n * (n - 1) // 2 - 1
    return n, r2, n * r2 - n * (n - 1) * (n - 2) // 6


@st.composite
def labute_groups(draw):
    """A product of commutators [x_a, x_b]^+-1 on 2-5 generators with some
    degree-2 coefficient +-1, sometimes times a random [[u, v], w]."""
    n = draw(st.integers(2, 5))
    gens = st.integers(1, n)
    relator, coefficients = (), {}
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.tuples(gens, gens).filter(lambda p: p[0] != p[1]))
        sign = draw(st.sampled_from([1, -1]))
        relator = multiply(relator, power(commutator((a,), (b,)), sign))
        key = (min(a, b), max(a, b))
        coefficients[key] = \
            coefficients.get(key, 0) + (sign if a < b else -sign)
    assume(any(abs(c) == 1 for c in coefficients.values()))
    if draw(st.booleans()):
        rng = draw(st.randoms())
        u, v, w = (random_word(rng, n, 4) for _ in range(3))
        relator = multiply(relator, commutator(commutator(u, v), w))
    return Presentation(tuple(f"x{i}" for i in range(1, n + 1)), (relator,))


@settings(max_examples=300)
@given(labute_groups())
def test_one_relator_groups_match_labute(pres):
    q = lcs_quotients(pres)
    ranks = labute_ranks(pres.rank)
    assert q.degrees == tuple(AbelianGroup(r, ()) for r in ranks)


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


@settings(max_examples=300)
@given(st.one_of(st.randoms().map(random_presentation),
                 syllable_presentations()))
def test_matches_reference_route(pres):
    # the kernel of [D2 | I], recombined, in Hall coordinates that check
    # every tensor to be a Lie element, against one echelon read at the
    # Lyndon words
    for c in (2, 3):
        assert lcs_quotients(pres, c).degrees == \
            reference_lcs.lcs_quotients(pres, c)


def raw_kernel(pres, n):
    """The raw Schreier presentation of the kernel of every generator -> 1
    in Z/n."""
    table = todd_coxeter(pres, SubgroupSpec.kernel_of((n,), [(1,)] * pres.rank))
    return schreier_rewrite(pres, table)[0]


def check_lcs_route(pres):
    # `lcs_quotients` computes on the generator eliminations of whatever it
    # is given; Tietze reaches another presentation of the group, and the
    # graded quotients are invariants of the group
    simplified = tietze_simplify(pres).presentation
    for c in (1, 2, 3):
        assert lcs_quotients(pres, c) == lcs_quotients(simplified, c)


@settings(max_examples=200)
@given(st.randoms())
def test_quotients_of_simplified_presentation(rng):
    check_lcs_route(random_presentation(rng))


@settings(max_examples=200)
@given(st.randoms())
def test_fewest_generators_keep_the_quotients(rng):
    # the elimination stage that `lcs_quotients` computes on, against the
    # reference route read on the raw presentation, with no eliminations
    pres = random_presentation(rng)
    stage = eliminate_generators(pres).presentation
    assert stage.rank <= pres.rank
    assert abelian_invariants(stage) == abelian_invariants(pres)
    for c in (2, 3):
        assert reference_lcs.lcs_quotients(stage, c) == \
            reference_lcs.lcs_quotients(pres, c)


@pytest.mark.parametrize("n", range(2, 13))
def test_lcs_of_affine_kernels(presets, n):
    check_lcs_route(raw_kernel(presets["degtyarev-affine"], n))


@pytest.mark.parametrize("n", range(2, 9))
def test_lcs_of_newbraid_kernels(n):
    mono = parse_monodromy(preset_text("degtyarev-newbraid", ".braid"))
    check_lcs_route(raw_kernel(
        zvk_presentation(mono.strands, mono.braids, "block"), n))
