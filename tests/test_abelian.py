import random

from hypothesis import given, settings, strategies as st

from meridian.abelian import (
    AbelianGroup,
    abelianization,
    characters_of_order_dividing,
    hermite_basis,
    integer_row_kernel,
    quotient_invariants,
    smith_normal_form,
    surjects_onto,
)
from meridian.fpgroups import parse_presentation

from conftest import DENSE_11X7, check_snf
import reference_hermite


class TestSmithNormalForm:
    def test_identity(self):
        assert check_snf([[1, 0], [0, 1]]).diagonal == [1, 1]

    def test_divisibility_example(self):
        assert check_snf([[2, 4], [6, 8]]).diagonal == [2, 4]

    def test_rank_one(self):
        # exponent matrix of the two-bridge style relator plus a commutator
        assert check_snf([[1, -1], [0, 0]]).diagonal == [1]

    def test_random_transform_identity(self):
        rng = random.Random(10)
        for _ in range(40):
            m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            check_snf(m)

    def test_diagonal_product_is_determinant(self):
        rng = random.Random(12)
        for _ in range(30):
            m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                   - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                   + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
            diag = smith_normal_form(m).diagonal
            product = 1
            for d in diag:
                product *= d
            if len(diag) == 3:
                assert product == abs(det)
            else:
                assert det == 0

    def test_invariants_stable_under_permutations(self):
        rng = random.Random(11)
        for _ in range(40):
            m = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
            base = smith_normal_form(m).diagonal
            rows = m[:]
            rng.shuffle(rows)
            cols = list(range(4))
            rng.shuffle(cols)
            shuffled = [[row[j] for j in cols] for row in rows]
            assert smith_normal_form(shuffled).diagonal == base


def smith_quotient(rows, dim):
    """Oracle: Z^dim modulo the rows, read off the Smith diagonal."""
    diagonal = smith_normal_form(rows).diagonal if rows else []
    return AbelianGroup(dim - len(diagonal), tuple(d for d in diagonal if d > 1))


@st.composite
def small_matrices(draw):
    """Up to 8x8, entries in [-3, 3], with zero and repeated rows mixed in."""
    dim = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("new", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * dim)
        elif kind == "repeat" and rows:
            sign = draw(st.sampled_from((1, -1)))
            rows.append([sign * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(st.integers(-3, 3),
                                      min_size=dim, max_size=dim)))
    return rows, dim


@st.composite
def planted_quotients(draw):
    """rows = U * D * V for unimodular U, V and a divisor chain on D.

    U and V are products of random elementary operations; the quotient is
    known from D alone: the chain's entries above 1, and one free summand per
    column without a diagonal entry.
    """
    dim = draw(st.integers(1, 40))
    height = draw(st.integers(1, 200))
    rng = draw(st.randoms(use_true_random=False))
    chain = [rng.choice((1, 1, 2))]
    for _ in range(rng.randint(0, min(dim, height)) - 1):
        chain.append(chain[-1] * rng.choice((1, 1, 1, 2, 3)))
    rows = [[chain[i] if i == j and i < len(chain) else 0 for j in range(dim)]
            for i in range(height)]
    for _ in range(2 * height if height > 1 else 0):
        i, j = rng.sample(range(height), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    for _ in range(2 * dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        for row in rows:
            row[j] += c * row[i]
    rng.shuffle(rows)
    expected = AbelianGroup(dim - len(chain), tuple(d for d in chain if d > 1))
    return rows, dim, expected


@settings(max_examples=200)
@given(small_matrices())
def test_smith_form_of_small_matrices(case):
    rows, _ = case
    if rows:
        check_snf(rows)


class TestQuotientInvariants:
    @settings(max_examples=400)
    @given(small_matrices())
    def test_matches_smith_diagonal(self, case):
        rows, dim = case
        assert quotient_invariants(rows, dim) == smith_quotient(rows, dim)

    @settings(max_examples=30)
    @given(planted_quotients())
    def test_planted_torsion(self, case):
        rows, dim, expected = case
        assert quotient_invariants(rows, dim) == expected

    def test_accepts_a_generator(self):
        rows = ([2 * i, 4] for i in range(3))
        assert quotient_invariants(rows, 2) == AbelianGroup(0, (2, 4))

    def test_degenerate_shapes(self):
        assert quotient_invariants([], 3) == AbelianGroup(3, ())
        assert quotient_invariants([[0, 0]], 2) == AbelianGroup(2, ())
        assert quotient_invariants([[], []], 0) == AbelianGroup(0, ())

    def test_dense_11x7_is_trivial(self):
        assert quotient_invariants(DENSE_11X7, 7) == AbelianGroup(0, ())


class TestHermiteBasis:
    """The echelon that reduces only where a change can have moved an entry
    against the one that reduced above every pivot after every change: the
    Hermite normal form is unique, so the dicts are equal."""

    @settings(max_examples=400)
    @given(small_matrices())
    def test_matches_reference(self, case):
        rows, dim = case
        assert hermite_basis(rows, dim) == \
            reference_hermite.hermite_basis(rows, dim)

    @settings(max_examples=60)
    @given(planted_quotients())
    def test_matches_reference_on_planted_quotients(self, case):
        rows, dim, _ = case
        assert hermite_basis(rows, dim) == \
            reference_hermite.hermite_basis(rows, dim)

    def test_dense_11x7_and_its_kernel_rows(self):
        rows = [row + [int(i == j) for j in range(len(DENSE_11X7))]
                for i, row in enumerate(DENSE_11X7)]
        for matrix, dim in ((DENSE_11X7, 7), (rows, 18)):
            assert hermite_basis(matrix, dim) == \
                reference_hermite.hermite_basis(matrix, dim)


class TestIntegerRowKernel:
    @settings(max_examples=300)
    @given(small_matrices())
    def test_saturated_basis_of_the_left_kernel(self, case):
        rows, dim = case
        kernel = integer_row_kernel(rows)
        rank = dim - quotient_invariants(rows, dim).rank
        for k in kernel:
            assert not any(sum(c * row[j] for c, row in zip(k, rows))
                           for j in range(dim))
        assert len(kernel) == len(rows) - rank
        # Z^rows / span(K) free of rank rank(M): K spans the whole kernel
        assert quotient_invariants(kernel, len(rows)) == AbelianGroup(rank, ())


class TestAbelianization:
    def test_rank_one(self):
        p = parse_presentation(
            "gens x y; rel x*y*x*y*x = y*x*y*x*y;"
            " rel [x, y*x*y^-1*x*y*x*y^-1*x*y];")
        ab = abelianization(p)
        assert (ab.rank, ab.torsion) == (1, ())

    def test_plus_x5_is_z5(self, presets):
        ab = abelianization(presets["degtyarev-projective"])
        assert (ab.rank, ab.torsion) == (0, (5,))

    def test_orbifold_is_z10(self, presets):
        ab = abelianization(presets["p1-2-5-10"])
        assert (ab.rank, ab.torsion) == (0, (10,))
        assert str(ab) == "Z/10"

    def test_gen_images_kill_relators(self, presets):
        for p in presets.values():
            ab = abelianization(p)
            for rel in p.relators:
                assert not any(ab.image_of_word(rel))

    def test_free_group(self):
        ab = abelianization(parse_presentation("gens x y z;"))
        assert (ab.rank, ab.torsion) == (3, ())


class TestCharacters:
    def test_full_torus_of_z10(self):
        a = AbelianGroup(0, (10,), ((1,),))
        chars = characters_of_order_dividing(a, 10)
        assert len(chars) == 10
        assert chars[0].exponents == (0,)
        assert [c.exponents for c in chars] == [(k,) for k in range(10)]

    def test_free_coordinate(self):
        a = AbelianGroup(1, (), ((1,),))
        assert len(characters_of_order_dividing(a, 10)) == 10

    def test_crt_torus(self):
        # Z/2 + Z/5 (canonically Z/10) still has ten characters of order | 10
        b = AbelianGroup(0, (2, 5))
        assert len(characters_of_order_dividing(b, 10)) == 10

    def test_modulus_one(self):
        a = AbelianGroup(1, (4,))
        chars = characters_of_order_dividing(a, 1)
        assert len(chars) == 1 and chars[0].order() == 1

    def test_character_order(self):
        a = AbelianGroup(0, (10,))
        orders = sorted(c.order() for c in characters_of_order_dividing(a, 10))
        assert orders == [1, 2, 5, 5, 5, 5, 10, 10, 10, 10]


class TestSurjectsOnto:
    def test_cyclic_divisibility(self):
        assert surjects_onto(AbelianGroup(0, (4,)), AbelianGroup(0, (2,)))
        assert not surjects_onto(AbelianGroup(0, (5,)), AbelianGroup(0, (2,)))

    def test_cyclic_cannot_hit_rank_two(self):
        assert not surjects_onto(AbelianGroup(0, (4,)), AbelianGroup(0, (2, 2)))

    def test_free_rank_covers(self):
        assert surjects_onto(AbelianGroup(2, ()), AbelianGroup(0, (2, 2)))
        assert not surjects_onto(AbelianGroup(1, ()), AbelianGroup(0, (2, 2)))
