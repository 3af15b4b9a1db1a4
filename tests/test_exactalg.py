import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meridian.exactalg import (
    UniPoly,
    cyclotomic_factors,
    cyclotomic_polynomial,
    discriminant_y,
    euler_phi,
    matrix_rank,
    poly_det,
    poly_gcd,
    resultant_y,
)
from reference_charvar import realified_rank


class TestCyclotomic:
    def test_phi_1(self):
        assert cyclotomic_polynomial(1) == UniPoly([-1, 1])

    def test_phi_10(self):
        assert cyclotomic_polynomial(10) == UniPoly([1, -1, 1, -1, 1])

    def test_phi_6(self):
        assert cyclotomic_polynomial(6) == UniPoly([1, -1, 1])

    def test_product_identity_up_to_200(self):
        for n in range(1, 201):
            product = UniPoly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic_polynomial(d)
            assert product == UniPoly.monomial(n) - UniPoly([1])

    def test_monic_integer_coefficients(self):
        for n in (2, 12, 30, 105):
            phi = cyclotomic_polynomial(n)
            assert phi.leading() == 1
            assert all(c.denominator == 1 for c in phi.coeffs)
            assert phi.degree == euler_phi(n)


def geometric_sum(z: UniPoly, terms: int) -> UniPoly:
    out = UniPoly()
    for i in range(terms):
        out = out + z ** i
    return out


ZETA = UniPoly([0, 1])


def partial2_matrix_2510(z: UniPoly) -> list[list[UniPoly]]:
    """Second differential of the (2,5,10) orbifold complex at xi(x) = z^5,
    xi(y) = z^2, straight from the Fox rules:

        d(x^2)/dx = 1 + z^5,  d(y^5)/dy = 1 + z^2 + ... + z^8,
        d((xy)^10)/dx = 1 + z^7 + ... ,  d((xy)^10)/dy = z^5 (same sum).
    """
    z5, z7 = z ** 5, z ** 7
    row1 = [z5 + UniPoly([1]), UniPoly(), geometric_sum(z7, 10)]
    row2 = [UniPoly(), geometric_sum(z ** 2, 5), z5 * geometric_sum(z7, 10)]
    return [row1, row2]


class TestMatrixRank:
    def test_identity(self):
        m = [[UniPoly([int(i == j)]) for j in range(3)] for i in range(3)]
        assert matrix_rank(m, 10) == 3

    def test_orbifold_matrix_vanishes_at_primitive_tenth_root(self):
        assert matrix_rank(partial2_matrix_2510(ZETA), 10) == 0

    def test_orbifold_matrix_at_minus_one(self):
        # at z = -1 the middle entry becomes 1 + 1 + 1 + 1 + 1 = 5, nonzero
        m = partial2_matrix_2510(UniPoly([-1]))
        assert m[1][1] == UniPoly([5])
        assert matrix_rank(m, 10) >= 1
        assert matrix_rank(partial2_matrix_2510(ZETA), 2) >= 1

    def test_rank_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = [[UniPoly([rng.randint(-2, 2) for _ in range(4)])
                  for _ in range(cols)] for _ in range(rows)]
            base = matrix_rank(m, 5)
            transpose = [[m[i][j] for i in range(rows)] for j in range(cols)]
            assert matrix_rank(transpose, 5) == base
            perm = m[:]
            rng.shuffle(perm)
            assert matrix_rank(perm, 5) == base

    def test_entries_are_read_mod_phi(self):
        # 1 + zeta + ... + zeta^4 = 0 in Q(zeta_5), and zeta^5 = 1
        assert matrix_rank([[geometric_sum(ZETA, 5)]], 5) == 0
        assert matrix_rank([[ZETA ** 5 - UniPoly([1])]], 5) == 0
        assert matrix_rank([[ZETA - UniPoly([1])]], 1) == 0
        assert matrix_rank([], 3) == matrix_rank([[]], 3) == 0


@st.composite
def cyclotomic_matrices(draw):
    order = draw(st.integers(1, 12))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.lists(st.integers(-2, 2), max_size=order + 2).map(UniPoly)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # a row that is a Z[zeta]-combination of two others
        a, b = draw(entry), draw(entry)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[rows // 2])]
    return m, order


@settings(max_examples=400)
@given(cyclotomic_matrices())
def test_rank_against_realified_rank(case):
    m, order = case
    assert matrix_rank(m, order) == realified_rank(m, order)


class TestResultant:
    def test_parabola(self):
        f = [UniPoly([0, -1]), UniPoly(), UniPoly([1])]   # y^2 - x
        g = [UniPoly(), UniPoly([2])]                     # 2y
        assert resultant_y(f, g) == UniPoly([0, -4])

    def test_circle_tangent(self):
        f = [UniPoly([1]), UniPoly(), UniPoly([1])]    # y^2 + 1
        g = [UniPoly(), UniPoly([2])]                  # 2y
        assert resultant_y(f, g) == UniPoly([4])

    def test_swap_sign(self):
        rng = random.Random(14)
        for _ in range(25):
            f = [UniPoly([rng.randint(-3, 3) for _ in range(3)])
                 for _ in range(rng.randint(1, 3))] + [UniPoly([1])]
            g = [UniPoly([rng.randint(-3, 3) for _ in range(3)])
                 for _ in range(rng.randint(1, 3))] + [UniPoly([1])]
            lhs = resultant_y(f, g)
            sign = (-1) ** ((len(f) - 1) * (len(g) - 1))
            assert lhs == sign * resultant_y(g, f)

    def test_multiplicative(self):
        rng = random.Random(15)
        for _ in range(20):
            def rand_poly(deg):
                rows = [UniPoly([rng.randint(-2, 2), rng.randint(-2, 2)])
                        for _ in range(deg)]
                return rows + [UniPoly([1])]
            f, g, h = rand_poly(2), rand_poly(1), rand_poly(2)
            gh_coeffs = _y_mul(g, h)
            assert resultant_y(f, gh_coeffs) == resultant_y(f, g) * resultant_y(f, h)

    def test_discriminant_of_smooth_parabola(self):
        f = [UniPoly([0, -1]), UniPoly(), UniPoly([1])]   # y^2 - x
        assert discriminant_y(f) == UniPoly([0, -4])

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            resultant_y([UniPoly([1]), UniPoly()], [UniPoly([1])])
        with pytest.raises(ValueError):
            discriminant_y([UniPoly([1])])


def _y_mul(a: list[UniPoly], b: list[UniPoly]) -> list[UniPoly]:
    out = [UniPoly() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


class TestPolyUtilities:
    def test_gcd(self):
        f = UniPoly([-1, 0, 1])           # x^2 - 1
        g = UniPoly([1, 1])               # x + 1
        assert poly_gcd(f, g) == UniPoly([1, 1])

    def test_cyclotomic_factor_extraction(self):
        p = cyclotomic_polynomial(10) ** 2 * cyclotomic_polynomial(1) \
            * UniPoly([1, 0, 0, 1])
        factors, residual = cyclotomic_factors(p)
        # x^3 + 1 = Phi_2 * Phi_6, so everything cyclotomic is pulled out
        assert factors == {1: 1, 2: 1, 6: 1, 10: 2}
        assert residual == UniPoly([1])

    def test_pretty_printing(self):
        assert str(UniPoly([1, -1, 1, -1, 1])) == "x^4 - x^3 + x^2 - x + 1"
        assert str(UniPoly()) == "0"
        assert str(UniPoly([Fraction(1, 2), 0, 3])) == "3*x^2 + 1/2"


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row: the O(n!)
    oracle for poly_det."""
    if not m:
        return UniPoly([1])
    out = UniPoly()
    for j, head in enumerate(m[0]):
        if head.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = head * cofactor_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def is_integer_poly(p):
    return all(type(c) is int for c in p.coeffs)


int_polys = st.lists(st.integers(-3, 3), max_size=4).map(UniPoly)
nonzero_int_polys = int_polys.filter(bool)


@st.composite
def square_int_matrices(draw):
    n = draw(st.integers(1, 4))
    rows = [[draw(int_polys) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[-1] = rows[0][:]               # singular, and a zero pivot
    return rows


class TestIntegerCore:
    @settings(max_examples=300)
    @given(square_int_matrices())
    def test_bareiss_matches_cofactor_expansion(self, m):
        det = poly_det(m)
        assert det == cofactor_det(m)
        assert is_integer_poly(det)

    @settings(max_examples=300)
    @given(int_polys, nonzero_int_polys)
    def test_ring_operations_and_exact_quotients_stay_int(self, a, b):
        for p in (a + b, a - b, a * b, a ** 2, (a * b) // b, (a * b) % b):
            assert is_integer_poly(p)
        assert (a * b).divmod(b) == (a, UniPoly())

    @settings(max_examples=300)
    @given(int_polys, nonzero_int_polys)
    def test_division_gives_int_or_fraction_never_float(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        for c in q.coeffs + r.coeffs + b.monic().coeffs:
            assert type(c) in (int, Fraction)
        lc = b.leading()
        inverse = (UniPoly([1]) // UniPoly([lc])).coeffs[0]
        assert inverse * lc == 1
        assert type(inverse) is (int if lc in (1, -1) else Fraction)

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            UniPoly([1, 1]) ** -1

    def test_fractions_in_and_out(self):
        half = UniPoly([Fraction(1, 2), 1])
        assert half.coeffs == (Fraction(1, 2), 1)
        assert type(half.coeffs[1]) is int
        assert (half * 2).coeffs == (1, 2)
        assert UniPoly([Fraction(4, 2)]).coeffs == (2,)
        assert UniPoly([2, 4]).monic().coeffs == (Fraction(1, 2), 1)
