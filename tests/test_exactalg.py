import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meridian.exactalg import (
    BiPoly,
    CycloNumber,
    FieldMatrix,
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


def zeta(n, k=1):
    return CycloNumber.zeta(n, k)


def rat(n, v):
    return CycloNumber.rational(n, v)


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


class TestCycloArithmetic:
    def test_invert_zeta_ten(self):
        # zeta^5 = -1, so 1/zeta = -zeta^4
        inv = CycloNumber(10, UniPoly([0, 0, 0, 0, -1]))
        assert inv * zeta(10) == rat(10, 1)
        assert zeta(10, 5) == rat(10, -1)


def geometric_sum(z: CycloNumber, terms: int) -> CycloNumber:
    out = rat(z.modulus, 0)
    p = rat(z.modulus, 1)
    for _ in range(terms):
        out = out + p
        p = p * z
    return out


def partial2_matrix_2510(z: CycloNumber) -> FieldMatrix:
    """Second differential of the (2,5,10) orbifold complex at xi(x) = z^5,
    xi(y) = z^2, straight from the Fox rules:

        d(x^2)/dx = 1 + z^5,  d(y^5)/dy = 1 + z^2 + ... + z^8,
        d((xy)^10)/dx = 1 + z^7 + ... ,  d((xy)^10)/dy = z^5 (same sum).
    """
    n = z.modulus
    z2 = z * z
    z5 = z2 * z2 * z
    z7 = z5 * z2
    row1 = [z5 + rat(n, 1), rat(n, 0), geometric_sum(z7, 10)]
    row2 = [rat(n, 0), geometric_sum(z2, 5), z5 * geometric_sum(z7, 10)]
    return FieldMatrix(n, [row1, row2])


class TestMatrixRank:
    def test_identity(self):
        m = FieldMatrix(10, [[rat(10, int(i == j)) for j in range(3)]
                             for i in range(3)])
        assert matrix_rank(m) == 3

    def test_orbifold_matrix_vanishes_at_primitive_tenth_root(self):
        assert matrix_rank(partial2_matrix_2510(zeta(10))) == 0

    def test_orbifold_matrix_at_minus_one(self):
        # at z = -1 the middle entry becomes 1 + 1 + 1 + 1 + 1 = 5, nonzero
        m = partial2_matrix_2510(rat(10, -1))
        assert m.entries[1][1] == rat(10, 5)
        assert matrix_rank(m) >= 1

    def test_rank_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = [[CycloNumber(5, UniPoly([rng.randint(-2, 2)
                                          for _ in range(4)]))
                  for _ in range(cols)] for _ in range(rows)]
            base = matrix_rank(FieldMatrix(5, m))
            transpose = [[m[i][j] for i in range(rows)] for j in range(cols)]
            assert matrix_rank(FieldMatrix(5, transpose)) == base
            perm = m[:]
            rng.shuffle(perm)
            assert matrix_rank(FieldMatrix(5, perm)) == base


def bipoly(rows):
    return BiPoly([UniPoly(r) for r in rows])


class TestResultant:
    def test_parabola(self):
        f = BiPoly([UniPoly([0, -1]), UniPoly(), UniPoly([1])])   # y^2 - x
        g = BiPoly([UniPoly(), UniPoly([2])])                     # 2y
        assert resultant_y(f, g) == UniPoly([0, -4])

    def test_circle_tangent(self):
        f = BiPoly([UniPoly([1]), UniPoly(), UniPoly([1])])    # y^2 + 1
        g = BiPoly([UniPoly(), UniPoly([2])])                  # 2y
        assert resultant_y(f, g) == UniPoly([4])

    def test_swap_sign(self):
        rng = random.Random(14)
        for _ in range(25):
            f = BiPoly([UniPoly([rng.randint(-3, 3) for _ in range(3)])
                        for _ in range(rng.randint(1, 3))] + [UniPoly([1])])
            g = BiPoly([UniPoly([rng.randint(-3, 3) for _ in range(3)])
                        for _ in range(rng.randint(1, 3))] + [UniPoly([1])])
            lhs = resultant_y(f, g)
            sign = (-1) ** (f.degree_y * g.degree_y)
            assert lhs == sign * resultant_y(g, f)

    def test_multiplicative(self):
        rng = random.Random(15)
        for _ in range(20):
            def rand_poly(deg):
                rows = [UniPoly([rng.randint(-2, 2), rng.randint(-2, 2)])
                        for _ in range(deg)]
                return BiPoly(rows + [UniPoly([1])])
            f, g, h = rand_poly(2), rand_poly(1), rand_poly(2)
            gh_coeffs = _bipoly_mul(g, h)
            assert resultant_y(f, gh_coeffs) == resultant_y(f, g) * resultant_y(f, h)

    def test_discriminant_of_smooth_parabola(self):
        f = BiPoly([UniPoly([0, -1]), UniPoly(), UniPoly([1])])   # y^2 - x
        assert discriminant_y(f) == UniPoly([0, -4])


def _bipoly_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    out = [UniPoly() for _ in range(a.degree_y + b.degree_y + 1)]
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca * cb
    return BiPoly(out)


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
