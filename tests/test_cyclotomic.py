"""Cross-oracle tests for cyclotomic polynomials and cyclotomic factoring.

The oracles are test-only copies of the earlier routines: Phi_N as x^N - 1
divided exactly by the Phi_d of its proper divisors d, and cyclotomic
factoring by Fraction trial division against Phi_1..Phi_200.  The
division oracle runs on integer coefficient lists so that all of
Phi_1..Phi_420 take well under a second; the definition is unchanged.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import assume, given, strategies as st

from meridian.exactalg import (
    UniPoly,
    _phi_at_most,
    cyclotomic_factors,
    cyclotomic_polynomial,
    euler_phi,
)


@lru_cache(maxsize=None)
def divided_cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = divided_cyclotomic(d)
            k = len(den) - 1
            quotient = [0] * (len(num) - k)
            for i in range(len(num) - 1, k - 1, -1):
                c = num[i]
                if c:
                    quotient[i - k] = c
                    for j, b in enumerate(den):
                        num[i - k + j] -= c * b
            assert not any(num)
            num = quotient
    return tuple(num)


@lru_cache(maxsize=None)
def divided_cyclotomic_poly(n: int) -> UniPoly:
    return UniPoly(divided_cyclotomic(n))


def trial_division_factors(p: UniPoly):
    """Fraction trial division by Phi_1..Phi_200, as the routine was."""
    factors: dict[int, int] = {}
    rem = p.monic()
    for n in range(1, 201):
        phi = divided_cyclotomic_poly(n)
        if phi.degree > rem.degree:
            continue
        while True:
            q, r = rem.divmod(phi)
            if r.is_zero():
                factors[n] = factors.get(n, 0) + 1
                rem = q
            else:
                break
    return factors, rem


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_phi_matches_exact_division_up_to_300():
    for n in range(1, 301):
        assert cyclotomic_polynomial(n) == divided_cyclotomic_poly(n), n


def test_phi_105_has_coefficient_minus_two():
    assert Fraction(-2) in cyclotomic_polynomial(105).coeffs


def test_euler_phi_is_degree_up_to_1000():
    for n in range(1, 1001):
        assert euler_phi(n) == cyclotomic_polynomial(n).degree, n


def test_candidates_are_every_n_with_small_phi():
    # phi(n) >= sqrt(n / 2), so phi(n) <= D forces n <= 2 D^2
    for degree in range(0, 40):
        brute = [(n, euler_phi(n)) for n in range(1, 2 * degree ** 2 + 3)
                 if euler_phi(n) <= degree]
        assert _phi_at_most(degree) == brute, degree


# r has degree <= 4, so Phi_N | r needs phi(N) <= 4, i.e. N <= 12, and
# trial division up to the old bound of 200 certifies it has no such factor.
non_cyclotomic = st.lists(st.integers(-9, 9), min_size=0, max_size=4).flatmap(
    lambda low: st.integers(1, 9).map(lambda lead: UniPoly(low + [lead])))


@given(r=non_cyclotomic,
       orders=st.dictionaries(st.integers(1, 420), st.integers(1, 3),
                              min_size=1, max_size=3),
       scale=st.fractions(min_value=-50, max_value=50,
                          max_denominator=20).filter(bool))
def test_factoring_recovers_planted_cyclotomics(r, orders, scale):
    assume(not trial_division_factors(r)[0])
    coeffs = [c.numerator for c in r.coeffs]
    for n, m in orders.items():
        for _ in range(m):
            coeffs = int_mul(coeffs, divided_cyclotomic(n))
    factors, residual = cyclotomic_factors(UniPoly(coeffs) * scale)
    assert factors == orders
    assert residual == r.monic()
