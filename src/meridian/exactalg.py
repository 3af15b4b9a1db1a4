"""Exact arithmetic: one polynomial core for Z[t] and Q[t], cyclotomic
fields, ranks, resultants.

A ``UniPoly`` coefficient is a Python ``int`` until a division that is not
exact in Z makes it a ``fractions.Fraction``; every coefficient division goes
through ``_divide``.  Integer polynomials (Fox minors, cyclotomic
polynomials, residues mod Phi_N) so stay in Z[t], and rationals appear only
where Q[t] needs them: ``poly_gcd``, ``monic`` and rational input.  No
floating point enters any computation.  The one determinant routine is
``poly_det``, fraction-free Bareiss elimination.  Cyclotomic numbers live in
Q[x]/Phi_N(x) and polynomials are dense coefficient lists with trailing
zeros stripped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod


def _divide(a, b):
    """a / b: an ``int`` when both are ints and b divides a, else a Fraction."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a, b)


def _trim(cs: list) -> tuple:
    """The coefficients without their trailing zeros."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class UniPoly:
    """Dense univariate polynomial over Z or Q.

    Coefficients are stored low degree first; the zero polynomial has an
    empty coefficient list.  An ``int`` coefficient stays an ``int``; any
    other is stored as a ``Fraction``.  Sums and products of integer
    polynomials have integer coefficients, and so has a quotient that is
    exact in Z[t].
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if isinstance(c, int) else Fraction(c)
                             for c in coeffs])

    @classmethod
    def _of(cls, cs: list) -> "UniPoly":
        """The polynomial on a list of ``int`` and ``Fraction`` coefficients
        that arithmetic built: trailing zeros go, nothing is converted."""
        poly = object.__new__(cls)
        poly.coeffs = _trim(cs)
        return poly

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "UniPoly":
        return cls([0] * degree + [coeff])

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls([c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly._of(out)

    def __neg__(self):
        return UniPoly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly._of([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UniPoly._of([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        result = UniPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return UniPoly._of([]), self
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            c = _divide(rem[i], lc)
            if c:
                q[i - d] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return UniPoly._of(q), UniPoly._of(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lc = self.leading()
        return UniPoly._of([_divide(c, lc) for c in self.coeffs])

    def primitive_int(self) -> "UniPoly":
        """Integer-coefficient multiple with content 1 and positive leading."""
        if self.is_zero():
            return self
        denom = 1
        for c in self.coeffs:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        ints = [c // g for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return UniPoly(ints)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                x = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = x
                elif c == -1:
                    term = f"-{x}"
                else:
                    term = f"{c}*{x}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    __repr__ = __str__


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def _mobius_divisors(n: int) -> tuple[int, list[tuple[int, bool]]]:
    """rad(n), and (d, whether mu(rad(n)/d) = 1) for each divisor d of it."""
    primes = prime_divisors(n)
    rad = prod(primes)
    divisors = []
    for chosen in range(1 << len(primes)):
        e = prod(p for i, p in enumerate(primes) if chosen >> i & 1)
        divisors.append((rad // e, bin(chosen).count("1") % 2 == 0))
    return rad, divisors


def euler_phi(n: int) -> int:
    """Euler's totient, n * prod(1 - 1/p) over the primes p dividing n."""
    primes = prime_divisors(n)
    return n // prod(primes) * prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UniPoly:
    """The N-th cyclotomic polynomial, built from integer coefficients.

    With r = rad(N) > 1 the product of the primes dividing N, Phi_r is the
    product of (1 - x^d)^mu(r/d) over the divisors d of r.  That product is
    expanded as a power series cut after degree phi(r): multiplying by
    1 - x^d, or dividing by it, is one pass over the coefficients.  Then
    Phi_N(x) = Phi_r(x^(N/r)).
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return UniPoly([-1, 1])
    rad, divisors = _mobius_divisors(n)
    size = euler_phi(rad) + 1
    series = [1] + [0] * (size - 1)
    for d, mu_is_one in divisors:
        if mu_is_one:                           # times (1 - x^d)
            for i in range(size - 1, d - 1, -1):
                series[i] -= series[i - d]
        else:                                   # over (1 - x^d)
            for i in range(d, size):
                series[i] += series[i - d]
    stride = n // rad
    coeffs = [0] * ((size - 1) * stride + 1)
    coeffs[::stride] = series
    return UniPoly(coeffs)


def _cyclotomic_at_two(n: int) -> int:
    """Phi_N(2), the product of (2^(d N/r) - 1)^mu(r/d) over d | r = rad(N)."""
    rad, divisors = _mobius_divisors(n)
    stride = n // rad
    num = den = 1
    for d, mu_is_one in divisors:
        if mu_is_one:
            num *= (1 << d * stride) - 1
        else:
            den *= (1 << d * stride) - 1
    return num // den


class CycloNumber:
    """Element of Q(zeta_N), stored as its residue mod Phi_N."""

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: int, rep: UniPoly):
        self.modulus = modulus
        self.rep = rep % cyclotomic_polynomial(modulus)

    @classmethod
    def zeta(cls, modulus: int, exponent: int = 1) -> "CycloNumber":
        return cls(modulus, UniPoly.monomial(exponent % modulus))

    @classmethod
    def rational(cls, modulus: int, value) -> "CycloNumber":
        return cls(modulus, UniPoly.constant(value))

    def _check(self, other):
        if self.modulus != other.modulus:
            raise ValueError("cyclotomic moduli differ")

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        return (isinstance(other, CycloNumber)
                and self.modulus == other.modulus and self.rep == other.rep)

    def __hash__(self):
        return hash((self.modulus, self.rep))

    def __add__(self, other):
        self._check(other)
        return CycloNumber(self.modulus, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return CycloNumber(self.modulus, self.rep - other.rep)

    def __neg__(self):
        return CycloNumber(self.modulus, -self.rep)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.modulus, self.rep * other)
        self._check(other)
        return CycloNumber(self.modulus, self.rep * other.rep)

    __rmul__ = __mul__

    def __str__(self):
        return str(self.rep).replace("x", "z")

    __repr__ = __str__


class FieldMatrix:
    """Rectangular matrix over a single Q(zeta_N)."""

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: int, entries: list[list[CycloNumber]]):
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in entries:
            for e in row:
                if e.modulus != modulus:
                    raise ValueError("mixed cyclotomic moduli in matrix")
        self.modulus = modulus
        self.entries = entries

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def matrix_rank(m: FieldMatrix) -> int:
    """Exact rank over Q(zeta_N) by division-free elimination.

    Pivots are the first nonzero entry in column order; elimination uses
    cross-multiplication only, which keeps every entry inside the ring.
    """
    a = [row[:] for row in m.entries]
    rank = 0
    row = 0
    for col in range(m.cols):
        pivot = next((i for i in range(row, m.rows) if not a[i][col].is_zero()),
                     None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        p = a[row][col]
        for i in range(row + 1, m.rows):
            if not a[i][col].is_zero():
                c = a[i][col]
                a[i] = [p * x - c * y for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == m.rows:
            break
    return rank


# --- bivariate polynomials and resultants ------------------------------------


class BiPoly:
    """Polynomial in y whose coefficients are UniPoly in x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, UniPoly) else UniPoly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree_y(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative_y(self) -> "BiPoly":
        return BiPoly([i * c for i, c in enumerate(self.coeffs)][1:])


def poly_det(m: list[list[UniPoly]]) -> UniPoly:
    """Determinant of a square matrix over Z[x] or Q[x] by fraction-free
    Bareiss elimination (Bareiss, Math. Comp. 1968).

    Every division is exact in the coefficient ring of the entries, so no
    rational function ever appears and integer entries give an integer
    determinant.
    """
    n = len(m)
    if n == 0:
        return UniPoly([1])
    a = [row[:] for row in m]
    sign = 1
    prev = UniPoly([1])
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not a[i][k].is_zero()),
                         None)
            if pivot is None:
                return UniPoly()
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, r = num.divmod(prev)
                assert r.is_zero()
                a[i][j] = q
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def sylvester_matrix(f: BiPoly, g: BiPoly) -> list[list[UniPoly]]:
    n, m = f.degree_y, g.degree_y
    size = n + m
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([UniPoly()] * i + fc + [UniPoly()] * (size - i - len(fc)))
    for i in range(n):
        rows.append([UniPoly()] * i + gc + [UniPoly()] * (size - i - len(gc)))
    return rows


def resultant_y(f: BiPoly, g: BiPoly) -> UniPoly:
    """Resultant of f and g with respect to y, as a polynomial in x."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if f.degree_y == 0:
        return f.coeffs[0] ** g.degree_y
    if g.degree_y == 0:
        return g.coeffs[0] ** f.degree_y
    return poly_det(sylvester_matrix(f, g))


def discriminant_y(f: BiPoly) -> UniPoly:
    """Res_y(f, df/dy); the classical discriminant up to a constant factor."""
    return resultant_y(f, f.derivative_y())


def _phi_at_most(max_degree: int) -> list[tuple[int, int]]:
    """Every (N, phi(N)) with phi(N) <= max_degree, in increasing N.

    phi is multiplicative and phi(p^k) = p^(k-1) (p - 1) >= p - 1, so each
    such N is a product of powers of distinct primes p <= max_degree + 1.
    The products are grown depth first, one prime at a time in increasing
    order, and a branch stops as soon as phi would pass max_degree.
    """
    primes = [p for p in range(2, max_degree + 2) if prime_divisors(p) == [p]]
    found: list[tuple[int, int]] = []

    def grow(n: int, phi: int, first: int) -> None:
        found.append((n, phi))
        for i in range(first, len(primes)):
            p = primes[i]
            if phi * (p - 1) > max_degree:
                break
            power, phi_power = p, p - 1
            while phi * phi_power <= max_degree:
                grow(n * power, phi * phi_power, i + 1)
                power, phi_power = power * p, phi_power * p

    if max_degree >= 1:
        grow(1, 1, 0)
    return sorted(found)


def _exact_quotient(a: list[int], b: list[tuple[int, int]],
                    degree: int) -> list[int] | None:
    """a / b in Z[t] for a monic b of the given degree, or None if b does not
    divide a.  b is given as its nonzero (exponent, coefficient) pairs below
    the leading term."""
    rem = list(a)
    quotient = [0] * (len(rem) - degree)
    for i in range(len(rem) - 1, degree - 1, -1):
        c = rem[i]
        if c:
            base = i - degree
            quotient[base] = c
            for j, bj in b:
                rem[base + j] -= c * bj
    return None if any(rem[:degree]) else quotient


def cyclotomic_factors(p: UniPoly):
    """Split p into cyclotomic factors Phi_N and a monic residual.

    Returns (factors, residual) where factors maps N to its multiplicity.
    Phi_N has degree phi(N), so the candidates are exactly the N with
    phi(N) <= deg p, trial-divided in increasing N, which keeps the outcome
    deterministic.  Phi_N is monic with integer coefficients, so by Gauss's
    lemma it divides p in Q[t] exactly when it divides the primitive integer
    multiple of p in Z[t]; every division is exact integer arithmetic.  A
    candidate is divided only if Phi_N(2) divides the value at 2 of what is
    left, which it must if Phi_N is a factor.
    """
    factors: dict[int, int] = {}
    rem = list(p.primitive_int().coeffs)
    rem_at_two = sum(c << i for i, c in enumerate(rem))
    for n, degree in _phi_at_most(len(rem) - 1):
        if degree >= len(rem):
            continue
        phi_at_two = _cyclotomic_at_two(n)
        if rem_at_two % phi_at_two:
            continue        # Phi_N | rem would make Phi_N(2) divide rem(2)
        lower = cyclotomic_polynomial(n).coeffs[:-1]
        terms = [(j, c) for j, c in enumerate(lower) if c]
        while degree < len(rem):
            quotient = _exact_quotient(rem, terms, degree)
            if quotient is None:
                break
            factors[n] = factors.get(n, 0) + 1
            rem = quotient
            rem_at_two //= phi_at_two
    return factors, UniPoly(rem).monic()
