"""Graded lower-central-series quotients of presented groups, up to class 3.

A word maps into the free associative ring Z<X_1..X_n> truncated after
degree ``TOP``: a generator to 1 + X_i, its inverse to 1 - X_i + X_i^2 - ...
(the Magnus expansion).  Degree-d components of a word are exact integer
tensors, and a word lies in gamma_d exactly when its components below
degree d vanish; the degree-d component of such a word lies in the free Lie
ring L_d.

Coordinates on L_d are the coefficients at the Lyndon words of length d.
The standard bracketing of a Lyndon word w is w plus lexicographically
larger words (Chen-Fox-Lyndon), and these bracketings are a basis of L_d.
So reading a Lie element at the Lyndon words is a triangular change of
basis with 1 on the diagonal: an isomorphism of L_d onto Z^(Witt number),
which changes no invariant.

For G = <X | R> the graded quotient gamma_d(G)/gamma_(d+1)(G) is L_d / J_d,
where J_d is the image of the relation subgroup.  On the subgroup of words
with vanishing degree-1 part the map w -> (D2(w), D3(w)) is a homomorphism
into an abelian group, which turns the computation of J_2 and J_3 into
integer linear algebra over an explicit generating set of the normal
closure:

    w1[i,j] = (r_i ^ g_j) r_i^-1                      (degree >= 2)
    P_c     = prod r_i^(c_i), c a kernel vector of the exponent matrix
    w2[z,k] = (z ^ g_k) z^-1, z a w1 or a P_c         (degree >= 3)

J_2 is spanned by the degree-2 parts; J_3 by the degree-3 parts of integer
combinations whose degree-2 parts cancel.  The free-group, Z^2,
surface-group and one-relator (Labute) oracles in the test suite pin this
construction down.  The conjugates (r_i ^ [g_j,g_k]) r_i^-1 lie in gamma_3
as well but add nothing: by the Jacobi identity their degree-3 part
[[X_j,X_k], rho_i] is [X_j, D2(w1[i,k])] - [X_k, D2(w1[i,j])], a difference
of two w2 parts.

Both come from one Hermite echelon.  A closure generator is the row
(D2 | D3), a degree-3 generator the row (0 | D3), each part read at the
Lyndon words of its degree.  The basis rows with a pivot among the
degree-2 columns span J_2; the others are zero there and span J_3.  The D2
parts are Lie and the reading is injective on them, so the lower block
holds the degree-3 parts, Lie elements again, of exactly the combinations
whose D2 cancels.

The cap is 3 because the additivity of w -> (D2(w), D3(w)) stops there.
For u, v with D1 = 0, D2(uv) = D2(u) + D2(v) and D3(uv) = D3(u) + D3(v),
but D4(uv) = D4(u) + D4(v) + D2(u)·D2(v): D4 is not additive on gamma_2,
so class 4 needs, at each degree, products formed in the ring from kernel
combinations, as P_c already is at degree 1, and not one echelon.

The expansion is a homomorphism, so every closure generator is evaluated in
the truncated ring from the images of the relators, each expanded once, and
never spelled out as a word: a power r^c is one binomial series, whatever
the size of c.  The kernel vectors c come from
``abelian.integer_row_kernel``, the echelon from ``abelian.hermite_basis``.
"""

from __future__ import annotations

from collections import namedtuple

from .abelian import (
    AbelianGroup,
    abelian_invariants,
    exponent_matrix,
    hermite_basis,
    hermite_invariants,
    integer_row_kernel,
    quotient_invariants,
)
from .fpgroups import Presentation, Word, eliminate_generators

TOP = 3     # the truncation degree of the Magnus ring, and the class cap


def free_lie_ranks(n: int, d: int) -> int:
    """Witt number: rank of the degree-d part of the free Lie ring on n."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if d == 1:
        return n
    if d == 2:
        return n * (n - 1) // 2
    if d == 3:
        return (n ** 3 - n) // 3
    raise ValueError("degrees beyond 3 are unsupported")


def lyndon_words(n: int, d: int) -> list[tuple[int, ...]]:
    """The Lyndon words of length d on the letters 1..n, in lexicographic
    order, by Duval's generator: their number is the Witt number."""
    out, w = [], [0]
    while w:
        w[-1] += 1
        if len(w) == d:
            out.append(tuple(w))
        m = len(w)
        while len(w) < d:
            w.append(w[-m])
        while w and w[-1] == n:
            w.pop()
    return out


# --- truncated Magnus expansion -------------------------------------------------


class Truncated(list):
    """An element of Z<X_1..X_n> cut after degree TOP, as TOP + 1 dicts: the
    d-th maps each degree-d monomial, a tuple of generator indices, to its
    nonzero integer coefficient.  A group element has {(): 1} in degree 0."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "Truncated":
        return cls({} for _ in range(TOP + 1))

    @classmethod
    def one(cls) -> "Truncated":
        out = cls.zero()
        out[0][()] = 1
        return out

    def mul(self, other: "Truncated") -> "Truncated":
        out = Truncated.zero()
        for i, a in enumerate(self):
            for j in range(TOP + 1 - i):
                part = out[i + j]
                for m, x in a.items():
                    for m2, y in other[j].items():
                        _bump(part, m + m2, x * y)
        return out

    def power(self, e: int) -> "Truncated":
        """self^e = sum of C(e, k) u^k over k <= TOP, for u = self - 1.

        The truncated binomial series holds for every integer e, negative
        ones included, where C(e, k) = e(e-1)...(e-k+1)/k! is still an
        integer; it costs TOP - 1 products, whatever the size of e.
        """
        u = Truncated([{}] + self[1:])
        out, uk, c = Truncated.one(), u, 1
        for k in range(1, TOP + 1):
            c = c * (e - k + 1) // k
            if not c:
                break       # 0 <= e < k: every later C(e, k) is 0 as well
            if k > 1:
                uk = uk.mul(u)
            for part, add in zip(out, uk):
                for m, x in add.items():
                    _bump(part, m, c * x)
        return out


def _bump(d, key, c):
    """d[key] += c for a nonzero c, dropping the key when it cancels."""
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    else:
        del d[key]


def _times_letter(elt: Truncated, x: int) -> None:
    """elt * (1 + X_i) for x = i, elt * (1 + X_i)^-1 for x = -i, in place:
    highest degree first, so each part reads the old lower ones."""
    i = abs(x)
    terms = ([(1, (i,))] if x > 0 else
             [((-1) ** k, (i,) * k) for k in range(1, TOP + 1)])
    for d in range(TOP, 0, -1):
        part = elt[d]
        for c, tail in terms[:d]:
            for m, v in elt[d - len(tail)].items():
                _bump(part, m + tail, c * v)


def _bracket(i: int, elt: Truncated) -> Truncated:
    """X_i elt - elt X_i, cut after TOP."""
    out = Truncated.zero()
    for d in range(1, TOP):
        part = out[d + 1]
        for m, v in elt[d].items():
            _bump(part, (i,) + m, v)
            _bump(part, m + (i,), -v)
    return out


def magnus(w: Word) -> Truncated:
    out = Truncated.one()
    for x in w:
        _times_letter(out, x)
    return out


# --- relation lattices ------------------------------------------------------------


class GradedQuotient(namedtuple("GradedQuotient", "degrees")):
    """Abelian invariants of gamma_d / gamma_(d+1) for d = 1..max_class."""

    __slots__ = ()

    def degree(self, d: int) -> AbelianGroup:
        return self.degrees[d - 1]


def fewest_generators(pres: Presentation) -> Presentation | None:
    """A presentation of the group on d(H1) generators, reached by
    ``fpgroups.eliminate_generators`` alone, or None if they stop above it.

    d(H1) is the rank plus the number of torsion factors of the
    abelianization H1.  No presentation of the group has fewer generators:
    they would map onto generators of H1, and H1 needs d(H1) of them.  So
    at d(H1) ``tietze_simplify`` could only shorten relators.  The graded
    quotients of ``lcs_quotients`` are invariants of the group and cost
    more with each generator, so this is the input they need; on None,
    callers fall back to ``tietze_simplify``.
    """
    out = eliminate_generators(pres).presentation
    ab = abelian_invariants(out)
    return out if out.rank == ab.rank + len(ab.torsion) else None


def lcs_quotients(pres: Presentation, max_class: int = 3) -> GradedQuotient:
    """Graded lower-central-series quotients of the presented group.

    Degree 1 is the abelianization; degrees 2 and 3 quotient the free Lie
    ring lattices by the graded image of the relation subgroup, per the
    module docstring.  They are invariants of the group, so any presentation
    of it gives the same answer; the work grows with the number n of
    generators (n^3 / 3 degree-3 columns and n rows per relator), so callers
    pass ``fewest_generators`` or a Tietze-simplified presentation.
    """
    if not 1 <= max_class <= TOP:
        raise ValueError("supported classes are 1, 2 and 3")
    n = pres.rank
    matrix = exponent_matrix(pres)
    out = [quotient_invariants(matrix, n)]
    if max_class == 1 or n == 0:
        while len(out) < max_class:
            out.append(AbelianGroup(0, ()))
        return GradedQuotient(tuple(out))

    relators = [magnus(rel) for rel in pres.relators]

    # Closure generators with a possible degree-2 part: the twisted
    # relators (r^g) r^-1 and the kernel products, evaluated in the Magnus
    # ring, where the image of a word is the product of the images of its
    # letters.  For g = 1 + x and r = 1 + v, (r^g) r^-1 = g r g^-1 r^-1 =
    # 1 + (xv - vx) g^-1 r^-1, kept without its 1: degree 0 is never read.
    closure: list[Truncated] = []
    for rel in relators:
        rel_inv = rel.power(-1)
        for i in range(1, n + 1):
            twist = _bracket(i, rel)
            _times_letter(twist, -i)
            closure.append(twist.mul(rel_inv))
    for kv in integer_row_kernel(matrix):
        prod = Truncated.one()
        for rel, c in zip(relators, kv):
            if c:
                prod = prod.mul(rel.power(c))
        closure.append(prod)

    words2 = lyndon_words(n, 2)
    words3 = lyndon_words(n, 3) if max_class == 3 else []
    dim2 = len(words2)

    def rows():
        # The degree-3 part of w2[z,k] is the plain tensor commutator
        # [X_k, D2(z)], everything higher landing in degree 4.  These rows
        # come first: the echelon then spends less time reducing above the
        # degree-3 pivots.
        if max_class == 3:
            for elt in closure:
                if not elt[2]:
                    continue
                for k in range(1, n + 1):
                    bracket = _bracket(k, elt)[3]
                    yield [0] * dim2 + [bracket.get(w, 0) for w in words3]
        for elt in closure:
            if elt[1]:
                raise ArithmeticError(
                    "closure generator has nonzero abelianization")
            yield ([elt[2].get(w, 0) for w in words2]
                   + [elt[3].get(w, 0) for w in words3])

    # Rows with a pivot among the degree-2 columns span J_2; the others are
    # zero there and span J_3 in Lyndon coordinates (module docstring).
    # Each block of the echelon is a Hermite basis already.
    echelon = hermite_basis(rows(), dim2 + len(words3))
    upper = {p: row[:dim2] for p, row in echelon.items() if p < dim2}
    lower = {p - dim2: row[dim2:] for p, row in echelon.items() if p >= dim2}
    graded = (out[0], hermite_invariants(upper, dim2),
              hermite_invariants(lower, len(words3)))
    return GradedQuotient(graded[:max_class])
