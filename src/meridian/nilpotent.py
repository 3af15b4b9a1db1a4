"""Graded lower-central-series quotients of presented groups, up to class 3.

The free class-3 nilpotent group on n generators is realized inside the free
associative ring Z<X_1..X_n> truncated in degree 4: a generator maps to
1 + X_i, its inverse to 1 - X_i + X_i^2 - X_i^3.  Degree-d components of a
word are exact integer tensors, and a word lies in gamma_d exactly when its
components below degree d vanish; the degree-d component of such a word is a
Lie element, whose coordinates in the Hall basis identify it inside the free
Lie ring L_d.

For G = <X | R> the graded quotient gamma_d(G)/gamma_(d+1)(G) is M_d / J_d,
where M_d is the free abelian group on the degree-d Hall basis and J_d is the
image of the relation subgroup.  On the subgroup of words with vanishing
degree-1 part the map w -> (D2(w), D3(w)) is a homomorphism into an abelian
group, which turns the computation of J_2 and J_3 into integer linear
algebra over an explicit generating set of the normal closure:

    w1[i,j] = (r_i ^ g_j) r_i^-1                      (degree >= 2)
    P_c     = prod r_i^(c_i), c a kernel vector of the exponent matrix
    w2[z,k] = (z ^ g_k) z^-1, z a w1 or a P_c         (degree >= 3)

J_2 is spanned by the degree-2 parts; J_3 by the degree-3 parts of integer
combinations whose degree-2 parts cancel.  The free-group, Z^2 and
surface-group oracles in the test suite pin this construction down.  The
conjugates (r_i ^ [g_j,g_k]) r_i^-1 lie in gamma_3 as well but add nothing:
by the Jacobi identity their degree-3 part [[X_j,X_k], rho_i] is
[X_j, D2(w1[i,k])] - [X_k, D2(w1[i,j])], a difference of two w2 parts.

Both come from one Hermite echelon.  A closure generator is the row
(D2 in Hall coordinates | D3 read at the lead monomials of ``_lie3_leads``),
a degree-3 generator the row (0 | its lead coordinates).  The basis rows
with a pivot among the degree-2 columns span J_2; the others are zero there
and span J_3.  The D2 parts are Lie, and Hall coordinates are injective on
them, so the lower block holds the degree-3 parts of exactly the
combinations whose D2 cancels; on L_3, reading coefficients at the lead
monomials is a triangular change of basis with +-1 on the diagonal, which
changes no invariant.

The expansion is a homomorphism, so every closure generator is evaluated in
the truncated ring from the images of the relators, each expanded once, and
never spelled out as a word: a power r^c is one binomial series, whatever
the size of c.  The kernel vectors c come from
``abelian.integer_row_kernel``, the echelon from ``abelian.hermite_basis``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

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


class HallBasis(namedtuple("HallBasis", "n")):
    """Basic commutators of degree <= 3 on n generators.

    Degree 2: [x_i, x_j] with i > j.  Degree 3: [[x_i, x_j], x_k] with i > j
    and k >= j.  The counts match the Witt numbers.
    """

    __slots__ = ()

    @property
    def degree2(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(2, self.n + 1) for j in range(1, i)]

    @property
    def degree3(self) -> list[tuple[int, int, int]]:
        return [(i, j, k)
                for i in range(2, self.n + 1) for j in range(1, i)
                for k in range(j, self.n + 1)]


# --- truncated Magnus expansion -------------------------------------------------


class Trunc3:
    """Group element as 1 + (degree-1..3 tensors), exact integer coefficients."""

    __slots__ = ("n", "d1", "d2", "d3")

    def __init__(self, n, d1=None, d2=None, d3=None):
        self.n = n
        self.d1 = d1 or {}
        self.d2 = d2 or {}
        self.d3 = d3 or {}

    @classmethod
    def one(cls, n):
        return cls(n)

    @classmethod
    def generator(cls, n, x: int):
        i = abs(x)
        if x > 0:
            return cls(n, {i: 1})
        return cls(n, {i: -1}, {(i, i): 1}, {(i, i, i): -1})

    def mul(self, other: "Trunc3") -> "Trunc3":
        d1 = dict(self.d1)
        for i, c in other.d1.items():
            _bump(d1, i, c)
        d2 = dict(self.d2)
        for ij, c in other.d2.items():
            _bump(d2, ij, c)
        for i, a in self.d1.items():
            for j, b in other.d1.items():
                _bump(d2, (i, j), a * b)
        d3 = dict(self.d3)
        for ijk, c in other.d3.items():
            _bump(d3, ijk, c)
        for i, a in self.d1.items():
            for jk, b in other.d2.items():
                _bump(d3, (i,) + jk, a * b)
        for ij, a in self.d2.items():
            for k, b in other.d1.items():
                _bump(d3, ij + (k,), a * b)
        return Trunc3(self.n, d1, d2, d3)

    def power(self, e: int) -> "Trunc3":
        """self^e = 1 + e u + C(e,2) u^2 + C(e,3) u^3 for u = self - 1.

        The binomial series truncated in degree 4 holds for every integer e,
        negative ones included, where C(e, k) = e(e-1)...(e-k+1)/k! is still
        an integer; it costs one pass over the parts, whatever the size of e.
        """
        c2, c3 = e * (e - 1) // 2, e * (e - 1) * (e - 2) // 6
        d1 = {i: e * a for i, a in self.d1.items()}
        d2 = {ij: e * a for ij, a in self.d2.items()}
        d3 = {ijk: e * a for ijk, a in self.d3.items()}
        for i, a in self.d1.items():
            for j, b in self.d1.items():
                _bump(d2, (i, j), c2 * a * b)
                for k, c in self.d1.items():
                    _bump(d3, (i, j, k), c3 * a * b * c)
            for jk, b in self.d2.items():
                _bump(d3, (i,) + jk, c2 * a * b)
                _bump(d3, jk + (i,), c2 * a * b)
        return Trunc3(self.n, _clean(d1), _clean(d2), _clean(d3))


def _bump(d, key, c):
    if not c:
        return
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    else:
        del d[key]


def _clean(d):
    return {k: v for k, v in d.items() if v}


def magnus(n: int, w: Word) -> Trunc3:
    out = Trunc3.one(n)
    for x in w:
        out = out.mul(Trunc3.generator(n, x))
    return out


def _lie2_coords(d2: dict, basis: HallBasis) -> list[int]:
    """Coordinates of an antisymmetric degree-2 tensor in the Hall basis."""
    coords = []
    for (i, j) in basis.degree2:
        a = d2.get((i, j), 0)
        b = d2.get((j, i), 0)
        if a + b:
            raise ArithmeticError("degree-2 part is not a Lie element")
        coords.append(a)
    for i in range(1, basis.n + 1):
        if d2.get((i, i), 0):
            raise ArithmeticError("degree-2 part is not a Lie element")
    return coords


def _bracket_tensor3(triple) -> dict:
    """Tensor of [[e_i, e_j], e_k] = ijk - jik - kij + kji."""
    i, j, k = triple
    t: dict = {}
    _bump(t, (i, j, k), 1)
    _bump(t, (j, i, k), -1)
    _bump(t, (k, i, j), -1)
    _bump(t, (k, j, i), 1)
    return t


@lru_cache(maxsize=None)
def _lie3_leads(n: int):
    """Each degree-3 Hall tensor indexed by its lex-largest monomial.

    For [[e_i,e_j],e_k] (i > j, k >= j) the largest of its monomials is
    (i,j,k) with coefficient 1 when k < i, (k,i,j) with coefficient -1 when
    k > i, and (i,i,j) with coefficient -1 when k = i.  These lead monomials
    are pairwise distinct, so the coefficients of a Lie tensor at them are
    its Hall coordinates under a triangular change of basis with +-1 on the
    diagonal, unimodular over Z.
    """
    leads = {}
    for idx, triple in enumerate(HallBasis(n).degree3):
        tensor = _bracket_tensor3(triple)
        lead = max(tensor)
        leads[lead] = (idx, tensor[lead], tensor)
    return leads


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
    if not 1 <= max_class <= 3:
        raise ValueError("supported classes are 1, 2 and 3")
    n = pres.rank
    matrix = exponent_matrix(pres)
    out = [quotient_invariants(matrix, n)]
    if max_class == 1 or n == 0:
        while len(out) < max_class:
            out.append(AbelianGroup(0, ()))
        return GradedQuotient(tuple(out))

    basis = HallBasis(n)
    relators = [magnus(n, rel) for rel in pres.relators]

    # Closure generators with a possible degree-2 part: the twisted relators
    # (r^g) r^-1 and the kernel products, evaluated in the Magnus ring, where
    # the image of a word is the product of the images of its letters.
    closure: list[Trunc3] = []
    for rel in relators:
        rel_inv = rel.power(-1)
        for i in range(1, n + 1):
            g, g_inv = Trunc3.generator(n, i), Trunc3.generator(n, -i)
            closure.append(g.mul(rel).mul(g_inv).mul(rel_inv))
    for kv in integer_row_kernel(matrix):
        prod = Trunc3.one(n)
        for rel, c in zip(relators, kv):
            if c:
                prod = prod.mul(rel.power(c))
        closure.append(prod)

    dim2 = free_lie_ranks(n, 2)
    leads = list(_lie3_leads(n)) if max_class == 3 else []

    def at_leads(tensor: dict) -> list[int]:
        return [tensor.get(m, 0) for m in leads]

    def rows():
        # The degree-3 part of w2[z,k] is the plain tensor commutator
        # [X_k, D2(z)], everything higher landing in degree 4.  These rows
        # come first: the echelon then spends less time reducing above the
        # degree-3 pivots.
        if max_class == 3:
            for elt in closure:
                if not elt.d2:
                    continue
                for k in range(1, n + 1):
                    bracket = {}
                    for mono, c in elt.d2.items():
                        _bump(bracket, (k,) + mono, c)
                        _bump(bracket, mono + (k,), -c)
                    yield [0] * dim2 + at_leads(bracket)
        for elt in closure:
            if elt.d1:
                raise ArithmeticError(
                    "closure generator has nonzero abelianization")
            yield _lie2_coords(elt.d2, basis) + at_leads(elt.d3)

    # Rows with a pivot among the degree-2 columns span J_2; the others are
    # zero there and span J_3 in lead coordinates (module docstring).  Each
    # block of the echelon is a Hermite basis already.
    echelon = hermite_basis(rows(), dim2 + len(leads))
    upper = {p: row[:dim2] for p, row in echelon.items() if p < dim2}
    lower = {p - dim2: row[dim2:] for p, row in echelon.items() if p >= dim2}
    graded = (out[0], hermite_invariants(upper, dim2),
              hermite_invariants(lower, len(leads)))
    return GradedQuotient(graded[:max_class])
