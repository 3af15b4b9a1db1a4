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

    w1[i,j]   = (r_i ^ g_j) r_i^-1                    (degree >= 2)
    w2[i,j,k] = (w1[i,j] ^ g_k) w1[i,j]^-1            (degree >= 3)
    w3[i,j,k] = (r_i ^ [g_j,g_k]) r_i^-1              (degree >= 3)
    P_c       = prod r_i^(c_i), c a kernel vector of the exponent matrix

J_2 is spanned by the degree-2 parts; J_3 by the degree-3 parts of integer
combinations whose degree-2 parts cancel.  The free-group, Z^2 and
surface-group oracles in the test suite pin this construction down.

The expansion is a homomorphism, so every closure generator is evaluated in
the truncated ring from the images of the relators, each expanded once, and
never spelled out as a word: a power r^c costs the bits of c, not |c|
letters.  Both integer kernels come from ``abelian.integer_row_kernel``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .abelian import (
    AbelianGroup,
    exponent_matrix,
    integer_row_kernel,
    quotient_invariants,
)
from .fpgroups import Presentation, Word


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

    def inverse(self) -> "Trunc3":
        # (1 + u)^-1 = 1 - u + u^2 - u^3 truncated in degree 4
        d1 = {i: -c for i, c in self.d1.items()}
        d2 = {ij: -c for ij, c in self.d2.items()}
        for i, a in self.d1.items():
            for j, b in self.d1.items():
                _bump(d2, (i, j), a * b)
        d3 = {ijk: -c for ijk, c in self.d3.items()}
        for i, a in self.d1.items():
            for jk, b in self.d2.items():
                _bump(d3, (i,) + jk, a * b)
        for ij, a in self.d2.items():
            for k, b in self.d1.items():
                _bump(d3, ij + (k,), a * b)
        for i, a in self.d1.items():
            for j, b in self.d1.items():
                for k, c in self.d1.items():
                    _bump(d3, (i, j, k), -a * b * c)
        return Trunc3(self.n, _clean(d1), _clean(d2), _clean(d3))

    def power(self, e: int) -> "Trunc3":
        """self^e by repeated squaring: it costs the bits of e, not |e|."""
        if e < 0:
            return self.inverse().power(-e)
        out, base = Trunc3.one(self.n), self
        while e:
            if e & 1:
                out = out.mul(base)
            base, e = base.mul(base), e >> 1
        return out


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
    k > i, and (i,i,j) with coefficient -1 when k = i; these lead monomials
    are pairwise distinct, so peeling the current largest monomial solves the
    coordinate problem triangularly, in integers since every lead is +-1.
    """
    leads = {}
    for idx, triple in enumerate(HallBasis(n).degree3):
        tensor = _bracket_tensor3(triple)
        lead = max(tensor)
        leads[lead] = (idx, tensor[lead], tensor)
    return leads


def _lie3_coords(d3: dict, n: int) -> list[int]:
    """Coordinates of a degree-3 Lie tensor in the Hall basis."""
    leads = _lie3_leads(n)
    acc = {m: c for m, c in d3.items() if c}
    coords = [0] * free_lie_ranks(n, 3)
    while acc:
        m = max(acc)
        if m not in leads:
            raise ArithmeticError("degree-3 part is not a Lie element")
        idx, lead_coeff, tensor = leads[m]
        f, rem = divmod(acc[m], lead_coeff)
        if rem:
            raise ArithmeticError("non-integral Hall coordinates")
        coords[idx] += f
        for mono, c in tensor.items():
            _bump(acc, mono, -f * c)
    return coords


# --- relation lattices ------------------------------------------------------------


class GradedQuotient(namedtuple("GradedQuotient", "degrees")):
    """Abelian invariants of gamma_d / gamma_(d+1) for d = 1..max_class."""

    __slots__ = ()

    def degree(self, d: int) -> AbelianGroup:
        return self.degrees[d - 1]


def lcs_quotients(pres: Presentation, max_class: int = 3) -> GradedQuotient:
    """Graded lower-central-series quotients of the presented group.

    Degree 1 is the abelianization; degrees 2 and 3 quotient the free Lie
    ring lattices by the graded image of the relation subgroup, per the
    module docstring.
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
        rel_inv = rel.inverse()
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
    dim3 = free_lie_ranks(n, 3)
    rows2: list[list[int]] = []
    rows3_direct: list[list[int]] = []   # degree-3 parts of rows with D2 = 0
    pending: list[tuple[list[int], dict]] = []   # (D2 coords, raw D3 tensor)
    w1_tensors: list[dict] = []
    for elt in closure:
        if _clean(elt.d1):
            raise ArithmeticError("closure generator has nonzero abelianization")
        d2 = _clean(elt.d2)
        coords2 = _lie2_coords(d2, basis)
        d3 = _clean(elt.d3)
        w1_tensors.append(d2)
        if any(coords2):
            rows2.append(coords2)
            pending.append((coords2, d3))
        elif d3:
            rows3_direct.append(_lie3_coords(d3, n))

    gr2 = quotient_invariants(rows2, dim2)
    if max_class == 2:
        return GradedQuotient((out[0], gr2))

    def rows3():
        yield from rows3_direct
        # Degree-3 closure generators are commutators of the above against
        # the generators, [g_k, z], and of relators against basic degree-2
        # words, [[g_i,g_j], r]; their expansions are the plain tensor
        # commutators of the leading parts, everything higher landing in
        # degree 4.
        for d2 in w1_tensors:
            if not d2:
                continue
            for k in range(1, n + 1):
                bracket: dict = {}
                for mono, c in d2.items():
                    _bump(bracket, (k,) + mono, c)
                    _bump(bracket, mono + (k,), -c)
                if bracket:
                    yield _lie3_coords(bracket, n)
        for rel in relators:
            rho = _clean(rel.d1)
            if not rho:
                continue
            for (i, j) in basis.degree2:
                bracket = {}
                for sign, pair in ((1, (i, j)), (-1, (j, i))):
                    for k, c in rho.items():
                        _bump(bracket, pair + (k,), sign * c)
                        _bump(bracket, (k,) + pair, -sign * c)
                if bracket:
                    yield _lie3_coords(bracket, n)
        if pending:
            kernel = integer_row_kernel([p[0] for p in pending])
            for kv in kernel:
                acc: dict = {}
                for c, (_, d3) in zip(kv, pending):
                    if c:
                        for m, v in d3.items():
                            _bump(acc, m, c * v)
                if acc:
                    yield _lie3_coords(acc, n)

    gr3 = quotient_invariants(rows3(), dim3)
    return GradedQuotient((out[0], gr2, gr3))
