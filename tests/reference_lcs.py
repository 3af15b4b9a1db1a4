"""Test-only copy of the class-3 route that nilpotent used to ship.

Its Magnus powers square full tensors and its inverse is a separate series;
its degree-3 lattice is the degree-3 part of the closure generators with no
degree-2 part, the brackets, and the combinations whose degree-2 parts
cancel, found as the integer kernel of [D2 | I] and recombined.  Every
degree-2 tensor is turned into Hall coordinates by ``_lie2_coords`` and
every degree-3 tensor by ``_lie3_coords``; both raise ``ArithmeticError``
on a tensor that is not a Lie element, so every call also checks that the
expansion lands in the free Lie ring.  The Hall basis and its lead
monomials are kept here, apart from the package, whose coordinates are
read at Lyndon words: the two routes share no coordinate code.
"""

from functools import lru_cache

from meridian.abelian import (
    AbelianGroup,
    exponent_matrix,
    integer_row_kernel,
    quotient_invariants,
)


class HallBasis:
    """Basic commutators of degree <= 3 on n generators.

    Degree 2: [x_i, x_j] with i > j.  Degree 3: [[x_i, x_j], x_k] with i > j
    and k >= j.  The counts match the Witt numbers.
    """

    def __init__(self, n):
        self.n = n
        self.degree2 = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
        self.degree3 = [(i, j, k) for (i, j) in self.degree2
                        for k in range(j, n + 1)]


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


def magnus(n: int, w) -> Trunc3:
    out = Trunc3.one(n)
    for x in w:
        out = out.mul(Trunc3.generator(n, x))
    return out


def _lie3_coords(d3: dict, n: int) -> list[int]:
    """Coordinates of a degree-3 Lie tensor in the Hall basis."""
    leads = _lie3_leads(n)
    acc = {m: c for m, c in d3.items() if c}
    coords = [0] * len(leads)
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


def lcs_quotients(pres, max_class: int = 3) -> tuple:
    """Graded lower-central-series quotients of the presented group, as the
    tuple of ``AbelianGroup``s that ``GradedQuotient.degrees`` holds."""
    if not 1 <= max_class <= 3:
        raise ValueError("supported classes are 1, 2 and 3")
    n = pres.rank
    matrix = exponent_matrix(pres)
    out = [quotient_invariants(matrix, n)]
    if max_class == 1 or n == 0:
        while len(out) < max_class:
            out.append(AbelianGroup(0, ()))
        return tuple(out)

    basis = HallBasis(n)
    relators = [magnus(n, rel) for rel in pres.relators]

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

    dim2 = len(basis.degree2)
    dim3 = len(basis.degree3)
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
        return (out[0], gr2)

    def rows3():
        yield from rows3_direct
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
    return (out[0], gr2, gr3)
