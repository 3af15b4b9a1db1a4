"""Integer matrix Smith normal form and abelian invariants of presentations.

Matrices are plain lists of lists of Python ints, so all arithmetic is
arbitrary precision.  One Hermite echelon, ``hermite_basis``, brings rows
to Hermite normal form without a transform, and serves three callers:

- ``quotient_invariants`` returns only rank and torsion of Z^n modulo the
  span of the rows, with a Smith form of the residual block alone.  It
  answers every question that needs invariant factors and nothing else:
  ``abelian_invariants`` of a presentation (``subgroup``, the pipeline's
  projective abelianization, the spherical targets of the finite orbifold
  obstruction), the lower-central-series quotients, and the center
  invariants of ``cosets.abelian_invariants_of_subset``.
- ``integer_row_kernel`` reads a basis of { x : x M = 0 } off the echelon of
  [M | I].
- ``nilpotent.lcs_quotients`` echelons the degree-2 and degree-3 rows of
  its closure generators together, splits the basis at the degree-2
  columns, and hands each block, a Hermite basis already, to
  ``hermite_invariants``, the Smith step of ``quotient_invariants``.

``smith_normal_form`` carries the column transform V, and exists for
coordinates: ``abelianization`` reads V to express generators in the
canonical coordinates of the abelianization.  Its callers are the ones that
read ``gen_images``: the characters of ``charvar``, the P1(2,5,10) kernel
specs of ``orbifold.obstruct_infinite_rank_one``, and the ``abelianize``
command, whose traced run the benchmark's tracer test expects to nest
``smith_normal_form`` under ``abelianization``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd

from .fpgroups import Presentation, Word

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SmithForm:
    """diag(d1, ..., dr) = U * M * V with d1 | d2 | ... and U, V unimodular.

    Only V is kept; no caller needs the row transform U.
    """

    __slots__ = ("diagonal", "v")

    def __init__(self, diagonal: list[int], v: IntMatrix):
        self.diagonal = diagonal
        self.v = v


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form by repeated pivoting on the smallest nonzero entry."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    v = identity_matrix(cols)

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while True:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # Absorb any entry not divisible by the pivot, to force the chain.
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    diag = [a[i][i] for i in range(min(rows, cols)) if a[i][i]]
    return SmithForm(diag, v)


class AbelianGroup(namedtuple("AbelianGroup", "rank torsion gen_images",
                              defaults=((),))):
    """Z^rank plus cyclic factors Z/d1 x ... with d1 | d2 | ... (all di >= 2).

    ``gen_images`` gives each presentation generator in the canonical
    coordinates, torsion coordinates first (reduced mod their order) and then
    the free coordinates.
    """

    __slots__ = ()

    @property
    def coordinate_orders(self) -> tuple[int, ...]:
        """Order of each canonical coordinate; 0 marks a free coordinate."""
        return self.torsion + (0,) * self.rank

    def order(self) -> int | None:
        """Group order, or None if infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def exponent(self) -> int | None:
        if self.rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def image_of_word(self, w: Word) -> tuple[int, ...]:
        coords = [0] * len(self.coordinate_orders)
        for x in w:
            img = self.gen_images[abs(x) - 1]
            s = 1 if x > 0 else -1
            for i, c in enumerate(img):
                coords[i] += s * c
        return self._normalize(coords)

    def _normalize(self, coords) -> tuple[int, ...]:
        return tuple(c % d if d else c
                     for c, d in zip(coords, self.coordinate_orders))

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _reduce_above(basis: dict[int, list[int]], changed: set[int]) -> None:
    """Reduce the entries above each pivot into [0, pivot), in a basis that
    was reduced before the rows at the ``changed`` pivot columns were
    replaced or added.

    An entry can be out of range only in a changed row, or at a changed
    pivot column, or after a column where its row is reduced.  So a changed
    row is reduced from its pivot on, another row from the first changed
    pivot past its own, and a row past every changed pivot not at all.
    Each row is reduced left to right, since reducing at one pivot column
    only changes the columns from it on; rows are taken bottom up, so each
    reduces by rows that are final.
    """
    pivots = sorted(basis)
    start = len(pivots)       # index of the first changed pivot past p
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        if p in changed:
            first, start = i + 1, i
        else:
            first = start
        row = basis[p]
        for c in pivots[first:]:
            pivot = basis[c]
            q = row[c] // pivot[c]
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], pivot[c:])]


def hermite_basis(rows: Iterable[Sequence[int]],
                  dim: int) -> dict[int, list[int]]:
    """Hermite normal form of the span of the rows: pivot column -> row.

    The rows enter one at a time into an echelon basis with positive pivots.
    A row meeting a pivot it does not divide replaces that pivot row by an
    extended-gcd combination of the two and goes on with the other.  After
    every change of the basis the entries above each pivot are reduced into
    [0, pivot), where a change can have moved them (``_reduce_above``);
    without it the entries grow to thousands of bits.  Every step is
    unimodular, so the basis spans the same lattice as the rows.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        changed = set()     # pivot columns whose row this row replaced
        col = 0
        while True:
            col = next((c for c in range(col, dim) if row[c]), dim)
            if col == dim:
                break
            piv = basis.get(col)
            if piv is None:
                basis[col] = row if row[col] > 0 else [-x for x in row]
                changed.add(col)
                break
            a, b = piv[col], row[col]
            q, r = divmod(b, a)
            if r:
                g, s, t = _xgcd(a, b)
                basis[col] = [s * x + t * y for x, y in zip(piv, row)]
                a, b = a // g, b // g
                row = [a * y - b * x for x, y in zip(piv, row)]
                changed.add(col)
            else:
                row[col:] = [y - q * x for x, y in zip(piv[col:], row[col:])]
        if changed:
            _reduce_above(basis, changed)
    return basis


def quotient_invariants(rows: Iterable[Sequence[int]], dim: int) -> AbelianGroup:
    """Rank and torsion of Z^dim modulo the span of the rows, no transforms."""
    return hermite_invariants(hermite_basis(rows, dim), dim)


def hermite_invariants(basis: dict[int, list[int]], dim: int) -> AbelianGroup:
    """Rank and torsion of Z^dim modulo a lattice given by its Hermite basis
    (pivot column -> row, as ``hermite_basis`` returns it).

    A pivot of 1 is alone in its column, so its row and column split off a
    trivial summand, and only the rows with larger pivots go to
    ``smith_normal_form``.
    """
    rest = [c for c in range(dim) if c not in basis or basis[c][c] > 1]
    matrix = [[row[c] for c in rest] for p, row in basis.items()
              if row[p] > 1]
    diagonal = smith_normal_form(matrix).diagonal if matrix else []
    return AbelianGroup(dim - len(basis), tuple(d for d in diagonal if d > 1))


def integer_row_kernel(matrix: IntMatrix) -> IntMatrix:
    """Basis of { x : x * matrix = 0 } over Z, in Hermite normal form.

    The rows (m_i, e_i) of [M | I] span { (x M, x) }.  In its Hermite basis
    the rows whose pivot lies past M's columns are zero on M, and their
    identity parts form a basis of the kernel (Cohen, GTM 138, Sec. 2.4).
    """
    if not matrix:
        return []
    cols, n = len(matrix[0]), len(matrix)
    basis = hermite_basis((row + [int(i == j) for j in range(n)]
                           for i, row in enumerate(matrix)), cols + n)
    return [basis[p][cols:] for p in sorted(basis) if p >= cols]


def exponent_matrix(pres: Presentation) -> IntMatrix:
    """Relator-by-generator matrix of exponent sums."""
    rows = []
    for rel in pres.relators:
        row = [0] * pres.rank
        for x in rel:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def abelian_invariants(pres: Presentation) -> AbelianGroup:
    """Rank and torsion of the abelianization, without coordinates."""
    return quotient_invariants(exponent_matrix(pres), pres.rank)


def abelianization(pres: Presentation) -> AbelianGroup:
    """Abelian invariants of Z^n modulo the relator exponent lattice."""
    n = pres.rank
    m = exponent_matrix(pres)
    if not m:
        basis = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        return AbelianGroup(n, (), basis)
    snf = smith_normal_form(m)
    orders = snf.diagonal + [0] * (n - len(snf.diagonal))
    keep = [j for j, d in enumerate(orders) if d != 1]
    torsion = tuple(orders[j] for j in keep if orders[j] >= 2)
    rank = sum(1 for j in keep if orders[j] == 0)
    # Column j of V expresses canonical coordinate j; generator i has
    # coordinates given by row i of V, restricted to the kept columns with
    # torsion coordinates first.
    torsion_cols = [j for j in keep if orders[j] >= 2]
    free_cols = [j for j in keep if orders[j] == 0]
    images = []
    for i in range(n):
        row = snf.v[i]
        coords = [row[j] % orders[j] for j in torsion_cols]
        coords += [row[j] for j in free_cols]
        images.append(tuple(coords))
    return AbelianGroup(rank, torsion, tuple(images))


def surjects_onto(source: AbelianGroup, target: AbelianGroup) -> bool:
    """Whether some epimorphism of abelian groups source -> target exists.

    A free summand surjects onto anything cyclic, so only the torsion chains
    need comparing: sorting invariant factors in descending order, the k-th
    factor of the target must divide the k-th factor of the source (free
    coordinates count as 0, divisible by everything).
    """
    src = sorted(source.torsion, reverse=True)
    src = [0] * source.rank + src
    tgt = sorted(target.torsion, reverse=True)
    tgt = [0] * target.rank + tgt
    if len(tgt) > len(src):
        return False
    for s, t in zip(src, tgt):
        if t == 0:
            if s != 0:
                return False
        elif s % t:
            return False
    return True


class Character(namedtuple("Character", "modulus exponents")):
    """Homomorphism to C* taking each canonical coordinate to zeta_N^e.

    ``modulus`` is N; ``exponents`` has one entry per canonical coordinate of
    the underlying abelian group (torsion coordinates first, then free ones).
    """

    __slots__ = ()

    def value_exponent(self, coords) -> int:
        """Exponent k with xi(element) = zeta_N^k, for coordinate vector coords."""
        return sum(c * e for c, e in zip(coords, self.exponents)) % self.modulus

    def order(self) -> int:
        n = self.modulus
        return n // gcd(n, *(self.exponents or (0,)))


def characters_of_order_dividing(group: AbelianGroup, n: int) -> list[Character]:
    """All characters of the group with values in the N-th roots of unity.

    A coordinate of order d contributes gcd(d, N) characters, a free
    coordinate N.  Output is sorted lexicographically by exponent vector, so
    the trivial character comes first.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    choice_lists = []
    for d in group.coordinate_orders:
        if d == 0:
            choice_lists.append(list(range(n)))
        else:
            g = gcd(d, n)
            step = n // g
            choice_lists.append(sorted(step * k for k in range(g)))
    out = []

    def build(prefix, rest):
        if not rest:
            out.append(Character(n, tuple(prefix)))
            return
        for e in rest[0]:
            build(prefix + [e], rest[1:])

    build([], choice_lists)
    return out
