"""Fox calculus and characteristic varieties of presentation complexes.

The presentation 2-complex of <g_1..g_n | r_1..r_m> has one 0-cell, a 1-cell
per generator and a 2-cell per relator.  Its chain complex twisted by a
character xi has differentials

    d1 = column (xi(g_i) - 1),      d2[i][j] = dxi(r_i)/dg_j,

where d/dg_j is the Fox derivative pushed down to the group ring of the
abelianization and then evaluated at xi.  The k-th characteristic variety is
the locus of characters where dim H_1 of this complex is at least k.

Group-ring elements are dicts mapping canonical-coordinate tuples of the
abelianization to integers.
"""

from __future__ import annotations

from itertools import combinations, count

from .abelian import AbelianGroup, Character, abelianization, characters_of_order_dividing
from .exactalg import (
    CycloNumber,
    FieldMatrix,
    UniPoly,
    cyclotomic_factors,
    cyclotomic_polynomial,
    euler_phi,
    matrix_rank,
    poly_det,
    poly_gcd,
)
from .fpgroups import InputError, Presentation, Word

GroupRingElt = dict[tuple[int, ...], int]


class CharVarError(InputError):
    """Wrong-mode and inconsistent-character errors."""


def _monomial_mul(a: tuple[int, ...], b: tuple[int, ...],
                  orders: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % d if d else x + y
                 for x, y, d in zip(a, b, orders))


def _monomial_inv(a: tuple[int, ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((-x) % d if d else -x for x, d in zip(a, orders))


def _add_term(elt: GroupRingElt, mono: tuple[int, ...], coeff: int):
    c = elt.get(mono, 0) + coeff
    if c:
        elt[mono] = c
    else:
        elt.pop(mono, None)


def fox_derivative(w: Word, k: int, group: AbelianGroup) -> GroupRingElt:
    """Abelianized Fox derivative d(w)/dg_k as a group-ring element.

    Satisfies the product rule d(uv) = du + u*dv and d(g^-1) = -g^-1 (bars
    meaning images in the abelianization).
    """
    orders = group.coordinate_orders
    prefix = tuple(0 for _ in orders)
    out: GroupRingElt = {}
    for x in w:
        img = group.gen_images[abs(x) - 1]
        if x == k:
            _add_term(out, prefix, 1)
            prefix = _monomial_mul(prefix, img, orders)
        elif x == -k:
            prefix = _monomial_mul(prefix, _monomial_inv(img, orders), orders)
            _add_term(out, prefix, -1)
        else:
            step = img if x > 0 else _monomial_inv(img, orders)
            prefix = _monomial_mul(prefix, step, orders)
    return out


def word_image(w: Word, group: AbelianGroup) -> GroupRingElt:
    """The group-ring monomial of the abelianized word, as an element."""
    return {group.image_of_word(w): 1}


def fox_matrix(pres: Presentation, group: AbelianGroup
               ) -> list[list[GroupRingElt]]:
    """Relator-by-generator matrix of abelianized Fox derivatives; ``group``
    is the abelianization of ``pres``."""
    return [[fox_derivative(rel, j, group) for j in range(1, pres.rank + 1)]
            for rel in pres.relators]


def evaluate_elt(elt: GroupRingElt, xi: Character) -> CycloNumber:
    """Evaluate a group-ring element at a torsion character, in Q(zeta_N)."""
    n = xi.modulus
    out = CycloNumber.rational(n, 0)
    for mono, coeff in elt.items():
        out = out + CycloNumber.zeta(n, xi.value_exponent(mono)) * coeff
    return out


def _check_character(group: AbelianGroup, xi: Character):
    if len(xi.exponents) != len(group.coordinate_orders):
        raise CharVarError("character has the wrong number of coordinates")
    for d, e in zip(group.coordinate_orders, xi.exponents):
        if d and (d * e) % xi.modulus:
            raise CharVarError(
                f"coordinate of order {d} cannot map to zeta^{e} mod {xi.modulus}")


class TwistedComplex:
    """The twisted chain complex C_2 -> C_1 -> C_0 at a fixed character."""

    __slots__ = ("character", "d1", "d2")

    def __init__(self, character: Character, d1: list[CycloNumber],
                 d2: FieldMatrix):
        self.character = character
        self.d1 = d1
        self.d2 = d2

    def h1_dim(self) -> int:
        rank_d1 = 0 if all(e.is_zero() for e in self.d1) else 1
        return len(self.d1) - rank_d1 - matrix_rank(self.d2)


def twisted_complex(pres: Presentation, xi: Character,
                    group: AbelianGroup | None = None) -> TwistedComplex:
    if group is None:
        group = abelianization(pres)
    return _complex_at(fox_matrix(pres, group), pres.rank, group, xi)


def _complex_at(fox: list[list[GroupRingElt]], rank: int, group: AbelianGroup,
                xi: Character) -> TwistedComplex:
    """The twisted complex at xi, evaluating a Fox matrix computed once."""
    _check_character(group, xi)
    n = xi.modulus
    one = CycloNumber.rational(n, 1)
    d1 = [evaluate_elt(word_image((i,), group), xi) - one
          for i in range(1, rank + 1)]
    rows = [[evaluate_elt(e, xi) for e in row] for row in fox]
    return TwistedComplex(xi, d1, FieldMatrix(n, rows))


def twisted_h1_dim(pres: Presentation, xi: Character) -> int:
    """dim H_1 of the presentation complex with coefficients twisted by xi.

    At the trivial character this is the first Betti number of the complex,
    i.e. the free rank of the abelianization.
    """
    return twisted_complex(pres, xi).h1_dim()


# --- finite character torus ---------------------------------------------------


class FiniteTorusVariety:
    """Depth of every character of a finite character torus."""

    __slots__ = ("group", "modulus", "depths")

    def __init__(self, group: AbelianGroup, modulus: int,
                 depths: list[tuple[Character, int]]):
        self.group = group
        self.modulus = modulus
        self.depths = depths

    def stratum(self, k: int) -> list[Character]:
        return [chi for chi, d in self.depths if d >= k]

    def describe(self, k: int) -> str:
        return describe_character_set(self.stratum(k), self.modulus)

    def contains_primitive(self, k: int, order: int) -> bool:
        """Whether characters of exact order `order` exist, all in V_k."""
        depths = [d for chi, d in self.depths if chi.order() == order]
        return bool(depths) and min(depths) >= k


def describe_character_set(chars: list[Character], modulus: int) -> str:
    """Readable summary of a character set: '{1} u mu10-primitive' style.

    Orders whose primitive characters all appear are reported as
    'mu<d>-primitive'; anything else is listed as explicit exponent tuples.
    """
    if not chars:
        return "{}"
    by_order: dict[int, list[Character]] = {}
    for chi in chars:
        by_order.setdefault(chi.order(), []).append(chi)
    parts = []
    leftovers = []
    for d in sorted(by_order):
        if d == 1:
            parts.append("{1}")
        elif modulus % d == 0 and len(by_order[d]) == euler_phi(d):
            parts.append(f"mu{d}-primitive")
        else:
            leftovers.extend(by_order[d])
    if leftovers:
        parts.append("{" + ", ".join(str(c.exponents) for c in leftovers) + "}")
    return " u ".join(parts)


def charvar_finite_torus(pres: Presentation,
                         group: AbelianGroup | None = None
                         ) -> FiniteTorusVariety:
    """Depths of all characters when the abelianization is finite.

    ``group`` is the abelianization of ``pres``, computed here when not given.
    """
    if group is None:
        group = abelianization(pres)
    if group.rank:
        raise CharVarError(
            "abelianization is infinite; use the rank-one mode")
    n = group.exponent()
    chars = characters_of_order_dividing(group, n)
    fox = fox_matrix(pres, group)
    depths = [(xi, _complex_at(fox, pres.rank, group, xi).h1_dim())
              for xi in chars]
    return FiniteTorusVariety(group, n, depths)


# --- rank-one torus (abelianization Z) ----------------------------------------


def _row_to_polys(row: list[GroupRingElt]) -> list[UniPoly]:
    """One-variable Fox-matrix row as polynomials in t, shifted as a whole.

    The row is multiplied by t^-low, where low is its least exponent: t is a
    unit on the character torus, so every minor changes by a unit.  Shifting each
    entry by its own power of t would change the minors.
    """
    low = min((m[0] for elt in row for m in elt), default=0)
    out = []
    for elt in row:
        coeffs = [0] * max((m[0] - low + 1 for m in elt), default=0)
        for m, c in elt.items():
            coeffs[m[0] - low] = c
        out.append(UniPoly(coeffs))
    return out


def _poly_minors(matrix: list[list[UniPoly]], size: int):
    """The size-by-size minors of a matrix with at least size rows and
    columns, one at a time, in a fixed order."""
    for ris in combinations(range(len(matrix)), size):
        rows = [matrix[i] for i in ris]
        for cjs in combinations(range(len(matrix[0])), size):
            yield poly_det([[row[j] for j in cjs] for row in rows])


class RankOneStratum:
    """V_k of a rank-one torus, described by the gcd of (g-k)-minors."""

    __slots__ = ("k", "full", "cyclotomic", "residual", "includes_one")

    def __init__(self, k: int, full: bool, cyclotomic: dict[int, int],
                 residual: UniPoly, includes_one: bool):
        self.k = k
        self.full = full                # every nontrivial character qualifies
        self.cyclotomic = cyclotomic    # Phi_N -> multiplicity in the gcd
        self.residual = residual        # non-cyclotomic leftover, primitive
        self.includes_one = includes_one

    def is_empty(self) -> bool:
        return (not self.full and not self.cyclotomic
                and self.residual.degree < 1 and not self.includes_one)

    def contains_primitive(self, order: int) -> bool:
        """Whether the primitive order-th roots of unity lie in the stratum."""
        if order == 1:
            return self.includes_one
        if self.full:
            return True
        if self.cyclotomic.get(order):
            return True
        if self.residual.degree >= 1:
            rem = self.residual % cyclotomic_polynomial(order)
            return rem.is_zero()
        return False

    def describe(self) -> str:
        if self.full:
            return "all of C* - {1}" + (" u {1}" if self.includes_one else "")
        parts = []
        if self.includes_one:
            parts.append("{1}")
        for n in sorted(self.cyclotomic):
            if n == 1:
                continue   # membership of 1 is decided by the Betti rule
            parts.append(f"mu{n}-primitive")
        if self.residual.degree >= 1:
            parts.append(f"roots of {self.residual}")
        return " u ".join(parts) if parts else "{}"


class RankOneVariety:
    """The strata V_1, V_2, ... of a group whose abelianization ``group`` is Z."""

    __slots__ = ("betti", "strata", "group")

    def __init__(self, betti: int, strata: list[RankOneStratum],
                 group: AbelianGroup):
        self.betti = betti
        self.strata = strata
        self.group = group

    def stratum(self, k: int) -> RankOneStratum:
        for s in self.strata:
            if s.k == k:
                return s
        # beyond the last computed stratum everything is empty
        return RankOneStratum(k, False, {}, UniPoly([1]), self.betti >= k)

    def contains_primitive(self, k: int, order: int) -> bool:
        return self.stratum(k).contains_primitive(order)


def charvar_rank_one(pres: Presentation,
                     group: AbelianGroup | None = None) -> RankOneVariety:
    """Characteristic varieties when the abelianization is Z.

    V_k away from 1 is cut out by the (g-k)-minors of the Fox matrix in the
    single variable t; their gcd is split over Z[t] into all of its
    cyclotomic factors Phi_N, whatever N, plus a residual with no root of
    unity among its roots.  Membership of the trivial character follows the
    Betti rule: 1 lies in V_k exactly when the first Betti number is at
    least k.  The gcd is taken up to units of Z[t, t^-1], so powers of t
    are divided out: 0 is not a character.  The strata are listed up to
    the first empty one, whatever the number of generators, so the listing
    depends on the group alone.  ``group`` is the abelianization of
    ``pres``, computed here when not given.
    """
    if group is None:
        group = abelianization(pres)
    if group.rank != 1 or group.torsion:
        raise CharVarError("rank-one mode needs abelianization Z"
                           " (use per-character tests otherwise)")
    g = pres.rank
    matrix = [_row_to_polys(row) for row in fox_matrix(pres, group)]
    betti = 1
    strata = []
    for k in count(1):
        size = g - k
        includes_one = betti >= k
        if size <= 0:
            # no minors: V_k is {1} or empty by the Betti rule
            strata.append(RankOneStratum(k, False, {}, UniPoly([1]), includes_one))
            if not includes_one:
                break
            continue
        if size > len(matrix):
            # too few relators to constrain the rank: every character qualifies
            strata.append(RankOneStratum(k, True, {}, UniPoly(), includes_one))
            continue
        acc = UniPoly()
        for mnr in _poly_minors(matrix, size):
            acc = poly_gcd(acc, mnr)
            if acc.degree == 0:
                break       # the monic gcd is 1, whatever the other minors are
        if acc.is_zero():
            strata.append(RankOneStratum(k, True, {}, UniPoly(), includes_one))
            continue
        zeros = next(i for i, c in enumerate(acc.coeffs) if c)  # t^zeros | acc
        factors, residual = cyclotomic_factors(UniPoly(acc.coeffs[zeros:]))
        factors.pop(1, None)    # t - 1: the Betti rule governs 1
        stratum = RankOneStratum(k, False, factors, residual.primitive_int(),
                                 includes_one)
        strata.append(stratum)
        if stratum.is_empty():
            break
    return RankOneVariety(betti, strata, group)


def characteristic_variety(pres: Presentation
                           ) -> FiniteTorusVariety | RankOneVariety:
    """The characteristic varieties in the one mode the abelianization allows:
    every character when it is finite, the rank-one torus C* when it is Z."""
    group = abelianization(pres)
    if group.rank == 0:
        return charvar_finite_torus(pres, group)
    if group.rank == 1 and not group.torsion:
        return charvar_rank_one(pres, group)
    raise CharVarError(f"abelianization {group}: characteristic varieties"
                       " need a finite abelianization or Z")
