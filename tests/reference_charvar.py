"""Test-only depths of characters over Q, by realified ranks.

An element a of Z[zeta_n] acts on Q(zeta_n) = Q^phi(n), with basis
1, zeta, ..., zeta^(phi(n)-1), by its multiplication matrix, and a |-> that
matrix is an injective ring homomorphism.  So a matrix over Q(zeta_n) of rank
r becomes, entry by entry, a block matrix over Z of rank r * phi(n), whose
rank ``abelian.hermite_basis`` counts as its pivots.  ``depth`` evaluates at
the full modulus N of the character, not at its order, and ranks d1 as it
is, so it shares neither the order reduction nor the rank rule of d1 with
``charvar``'s route.
"""

from meridian.abelian import Character, hermite_basis
from meridian.charvar import GroupRingElt, fox_matrix
from meridian.exactalg import UniPoly, cyclotomic_polynomial


def evaluate(elt: GroupRingElt, xi: Character, n: int) -> UniPoly:
    """xi(elt) as a polynomial in zeta_n mod Phi_n, for n a multiple of the
    order of xi."""
    coeffs = [0] * n
    for mono, c in elt.items():
        coeffs[xi.value_exponent(mono) * n // xi.modulus] += c
    return UniPoly(coeffs) % cyclotomic_polynomial(n)


def multiplication_matrix(a: UniPoly, n: int) -> list[list[int]]:
    """Row k holds the coordinates of zeta^k * a in Q(zeta_n)."""
    phi = cyclotomic_polynomial(n)
    size = phi.degree
    rows = []
    for k in range(size):
        cs = list((UniPoly.monomial(k) * a % phi).coeffs)
        rows.append(cs + [0] * (size - len(cs)))
    return rows


def realified_rank(rows: list[list[UniPoly]], n: int) -> int:
    """Rank over Q(zeta_n) of a matrix of integer polynomials in zeta_n."""
    if not rows or not rows[0]:
        return 0
    size = cyclotomic_polynomial(n).degree
    block = []
    for row in rows:
        blocks = [multiplication_matrix(a, n) for a in row]
        for k in range(size):
            block.append([x for b in blocks for x in b[k]])
    pivots = len(hermite_basis(block, len(rows[0]) * size))
    assert pivots % size == 0
    return pivots // size


def depth(pres, group, xi: Character) -> int:
    """dim H_1 at xi: rank C_1 - rank d1 - rank d2, both ranks realified."""
    n = xi.modulus
    d1 = [[evaluate({image: 1}, xi, n) - UniPoly([1])]
          for image in group.gen_images]
    d2 = [[evaluate(e, xi, n) for e in row] for row in fox_matrix(pres, group)]
    return pres.rank - realified_rank(d1, n) - realified_rank(d2, n)


def fundamental_formula(matrix: list[list[GroupRingElt]], group,
                        xi: Character) -> list[UniPoly]:
    """sum_j dr/dg_j (xi(g_j) - 1) mod Phi_d for each row dr of the Fox
    matrix, d the order of xi: every one is zero by Fox's fundamental
    formula, since xi(r) = 1."""
    d = xi.order()
    d1 = [evaluate({image: 1}, xi, d) - UniPoly([1])
          for image in group.gen_images]
    phi = cyclotomic_polynomial(d)
    out = []
    for row in matrix:
        total = UniPoly()
        for e, x in zip(row, d1):
            total = total + evaluate(e, xi, d) * x
        out.append(total % phi)
    return out
