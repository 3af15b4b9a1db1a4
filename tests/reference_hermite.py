"""Test-only copy of the Hermite echelon that abelian used to ship.

After every change of the basis, ``_reduce_above`` walked every pair of
pivots at or past the leftmost changed column, whether or not an entry
there could have moved, and rebuilt each reduced row whole.  The Hermite
normal form of a lattice is unique, so its result is the oracle for the
echelon that reduces only where a change can have moved an entry.
"""

from meridian.abelian import _xgcd


def _reduce_above(basis, low):
    """Reduce the entries above every pivot in column >= low into [0, pivot)."""
    pivots = sorted(basis)
    for p in reversed(pivots):
        row = basis[p]
        for c in pivots:
            if c > p and c >= low:
                q = row[c] // basis[c][c]
                if q:
                    row = [x - q * y for x, y in zip(row, basis[c])]
        basis[p] = row


def hermite_basis(rows, dim):
    """Hermite normal form of the span of the rows: pivot column -> row."""
    basis = {}
    for row in rows:
        row = list(row)
        low = dim    # leftmost pivot column this row changed
        col = 0
        while True:
            col = next((c for c in range(col, dim) if row[c]), dim)
            if col == dim:
                break
            piv = basis.get(col)
            if piv is None:
                basis[col] = row if row[col] > 0 else [-x for x in row]
                low = min(low, col)
                break
            a, b = piv[col], row[col]
            q, r = divmod(b, a)
            if r:
                g, s, t = _xgcd(a, b)
                basis[col] = [s * x + t * y for x, y in zip(piv, row)]
                a, b = a // g, b // g
                row = [a * y - b * x for x, y in zip(piv, row)]
                low = min(low, col)
            else:
                row[col:] = [y - q * x for x, y in zip(piv[col:], row[col:])]
        if low < dim:
            _reduce_above(basis, low)
    return basis
