"""Test-only copy of the epimorphism search that cosets used to ship.

It tests every one of the size^rank generator assignments, evaluating each
relator letter by letter and finding the inverse of an inverted letter's
image by scanning that element's row for the identity.  The search in
``meridian.cosets`` tests one first image per conjugacy class and conjugates
the survivors; it must return the same list, in the same order, for every
presentation, target and cap.
"""

from itertools import product

from meridian.cosets import MultTable, SearchCapExceeded
from meridian.fpgroups import Presentation, Word


def _inverse(mt: MultTable, a: int) -> int:
    row = mt.table[a]
    for b in range(mt.size):
        if row[b] == mt.identity:
            return b
    raise ValueError("element has no inverse; not a group table")


def _evaluate(mt: MultTable, w: Word, images) -> int:
    acc = mt.identity
    for x in w:
        e = images[abs(x) - 1]
        if x < 0:
            e = _inverse(mt, e)
        acc = mt.table[acc][e]
    return acc


def find_epimorphisms(pres: Presentation, mt: MultTable,
                      cap: int = 10 ** 7) -> list[tuple[int, ...]]:
    total = mt.size ** pres.rank
    if total > cap:
        raise SearchCapExceeded(f"search space {total} exceeds cap {cap}")
    out = []
    for assign in product(range(mt.size), repeat=pres.rank):
        if all(_evaluate(mt, rel, assign) == mt.identity
               for rel in pres.relators):
            if len(mt.closure(assign)) == mt.size:
                out.append(assign)
    return out
