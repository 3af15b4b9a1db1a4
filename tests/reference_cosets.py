"""Test-only copy of the HLT coset enumerator that cosets used to ship.

HLT with lookahead: scan every relator at every live coset, defining new
cosets as needed, with a full lookahead pass (scanning without defining) and
a compaction when the coset limit is hit.  ``todd_coxeter`` here returns the
BFS-standardized ``(action, inverse)`` of a word-mode subgroup, so any other
enumeration strategy must return exactly the same lists.
"""

from collections import deque

from meridian.cosets import CosetOverflow, SubgroupSpec
from meridian.fpgroups import Presentation

UNDEF = -1


class _TableFull(Exception):
    pass


class _Enumerator:
    """HLT coset enumeration with coincidence handling via union-find."""

    def __init__(self, n_gens: int, relators, subgroup_words, max_cosets: int):
        self.n = n_gens
        self.ncols = 2 * n_gens
        self.relators = [tuple(r) for r in relators]
        self.subgroup_words = [tuple(w) for w in subgroup_words if w]
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [self._new_row()]
        self.p = [0]
        self.queue: deque[int] = deque()

    def _new_row(self):
        return [UNDEF] * self.ncols

    @staticmethod
    def _col(x: int) -> int:
        return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1

    def rep(self, c: int) -> int:
        root = c
        while self.p[root] != root:
            root = self.p[root]
        while self.p[c] != root:
            self.p[c], c = root, self.p[c]
        return root

    def _merge(self, a: int, b: int):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            self.queue.append(b)

    def _coincidence(self, a: int, b: int):
        self._merge(a, b)
        while self.queue:
            dead = self.queue.popleft()
            row = self.table[dead]
            for g in range(1, self.n + 1):
                for signed in (g, -g):
                    col = self._col(signed)
                    delta = row[col]
                    if delta == UNDEF:
                        continue
                    row[col] = UNDEF
                    back = self._col(-signed)
                    if self.table[delta][back] == dead:
                        self.table[delta][back] = UNDEF
                    mu, nu = self.rep(dead), self.rep(delta)
                    existing = self.table[mu][col]
                    if existing != UNDEF:
                        self._merge(existing, nu)
                        continue
                    existing_back = self.table[nu][back]
                    if existing_back != UNDEF:
                        self._merge(existing_back, mu)
                    else:
                        self.table[mu][col] = nu
                        self.table[nu][back] = mu

    def _set_edge(self, c: int, signed: int, d: int):
        self.table[c][self._col(signed)] = d
        self.table[d][self._col(-signed)] = c

    def _define(self, c: int, signed: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise _TableFull
        self.table.append(self._new_row())
        self.p.append(len(self.table) - 1)
        d = len(self.table) - 1
        self._set_edge(c, signed, d)
        return d

    def _scan(self, c: int, word, fill: bool):
        """Trace ``word`` from coset c both ways, filling or deducing."""
        f, i = c, 0
        b, j = c, len(word) - 1
        while True:
            while i <= j:
                nxt = self.table[f][self._col(word[i])]
                if nxt == UNDEF:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                nxt = self.table[b][self._col(-word[j])]
                if nxt == UNDEF:
                    break
                b = nxt
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if i == j:
                self._set_edge(f, word[i], b)
                return
            if not fill:
                return
            self._define(f, word[i])

    def run(self):
        while True:
            try:
                self._main_pass()
                break
            except _TableFull:
                self._lookahead_and_compact()
        return self._finish()

    def _main_pass(self):
        for w in self.subgroup_words:
            self._scan(0, w, fill=True)
        alpha = 0
        while alpha < len(self.table):
            if self.rep(alpha) != alpha:
                alpha += 1
                continue
            for rel in self.relators:
                self._scan(alpha, rel, fill=True)
                if self.rep(alpha) != alpha:
                    break
            if self.rep(alpha) == alpha:
                for g in range(1, self.n + 1):
                    for signed in (g, -g):
                        if self.table[alpha][self._col(signed)] == UNDEF:
                            self._define(alpha, signed)
            alpha += 1

    def _lookahead_and_compact(self):
        before = sum(1 for c in range(len(self.table)) if self.rep(c) == c)
        for c in range(len(self.table)):
            if self.rep(c) != c:
                continue
            for rel in self.relators:
                self._scan(c, rel, fill=False)
                if self.rep(c) != c:
                    break
        live = [c for c in range(len(self.table)) if self.rep(c) == c]
        # no-progress guard: thrashing at the cap means the index is out of reach
        if len(live) >= self.max_cosets or len(live) == before:
            raise CosetOverflow(self.max_cosets)
        remap = {c: i for i, c in enumerate(live)}
        new_table = []
        for c in live:
            row = []
            for col in range(self.ncols):
                d = self.table[c][col]
                row.append(UNDEF if d == UNDEF else remap[self.rep(d)])
            new_table.append(row)
        self.table = new_table
        self.p = list(range(len(live)))
        self.queue.clear()

    def _finish(self):
        live = [c for c in range(len(self.table)) if self.rep(c) == c]
        remap = {c: i for i, c in enumerate(live)}
        action = [[0] * len(live) for _ in range(self.n)]
        for c in live:
            for g in range(1, self.n + 1):
                d = self.table[c][self._col(g)]
                action[g - 1][remap[c]] = remap[self.rep(d)]
        inverse = [_invert_perm(perm) for perm in action]
        return action, inverse


def _invert_perm(perm):
    inv = [0] * len(perm)
    for c, d in enumerate(perm):
        inv[d] = c
    return inv


def _standardize(action, inverse):
    """Renumber cosets in BFS order from 0, exploring generators in order."""
    n = len(action)
    size = len(action[0]) if action else 0
    order = [0]
    seen = {0}
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for g in range(n):
            for nxt in (action[g][c], inverse[g][c]):
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
    remap = {c: i for i, c in enumerate(order)}
    new_action = []
    for g in range(n):
        perm = [0] * size
        for c in range(size):
            perm[remap[c]] = remap[action[g][c]]
        new_action.append(perm)
    return new_action, [_invert_perm(p) for p in new_action]


def todd_coxeter(pres: Presentation, subgroup: SubgroupSpec | None = None,
                 max_cosets: int = 10 ** 6):
    words = subgroup.words if subgroup is not None else ()
    enum = _Enumerator(pres.rank, pres.relators, words, max_cosets)
    return _standardize(*enum.run())
