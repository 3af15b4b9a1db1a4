"""Test-only copy of the Felsch enumerator that cosets used to ship.

It scans the subgroup words and relator conjugates at coset 0 with a nested
``scan`` of its own, apart from the deduction loop, and gives every subgroup
word the label 1.  ``felsch`` also returns how many table rows it made, so
the enumerator in ``meridian.cosets`` can be held to the same row count on
every input.
"""

from collections import deque

from meridian.cosets import (
    PREFERRED_LIST_SIZE,
    UNDEF,
    CosetOverflow,
    _columns,
)


def _relator_conjugates(relators, ncols: int):
    """Distinct cyclic conjugates of each relator and its inverse, as columns.

    ``out[col]`` lists the conjugates whose first column is col, shortest
    relators first, each as (the columns after the first, the inverse
    columns, the last index, the paths): a deduction scan at an edge in
    column col starts past it and reads the inverse columns backwards.
    ``paths[i]`` is the columns after letter i round to the one before it,
    along which the labels of a gap at letter i are read; it is the first
    item of another conjugate, so nothing is copied.  Only lists are
    iterated, so the order does not depend on hashing.
    """
    out: list[list[tuple]] = [[] for _ in range(ncols)]
    seen = set()
    for rel in sorted(relators, key=len):
        cols = _columns(rel)
        for word in (cols, [c ^ 1 for c in reversed(cols)]):
            n = len(word)
            tails = [tuple(word[k + 1:] + word[:k]) for k in range(n)]
            for k in range(n):
                conj = tuple(word[k:] + word[:k])
                if conj not in seen:
                    seen.add(conj)
                    out[conj[0]].append((
                        tails[k], tuple(c ^ 1 for c in conj), n - 1,
                        tuple(tails[(k + i) % n] for i in range(n))))
    return out


def felsch(n_gens: int, relators, subgroup_words, max_cosets: int):
    """Enumerate; returns (live cosets, step, rows), step(c, col) being the
    live coset that column col leads to from c and the label of that edge,
    and rows the number of table rows made, dead ones included.
    CosetOverflow at the cap.

    Coset c stands for a fixed element t_c of its coset, t_0 = 1, t_d = t_c x
    when d is defined as c.x.  An entry (c, x) -> d carries the label L with
    t_c x = w^L t_d, and both directions of an edge carry it, negated
    backwards.  The labels speak of w when it is the only subgroup word; with
    more words nothing reads them.  A scan that closes, or deduces its gap,
    at coset c reads the labels of the letters it traced (no other scan
    does): t_c r = t_c for a relator r and t_0 w = w t_0 give the label the
    gap needs, or the power of w between two coinciding cosets, which the
    union-find keeps as ``shift``: t_c = w^shift[c] t_parent[c].  Only rows
    with a nonzero label are stored, so a definition costs no label work.
    """
    ncols = 2 * n_gens
    starting_with = _relator_conjugates(relators, ncols)
    fill_factor = 5 * (ncols + 2) // 4
    table = [[UNDEF] * ncols]
    parent = [0]
    labels: dict[int, list[int]] = {}    # c -> its labels, if one is nonzero
    shift: dict[int, int] = {}
    deductions: list[tuple[int, int]] = []
    preferred: deque[tuple[int, int]] = deque(maxlen=PREFERRED_LIST_SIZE)

    def find(c):
        """Live coset of c, and k with t_c = w^k t_live."""
        if parent[c] == c:
            return c, 0
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        k = 0
        for dead in reversed(path):
            k += shift[dead]
            shift[dead], parent[dead] = k, c
        return c, k

    def label(c, col):
        return labels[c][col] if c in labels else 0

    def join(a, col, b, k):
        """Set the edge a.col = b with label k, both ways; push it."""
        table[a][col] = b
        table[b][col ^ 1] = a
        if k:
            labels.setdefault(a, [0] * ncols)[col] = k
            labels.setdefault(b, [0] * ncols)[col ^ 1] = -k
        deductions.append((a, col))

    def gap_label(b, path, target):
        """k with t_f u = w^k t_b, where a word whose cycle has label target
        is u followed by ``path``, the columns that lead from b to f."""
        for x in path:
            if b in labels:
                target -= labels[b][x]
            b = table[b][x]
        return target

    def coincidence(a, b, k):
        """Merge a and b, with t_a = w^k t_b, and everything that forces;
        moved edges are pushed."""
        queue = deque()

        def merge(a, b, k):
            (a, ka), (b, kb) = find(a), find(b)
            if a != b:
                k += kb - ka
                if b < a:
                    a, b, k = b, a, -k
                parent[b] = a
                shift[b] = -k
                queue.append(b)

        merge(a, b, k)
        while queue:
            dead = queue.popleft()
            row = table[dead]
            row_labels = labels.pop(dead, None) or [0] * ncols
            for col in range(ncols):
                delta = row[col]
                if delta == UNDEF:
                    continue
                row[col] = UNDEF
                k = row_labels[col]
                back = col ^ 1
                if table[delta][back] == dead:
                    table[delta][back] = UNDEF
                    if delta in labels:
                        labels[delta][back] = 0
                (mu, k_mu), (nu, k_nu) = find(dead), find(delta)
                k += k_nu - k_mu                 # t_mu x = w^k t_nu
                existing = table[mu][col]
                if existing != UNDEF:
                    merge(existing, nu, k - label(mu, col))
                    continue
                existing_back = table[nu][back]
                if existing_back != UNDEF:
                    merge(existing_back, mu, -k - label(nu, back))
                else:
                    join(mu, col, nu, k)

    def define(c, col):
        d = len(table)
        if d >= max_cosets:
            raise CosetOverflow(max_cosets)
        row = [UNDEF] * ncols
        row[col ^ 1] = c
        table.append(row)
        parent.append(d)
        table[c][col] = d
        deductions.append((c, col))

    def scan(c, word, target, fill):
        """Trace word from c both ways, defining cosets until it closes if
        fill is set; otherwise only a deduction or a coincidence."""
        inverse = [x ^ 1 for x in word]
        cycle = word + word

        def closing(i, j):
            return gap_label(b, cycle[j + 1:len(word) + i], target)

        f, i = c, 0
        b, j = c, len(word) - 1
        while True:
            while i <= j:
                nxt = table[f][word[i]]
                if nxt == UNDEF:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b, closing(i, j))
                return
            while j >= i:
                nxt = table[b][inverse[j]]
                if nxt == UNDEF:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b, closing(i, j))
                return
            if i == j:
                join(f, word[i], b, closing(i, j))
                return
            if not fill:
                return
            define(f, word[i])

    def define_preferred():
        """Define the newest preferred entry still open; False if none is."""
        while preferred:
            c, col = preferred.pop()
            if parent[c] == c and table[c][col] == UNDEF:
                define(c, col)
                return True
        return False

    # The subgroup words and then all relator conjugates are scanned at
    # coset 0, first for what they give without a definition.
    initial = [(_columns(w), 1) for w in subgroup_words] + [
        ((col,) + tail, 0)
        for col, words in enumerate(starting_with) for tail, _, _, _ in words]
    for fill in (False, True):
        for word, target in initial:
            scan(0, word, target, fill)
    # Each round empties the deduction stack, then makes one definition.
    alpha = 0
    while True:
        # Only the source coset of a deduction is scanned: a relator cycle
        # that crosses the edge backwards is a cycle of a conjugate of r^-1
        # crossing it forwards.  Each conjugate is traced forwards from c,
        # then backwards; a gap of one letter is a deduction, a gap of two a
        # preferred definition.  Labels are read only when the scan closes or
        # deduces.
        while deductions:
            c, col = deductions.pop()
            if parent[c] != c:
                continue
            for tail, inverse, last, paths in starting_with[col]:
                # the first letter is the edge (c, col), which a coincidence
                # may have undone
                f, i = table[c][col], 1
                if f == UNDEF:
                    f, i = c, 0
                else:
                    for x in tail:
                        nxt = table[f][x]
                        if nxt == UNDEF:
                            break
                        f = nxt
                        i += 1
                    else:
                        if f != c:
                            coincidence(f, c, gap_label(c, (col,) + tail, 0))
                            if parent[c] != c:
                                break
                        continue
                b, j = c, last
                while j >= i:
                    nxt = table[b][inverse[j]]
                    if nxt == UNDEF:
                        break
                    b = nxt
                    j -= 1
                else:
                    coincidence(f, b, gap_label(
                        b, (inverse[i] ^ 1,) + paths[i], 0))
                    if parent[c] != c:
                        break
                    continue
                if j == i:
                    # join(f, x, b, gap_label(b, paths[i], 0)), inlined:
                    # deductions are the one frequent outcome of a scan
                    x = inverse[i] ^ 1
                    table[f][x] = b
                    table[b][x ^ 1] = f
                    deductions.append((f, x))
                    path = paths[i]
                    # a labelled edge has both ends labelled, so a path of
                    # at most two edges is unlabelled when its ends are
                    if labels and (len(path) > 2 or b in labels
                                   or f in labels):
                        k, g = 0, b
                        for y in path:
                            if g in labels:
                                k -= labels[g][y]
                            g = table[g][y]
                        if k:
                            labels.setdefault(f, [0] * ncols)[x] = k
                            labels.setdefault(b, [0] * ncols)[x ^ 1] = -k
                elif j == i + 1:
                    preferred.append((f, inverse[i] ^ 1))

        while alpha < len(table) and (parent[alpha] != alpha
                                      or UNDEF not in table[alpha]):
            alpha += 1
        if alpha == len(table):
            break
        row = table[alpha]
        # A preferred definition may run ahead of row alpha only while
        # the table has fewer than fill_factor rows per row up to alpha.
        if not (preferred and len(table) < fill_factor * (alpha + 1)
                and define_preferred()):
            # define(alpha, col), inlined: a call per row is about 5% of
            # an enumeration that fills the cap
            col = row.index(UNDEF)
            d = len(table)
            if d >= max_cosets:
                raise CosetOverflow(max_cosets)
            new = [UNDEF] * ncols
            new[col ^ 1] = alpha
            table.append(new)
            parent.append(d)
            row[col] = d
            deductions.append((alpha, col))

    def step(c, col):
        # live rows may still point at cosets that died in a coincidence
        d, k = find(table[c][col])
        return d, k + label(c, col)

    return [c for c, p in enumerate(parent) if p == c], step, len(table)
