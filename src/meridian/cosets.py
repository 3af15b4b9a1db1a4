"""Coset enumeration and what it yields: orders, centers, subgroup presentations.

The enumerator follows Felsch's strategy with preferred definitions, as in
Havas and Ramsay's ACE (Havas, "Coset enumeration strategies", ISSAC 1991).
Every scanned word is compiled once into table columns and inverse columns;
the distinct cyclic conjugates of the relators and their inverses are
indexed by first letter.  One loop does every scan: first the coset-0 scans
of the subgroup generators and then of all relator conjugates, once without a
definition and once filled, then the deductions, one definition at a time.
Every edge that gets set (a definition, a deduction, or an edge moved while a
coincidence collapses) goes on a deduction stack, which the loop empties
after each definition: an edge is processed by scanning, at its source coset,
the conjugates that start with its letter.  A scan left with a gap of one
letter deduces that entry; a gap of two letters makes the first of them a
preferred definition, since defining it lets the next scan deduce the second.
The next definition is the newest preferred entry still open while the table
has fewer than F*(alpha+1) rows, where alpha is the first live incomplete row
and F = 5*(columns+2)//4 is ACE's default fill factor; otherwise it is the
first undefined entry of row alpha.  The bound keeps definitions in table
order coming, which the argument that the enumeration finishes needs.
Coincidences merge through union-find, the smaller coset surviving.

The trivial subgroup is not enumerated itself.  The same pass enumerates the
cosets of H = <w>, w = g1*g2*...*gn, and labels each entry (c, x) with an
integer L such that rep(c) x = w^L rep(c.x) in G, so every label is a true
statement: this is the modified Todd-Coxeter procedure of a cyclic subgroup
(Neubuser, 1982; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, ch. 5).  The label belongs to the scanned cycle: 1 for w at
coset 0, 0 for a relator and for every generator of a subgroup given by
words, so the tables of such subgroups carry no labels.  The gcd m of the
label sums of every relator at every coset and of (the label sum of w at
coset 0) - 1 is exactly |H|, and the regular action on Z/m x cosets, walked
from (0, 0), is the table of the trivial subgroup (``_regular`` has the
proof).  On the order-320 groups of the pipeline that takes 88 to 466 rows
where the trivial subgroup took 370 to 3,590.

``max_cosets`` caps the rows of the table, dead ones included; there is no
lookahead, and reaching the cap raises CosetOverflow.  For the trivial
subgroup it caps the rows of the table of <w> and |G|; an abelianization of
positive rank or m = 0 shows G infinite and raises at once.  For a kernel
subgroup it caps the index, which is computed before the walk.  Tables keep
both directions of every edge, so generator and inverse actions stay mutually
inverse.  One breadth-first walk numbers Felsch tables, the regular action
and kernel tables alike, so the output is deterministic and does not depend
on the strategy.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property, reduce
from itertools import product
from math import gcd, prod

from . import fpgroups
from .abelian import AbelianGroup, abelian_invariants, quotient_invariants
from .fpgroups import InputError, Presentation, Word, invert, multiply, reduce_word


class CosetOverflow(RuntimeError):
    """The table reached max_cosets rows; the index might still be finite."""

    def __init__(self, limit):
        super().__init__(f"coset enumeration exceeded {limit} cosets")
        self.limit = limit


class SearchCapExceeded(RuntimeError):
    """The epimorphism search space is larger than the cap allows."""


class InvalidSubgroup(InputError):
    """Kernel-mode subgroup data that does not contain all relators."""


class KernelSpec(namedtuple("KernelSpec", "moduli images")):
    """Kernel of the map onto the finite abelian group prod_i Z/moduli[i].

    ``images`` lists, per presentation generator, its image coordinates.
    Membership of a word is the vanishing of its image, so the infinite
    generating set of the kernel never needs to be written down.
    """

    __slots__ = ()


class SubgroupSpec(namedtuple("SubgroupSpec", "words kernel",
                              defaults=((), None))):
    """Either explicit generator words or kernel-of-abelian-map data."""

    __slots__ = ()

    @classmethod
    def trivial(cls) -> "SubgroupSpec":
        return cls()

    @classmethod
    def from_words(cls, words) -> "SubgroupSpec":
        return cls(words=tuple(reduce_word(w) for w in words))

    @classmethod
    def kernel_of(cls, moduli, images) -> "SubgroupSpec":
        return cls(kernel=KernelSpec(tuple(moduli),
                                     tuple(tuple(i) for i in images)))

    def is_trivial_subgroup(self) -> bool:
        return self.kernel is None and all(not w for w in self.words)


class CosetTable:
    """Permutation action of the generators on the cosets of a subgroup.

    Coset 0 is the subgroup itself.  ``action[g-1][c]`` is the image of coset
    c under generator g; ``inverse[g-1]`` is the inverse permutation.
    """

    __slots__ = ("n_gens", "action", "inverse", "subgroup")

    def __init__(self, n_gens: int, action: list[list[int]],
                 inverse: list[list[int]], subgroup: SubgroupSpec):
        self.n_gens = n_gens
        self.action = action
        self.inverse = inverse
        self.subgroup = subgroup

    @property
    def index(self) -> int:
        return len(self.action[0]) if self.action else 1

    def trace(self, start: int, w: Word) -> int:
        c = start
        for x in w:
            c = self.action[x - 1][c] if x > 0 else self.inverse[-x - 1][c]
        return c


UNDEF = -1


def _columns(word: Word) -> list[int]:
    """Table columns of a word's letters: g is 2(g-1), g^-1 is 2(g-1)+1."""
    return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in word]


def _conjugates(cols: list[int]):
    """The cyclic conjugates of a word given as columns, from each letter k,
    as (first column, (tail, inverse, start, last, paths)): the conjugate is
    letters k to last = k + n - 1 of the word doubled, ``tail`` the columns of
    letters start = k + 1 to last, ``inverse[i]`` the inverse column of letter
    i, and ``paths[i]`` the columns after letter i round to the one before,
    along which the labels of a gap at letter i are read.  The conjugates
    share ``inverse`` and ``paths``, and each tail is an item of ``paths``.
    """
    n = len(cols)
    paths = tuple(tuple(cols[k + 1:] + cols[:k]) for k in range(n)) * 2
    inverse = tuple(c ^ 1 for c in cols) * 2
    return [(cols[k], (paths[k], inverse, k + 1, k + n - 1, paths))
            for k in range(n)]


def _relator_conjugates(relators, ncols: int):
    """Distinct cyclic conjugates of each relator and its inverse.

    ``out[col]`` lists the conjugates whose first column is col, shortest
    relators first, as ``_conjugates`` compiles them: a deduction scan at an
    edge in column col starts past it and reads the inverse columns
    backwards.  Only lists are iterated, so the order does not depend on
    hashing.
    """
    out: list[list[tuple]] = [[] for _ in range(ncols)]
    seen = set()
    for rel in sorted(relators, key=len):
        cols = _columns(rel)
        for word in (cols, [c ^ 1 for c in reversed(cols)]):
            for col, conj in _conjugates(word):
                key = (col,) + conj[0]
                if key not in seen:
                    seen.add(key)
                    out[col].append(conj)
    return out


# At most this many preferred definitions are kept; the oldest drop out first.
PREFERRED_LIST_SIZE = 256


def _felsch(n_gens: int, relators, subgroup_words, max_cosets: int):
    """Enumerate over the subgroup of the words of ``subgroup_words``, a list
    of (word, label) pairs; returns (live cosets, step), step(c, col) being
    the live coset that column col leads to from c and the label of that
    edge.  CosetOverflow at the cap.

    Coset c stands for a fixed element t_c of its coset, t_0 = 1, t_d = t_c x
    when d is defined as c.x.  An entry (c, x) -> d carries the label L with
    t_c x = w^L t_d, and both directions of an edge carry it, negated
    backwards.  A label belongs to the cycle a scan traces: 0 for a relator,
    and for a subgroup word the label of its pair, 1 for w at coset 0 on the
    route of ``_regular`` and 0 in word mode, where no label is ever stored.
    A scan that closes, or deduces its gap, at coset c reads the labels of
    the letters it traced (no other scan does): t_c u = w^label t_c for the
    cycle u gives the label the gap needs, or the power of w between two
    coinciding cosets, which the union-find keeps as ``shift``:
    t_c = w^shift[c] t_parent[c].  Only rows with a nonzero label are
    stored, so a definition costs no label work.

    One loop does every scan.  Before any deduction it drains ``scans``, the
    coset-0 scans as items (coset, first column, conjugates, cycle label,
    fill), once without definitions and once filled; a fill item defines one
    coset at its gap and is queued again.
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

    def define_preferred():
        """Define the newest preferred entry still open; False if none is."""
        while preferred:
            c, col = preferred.pop()
            if parent[c] == c and table[c][col] == UNDEF:
                define(c, col)
                return True
        return False

    # ``scans`` holds the items in reverse.  Its bottom item scans nothing:
    # it sets the cycle label 0 and filling off, which every deduction after
    # it keeps, so a deduction, the frequent item, only picks its conjugates.
    initial = [(col, conj, target) for word, target in subgroup_words
               for col, conj in _conjugates(_columns(word))[:1]]
    initial += [(col, conj, 0) for col, conjugates in enumerate(starting_with)
                for conj in conjugates]
    scans = [(0, 0, (), 0, False)] + [
        (0, col, (conj,), target, fill) for fill in (True, False)
        for col, conj, target in reversed(initial)]
    # Each round empties both stacks, then makes one definition.
    alpha = 0
    while True:
        # Only the source coset of a deduction is scanned: a relator cycle
        # that crosses the edge backwards is a cycle of a conjugate of r^-1
        # crossing it forwards.  Each conjugate is traced forwards from c,
        # then backwards; a gap of one letter is a deduction, a gap of two a
        # preferred definition, unless the scan fills.  Labels are read only
        # when the scan closes or deduces.
        while deductions or scans:
            if scans:
                c, col, conjugates, target, fill = scans.pop()
            else:
                c, col = deductions.pop()
                if parent[c] != c:
                    continue
                conjugates = starting_with[col]
            for tail, inverse, i, last, paths in conjugates:
                # the first letter is the edge (c, col), which a coincidence
                # may have undone
                f = table[c][col]
                if f == UNDEF:
                    f, i = c, i - 1
                else:
                    for x in tail:
                        nxt = table[f][x]
                        if nxt == UNDEF:
                            break
                        f = nxt
                        i += 1
                    else:
                        if f != c:
                            coincidence(f, c, gap_label(c, (col,) + tail,
                                                        target))
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
                        b, (inverse[i] ^ 1,) + paths[i], target))
                    if parent[c] != c:
                        break
                    continue
                if j == i:
                    # join(f, x, b, gap_label(b, paths[i], target)), inlined:
                    # deductions are the one frequent outcome of a scan
                    x = inverse[i] ^ 1
                    table[f][x] = b
                    table[b][x ^ 1] = f
                    deductions.append((f, x))
                    path = paths[i]
                    # a labelled edge has both ends labelled, so a path of
                    # at most two edges is unlabelled when its ends are
                    if target or labels and (len(path) > 2 or b in labels
                                             or f in labels):
                        k, g = target, b
                        for y in path:
                            if g in labels:
                                k -= labels[g][y]
                            g = table[g][y]
                        if k:
                            labels.setdefault(f, [0] * ncols)[x] = k
                            labels.setdefault(b, [0] * ncols)[x ^ 1] = -k
                elif fill:
                    define(f, inverse[i] ^ 1)
                    scans.append((c, col, conjugates, target, fill))
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

    return [c for c, p in enumerate(parent) if p == c], step


def _standard(n_gens: int, start, step):
    """(action, inverse) numbered in the order a breadth-first walk from
    ``start`` meets the nodes, trying columns g1, g1^-1, g2, ... in turn;
    ``step(node, col)`` is the node a column leads to."""
    number = {start: 0}
    order = [start]
    columns = [[] for _ in range(2 * n_gens)]
    for node in order:
        for col, perm in enumerate(columns):
            nxt = step(node, col)
            k = number.get(nxt)
            if k is None:
                k = number[nxt] = len(order)
                order.append(nxt)
            perm.append(k)
    return columns[0::2], columns[1::2]


def _kernel_table(pres: Presentation, spec: SubgroupSpec,
                  max_cosets: int) -> CosetTable:
    """Cosets are the elements of the target that the generator images reach;
    each relator is stepped from 0 first, so a bad spec is refused before the
    target is walked, and CosetOverflow is raised instead of walking more
    than max_cosets elements.  The images and the rows m_i e_i span a lattice
    L, and the image has prod(m_i) / |Z^r / L| elements."""
    moduli = spec.kernel.moduli
    moves = [tuple(s * i for i in img)
             for img in spec.kernel.images for s in (1, -1)]

    def step(elem, col):
        return tuple((e + i) % m for e, i, m in zip(elem, moves[col], moduli))

    zero = (0,) * len(moduli)
    for rel in pres.relators:
        if reduce(step, _columns(rel), zero) != zero:
            raise InvalidSubgroup(
                f"relator {pres.spell(rel)} maps outside the kernel")
    r = len(moduli)
    rows = [list(img) for img in spec.kernel.images] + [
        [m * (i == j) for j in range(r)] for i, m in enumerate(moduli)]
    if prod(moduli) > max_cosets * prod(quotient_invariants(rows, r).torsion):
        raise CosetOverflow(max_cosets)
    action, inverse = _standard(pres.rank, zero, step)
    return CosetTable(pres.rank, action, inverse, spec)


def _regular(pres: Presentation, max_cosets: int):
    """(action, inverse) of G on itself, from the labelled cosets of <w>,
    w = g1*g2*...*gn.

    Every label is a true statement in G, so the label sum of a relator at a
    coset, and that of w at coset 0 minus 1, are multiples of |<w>|.
    Their gcd m is |<w>| itself: on Z/m x cosets, with (k, c).x =
    (k + label, c.x), every relator acts trivially, since its label sums are
    0 mod m, so G acts; and w moves (k, 0) to (k + 1, 0), so w has order at
    least m.  That G-set is transitive of size |G|, hence regular, and its
    walk from (0, 0) is the standard table of the trivial subgroup.  With
    m = 0 the same argument on Z x cosets makes w of infinite order.  |G| is
    at least the order of its abelianization, which is read first.
    """
    ab = abelian_invariants(pres)
    if ab.rank or prod(ab.torsion) > max_cosets:
        raise CosetOverflow(max_cosets)
    w = tuple(range(1, pres.rank + 1))
    live, step = _felsch(pres.rank, pres.relators, ((w, 1),), max_cosets)
    edges = {c: [step(c, col) for col in range(2 * pres.rank)] for c in live}

    def label_sum(c, cols):
        k = 0
        for col in cols:
            c, label = edges[c][col]
            k += label
        return k

    relators = [_columns(rel) for rel in pres.relators]
    m = reduce(gcd, (label_sum(c, rel) for rel in relators for c in live),
               label_sum(0, _columns(w)) - 1)
    if m == 0 or m * len(live) > max_cosets:
        raise CosetOverflow(max_cosets)

    def regular_step(node, col):
        k, c = node
        d, label = edges[c][col]
        return (k + label) % m, d

    return _standard(pres.rank, (0, 0), regular_step)


def todd_coxeter(pres: Presentation, subgroup: SubgroupSpec | None = None,
                 max_cosets: int = 10 ** 6) -> CosetTable:
    """Enumerate the cosets of a subgroup; raises CosetOverflow at the cap.

    The returned table is complete, collapsed and standardized, so its index
    equals [G : H] whenever the enumeration finishes.  The trivial subgroup
    is enumerated through <g1*...*gn> (``_regular``); max_cosets then caps
    both the rows of that table and |G|.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    if subgroup is None:
        subgroup = SubgroupSpec.trivial()
    if subgroup.kernel is not None:
        return _kernel_table(pres, subgroup, max_cosets)
    if subgroup.is_trivial_subgroup():
        action, inverse = _regular(pres, max_cosets)
    else:
        _, step = _felsch(pres.rank, pres.relators,
                          [(w, 0) for w in subgroup.words], max_cosets)
        action, inverse = _standard(pres.rank, 0,
                                    lambda c, col: step(c, col)[0])
    return CosetTable(pres.rank, action, inverse, subgroup)


def check_table(pres: Presentation, table: CosetTable) -> bool:
    """Relators fix every coset and subgroup generators fix coset 0."""
    for rel in pres.relators:
        for c in range(table.index):
            if table.trace(c, rel) != c:
                return False
    return all(table.trace(0, w) == 0 for w in table.subgroup.words)


# --- finite quotient structure ------------------------------------------------


class MultTable:
    """Multiplication table of a finite group on indices 0..size-1.

    ``inverses[a]`` is the inverse of a.  It is computed once for the whole
    table, on first use, by finding the identity in each row; ``evaluate``
    and the epimorphism search read it, and a table in which some row lacks
    the identity raises ValueError there (``validate`` reaches it too).
    """

    def __init__(self, size: int, table: list[list[int]], identity: int,
                 generator_elements: tuple[int, ...]):
        self.size = size
        self.table = table
        self.identity = identity
        self.generator_elements = generator_elements

    @cached_property
    def inverses(self) -> list[int]:
        try:
            return [row.index(self.identity) for row in self.table]
        except ValueError:
            raise ValueError(
                "element has no inverse; not a group table") from None

    def evaluate(self, w: Word, images) -> int:
        acc, inv = self.identity, self.inverses
        for x in w:
            e = images[x - 1] if x > 0 else inv[images[-x - 1]]
            acc = self.table[acc][e]
        return acc

    def generates(self, seed) -> bool:
        """Whether the seed generates the whole group.

        The subgroup is grown by products with the seed and the answer is
        yes as soon as it holds more than half the group: by Lagrange no
        proper subgroup is that large.
        """
        seed = sorted(set(seed))
        reached = set(seed) | {self.identity}
        half = self.size // 2
        frontier = sorted(reached)
        while frontier:
            nxt = []
            for a in frontier:
                row = self.table[a]
                for s in seed:
                    b = row[s]
                    if b not in reached:
                        reached.add(b)
                        nxt.append(b)
                if len(reached) > half:
                    return True
            frontier = nxt
        return False

    def validate(self, sample: int = 20000) -> bool:
        e = self.identity
        if any(self.table[e][a] != a or self.table[a][e] != a
               for a in range(self.size)):
            return False
        self.inverses      # raises ValueError if some row lacks the identity
        if self.size ** 3 <= sample:
            triples = ((a, b, c) for a in range(self.size)
                       for b in range(self.size) for c in range(self.size))
        else:
            import random

            rng = random.Random(0)
            triples = ((rng.randrange(self.size), rng.randrange(self.size),
                        rng.randrange(self.size)) for _ in range(sample))
        return all(self.table[self.table[a][b]][c]
                   == self.table[a][self.table[b][c]] for a, b, c in triples)


def _spanning_tree(table: CosetTable) -> list[tuple[int, int, int]]:
    """Edges (c, signed generator, d) of the BFS tree from coset 0, in order.

    The table is numbered by this walk, so a tree edge is one that leads to
    the next coset number, len(edges) + 1."""
    edges = []
    for c in range(table.index):
        for g in range(1, table.n_gens + 1):
            for signed, d in ((g, table.action[g - 1][c]),
                              (-g, table.inverse[g - 1][c])):
                if d == len(edges) + 1:
                    edges.append((c, signed, d))
    return edges


def coset_representatives(table: CosetTable) -> list[Word]:
    """Schreier transversal: minimal representative words, by BFS from 0."""
    reps: list[Word] = [()] * table.index
    for c, signed, d in _spanning_tree(table):
        reps[d] = reps[c] + (signed,)
    return reps


def _left_multiplication(table: CosetTable):
    """The function h -> row of h, the list z -> h * z, for a trivial-subgroup
    table.  A row is filled along the spanning tree: if rep(d) = rep(c) * x
    then h * rep(d) is (h * rep(c)) acted on by x."""
    if not table.subgroup.is_trivial_subgroup():
        raise ValueError("regular representation needs the trivial subgroup")
    size = table.index
    tree = [(c, table.action[x - 1] if x > 0 else table.inverse[-x - 1], d)
            for c, x, d in _spanning_tree(table)]

    def row(h: int) -> list[int]:
        out = [h] * size
        for c, perm, d in tree:
            out[d] = perm[out[c]]
        return out

    return row


def regular_rep(table: CosetTable) -> MultTable:
    """Multiplication table of the quotient, from a trivial-subgroup table:
    row i is i * rep(j) for every j."""
    row = _left_multiplication(table)
    gens = tuple(table.action[g][0] for g in range(table.n_gens))
    return MultTable(table.index, [row(i) for i in range(table.index)], 0,
                     gens)


def abelian_invariants_of_subset(mt: MultTable, elements) -> AbelianGroup:
    """Invariant factors of a finite abelian subgroup given by its elements.

    Each element the subgroup built so far does not reach becomes a
    generator z, and the subgroup is closed under it by walking x, xz, xz^2,
    ... from each known x until the walk is back among known elements; an
    element gets the exponent vector of the walk that reached it.  Every
    edge x -> xg of the Cayley graph gives the relation vec(x) + e_g -
    vec(xg), and these span the relation lattice, since every closed walk is
    a sum of them; ``abelian.quotient_invariants`` reads the invariants off.
    """
    vec: dict[int, tuple[int, ...]] = {mt.identity: ()}
    gens: list[int] = []
    for z in elements:
        if z in vec:
            continue
        for x, v in list(vec.items()):
            y, i = mt.table[x][z], 1
            while y not in vec:
                vec[y] = v + (0,) * (len(gens) - len(v)) + (i,)
                y, i = mt.table[y][z], i + 1
        gens.append(z)
    n = len(gens)
    rows = []
    for x, v in vec.items():
        for j, g in enumerate(gens):
            row = list(v) + [0] * (n - len(v))
            row[j] += 1
            for k, c in enumerate(vec[mt.table[x][g]]):
                row[k] -= c
            rows.append(row)
    return AbelianGroup(0, quotient_invariants(rows, n).torsion)


def center_of(mt: MultTable) -> list[int]:
    gens = mt.generator_elements or tuple(range(mt.size))
    return [z for z in range(mt.size)
            if all(mt.table[z][g] == mt.table[g][z] for g in gens)]


def regular_rep_and_center(table: CosetTable):
    """The center of the quotient and its abelian invariants, from a
    trivial-subgroup table, without its multiplication table.

    z is central exactly when it commutes with every generator g, that is
    when z * g, which the table's column of g holds, equals g * z, which the
    row of g holds; so one row per generator finds the center.  The center
    is abelian and holds the identity 0, so the rows of its own elements,
    read on the center alone, are its multiplication table.
    """
    row = _left_multiplication(table)
    sides = [(right, row(right[0])) for right in table.action]
    center = [z for z in range(table.index)
              if all(right[z] == left[z] for right, left in sides)]
    position = {z: i for i, z in enumerate(center)}
    small = [[position[r[w]] for w in center] for r in map(row, center)]
    return center, abelian_invariants_of_subset(
        MultTable(len(center), small, 0, ()), range(len(center)))


# --- Reidemeister-Schreier ------------------------------------------------------


def schreier_rewrite(pres: Presentation, table: CosetTable):
    """Raw subgroup presentation on Schreier generators, without simplification.

    Returns (presentation, ambient) where ambient[i] is the word, in the big
    group, of the (i+1)-st Schreier generator rep(c) g rep(c^g)^-1.
    """
    reps = coset_representatives(table)
    n = table.n_gens
    edge_index: dict[tuple[int, int], int] = {}
    ambient: list[Word] = []
    for c in range(table.index):
        for g in range(1, n + 1):
            d = table.action[g - 1][c]
            if multiply(reps[c], (g,)) == reps[d]:
                continue      # tree edge: trivial Schreier generator
            edge_index[(c, g)] = len(ambient) + 1
            ambient.append(multiply(reps[c], (g,), invert(reps[d])))

    def rewrite(c: int, w: Word) -> Word:
        out: list[int] = []
        d = c
        for x in w:
            if x > 0:
                idx = edge_index.get((d, x))
                d = table.action[x - 1][d]
                if idx:
                    out.append(idx)
            else:
                d = table.inverse[-x - 1][d]
                idx = edge_index.get((d, -x))
                if idx:
                    out.append(-idx)
        return reduce_word(out)

    relators = [rewrite(c, rel)
                for c in range(table.index) for rel in pres.relators]
    names = tuple(f"t{i}" for i in range(1, len(ambient) + 1))
    return Presentation(names, tuple(relators)), tuple(ambient)


def reidemeister_schreier(
        pres: Presentation, table: CosetTable,
        tietze_budget: int = fpgroups.TIETZE_BUDGET) -> fpgroups.TietzeResult:
    """Presentation of the subgroup a complete coset table enumerates.

    The rewrite of every conjugate rep(c) r rep(c)^-1 is taken as a relator;
    the result is then Tietze-simplified within the budget.  The returned
    ``TietzeResult`` says whether simplification finished (``completed``).
    """
    raw, _ = schreier_rewrite(pres, table)
    return fpgroups.tietze_simplify(raw, budget=tietze_budget)


# --- epimorphism search -----------------------------------------------------------


def _conjugacy_classes(
        mt: MultTable) -> list[tuple[int, dict[int, int], list[int]]]:
    """Each class as (least element a, {g a g^-1: the least such g}, the
    centralizer of a: every g with g a g^-1 = a)."""
    table, inv = mt.table, mt.inverses
    classes, seen = [], set()
    for a in range(mt.size):
        if a in seen:
            continue
        transversal: dict[int, int] = {}
        centralizer = []
        for g in range(mt.size):
            b = table[table[g][a]][inv[g]]
            transversal.setdefault(b, g)
            if b == a:
                centralizer.append(g)
        seen.update(transversal)
        classes.append((a, transversal, centralizer))
    return classes


def find_epimorphisms(pres: Presentation, mt: MultTable,
                      cap: int = 10 ** 7) -> list[tuple[int, ...]]:
    """All generator assignments defining surjections onto the finite group.

    The search space is the size^rank assignments; SearchCapExceeded is
    raised, before any work, when there are more than ``cap`` of them.  An
    assignment survives if every relator evaluates to the identity and the
    images generate.  Conjugating an assignment by an element g of the target
    keeps both properties, and conjugation by g is an automorphism, so the
    search tests only assignments whose first image is a conjugacy class
    representative a, and sends each survivor (a, t2, ...) to
    (g a g^-1, g t2 g^-1, ...) for one g per member of the class: that lists
    every surviving assignment exactly once.  Relators are tested shortest
    first, inverse images come from ``mt.inverses``, and the output is sorted,
    so it is the lexicographic order of assignments and does not depend on
    the relator order.

    Conjugating by g in the centralizer C(a) fixes a, so it maps the
    assignments (a, tail) among themselves, again keeping both tests: a
    relator evaluates to the conjugate of its old value, and the images
    generate the conjugate of the old subgroup.  So once a tail survives the
    relators, one generation test answers for its whole C(a)-orbit, and a
    tail of a known orbit skips the relator test too.
    """
    rank = pres.rank
    total = mt.size ** rank
    if total > cap:
        raise SearchCapExceeded(f"search space {total} exceeds cap {cap}")
    if rank == 0:
        return [()] if mt.size == 1 else []
    table, inv, e = mt.table, mt.inverses, mt.identity
    inverse_of = inv.__getitem__
    # letter x reads slot x - 1 of [images..., inverse images...]
    relators = [[x - 1 if x > 0 else rank - x - 1 for x in rel]
                for rel in sorted(pres.relators, key=len)]
    classes = _conjugacy_classes(mt)
    class_of = {b: members for _, members, _ in classes for b in members}
    out = []
    for a, transversal, centralizer in classes:
        head, inv_a = (a,), (inv[a],)
        known: dict[tuple[int, ...], bool] = {}
        for tail in product(range(mt.size), repeat=rank - 1):
            generates = known.get(tail)
            if generates is None:
                slots = head + tail + inv_a + tuple(map(inverse_of, tail))
                for rel in relators:
                    acc = e
                    for k in rel:
                        acc = table[acc][slots[k]]
                    if acc != e:
                        break
                else:
                    generates = mt.generates(head + tail)
                    if rank == 2 and len(centralizer) == mt.size:
                        orbit = ((b,) for b in class_of[tail[0]])
                    else:
                        orbit = (tuple(table[table[g][x]][inv[g]]
                                       for x in tail) for g in centralizer)
                    known.update(dict.fromkeys(orbit, generates))
            if generates:
                out.extend((b,) + tuple(table[table[g][x]][inv[g]]
                                        for x in tail)
                           for b, g in transversal.items())
    out.sort()
    return out


def cyclic_table(n: int) -> MultTable:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return MultTable(n, table, 0, (1 % n,))


def dihedral_table(order: int) -> MultTable:
    """Dihedral group of the given even order; elements are r^i s^j."""
    if order % 2 or order < 2:
        raise ValueError("dihedral groups here have even order >= 2")
    n = order // 2

    def idx(i, j):
        return i + n * j

    table = [[0] * order for _ in range(order)]
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i, (j1 + j2) % 2)
    return MultTable(order, table, 0, (idx(1 % n, 0), idx(0, 1)))
