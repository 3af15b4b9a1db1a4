"""Coset enumeration and what it yields: orders, centers, subgroup presentations.

The enumerator follows Felsch's strategy.  Each relator is compiled once into
the distinct cyclic conjugates of it and of its inverse, as table columns
indexed by first letter.  The subgroup generators and then all relator
conjugates are scanned and filled at coset 0; after that, the first undefined
entry of the first live coset is defined, one entry at a time.  Every edge
that gets set (a definition, a deduction, or an edge moved while a
coincidence collapses) goes on a deduction stack, which is emptied after each
definition: an edge is processed by scanning, at its source coset, the
conjugates that start with its letter.  Defining in table order and using
every deduction at once keeps the cosets defined close to the index.
Coincidences merge through union-find, the smaller coset surviving.

``max_cosets`` caps the rows of the table, dead ones included; there is no
lookahead, and reaching the cap raises CosetOverflow.  Tables keep both
directions of every edge, so generator and inverse actions stay mutually
inverse.  Each finished table is renumbered in breadth-first order, so the
output is deterministic and does not depend on the strategy.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from itertools import product

from . import fpgroups
from .abelian import AbelianGroup
from .exactalg import prime_divisors
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

    def image_of(self, w: Word) -> tuple[int, ...]:
        out = [0] * len(self.moduli)
        for x in w:
            img = self.images[abs(x) - 1]
            s = 1 if x > 0 else -1
            for i, c in enumerate(img):
                out[i] = (out[i] + s * c) % self.moduli[i]
        return tuple(out)


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


def _relator_conjugates(relators, ncols: int) -> list[list[tuple[int, ...]]]:
    """Distinct cyclic conjugates of each relator and its inverse, as columns.

    ``out[col]`` lists the conjugates whose first column is col, shortest
    relators first.  Only lists are iterated, so the order does not depend on
    hashing.
    """
    out: list[list[tuple[int, ...]]] = [[] for _ in range(ncols)]
    seen = set()
    for rel in sorted(relators, key=len):
        cols = _columns(rel)
        for word in (cols, [c ^ 1 for c in reversed(cols)]):
            for k in range(len(word)):
                conj = tuple(word[k:] + word[:k])
                if conj not in seen:
                    seen.add(conj)
                    out[conj[0]].append(conj)
    return out


def _felsch(n_gens: int, relators, subgroup_words, max_cosets: int):
    """Complete coset table as (action, inverse); CosetOverflow at the cap."""
    ncols = 2 * n_gens
    starting_with = _relator_conjugates(relators, ncols)
    table = [[UNDEF] * ncols]
    parent = [0]
    deductions: list[tuple[int, int]] = []

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(a, b):
        """Merge a and b and everything that forces; moved edges are pushed."""
        queue = deque()

        def merge(a, b):
            a, b = rep(a), rep(b)
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
                queue.append(b)

        merge(a, b)
        while queue:
            dead = queue.popleft()
            row = table[dead]
            for col in range(ncols):
                delta = row[col]
                if delta == UNDEF:
                    continue
                row[col] = UNDEF
                back = col ^ 1
                if table[delta][back] == dead:
                    table[delta][back] = UNDEF
                mu, nu = rep(dead), rep(delta)
                existing = table[mu][col]
                if existing != UNDEF:
                    merge(existing, nu)
                    continue
                existing_back = table[nu][back]
                if existing_back != UNDEF:
                    merge(existing_back, mu)
                else:
                    table[mu][col] = nu
                    table[nu][back] = mu
                    deductions.append((mu, col))

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

    def scan(c, word, fill):
        """Trace word from c both ways; deduce at one gap, fill gaps if asked."""
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
                    coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][word[j] ^ 1]
                if nxt == UNDEF:
                    break
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                deductions.append((f, word[i]))
                return
            if not fill:
                return
            define(f, word[i])

    def process_deductions():
        # Only the source coset is scanned: a relator cycle that crosses the
        # edge backwards is a cycle of a conjugate of r^-1 crossing it forwards.
        while deductions:
            c, col = deductions.pop()
            if parent[c] != c:
                continue
            for word in starting_with[col]:
                scan(c, word, False)
                if parent[c] != c:
                    break

    for w in subgroup_words:
        scan(0, _columns(w), True)
    for words in starting_with:
        for word in words:
            scan(0, word, True)
    process_deductions()
    alpha = 0
    while alpha < len(table):
        row = table[alpha]
        if parent[alpha] == alpha and UNDEF in row:
            define(alpha, row.index(UNDEF))
            process_deductions()
        else:
            alpha += 1

    live = [c for c in range(len(table)) if parent[c] == c]
    remap = {c: i for i, c in enumerate(live)}
    action = [[remap[rep(table[c][2 * g])] for c in live]
              for g in range(n_gens)]
    return action, [_invert_perm(perm) for perm in action]


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


def _kernel_table(pres: Presentation, spec: SubgroupSpec) -> CosetTable:
    kern = spec.kernel
    for rel in pres.relators:
        if any(kern.image_of(rel)):
            raise InvalidSubgroup(
                f"relator {pres.spell(rel)} maps outside the kernel")
    # Cosets are the elements of the subgroup of the target generated by the
    # generator images; BFS keeps the numbering deterministic.
    elements = [tuple(0 for _ in kern.moduli)]
    index_of = {elements[0]: 0}
    qi = 0
    while qi < len(elements):
        base = elements[qi]
        qi += 1
        for img in kern.images:
            nxt = tuple((b + i) % m for b, i, m in zip(base, img, kern.moduli))
            if nxt not in index_of:
                index_of[nxt] = len(elements)
                elements.append(nxt)
    size = len(elements)
    action = []
    for g in range(pres.rank):
        img = kern.images[g]
        perm = [0] * size
        for c, base in enumerate(elements):
            nxt = tuple((b + i) % m for b, i, m in zip(base, img, kern.moduli))
            perm[c] = index_of[nxt]
        action.append(perm)
    inverse = [_invert_perm(p) for p in action]
    action, inverse = _standardize(action, inverse)
    return CosetTable(pres.rank, action, inverse, spec)


def todd_coxeter(pres: Presentation, subgroup: SubgroupSpec | None = None,
                 max_cosets: int = 10 ** 6) -> CosetTable:
    """Enumerate the cosets of a subgroup; raises CosetOverflow at the cap.

    The returned table is complete, collapsed and standardized, so its index
    equals [G : H] whenever the enumeration finishes.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    if subgroup is None:
        subgroup = SubgroupSpec.trivial()
    if subgroup.kernel is not None:
        return _kernel_table(pres, subgroup)
    action, inverse = _felsch(pres.rank, pres.relators, subgroup.words,
                              max_cosets)
    action, inverse = _standardize(action, inverse)
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
    table, on first use, by finding the identity in each row; ``inverse`` and
    ``evaluate`` read it, and a table in which some row lacks the identity
    raises ValueError there (``validate`` reaches it too).
    """

    def __init__(self, size: int, table: list[list[int]], identity: int,
                 generator_elements: tuple[int, ...]):
        self.size = size
        self.table = table
        self.identity = identity
        self.generator_elements = generator_elements

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> list[int]:
        try:
            return [row.index(self.identity) for row in self.table]
        except ValueError:
            raise ValueError(
                "element has no inverse; not a group table") from None

    def inverse(self, a: int) -> int:
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = self.table[acc][a]
            k += 1
        return k

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
    """Edges (c, signed generator, d) of the BFS tree from coset 0, in order."""
    seen = [False] * table.index
    seen[0] = True
    order = [0]
    edges = []
    for c in order:
        for g in range(1, table.n_gens + 1):
            for signed, nxt in ((g, table.action[g - 1][c]),
                                (-g, table.inverse[g - 1][c])):
                if not seen[nxt]:
                    seen[nxt] = True
                    order.append(nxt)
                    edges.append((c, signed, nxt))
    return edges


def coset_representatives(table: CosetTable) -> list[Word]:
    """Schreier transversal: minimal representative words, by BFS from 0."""
    reps: list[Word] = [()] * table.index
    for c, signed, d in _spanning_tree(table):
        reps[d] = reps[c] + (signed,)
    return reps


def regular_rep(table: CosetTable) -> MultTable:
    """Multiplication table of the quotient, from a trivial-subgroup table.

    Row i is i * rep(j) for every j, filled along the spanning tree: if
    rep(d) = rep(c) * x then i * rep(d) is (i * rep(c)) acted on by x.
    """
    if not table.subgroup.is_trivial_subgroup():
        raise ValueError("regular representation needs the trivial subgroup")
    size = table.index
    tree = [(c, table.action[x - 1] if x > 0 else table.inverse[-x - 1], d)
            for c, x, d in _spanning_tree(table)]
    mult = []
    for i in range(size):
        row = [i] * size
        for c, perm, d in tree:
            row[d] = perm[row[c]]
        mult.append(row)
    gens = tuple(table.action[g][0] for g in range(table.n_gens))
    return MultTable(size, mult, 0, gens)


def abelian_invariants_of_subset(mt: MultTable, elements) -> AbelianGroup:
    """Invariant factors of a finite abelian subgroup given by its elements.

    For each prime p, counting solutions of z^(p^k) = 1 recovers the
    partition of p-exponents; aligning the partitions across primes gives the
    invariant factor chain.
    """
    orders = [mt.element_order(z) for z in elements]
    partitions: dict[int, list[int]] = {}
    for p in sorted({p for o in orders for p in prime_divisors(o)}):
        maxpow = max(_p_part(o, p) for o in orders)
        at_least = []      # at_least[k-1] = #{i : lambda_i >= k}
        prev = 0
        pk = p
        while pk <= maxpow:
            cnt = sum(1 for o in orders if pk % o == 0)
            e = 0
            while cnt > 1:
                cnt //= p
                e += 1
            at_least.append(e - prev)
            prev = e
            pk *= p
        width = at_least[0] if at_least else 0
        partitions[p] = [sum(1 for c in at_least if c >= i)
                         for i in range(1, width + 1)]
    nfactors = max((len(v) for v in partitions.values()), default=0)
    descending = []
    for i in range(nfactors):
        d = 1
        for p, part in partitions.items():
            if i < len(part):
                d *= p ** part[i]
        descending.append(d)
    return AbelianGroup(0, tuple(sorted(d for d in descending if d >= 2)))


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def center_of(mt: MultTable) -> list[int]:
    gens = mt.generator_elements or tuple(range(mt.size))
    return [z for z in range(mt.size)
            if all(mt.table[z][g] == mt.table[g][z] for g in gens)]


def regular_rep_and_center(table: CosetTable):
    """Multiplication table plus the center and its abelian invariants."""
    mt = regular_rep(table)
    center = center_of(mt)
    return mt, center, abelian_invariants_of_subset(mt, center)


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


def _conjugacy_classes(mt: MultTable) -> list[tuple[int, dict[int, int]]]:
    """Each class as (least element a, {g a g^-1: the least such g})."""
    table, inv = mt.table, mt.inverses
    classes, seen = [], set()
    for a in range(mt.size):
        if a in seen:
            continue
        transversal: dict[int, int] = {}
        for g in range(mt.size):
            transversal.setdefault(table[table[g][a]][inv[g]], g)
        seen.update(transversal)
        classes.append((a, transversal))
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
    """
    rank = pres.rank
    total = mt.size ** rank
    if total > cap:
        raise SearchCapExceeded(f"search space {total} exceeds cap {cap}")
    if rank == 0:
        return [()] if mt.size == 1 else []
    table, inv, e = mt.table, mt.inverses, mt.identity
    # letter x reads slot x - 1 of [images..., inverse images...]
    relators = [[x - 1 if x > 0 else rank - x - 1 for x in rel]
                for rel in sorted(pres.relators, key=len)]
    out = []
    for a, transversal in _conjugacy_classes(mt):
        for tail in product(range(mt.size), repeat=rank - 1):
            assign = (a,) + tail
            slots = assign + tuple(inv[x] for x in assign)
            for rel in relators:
                acc = e
                for k in rel:
                    acc = table[acc][slots[k]]
                if acc != e:
                    break
            else:
                if mt.generates(assign):
                    out.extend(tuple(table[table[g][x]][inv[g]]
                                     for x in assign)
                               for g in transversal.values())
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
