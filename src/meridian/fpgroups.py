"""Free-group words, finitely presented groups, and Tietze simplification.

A word in a free group is a flat tuple of nonzero signed integers: ``k``
stands for the k-th generator (1-based), ``-k`` for its inverse.  Every word
handled by this module is freely reduced; the empty tuple is the identity.
Relators of a presentation are additionally cyclically reduced.
"""

from __future__ import annotations

import math
from collections import namedtuple

Word = tuple[int, ...]


class WordError(ValueError):
    """Raised for malformed words (zero letters, out-of-range indices)."""


class InputError(ValueError):
    """Input the user must correct; the command line exits 2 on it, and on
    nothing else."""


class ParseError(InputError):
    """Syntax or scope error in presentation text, with line/column info."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def reduce_word(letters) -> Word:
    """Freely reduce a sequence of signed generator indices.

    Idempotent and never length-increasing; adjacent inverse pairs cancel.

    >>> reduce_word([1, 2, -2, 1])
    (1, 1)
    """
    out: list[int] = []
    for x in letters:
        x = int(x)
        if x == 0:
            raise WordError("word letters must be nonzero signed indices")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def multiply(*words: Word) -> Word:
    """Product of already-reduced words, reduced."""
    prod: list[int] = []
    for w in words:
        for x in w:
            if prod and prod[-1] == -x:
                prod.pop()
            else:
                prod.append(x)
    return tuple(prod)


def conjugate(a: Word, b: Word) -> Word:
    """Return a * b * a^-1, reduced."""
    return multiply(a, b, invert(a))


def commutator(a: Word, b: Word) -> Word:
    """Return a * b * a^-1 * b^-1, reduced."""
    return multiply(a, b, invert(a), invert(b))


def power(w: Word, n: int) -> Word:
    if n < 0:
        return power(invert(w), -n)
    return multiply(*([w] * n)) if n else ()


def cyclic_reduce(w: Word) -> Word:
    """Strip matching conjugating letters from both ends."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def generator_span(words) -> int:
    """Largest generator index appearing in any of the words."""
    return max((abs(x) for w in words for x in w), default=0)


def _least_rotation(w: Word) -> Word:
    """Lexicographically least rotation of a nonempty word.

    Only rotations that start with the least letter can be the minimum, so
    only those are sliced out of the doubled word.
    """
    n = len(w)
    first = min(w)
    doubled = w + w
    return min(doubled[i:i + n] for i in range(n) if w[i] == first)


def _relator_key(w: Word) -> Word:
    """Canonical representative of a relator up to rotation and inversion.

    The least rotation of w or of w^-1.  Two relators with the same key have
    the same normal closure, so one of them is redundant.
    """
    if not w:
        return ()
    return min(_least_rotation(w), _least_rotation(invert(w)))


class Presentation:
    """A finite presentation: generator names plus relator words.

    Relators are stored freely and cyclically reduced; empty and duplicate
    relators are dropped at construction (``dropped`` counts them).
    Equality and hashing ignore ``dropped``.
    """

    __slots__ = ("generators", "relators", "dropped")

    def __init__(self, generators: tuple[str, ...],
                 relators: tuple[Word, ...], dropped: int = 0):
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        n = len(generators)
        cleaned = []
        seen = set()
        for rel in relators:
            rel = cyclic_reduce(reduce_word(rel))
            if generator_span([rel]) > n:
                raise WordError(
                    f"relator uses generator index beyond the {n} declared")
            key = _relator_key(rel)
            if not rel or key in seen:
                dropped += 1
                continue
            seen.add(key)
            cleaned.append(rel)
        self.generators = generators
        self.relators = tuple(cleaned)
        self.dropped = dropped

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def total_relator_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def with_relators(self, extra) -> "Presentation":
        """New presentation with additional relators appended."""
        return Presentation(self.generators, self.relators + tuple(extra))

    def spell(self, w: Word) -> str:
        """Render a word over this presentation's generator names."""
        if not w:
            return "1"
        parts = []
        for g, e in _syllables(w):
            name = self.generators[g - 1]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        return print_presentation(self)


def _syllables(w: Word):
    """Group a word into (generator, exponent) runs."""
    out = []
    for x in w:
        g, e = abs(x), (1 if x > 0 else -1)
        if out and out[-1][0] == g and (out[-1][1] > 0) == (e > 0):
            out[-1][1] += e
        else:
            out.append([g, e])
    return [(g, e) for g, e in out]


# --- text grammar -----------------------------------------------------------
#
#   file      := stmt* ;  stmt := "gens" ident+ ";" | "rel" relation ";"
#   relation  := word | word "=" word         (w1 = w2 stored as w1 * w2^-1)
#   word      := factor ("*" factor)*
#   factor    := atom ("^" integer)?
#   atom      := ident | "1" | "(" word ")" | "[" word "," word "]"
#              | "conj" "(" word "," word ")"
#   comments  := "#" to end of line
#
# [a, b] = a b a^-1 b^-1 and conj(a, b) = a b a^-1.  "conj" is an atom only
# when "(" follows and no generator is named conj.  Words are freely reduced,
# never cyclically.  Monodromy files (braids.parse_monodromy) and subgroup
# specs use this word grammar through parse_word and parse_words.

_PUNCT = set("();*^=[],")


def _tokenize(text: str, line: int = 1, col: int = 1):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in _PUNCT:
            tokens.append((c, line, col))
            col += 1
            i += 1
        elif c == "-" or c.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if text[i:j] == "-":
                raise ParseError("stray '-'", line, col)
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append((None, line, col))
    return tokens


class _Parser:
    def __init__(self, text, line=1, column=1):
        self.tokens = _tokenize(text, line, column)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, line, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", line, col)

    def fail(self, message):
        _, line, col = self.tokens[self.pos]
        raise ParseError(message, line, col)

    def parse_file(self):
        gens: list[str] = []
        index: dict[str, int] = {}
        relators: list[Word] = []
        dropped = 0
        while self.peek() is not None:
            tok, line, col = self.next()
            if tok == "gens":
                while self.peek() != ";":
                    name, line, col = self.next()
                    if name is None or name in _PUNCT or name[0].isdigit():
                        raise ParseError("expected generator name", line, col)
                    if name in index:
                        raise ParseError(f"duplicate generator {name!r}", line, col)
                    index[name] = len(gens) + 1
                    gens.append(name)
                self.expect(";")
            elif tok == "rel":
                lhs = self.parse_word(index)
                if self.peek() == "=":
                    self.next()
                    rhs = self.parse_word(index)
                    lhs = multiply(lhs, invert(rhs))
                self.expect(";")
                if cyclic_reduce(lhs):
                    relators.append(lhs)
                else:
                    dropped += 1
            else:
                raise ParseError(f"expected 'gens' or 'rel', found {tok!r}", line, col)
        return Presentation(tuple(gens), tuple(relators), dropped=dropped)

    def parse_word(self, index) -> Word:
        factors = [self.parse_factor(index)]
        while self.peek() == "*":
            self.next()
            factors.append(self.parse_factor(index))
        return multiply(*factors)

    def parse_factor(self, index) -> Word:
        atom = self.parse_atom(index)
        if self.peek() == "^":
            self.next()
            tok, line, col = self.next()
            try:
                e = int(tok)
            except (TypeError, ValueError):
                raise ParseError(f"expected integer exponent, found {tok!r}",
                                 line, col) from None
            return power(atom, e)
        return atom

    def parse_atom(self, index) -> Word:
        tok, line, col = self.next()
        if tok == "(":
            w = self.parse_word(index)
            self.expect(")")
            return w
        if tok == "[":
            a = self.parse_word(index)
            self.expect(",")
            b = self.parse_word(index)
            self.expect("]")
            return commutator(a, b)
        if tok == "conj" and "conj" not in index and self.peek() == "(":
            self.next()
            a = self.parse_word(index)
            self.expect(",")
            b = self.parse_word(index)
            self.expect(")")
            return conjugate(a, b)
        if tok == "1":
            return ()
        if tok is None or tok in _PUNCT or tok[0].isdigit() or tok == "-":
            raise ParseError(f"expected a generator, found {tok!r}", line, col)
        if tok not in index:
            raise ParseError(f"undeclared generator {tok!r}", line, col)
        return (index[tok],)


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; see the grammar at the top of this section."""
    return _Parser(text).parse_file()


def parse_word(text: str, index: dict[str, int], line: int = 1,
               column: int = 1) -> Word:
    """Parse one word of the grammar above, freely reduced.

    ``index`` maps generator names to 1-based indices; ``line`` and
    ``column`` are where the text starts, so errors report positions in the
    enclosing file.  Raises ParseError on trailing input.
    """
    parser = _Parser(text, line, column)
    w = parser.parse_word(index)
    if parser.peek() is not None:
        parser.fail(f"trailing input {parser.peek()!r}")
    return w


def parse_words(text: str, index: dict[str, int]) -> list[Word]:
    """Parse words one after another until the text ends: 'x*y  [x, y]'."""
    parser = _Parser(text)
    words = []
    while parser.peek() is not None:
        words.append(parser.parse_word(index))
    return words


def print_presentation(pres: Presentation) -> str:
    """Canonical text form; parse_presentation inverts this exactly."""
    lines = []
    if pres.generators:
        lines.append("gens " + " ".join(pres.generators) + ";")
    for rel in pres.relators:
        lines.append(f"rel {pres.spell(rel)};")
    return "\n".join(lines) + ("\n" if lines else "")


# --- Tietze simplification --------------------------------------------------


TietzeResult = namedtuple("TietzeResult", "presentation completed steps")


def _substitute(word: Word, gen: int, image: Word) -> Word:
    """Replace generator ``gen`` by ``image`` throughout ``word``."""
    image_inv = invert(image)
    out: list[Word] = []
    for x in word:
        if x == gen:
            out.append(image)
        elif x == -gen:
            out.append(image_inv)
        else:
            out.append((x,))
    return multiply(*out)


def _drop_generator(word: Word, gen: int) -> Word:
    """Renumber letters after the removal of ``gen`` (which must not occur)."""
    return tuple(x - 1 if x > gen else x + 1 if x < -gen else x for x in word)


def _isolated_candidates(relators):
    """(relator index, signed gen) pairs where the generator occurs once.

    Ordered by relator length, then relator index, then descending generator
    index: the shortest defining relator wins, and on a tie the later-named
    generator is the one eliminated (so <a, b | b a^-1> keeps a).
    """
    out = []
    for ri, rel in enumerate(relators):
        counts: dict[int, int] = {}
        for x in rel:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g in (g for g, c in counts.items() if c == 1):
            sign = next(x for x in rel if abs(x) == g)
            out.append(((len(rel), ri, -g), ri, sign))
    return [(ri, sign) for _, ri, sign in sorted(out)]


def _shortening_table(rule: Word):
    """Factorizations u * v^-1 of the rotations of ``rule`` and of its inverse.

    Returns ``(|u|, {u: (entry, v)})`` with |u| = |rule| // 2 + 1 > |v|.
    ``entry`` numbers the rotations of the rule, then those of its inverse;
    a u that several rotations share keeps its first entry.
    """
    n = len(rule)
    half = n // 2 + 1
    table: dict[Word, tuple[int, Word]] = {}
    for b, base in enumerate((rule, invert(rule))):
        doubled = base + base
        for i in range(n):
            rot = doubled[i:i + n]
            table.setdefault(rot[:half], (b * n + i, invert(rot[half:])))
    return half, table


def _try_shorten(target: Word, shortening) -> Word | None:
    """Shorten ``target`` by a rule given as its ``_shortening_table``.

    Takes the first table entry whose u occurs in the target, at its first
    occurrence, and replaces u by v: multiplication by a conjugate of the
    rule, hence a Tietze move.  The result is shorter because |v| < |u|.
    """
    half, table = shortening
    best = None
    for i in range(len(target) - half + 1):
        hit = table.get(target[i:i + half])
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], i, hit[1])
    if best is None:
        return None
    _, i, v = best
    return multiply(target[:i], v, target[i + half:])


def _eliminate(relators, keys, candidates, limit, take_first, substituted):
    """Eliminate a generator by one of the isolated ``candidates``.

    Takes the first candidate whose relators, after substitution, reduction
    and deduplication, total at most ``limit`` (if ``take_first``), or the
    first of least total.  Only relators that contain the generator are
    rewritten and re-keyed, through the memo ``substituted``.  Deduplication
    only drops relators, so a candidate is rejected as soon as its running
    total passes the limit.  Returns ``(generator, relators, keys)``, the
    generator renumbered away, or None.
    """
    best = None
    for ri, signed in candidates:
        rel = relators[ri]
        g = abs(signed)
        k = rel.index(signed)
        rest = rel[k + 1:] + rel[:k]      # rel ~ signed * rest cyclically
        image = invert(rest) if signed > 0 else rest
        words, word_keys, seen, total = [], [], set(), 0
        for j, (r, rk) in enumerate(zip(relators, keys)):
            if j == ri:
                continue
            if g in r or -g in r:
                hit = substituted.get((r, g, image))
                if hit is None:
                    w = cyclic_reduce(_substitute(r, g, image))
                    hit = substituted[r, g, image] = (w, _relator_key(w))
                r, rk = hit
                if not r:
                    continue
            if rk in seen:
                continue
            seen.add(rk)
            total += len(r)
            if total > limit:
                break
            words.append(r)
            word_keys.append(rk)
        else:
            best = (g, words, word_keys)
            if take_first:
                break
            limit = total - 1
    if best is None:
        return None
    g, words, word_keys = best
    # renumbering is monotone on the remaining letters, so it maps keys to keys
    return (g, [_drop_generator(r, g) for r in words],
            [_drop_generator(rk, g) for rk in word_keys])


def _shorten(relators, keys, tables):
    """The first shortening of one relator by another, as ``(0, relators, keys)``.

    Rules are tried shortest first, targets in order; ``tables`` memoises
    their ``_shortening_table``.  The shortened relator is cyclically
    reduced in place.  It is dropped if it is empty; of two relators with
    one key, the later is dropped.
    """
    for i in sorted(range(len(relators)), key=lambda i: len(relators[i])):
        rule = relators[i]
        if len(rule) < 2:
            continue
        if rule not in tables:
            tables[rule] = _shortening_table(rule)
        for j, target in enumerate(relators):
            if j == i:
                continue
            w = _try_shorten(target, tables[rule])
            if w is None:
                continue
            w = cyclic_reduce(w)
            relators, keys = relators[:], keys[:]
            relators[j], keys[j] = w, _relator_key(w)
            # the other keys are distinct, so w repeats at most one relator
            copies = [m for m, km in enumerate(keys) if km == keys[j]]
            if not w or len(copies) > 1:
                del relators[copies[-1]], keys[copies[-1]]
            return 0, relators, keys
    return None


def tietze_simplify(pres: Presentation, budget: int = 10000) -> TietzeResult:
    """Simplify a presentation by Tietze moves, keeping the group unchanged.

    Moves: free/cyclic reduction, dropping trivial and duplicate relators,
    eliminating a generator that some relator defines in terms of the others
    (shortest defining relator first), and substituting relators into one
    another when that shortens them.  Non-growing moves are always preferred;
    only when no move keeps the total relator length from growing is the
    least-growing generator elimination forced, which is what lets rewritten
    subgroup presentations collapse.  Returns best-so-far after ``budget``
    moves, with ``completed=False`` only if a move was still available.

    The bookkeeping is incremental, and the moves, their order and the
    result are those of re-normalizing every relator after every move.
    Each relator carries its key (the least rotation of it or of its
    inverse); a move rewrites and re-keys only the relators it changes.
    Substituted relators and shortening tables are memoised until the next
    generator elimination renumbers every word; nothing outlives the call.
    """
    gens = list(pres.generators)
    relators = list(pres.relators)      # reduced and deduplicated already
    keys = [_relator_key(r) for r in relators]
    substituted: dict = {}
    tables: dict = {}
    steps = 0
    while True:
        # A forced elimination still terminates: generators only disappear.
        candidates = _isolated_candidates(relators)
        total = sum(len(r) for r in relators)
        move = (_eliminate(relators, keys, candidates, total,
                           take_first=True, substituted=substituted)
                or _shorten(relators, keys, tables)
                or _eliminate(relators, keys, candidates, math.inf,
                              take_first=False, substituted=substituted))
        if move is None or steps >= budget:
            return TietzeResult(Presentation(tuple(gens), tuple(relators)),
                                move is None, steps)
        g, relators, keys = move
        if g:
            del gens[g - 1]
            substituted.clear()
            tables.clear()
        steps += 1
