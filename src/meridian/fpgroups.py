"""Free-group words, finitely presented groups, and Tietze simplification.

A word in a free group is a flat tuple of nonzero signed integers: ``k``
stands for the k-th generator (1-based), ``-k`` for its inverse.  Every word
handled by this module is freely reduced; the empty tuple is the identity.
Relators of a presentation are additionally cyclically reduced.

Tietze simplification alone spells words as str for the length of a call
(letter x of a rank-n presentation is chr(n + 1 + x)) and keeps every
generator's input number until it returns a renumbered tuple result.
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
    only those are sliced out of the doubled word.  Tietze simplification
    compares its str words with ``_class_of`` instead.
    """
    n = len(w)
    first = min(w)
    if w.count(first) == 1:
        i = w.index(first)
        return w[i:] + w[:i]
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
#
# The helpers below take the str words of tietze_simplify (see its docstring)
# and ``inv``, the call's _inverse_table: inv[ord(c)] is the inverse of c.

TietzeResult = namedtuple("TietzeResult", "presentation completed steps")

# Moves a Tietze simplification may make unless its caller says otherwise.
TIETZE_BUDGET = 20000


def _inverse_table(rank: int) -> str:
    """The ``inv`` of rank-``rank`` words: codes c and 2*rank + 2 - c are
    inverse letters, and s[::-1].translate(inv) inverts s."""
    return "\0" + "".join(map(chr, range(2 * rank + 1, 0, -1)))


def _encode(word: Word, rank: int) -> str:
    return "".join([chr(rank + 1 + x) for x in word])


def _invert(s: str, inv: str) -> str:
    return s[::-1].translate(inv)


def _join(a: str, b: str, inv: str) -> str:
    """Product of reduced words: letters cancel only where they meet."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == inv[ord(b[k])]:
        k += 1
    return a[:len(a) - k] + b[k:]


def _cyclic(s: str, inv: str) -> str:
    """cyclic_reduce of a reduced str word."""
    k = 0
    while 2 * k + 1 < len(s) and s[k] == inv[ord(s[-1 - k])]:
        k += 1
    return s[k:len(s) - k]


def _class_of(w: str, w_inv: str, words) -> str | None:
    """The first of ``words``, all of the length of w, in the
    rotation/inversion class of w (``_relator_key`` equality), or None.

    w is a rotation of u exactly when it occurs in u + u, and a rotation of
    u^-1 exactly when w^-1 (``w_inv``) does.
    """
    for u in words:
        doubled = u + u
        if w in doubled or w_inv in doubled:
            return u
    return None


def _substitute(word: str, gen: str, image: str, image_inv: str,
                inv: str) -> str:
    """Replace generator ``gen`` (its positive letter) by ``image`` and its
    inverse by ``image_inv`` throughout ``word``, reducing only where the
    pieces meet."""
    out = before = ""
    for part in word.split(gen):
        for piece in part.split(inv[ord(gen)]):
            for p in (before, piece):
                if out and p and out[-1] == inv[ord(p[0])]:
                    out = _join(out, p, inv)
                else:
                    out += p
            before = image_inv
        before = image
    return out


def _shortening_table(rule: str, inv: str):
    """Factorizations u * v^-1 of the rotations of ``rule`` and of its inverse.

    Returns ``(|u|, {u: (entry, v)})`` with |u| = |rule| // 2 + 1 > |v|.
    ``entry`` numbers the rotations of the rule, then those of its inverse;
    a u that several rotations share keeps its first entry.
    """
    n = len(rule)
    half = n // 2 + 1
    table: dict[str, tuple[int, str]] = {}
    for b, base in enumerate((rule, _invert(rule, inv))):
        doubled = base + base
        for i in range(n):
            rot = doubled[i:i + n]
            table.setdefault(rot[:half], (b * n + i, _invert(rot[half:], inv)))
    return half, table


def _try_shorten(target: str, shortening, inv: str) -> str | None:
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
    return _join(_join(target[:i], v, inv), target[i + half:], inv)


class _Elimination:
    """The elimination of generator ``g`` (its positive letter) by one
    relator, which defines it as ``image`` (inverse ``image_inv``).

    ``rewritten`` maps each relator with g that a total has needed to
    ``(its rewrite, the rewrite's class)``, and the defining relator to
    ``("", None)``.  A class is named by the first rewrite in it, and
    ``classes[n]`` maps the classes of the length-n rewrites to the number
    of rewrites in each.  A class counts unless a live relator is in it (no
    relator with g is, for rewrites have no g), and ``extra`` sums the
    lengths of the classes that count.  So the total after the elimination
    is at least the length of the relators without g plus ``extra``, and
    equal to it once every relator with g is rewritten.
    """

    __slots__ = ("g", "image", "image_inv", "rewritten", "classes", "extra")

    def __init__(self, rel: str, signed: str, inv: str):
        self.g = g = max(signed, inv[ord(signed)])
        k = rel.index(signed)
        rest = rel[k + 1:] + rel[:k]      # rel ~ signed * rest cyclically
        self.image = _invert(rest, inv) if signed == g else rest
        self.image_inv = _invert(self.image, inv)
        self.rewritten = {rel: ("", None)}
        self.classes: dict[int, dict[str, int]] = {}
        self.extra = 0


class _Relators:
    """The relators of one Tietze simplification, indexed for its moves.

    ``relators`` holds the relators in order (as the keys of a dict), and
    ``lengths`` maps each length to the relators of that length, against
    which ``_class_of`` tests a word of that length.  ``occurs`` maps a
    generator (its positive letter) to the relators that contain it, in the
    order they came, and their total length; ``whole`` is the total length.
    A move hands ``replace`` the new relators, and only those it removes or
    adds are indexed or forgotten.

    The memos, keyed by live relators only:
    - ``substituted[rel][signed]``: the ``_Elimination`` of the letter
      ``signed`` by ``rel``, whose ``extra`` ``replace`` keeps exact;
    - ``uncounted``: the (elimination, class) pairs whose class does not
      count, and ``twins[r]`` those of them that the relator r is in;
    - ``tables[rule]``: the ``_shortening_table`` of a rule;
    - ``untried[rule]``: the relators the rule has not yet been tried on;
    - ``isolated[rel]``: the letters that occur in rel only once.
    """

    def __init__(self, relators, inv: str):
        self.inv = inv
        # fold[ord(c)] is the positive letter of c
        self.fold = "".join(map(max, inv, map(chr, range(len(inv)))))
        self.relators: dict[str, None] = {}
        self.lengths: dict[int, dict[str, None]] = {}
        self.occurs: dict[str, list] = {}
        self.whole = 0
        self.substituted: dict[str, dict[str, _Elimination]] = {}
        self.uncounted: set[tuple[_Elimination, str]] = set()
        self.twins: dict[str, list] = {}
        self.tables: dict[str, tuple] = {}
        self.untried: dict[str, set] = {}
        self.isolated: dict[str, list] = {}
        # reduced and deduplicated already
        self.replace(dict.fromkeys(relators))

    def replace(self, new: dict[str, None]) -> None:
        """Make the keys of ``new``, in order, the relators."""
        old = self.relators
        dead = [r for r in old if r not in new]
        added = [r for r in new if r not in old]
        for r in dead:
            self._index(r, -1)
        self.relators = new
        for r in added:
            self._index(r, 1)
        for r in dead:
            for memo in (self.substituted, self.tables, self.untried,
                         self.isolated):
                memo.pop(r, None)
        for untried in self.untried.values():
            untried.difference_update(dead)
            untried.update(added)
        # The class of a dead relator counts again, unless it is gone, and
        # that of an added one no longer does; a move may do both to one.
        uncounted = self.uncounted
        for r in dead:
            for pair in self.twins.pop(r, ()):
                if pair in uncounted:
                    uncounted.remove(pair)
                    pair[0].extra += len(r)
        inv = self.inv
        fresh = [(len(r), r, _invert(r, inv)) for r in added]
        for by_letter in self.substituted.values():
            for elimination in by_letter.values():
                rewritten, classes = elimination.rewritten, elimination.classes
                for r in dead:
                    if r in rewritten:
                        self._drop(elimination, r)
                for n, r, r_inv in fresh:
                    at = classes.get(n)
                    d = at and _class_of(r, r_inv, at)
                    if d:
                        self._twin(elimination, d, r)

    def _index(self, r: str, sign: int) -> None:
        """Add relator r to the index (sign 1) or remove it (sign -1)."""
        n = len(r)
        self.whole += sign * n
        if sign > 0:
            self.lengths.setdefault(n, {})[r] = None
        else:
            same = self.lengths[n]
            del same[r]
            if not same:
                del self.lengths[n]
        for g in set(r.translate(self.fold)):
            entry = self.occurs.setdefault(g, [{}, 0])
            if sign > 0:
                entry[0][r] = None
            else:
                del entry[0][r]
                if not entry[0]:
                    del self.occurs[g]
            entry[1] += sign * n

    def _rewrite(self, elimination: _Elimination, r: str) -> None:
        """Rewrite relator r for an elimination, and count the rewrite's
        class if it is new and no live relator is in it."""
        inv = self.inv
        w = _cyclic(_substitute(r, elimination.g, elimination.image,
                                elimination.image_inv, inv), inv)
        n = len(w)
        if not n:
            elimination.rewritten[r] = (w, None)
            return
        at = elimination.classes.setdefault(n, {})
        same = self.lengths.get(n)
        w_inv = _invert(w, inv) if at or same else ""
        d = _class_of(w, w_inv, at)
        if d:
            at[d] += 1
        else:
            d = w
            at[d] = 1
            elimination.extra += n
            twin = same and _class_of(w, w_inv, same)
            if twin:
                self._twin(elimination, d, twin)
        elimination.rewritten[r] = (w, d)

    def _drop(self, elimination: _Elimination, r: str) -> None:
        """Forget an elimination's rewrite of the dead relator r."""
        w, d = elimination.rewritten.pop(r)
        if d:
            n = len(w)
            at = elimination.classes[n]
            at[d] -= 1
            if not at[d]:
                del at[d]
                if not at:
                    del elimination.classes[n]
                if (elimination, d) in self.uncounted:
                    self.uncounted.remove((elimination, d))
                else:
                    elimination.extra -= n

    def _twin(self, elimination: _Elimination, d: str, r: str) -> None:
        """Stop counting the class d of an elimination, which the live
        relator r is in, until r goes."""
        self.uncounted.add((elimination, d))
        elimination.extra -= len(r)
        self.twins.setdefault(r, []).append((elimination, d))

    def candidates(self):
        """(relator, signed letter) pairs where the generator occurs once.

        Ordered by relator length, then relator position, then descending
        generator: the shortest defining relator wins, and on a tie the
        later-named generator is the one eliminated (so <a, b | b a^-1>
        keeps a).
        """
        fold = self.fold
        out = []
        for ri, rel in enumerate(self.relators):
            letters = self.isolated.get(rel)
            if letters is None:
                folded = rel.translate(fold)
                letters = self.isolated[rel] = [
                    (-ord(fold[ord(c)]), c) for c in set(rel)
                    if folded.count(fold[ord(c)]) == 1]
            out.extend((len(rel), ri, order, c, rel) for order, c in letters)
        out.sort()
        return [(rel, c) for _, _, _, c, rel in out]

    def eliminate(self, candidates, limit, take_first: bool):
        """Eliminate a generator by one of the isolated ``candidates``.

        Takes the first candidate whose relators, after substitution,
        reduction and deduplication, total at most ``limit`` (if
        ``take_first``), or the first of least total.  Returns
        ``(generator, relators)`` for ``replace``, or None.

        A candidate's total is that of the relators without its generator,
        which are in distinct classes, plus one length for each class of the
        rewrites of the relators with it that no relator without it is in:
        whichever of two relators of one class the ordered list keeps, the
        total is the same.  Its ``_Elimination`` sums the second part over
        the rewrites it holds, so the total is at least the first part plus
        ``extra``, and equal to it once every relator with the generator is
        rewritten.  A candidate whose bound passes the limit is rejected
        without a rewrite; otherwise its relators with the generator are
        rewritten in order until the bound passes the limit or all are.
        Only the winner's relators are rebuilt in order.
        """
        best = None
        for rel, signed in candidates:
            by_letter = self.substituted.setdefault(rel, {})
            elimination = by_letter.get(signed)
            if elimination is None:
                elimination = by_letter[signed] = _Elimination(
                    rel, signed, self.inv)
            touched, length = self.occurs[elimination.g]
            base = self.whole - length
            rewritten = elimination.rewritten
            if (base + elimination.extra <= limit
                    and len(rewritten) < len(touched)):
                for r in touched:
                    if r not in rewritten:
                        self._rewrite(elimination, r)
                        if base + elimination.extra > limit:
                            break
            total = base + elimination.extra
            if total <= limit and len(rewritten) == len(touched):
                best = (elimination.g, touched, rewritten)
                if take_first:
                    break
                limit = total - 1
        if best is None:
            return None
        g, touched, rewritten = best
        return g, self._normalized(rewritten[r][0] if r in touched else r
                                   for r in self.relators)

    def shorten(self):
        """The first shortening of one relator by another, as ``(None,
        relators)`` for ``replace``, or None.

        Rules are tried shortest first, targets in order, each pair once
        while both live.  The shortened relator is cyclically reduced in
        place.  It is dropped if it is empty; of two relators of one class,
        the later is dropped.
        """
        inv, relators = self.inv, self.relators
        position = None
        for rule in sorted(relators, key=len):
            if len(rule) < 2:
                continue
            untried = self.untried.get(rule)
            if untried is None:
                untried = self.untried[rule] = set(relators)
                untried.discard(rule)
            if not untried:
                continue
            if position is None:
                position = {r: i for i, r in enumerate(relators)}
            table = self.tables.get(rule)
            if table is None:
                table = self.tables[rule] = _shortening_table(rule, inv)
            for target in sorted(untried, key=position.__getitem__):
                w = _try_shorten(target, table, inv)
                if w is None:
                    untried.discard(target)
                    continue
                w = _cyclic(w, inv)
                return None, self._normalized(
                    w if r == target else r for r in relators)
        return None

    def _normalized(self, words) -> dict[str, None]:
        """The nonempty ``words``, in order as the keys of a dict, and only
        the first of a class."""
        inv = self.inv
        out: dict[str, None] = {}
        kept: dict[int, list] = {}       # length -> words kept
        for w in words:
            if w:
                same = kept.setdefault(len(w), [])
                if not same or not _class_of(w, _invert(w, inv), same):
                    out[w] = None
                    same.append(w)
        return out


def tietze_simplify(pres: Presentation,
                    budget: int = TIETZE_BUDGET) -> TietzeResult:
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
    Words are str from entry to exit, letter x as chr(rank + 1 + x): the
    encoding is increasing, so str words compare, sort and rotate as their
    tuples do.  Generators keep their input numbers and are renumbered once,
    on exit, which keeps the order of the letters that remain; so the
    candidates, the shortenings and the deduplication are those of
    renumbering at every elimination.  Two words are duplicates when one is
    a rotation of the other or of its inverse, which ``_class_of`` tests by
    substring search in a doubled word, so no canonical key is computed.
    The relators live in a ``_Relators``, which keeps an index (the
    relators of each generator and of each length) from move to move; a
    move rewrites and re-indexes only the relators it changes.  Memoised, and
    forgotten with their relator: each elimination candidate's image, the
    relators it has rewritten and a running lower bound of its total, exact
    once all are rewritten; each relator's isolated letters, its shortening
    table and the relators it has not been tried on.  A rank past 557,055
    has no encoding: the input comes back unchanged, with
    ``completed=False``.
    """
    def move(state):
        # A forced elimination still terminates: generators only disappear.
        candidates = state.candidates()
        return (state.eliminate(candidates, state.whole, True)
                or state.shorten()
                or state.eliminate(candidates, math.inf, False))
    return _run_moves(pres, move, budget)


def eliminate_generators(pres: Presentation) -> TietzeResult:
    """Eliminate generators while some relator holds one exactly once.

    Each move takes ``tietze_simplify``'s first candidate (the shortest
    defining relator, the later-named generator on a tie) whatever the
    relators then total, and no relator is shortened by another: few
    generators, at one rewrite of the relators with each generator
    eliminated, but relators maybe longer than ``tietze_simplify``'s.
    Encoding, deduplication and renumbering are those of ``tietze_simplify``.
    """
    return _run_moves(
        pres, lambda state: state.eliminate(state.candidates(), math.inf, True),
        math.inf)


def _run_moves(pres: Presentation, move, budget) -> TietzeResult:
    """Apply ``move(state)`` to the ``_Relators`` of ``pres`` until it
    returns None or ``budget`` moves are made, and renumber the generators
    that remain (see ``tietze_simplify``)."""
    rank = pres.rank
    if 2 * rank + 1 > 0x10FFFF:
        return TietzeResult(pres, False, 0)
    state = _Relators([_encode(r, rank) for r in pres.relators],
                      _inverse_table(rank))
    eliminated = set()
    steps = 0
    while True:
        step = move(state)
        if step is None or steps >= budget:
            break
        g, relators = step
        state.replace(relators)
        if g:
            eliminated.add(g)
        steps += 1
    kept = [x for x in range(1, rank + 1)
            if chr(rank + 1 + x) not in eliminated]
    number = {chr(rank + 1 + s * x): s * new
              for new, x in enumerate(kept, 1) for s in (1, -1)}
    return TietzeResult(
        Presentation(tuple(pres.generators[x - 1] for x in kept),
                     tuple(tuple(map(number.__getitem__, r))
                           for r in state.relators)),
        step is None, steps)
