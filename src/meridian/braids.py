"""Braid words, their action on free groups, and van Kampen presentations.

A braid on n strands is a freely reduced word in the standard generators
s_1 ... s_(n-1), stored like free-group words as signed indices.  The action
on the free group F(g_1 ... g_n) is

    g_i ^ s_j = g_(i+1)             if i == j,
    g_i ^ s_j = g_i * g_(i-1) * g_i^-1   if i == j + 1,
    g_i ^ s_j = g_i                 otherwise,

extended letter by letter: the action of a product is the composite of the
actions, read left to right.  The action is faithful, which makes it the
equality test of choice for braids.
"""

from __future__ import annotations

from collections import namedtuple

from .fpgroups import (
    ParseError,
    Presentation,
    Word,
    cyclic_reduce,
    invert,
    multiply,
    parse_word,
    power,
    reduce_word,
)


class BraidError(ValueError):
    """Strand-count mismatches and out-of-range braid letters."""


class BraidWord:
    """Freely reduced word in the Artin generators of the braid group B_n."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Word):
        if strands < 1:
            raise BraidError("a braid needs at least one strand")
        reduced = reduce_word(letters)
        for x in reduced:
            if not 1 <= abs(x) < strands:
                raise BraidError(
                    f"letter s_{abs(x)} needs at least {abs(x)+1} strands")
        self.strands = strands
        self.letters = reduced

    def __eq__(self, other):
        return (isinstance(other, BraidWord) and self.strands == other.strands
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise BraidError("strand counts differ")
        return BraidWord(self.strands, multiply(self.letters, other.letters))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, invert(self.letters))

    def __pow__(self, n: int) -> "BraidWord":
        return BraidWord(self.strands, power(self.letters, n))

    def spell(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        run_gen, run_len = None, 0
        for x in list(self.letters) + [0]:
            if x == run_gen:
                run_len += 1
            else:
                if run_gen is not None:
                    g = abs(run_gen)
                    e = run_len if run_gen > 0 else -run_len
                    parts.append(f"s{g}" if e == 1 else f"s{g}^{e}")
                run_gen, run_len = x, 1
        return "*".join(parts)

    def __str__(self):
        return self.spell()


def sigma(strands: int, j: int, exponent: int = 1) -> BraidWord:
    """The generator s_j of B_strands, or a power of it."""
    return BraidWord(strands, power((j,), exponent))


def artin_action(braid: BraidWord, w: Word) -> Word:
    """Image of a free-group word under the braid automorphism."""
    n = braid.strands
    for x in w:
        if abs(x) > n:
            raise BraidError(f"word letter g_{abs(x)} exceeds {n} strands")
    for s in braid.letters:
        j = abs(s)
        if s > 0:
            # g_j -> g_{j+1},  g_{j+1} -> g_{j+1} g_j g_{j+1}^-1
            table = {j: (j + 1,), j + 1: (j + 1, j, -(j + 1)),
                     -j: (-(j + 1),), -(j + 1): (j + 1, -j, -(j + 1))}
        else:
            # inverse action: g_j -> g_j^-1 g_{j+1} g_j,  g_{j+1} -> g_j
            table = {j: (-j, j + 1, j), j + 1: (j,),
                     -j: (-j, -(j + 1), j), -(j + 1): (-j,)}
        out: list[int] = []
        for x in w:
            for y in table.get(x, (x,)):
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        w = tuple(out)
    return w


def braid_equal(b1: BraidWord, b2: BraidWord) -> bool:
    """Equality in the braid group, via the faithful action on F_n."""
    if b1.strands != b2.strands:
        raise BraidError("strand counts differ")
    probe = b2.inverse() * b1
    return all(artin_action(probe, (i,)) == (i,)
               for i in range(1, b1.strands + 1))


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """Underlying permutation, as the image tuple of strands 1..n."""
    perm = list(range(b.strands + 1))
    for s in b.letters:
        j = abs(s)
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return tuple(perm[1:])


def compose_path_monodromy(strands: int, paths: dict[str, BraidWord],
                           path) -> BraidWord:
    """Braid of a composite path, multiplying entries in traversal order.

    ``paths`` maps names to braids on ``strands`` strands; ``path`` is a
    sequence of (name, sign) pairs, and sign -1 traverses the named path
    backwards.  Multiplication left to right in traversal order is the
    convention that reproduces the reference monodromies; see the regression
    tests.
    """
    out = BraidWord(strands, ())
    for name, sign in path:
        b = paths[name]
        out = out * (b if sign > 0 else b.inverse())
    return out


def _strand_blocks(strands: int, letters: Word) -> list[tuple[int, int]]:
    """Maximal runs of strands linked by the letters of a braid word."""
    linked = [False] * (strands + 1)   # linked[j]: strands j, j+1 interact
    for x in letters:
        linked[abs(x)] = True
    blocks = []
    start = 1
    for j in range(1, strands + 1):
        if j == strands or not linked[j]:
            blocks.append((start, j))
            start = j + 1
    return blocks


def _block_dropped_indices(n: int, conj: Word, tau_letters: Word) -> set[int]:
    """Indices whose monodromy relation is provably redundant for c tau c^-1.

    For a block B of tau, the word X_B = (g_hi ... g_lo) ^ (c^-1) is fixed by
    the whole braid, because tau fixes the block product.  If X_B contains a
    generator g_t of B exactly once and no generator dropped for another
    block, the relation at t follows from the kept ones and may be dropped.
    For an unconjugated braid this recovers the usual rule: the top strand of
    every block is dropped, and singleton blocks contribute nothing.
    """
    c_inv = BraidWord(n, invert(conj))
    fixed_words = {}
    candidates = {}
    for lo, hi in _strand_blocks(n, tau_letters):
        prod = tuple(range(hi, lo - 1, -1))            # g_hi ... g_lo
        x = artin_action(c_inv, prod)
        fixed_words[(lo, hi)] = x
        counts: dict[int, int] = {}
        for letter in x:
            counts[abs(letter)] = counts.get(abs(letter), 0) + 1
        for t in range(hi, lo - 1, -1):
            if counts.get(t, 0) == 1:
                candidates[(lo, hi)] = t
                break
    dropped = set(candidates.values())
    # a drop is only safe if no other dropped generator occurs in its witness
    for block, t in sorted(candidates.items()):
        others = dropped - {t}
        if any(abs(letter) in others for letter in fixed_words[block]):
            dropped.discard(t)
    return dropped


def zvk_presentation(strands: int, braids, reduction: str = "none"
                     ) -> Presentation:
    """Meridian presentation of the affine complement from its monodromy.

    ``braids`` is a sequence of (name, braid) pairs, every braid on
    ``strands`` strands.  With ``reduction="none"`` every pair (generator,
    braid) contributes the relator (g_i ^ braid) * g_i^-1.  With
    ``reduction="block"`` each braid is peeled into c * tau * c^-1 and the
    relation at one index per block of tau is dropped whenever the redundancy
    witness of _block_dropped_indices certifies it; the kept relators are the
    plain (g_i ^ braid) * g_i^-1, so both reductions present the same group
    and "block" merely starts smaller.
    """
    if reduction not in ("none", "block"):
        raise ValueError("reduction must be 'none' or 'block'")
    if any(braid.strands != strands for _, braid in braids):
        raise BraidError("monodromy mixes strand counts")
    names = tuple(f"g{i}" for i in range(1, strands + 1))
    relators: list[Word] = []
    for _, braid in braids:
        dropped: set[int] = set()
        if reduction == "block":
            # braid = c * tau * c^-1, peeling matched outer letters
            tau_letters = cyclic_reduce(braid.letters)
            conj = braid.letters[:(len(braid.letters) - len(tau_letters)) // 2]
            dropped = _block_dropped_indices(strands, conj, tau_letters)
        for i in range(1, strands + 1):
            if i in dropped:
                continue
            rel = multiply(artin_action(braid, (i,)), invert((i,)))
            if rel:
                relators.append(rel)
    return Presentation(names, tuple(relators))


# --- monodromy text format ----------------------------------------------------
#
#   strands 3;
#   path alpha_plus: 1;
#   path beta_plus: s2^2;
#   compose mu_plus: alpha_plus * beta_plus * alpha_plus^-1;
#   braid mu_0: (s2^-1*s1)*s2^5;          # a*b is plain product; use conj()
#   infinity: (g3*(g2*g1)^2)^-1;
#
# Braid words are words over s1..s(n-1), the infinity word is a word over
# g1..gn; both follow the word grammar of fpgroups (so '1', '^n', parentheses,
# '[a, b]' and 'conj(a, b)' = a b a^-1 all work).  Compose lines name paths,
# each optionally inverted with '^-1'.


class MonodromyFile(namedtuple("MonodromyFile",
                               "strands paths braids infinity compositions")):
    """A parsed monodromy file.

    ``paths`` maps each path name to its braid; ``braids`` holds the
    (name, braid) pairs of the braid lines in file order, then those of the
    compose lines; ``infinity`` is the infinity word, or None without an
    'infinity:' line; ``compositions`` holds each compose line as
    (name, ((path name, sign), ...)).
    """

    __slots__ = ()


def _letters(prefix: str, count: int) -> dict[str, int]:
    """The index {prefix1: 1, ..., prefix<count>: count} for parse_word."""
    return {f"{prefix}{k}": k for k in range(1, count + 1)}


def _definition(line: str, keyword: str, line_no: int) -> tuple[str, str]:
    """'<keyword> <name>: <expr>' as (name, expr)."""
    head, colon, expr = line.partition(":")
    if not colon:
        raise ParseError(f"expected '{keyword} <name>: ...'", line_no, 1)
    return head[len(keyword):].strip(), expr


def _expr_column(raw: str) -> int:
    """Column in the raw line of the first character after the colon."""
    return raw.index(":") + 2


def parse_monodromy(text: str) -> MonodromyFile:
    """Parse the monodromy text format described above."""
    strands: int | None = None
    paths: dict[str, BraidWord] = {}
    braids: list[tuple[str, BraidWord]] = []
    compositions: list[tuple[str, tuple[tuple[str, int], ...]]] = []
    references: list[tuple[str, int, int]] = []     # path name, line, column
    infinity: Word | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("statement must end with ';'", line_no, len(raw))
        line = line[:-1].strip()
        if line.startswith("strands"):
            count = line[len("strands"):].strip()
            if not count.isdigit():
                raise ParseError("expected 'strands <n>'", line_no, 1)
            if int(count) < 1:
                raise ParseError("a braid needs at least one strand", line_no, 1)
            if strands is not None:
                raise ParseError("'strands' declared twice", line_no, 1)
            strands = int(count)
        elif line.startswith("path ") or line.startswith("braid "):
            kind = line.split(" ", 1)[0]
            name, expr = _definition(line, kind, line_no)
            if strands is None:
                raise ParseError("braid word before 'strands' declaration",
                                 line_no, 1)
            if kind == "path" and name in paths:
                raise ParseError(f"path {name!r} declared twice", line_no, 1)
            letters = parse_word(expr, _letters("s", strands - 1), line_no,
                                 _expr_column(raw))
            braid = BraidWord(strands, letters)
            if kind == "path":
                paths[name] = braid
            else:
                braids.append((name, braid))
        elif line.startswith("compose "):
            name, expr = _definition(line, "compose", line_no)
            steps = []
            end = raw.index(":")
            for item in expr.replace("*", " ").split():
                start = raw.index(item, end)
                end = start + len(item)
                path, sign = (item[:-3], -1) if item.endswith("^-1") else (item, 1)
                steps.append((path, sign))
                references.append((path, line_no, start + 1))
            compositions.append((name, tuple(steps)))
        elif line.startswith("infinity"):
            _, expr = _definition(line, "infinity", line_no)
            if strands is None:
                raise ParseError("'infinity' before 'strands'", line_no, 1)
            if infinity is not None:
                raise ParseError("'infinity' declared twice", line_no, 1)
            infinity = parse_word(expr, _letters("g", strands), line_no,
                                  _expr_column(raw))
        else:
            raise ParseError(f"unknown statement {line.split()[0]!r}", line_no, 1)

    if strands is None:
        raise ParseError("missing 'strands' declaration", 1, 1)
    for name, line_no, col in references:
        if name not in paths:
            raise ParseError(f"unknown path name {name!r}", line_no, col)
    for name, steps in compositions:
        braids.append((name, compose_path_monodromy(strands, paths, steps)))
    return MonodromyFile(strands, paths, tuple(braids), infinity,
                         tuple(compositions))
