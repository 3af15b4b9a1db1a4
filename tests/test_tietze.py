"""Tietze simplification against a copy of the routine it replaced.

``reference_tietze`` re-normalizes every relator after every move.  The
incremental routine must make the same moves in the same order: the same
presentation and step count for every input and budget.  ``completed``
differs on purpose: the copy reports False whenever the budget is used up,
the routine only when a move was still available.
"""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_tietze
from meridian import cli, fpgroups
from meridian.abelian import abelian_invariants, abelianization
from meridian.braids import zvk_presentation
from meridian.cosets import (
    SubgroupSpec,
    reidemeister_schreier,
    schreier_rewrite,
    todd_coxeter,
)
from meridian.fpgroups import (
    Presentation,
    TietzeResult,
    cyclic_reduce,
    eliminate_generators,
    invert,
    multiply,
    print_presentation,
    reduce_word,
    tietze_simplify,
)


@st.composite
def presentations(draw):
    rank = draw(st.integers(2, 5))
    letter = st.sampled_from([x for x in range(-rank, rank + 1) if x])
    words = st.lists(letter, max_size=12).map(reduce_word)
    relators = draw(st.lists(words, min_size=1, max_size=6))
    names = tuple(f"g{i}" for i in range(1, rank + 1))
    return Presentation(names, tuple(relators))


# A rewritten relator repeats one without the eliminated generator; counting
# both in a candidate's total changes the elimination chosen.
@example(Presentation(("g1", "g2", "g3"), ((-1, -3, 2, -3, -1), (-2, -1, -2),
                                           (2, -1, 2), (-2, 3, 2, -1),
                                           (-3, -3))), 20)
# After g3 goes, eliminating g1 by g1 g2^2 rewrites two relators to g2^-7
# and g2^7: one key, at a length no relator has, so only one counts.
@example(Presentation(("g1", "g2", "g3"), ((1, 1, -2, 1, 3, 3),
                                           (-3, -3, 1, 2, 2),
                                           (3, 2, -1, 2, -1, 2), (-3,))), 2)
@settings(max_examples=400)
@given(presentations(), st.integers(0, 20))
def test_same_moves_as_reference(pres, budget):
    new = tietze_simplify(pres, budget)
    old = reference_tietze.tietze_simplify(pres, budget)
    assert (new.presentation, new.steps) == (old.presentation, old.steps)
    # a move was left exactly when one more unit of budget buys one more
    more = reference_tietze.tietze_simplify(pres, budget + 1)
    assert new.completed == (more.steps == old.steps)


@st.composite
def encoded_words(draw):
    """A rank of 1-40 and two reduced words; the second starts by cancelling
    part of the first."""
    rank = draw(st.integers(1, 40))
    letter = st.integers(-rank, rank).filter(bool)
    u, v = (reduce_word(draw(st.lists(letter, max_size=16))) for _ in "uv")
    return rank, u, multiply(invert(u[draw(st.integers(0, len(u))):]), v)


def decode(s, rank):
    return tuple(ord(c) - rank - 1 for c in s)


# the empty word; rank 1
@example((1, (), ()))
@example((1, (1, 1, 1), (-1,)))
@settings(max_examples=300)
@given(encoded_words())
def test_string_words_agree_with_tuple_words(drawn):
    rank, u, v = drawn
    inv = fpgroups._inverse_table(rank)
    enc_u, enc_v = fpgroups._encode(u, rank), fpgroups._encode(v, rank)
    assert decode(enc_u, rank) == u
    assert (u < v) == (enc_u < enc_v)
    assert decode(fpgroups._invert(enc_u, inv), rank) == invert(u)
    assert decode(fpgroups._join(enc_u, enc_v, inv), rank) == multiply(u, v)
    assert decode(fpgroups._cyclic(enc_u, inv), rank) == cyclic_reduce(u)


@st.composite
def word_pairs(draw):
    """A rank of 1-3 and two reduced words of one length, the second often a
    rotation of the first or of its inverse."""
    rank = draw(st.integers(1, 3))

    def reduced(n):
        w = []
        for _ in range(n):
            w.append(draw(st.integers(-rank, rank).filter(
                lambda x: x and not (w and x == -w[-1]))))
        return tuple(w)

    u = reduced(draw(st.integers(0, 10)))
    how = draw(st.sampled_from(["rotation", "inverse", "other"]))
    if how == "other":
        return rank, u, reduced(len(u))
    k = draw(st.integers(0, len(u)))
    v = u[k:] + u[:k]
    return rank, u, invert(v) if how == "inverse" else v


# the empty word; least letter twice, against a rotation and against the
# inverse; u and u^-1 with the same least letter; the same letters in
# another class
@example((1, (), ()))
@example((3, (-3, 1, -3, 2), (-3, 2, -3, 1)))
@example((3, (-3, 1, -3, 2), (-2, 3, -1, 3)))
@example((2, (1, 2, -1, -2), (2, 1, -2, -1)))
@example((2, (1, 1, 2, 2), (1, 2, 1, 2)))
@settings(max_examples=400)
@given(word_pairs())
def test_class_test_is_key_equality(drawn):
    # Tietze simplification deduplicates relators with _class_of, and
    # Presentation with _relator_key: the two must agree.
    rank, u, v = drawn
    inv = fpgroups._inverse_table(rank)
    enc_u, enc_v = fpgroups._encode(u, rank), fpgroups._encode(v, rank)
    found = fpgroups._class_of(enc_u, fpgroups._invert(enc_u, inv), [enc_v])
    assert (found is not None) == \
        (fpgroups._relator_key(u) == fpgroups._relator_key(v))


@st.composite
def substitutions(draw):
    """A rank of 1-4, a reduced word, a generator and a reduced image: few
    letters, so that the pieces cancel where they meet, often in cascades."""
    rank = draw(st.integers(1, 4))
    letter = st.integers(-rank, rank).filter(bool)
    word, image = (reduce_word(draw(st.lists(letter, max_size=14)))
                   for _ in "wi")
    return rank, word, draw(st.integers(1, rank)), image


# every piece cancels: a b a b with b -> a^-1
@example((2, (1, 2, 1, 2), 2, (-1,)))
# a cascade through two images: a b^-1 c b a^-1 with b -> c a
@example((3, (1, -2, 3, 2, -1), 2, (3, 1)))
@settings(max_examples=400)
@given(substitutions())
def test_substitution_agrees_with_tuple_substitution(drawn):
    rank, word, g, image = drawn
    inv = fpgroups._inverse_table(rank)
    letters = []
    for x in word:
        letters.extend(image if x == g else invert(image) if x == -g else (x,))
    out = fpgroups._substitute(fpgroups._encode(word, rank),
                               fpgroups._encode((g,), rank),
                               fpgroups._encode(image, rank),
                               fpgroups._encode(invert(image), rank), inv)
    assert decode(out, rank) == reduce_word(letters)
    assert decode(fpgroups._cyclic(out, inv), rank) == \
        cyclic_reduce(reduce_word(letters))


def test_wide_rank_matches_reference():
    # Letter x is coded rank + 1 + x: the inverses of generators 2,658-4,705
    # fall in the surrogates U+D800-U+DFFF, generators past 5,534 above U+FFFF.
    rank = 60000
    rng = random.Random(14)
    letters = [s * g for g in (2700, 3100, 4600, 9000, 59000, 60000)
               for s in (1, -1)]
    relators = [[rng.choice(letters) for _ in range(rng.randint(2, 9))]
                for _ in range(6)]
    pres = Presentation(tuple(f"g{i}" for i in range(1, rank + 1)),
                        tuple(map(reduce_word, relators)))
    codes = {rank + 1 + x for r in pres.relators for x in r}
    assert any(0xD800 <= c <= 0xDFFF for c in codes) and max(codes) > 0xFFFF
    assert tietze_simplify(pres).steps == 3
    for budget in (3, 0, 1, 2):
        new = tietze_simplify(pres, budget)
        old = reference_tietze.tietze_simplify(pres, budget)
        assert (new.presentation, new.steps) == (old.presentation, old.steps)


def test_rank_past_the_encoding_is_returned_unchanged():
    # 2 * rank + 1 letter codes no longer fit below U+10FFFF
    pres = Presentation(tuple(map(str, range(557056))), ((1, 2, -1),))
    assert tietze_simplify(pres) == TietzeResult(pres, False, 0)
    assert eliminate_generators(pres) == TietzeResult(pres, False, 0)


@settings(max_examples=300)
@given(presentations())
def test_eliminations_keep_the_abelianization(pres):
    result = eliminate_generators(pres)
    out = result.presentation
    assert result.completed
    assert abelian_invariants(out) == abelian_invariants(pres)
    assert out.rank == pres.rank - result.steps
    # no generator is left isolated in a relator
    assert not any(sum(abs(x) == g for x in r) == 1
                   for r in out.relators for g in range(1, out.rank + 1))


def with_product_generator(pres):
    """<x, y, z | R, x y z^-1>, with x y spelled z and y^-1 x^-1 spelled
    z^-1 throughout R: the same group, and z occurs once in one relator."""
    def spell(w):
        out = []
        for a in w:
            if out and (out[-1], a) in ((1, 2), (-2, -1)):
                out[-1] = 3 if a == 2 else -3
            else:
                out.append(a)
        return tuple(out)
    return Presentation(pres.generators + ("z",),
                        tuple(map(spell, pres.relators)) + ((1, 2, -3),))


@pytest.mark.parametrize("argv,order", [
    (["--preset", "degtyarev-projective"], 320),
    (["--orbifold", "g=0 k=0 m=2,3,5"], 60),
])
def test_eliminations_keep_finite_orders(argv, order):
    pres = cli.load_presentation(cli.build_parser().parse_args(["order"] + argv))
    extended = with_product_generator(pres)
    assert any(3 in r or -3 in r for r in extended.relators[:-1])
    result = eliminate_generators(extended)
    assert (result.steps, result.presentation.generators) == (1, ("x", "y"))
    assert todd_coxeter(result.presentation).index == order


def kernel(presets, name, n, images):
    pres = presets[name]
    return pres, todd_coxeter(pres, SubgroupSpec.kernel_of((n,), images))


def affine_kernel(presets, n):
    return kernel(presets, "degtyarev-affine", n, [(1,), (1,)])


@pytest.mark.parametrize("n,steps", [(8, 66), (9, 49), (10, 47), (11, 89),
                                     (12, 66)])
def test_kernel_step_counts(presets, n, steps):
    result = reidemeister_schreier(*affine_kernel(presets, n))
    assert (result.steps, result.completed) == (steps, True)


def test_kernel_matches_reference(presets):
    kernels = [("degtyarev-affine", n, [(1,), (1,)]) for n in range(2, 11)]
    for name, n, images in kernels + [("p1-2-5-10", 10, [(5,), (8,)])]:
        raw, _ = schreier_rewrite(*kernel(presets, name, n, images))
        full = tietze_simplify(raw)
        assert full == reference_tietze.tietze_simplify(raw, 20000)
        for budget in (0, 1, full.steps // 2):
            new = tietze_simplify(raw, budget)
            old = reference_tietze.tietze_simplify(raw, budget)
            assert (new.presentation, new.steps) == \
                (old.presentation, old.steps), (name, n, budget)


def test_table1_kernel_matches_golden():
    # The index-10 kernel of the pipeline's infinite-orbifold obstruction
    # for degtyarev-table1 (whose LCS stage reduces it by eliminations, not
    # Tietze), the largest input of this file.
    # reference_tietze gives the golden too, but takes minutes.
    mono = cli.load_monodromy("degtyarev-table1")
    raw = zvk_presentation(mono.strands, mono.braids, "block")
    group = tietze_simplify(raw).presentation
    images = abelianization(group).gen_images
    kernel, _ = schreier_rewrite(group, todd_coxeter(
        group, SubgroupSpec.kernel_of((10,), list(images))))
    assert (kernel.rank, len(kernel.relators),
            kernel.total_relator_length()) == (21, 60, 712)
    result = tietze_simplify(kernel)
    assert (result.steps, result.completed) == (472, True)
    assert (result.presentation.rank, len(result.presentation.relators)) == \
        (5, 21)
    golden = Path(__file__).parent / "golden" / "tietze-table1-kernel-10.grp"
    assert print_presentation(result.presentation) == golden.read_text()


def test_eliminations_reach_the_pipeline_kernel(presets):
    # the index-10 kernel of the infinite-orbifold obstruction: its 11
    # Schreier generators go down to 5, the rank of its H1 = Z^5, which no
    # presentation of it undercuts; genus2 has no generator to eliminate
    raw, _ = schreier_rewrite(*affine_kernel(presets, 10))
    assert (raw.rank, eliminate_generators(raw).presentation.rank) == (11, 5)
    assert eliminate_generators(presets["genus2"]) == \
        TietzeResult(presets["genus2"], True, 0)


def test_substitutions_outlive_eliminations(presets, monkeypatch):
    # Generators keep their numbers, so a substituted relator stays valid
    # until the relator itself goes; recomputing them after every
    # elimination took 6,668 substitutions here.
    calls = 0
    substitute = fpgroups._substitute

    def counted(*args):
        nonlocal calls
        calls += 1
        return substitute(*args)

    monkeypatch.setattr(fpgroups, "_substitute", counted)
    raw, _ = schreier_rewrite(*affine_kernel(presets, 12))
    assert tietze_simplify(raw).steps == 66
    assert calls == 4508


def check_relators(state):
    """The index describes the relators, every memo holds live relators
    only, so none grows with the number of moves, and every elimination's
    running total is that of the rewrites it holds."""
    live = set(state.relators)
    rank = len(state.inv) // 2 - 1     # inv has 2 * rank + 2 letters

    def key(s):
        return fpgroups._relator_key(tuple(ord(c) - rank - 1 for c in s))

    assert state.lengths == {n: dict.fromkeys(r for r in live if len(r) == n)
                             for n in set(map(len, live))}
    assert state.whole == sum(map(len, live))
    folded = {r: r.translate(state.fold) for r in live}
    assert state.occurs.keys() == set("".join(folded.values()))
    for g, (touched, length) in state.occurs.items():
        assert set(touched) == {r for r in live if g in folded[r]}
        assert length == sum(map(len, touched))
    for memo in (state.substituted, state.twins, state.tables,
                 state.untried, state.isolated):
        assert live.issuperset(memo)
    assert all(untried <= live - {rule}
               for rule, untried in state.untried.items())
    live_keys = set(map(key, live))
    for by_letter in state.substituted.values():
        for elimination in by_letter.values():
            rewritten = elimination.rewritten
            assert live.issuperset(rewritten)
            lengths = {key(w): len(w) for w, _ in rewritten.values() if w}
            assert elimination.extra == sum(
                n for k, n in lengths.items() if k not in live_keys)
            assert len(lengths) == sum(map(len, elimination.classes.values()))


class CheckedRelators(fpgroups._Relators):
    """Runs check_relators after every move and counts the moves."""

    moves = 0

    def replace(self, new):
        super().replace(new)
        CheckedRelators.moves += 1
        check_relators(self)


def test_index_and_memos_follow_the_relators(presets, monkeypatch):
    monkeypatch.setattr(fpgroups, "_Relators", CheckedRelators)
    monkeypatch.setattr(CheckedRelators, "moves", 0)
    raw, _ = schreier_rewrite(*affine_kernel(presets, 12))
    assert tietze_simplify(raw).steps == 66
    # the relators as given, then one per move
    assert CheckedRelators.moves == 67


# Kernels of small two-generator groups.  In the first, a rewrite's class
# that a live relator is in counts again when the relator goes; in the
# second, a rewrite in such a class goes first.  In the third, a relator that
# a move adds stops a class counting.  No kernel above has any of these.
@example(Presentation(("g1", "g2", "g3"),
                      ((-1, -1, -3, -2, 3), (2, 2, 2, 2, 3), (-1, -1, -1),
                       (-2, -2, -1), (3, 1, 1, 1, 1), (-2, -2, -2))))
@example(Presentation(tuple(f"g{i}" for i in range(1, 9)),
                      ((-8, -7, -2, -4, -6, -2, -4), (-5, -3), (-4, -3, -1),
                       (-2, -8, -5, -1), (-8, -5, -1, -7, -7, -2),
                       (-3, -6, -2), (-6, -7, -2, -8, -7, -2, -4),
                       (3, -1, -4), (-3, -6, -2, -4, -4), (5, -7),
                       (-1, -5, -1, -7), (6, -8, -7), (-5, -3, -1, -1),
                       (8, -4, -6))))
@example(Presentation(("g1", "g2", "g3"), ((-1, -3, -1, -1), (2, 3, 3, -1),
                                           (-3, -3, 1, 2), (3, 1, 1),
                                           (-3, -2, -2), (-3, -2, -3))))
@settings(max_examples=300)
@given(presentations())
def test_memos_follow_random_relators(pres):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpgroups, "_Relators", CheckedRelators)
        tietze_simplify(pres)


def test_pipeline_step_counts(monkeypatch):
    # the affine, projective and meridian^5 presentations; the LCS stage
    # reduces the index-10 kernel of the infinite-orbifold obstruction by
    # generator eliminations, and never Tietze-simplifies it
    steps = []

    def recording(pres, budget=fpgroups.TIETZE_BUDGET):
        result = tietze_simplify(pres, budget)
        steps.append(result.steps)
        return result

    for module in (fpgroups, cli):
        monkeypatch.setattr(module, "tietze_simplify", recording)
    assert cli.main(["pipeline", "--preset", "degtyarev"]) == 0
    assert steps == [4, 11, 4]
