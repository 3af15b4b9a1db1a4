import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from meridian.abelian import (
    abelian_invariants,
    abelianization,
    characters_of_order_dividing,
)
from meridian.braids import (
    BraidError,
    BraidWord,
    artin_action,
    braid_equal,
    braid_permutation,
    compose_path_monodromy,
    parse_monodromy,
    sigma,
    zvk_presentation,
)
from meridian.charvar import charvar_finite_torus, charvar_rank_one, twisted_h1_dim
from meridian.cli import preset_text
from meridian.fpgroups import (
    ParseError,
    cyclic_reduce,
    invert,
    multiply,
    parse_presentation,
    reduce_word,
    tietze_simplify,
)
from meridian.cosets import (
    CosetOverflow,
    dihedral_table,
    find_epimorphisms,
    regular_rep_and_center,
    todd_coxeter,
)
from meridian.nilpotent import lcs_quotients
from conftest import random_word


def bw(*letters):
    return BraidWord(3, letters)


def conj(a, b):
    return a * b * a.inverse()


class TestArtinAction:
    def test_sigma_sends_own_strand_up(self):
        assert artin_action(sigma(3, 1), (1,)) == (2,)

    def test_sigma_conjugates_next_strand(self):
        assert artin_action(sigma(3, 1), (2,)) == (2, 1, -2)

    def test_faraway_strand_fixed(self):
        assert artin_action(sigma(3, 2), (1,)) == (1,)

    def test_full_product_fixed_by_sigma2_power(self):
        assert artin_action(sigma(3, 2) ** 5, (3, 2, 1)) == (3, 2, 1)

    def test_full_product_fixed_by_random_braids(self):
        rng = random.Random(20)
        for _ in range(100):
            n = rng.randint(2, 5)
            b = BraidWord(n, tuple(rng.choice(
                [i for i in range(-(n - 1), n) if i])
                for _ in range(rng.randint(0, 10))))
            full = tuple(range(n, 0, -1))
            assert artin_action(b, full) == full

    def test_action_is_automorphism(self):
        rng = random.Random(21)
        for _ in range(100):
            b = BraidWord(3, tuple(rng.choice([-2, -1, 1, 2])
                                   for _ in range(rng.randint(0, 8))))
            w = random_word(rng, 3)
            image = artin_action(b, w)
            assert artin_action(b.inverse(), image) == w

    def test_index_out_of_range(self):
        with pytest.raises(BraidError):
            artin_action(sigma(3, 1), (4,))


class TestBraidEqual:
    def test_braid_relation(self):
        assert braid_equal(bw(1, 2, 1), bw(2, 1, 2))

    def test_distinct_generators(self):
        assert not braid_equal(bw(1), bw(2))

    def test_commuting_far_generators(self):
        b1 = BraidWord(4, (1, 3))
        b2 = BraidWord(4, (3, 1))
        assert braid_equal(b1, b2)

    def test_strand_mismatch(self):
        with pytest.raises(BraidError):
            braid_equal(bw(1), BraidWord(4, (1,)))

    def test_conjugation_identity_in_b3(self):
        # (s2^2 s1^-1 s2 s1) * s2^5 equals s2^2 * s1^5 in B_3
        lhs = conj(bw(2, 2, -1, 2, 1), bw(2, 2, 2, 2, 2))
        rhs = conj(bw(2, 2), bw(1, 1, 1, 1, 1))
        assert braid_equal(lhs, rhs)

    def test_equal_braids_compose_consistently(self):
        a, b = bw(1, 2, 1), bw(2, 1, 2)
        c = bw(2, 2)
        assert braid_equal(a * c, b * c)
        assert braid_equal(c * a, c * b)


def table1() -> dict[str, BraidWord]:
    return parse_monodromy(preset_text("degtyarev-table1", ".braid")).paths


PATHS = {
    "mu_plus": [("alpha_plus", 1), ("beta_plus", 1), ("gamma_plus", 1),
                ("alpha_plus", -1)],
    "mu_0": [("alpha_plus", 1), ("beta_plus", 1), ("alpha_0", 1),
             ("beta_0", 1), ("gamma_0", 1), ("alpha_0", -1),
             ("beta_plus", -1), ("alpha_plus", -1)],
    "mu_minus": [("alpha_plus", 1), ("beta_plus", 1), ("alpha_0", 1),
                 ("beta_0", 1), ("alpha_minus", 1), ("beta_minus", 1),
                 ("gamma_minus", 1), ("alpha_minus", -1), ("beta_0", -1),
                 ("alpha_0", -1), ("beta_plus", -1), ("alpha_plus", -1)],
}


class TestPathComposition:
    def test_mu_plus(self):
        got = compose_path_monodromy(3, table1(), PATHS["mu_plus"])
        assert braid_equal(got, bw(2, 2, 2, 2, 2))

    def test_mu_zero(self):
        got = compose_path_monodromy(3, table1(), PATHS["mu_0"])
        assert braid_equal(got, conj(bw(2, 2, -1, 2), bw(1)))

    def test_mu_minus_value(self):
        got = compose_path_monodromy(3, table1(), PATHS["mu_minus"])
        assert braid_equal(got, conj(bw(2, 2, -1, 2), bw(2, 2, 2, 2, 2)))

    def test_mu_minus_is_not_the_longer_conjugate(self):
        # The composed braid differs from (s2^2 s1^-1 s2 s1) * s2^5 of
        # test_conjugation_identity_in_b3, already at the level of strand
        # permutations; the composed monodromy is the one validated by the
        # order-320 quotient downstream.
        got = compose_path_monodromy(3, table1(), PATHS["mu_minus"])
        other = conj(bw(2, 2, -1, 2, 1), bw(2, 2, 2, 2, 2))
        assert not braid_equal(got, other)
        assert braid_permutation(got) != braid_permutation(other)

    def test_composed_monodromy_conjugate_to_short_form(self):
        # one braid conjugates all three composed monodromies into the
        # short ones of the degtyarev-newbraid preset
        t = bw(2, 2, -1, 2)
        short = parse_monodromy(preset_text("degtyarev-newbraid", ".braid"))
        composed = [compose_path_monodromy(3, table1(), PATHS[k])
                    for k in ("mu_plus", "mu_0", "mu_minus")]
        for got, (_, target) in zip(composed, short.braids):
            assert braid_equal(t.inverse() * got * t, target)

    def test_unknown_path_name(self):
        with pytest.raises(KeyError):
            compose_path_monodromy(3, table1(), [("nope", 1)])


class TestZvk:
    def test_node(self):
        pres = zvk_presentation(2, (("b", BraidWord(2, (1, 1))),), "none")
        # commuting meridians
        assert set(pres.relators) <= {(2, 1, -2, -1), (1, 2, -1, -2),
                                      (-1, 2, 1, -2), (2, -1, -2, 1)}
        assert len(pres.relators) >= 1
        ab = abelianization(pres)
        assert (ab.rank, ab.torsion) == (2, ())

    def test_cusp(self):
        from meridian.fpgroups import _relator_key

        pres = zvk_presentation(2, (("b", BraidWord(2, (1, 1, 1))),), "none")
        # the relator is the braid relation g1 g2 g1 = g2 g1 g2
        braid_rel = _relator_key(multiply((1, 2, 1), invert((2, 1, 2))))
        assert {_relator_key(r) for r in pres.relators} == {braid_rel}
        # adding order-2 relations to the cusp relation gives S_3
        assert todd_coxeter(pres.with_relators([(1, 1), (2, 2)])).index == 6

    def test_braid_with_other_strand_count(self):
        with pytest.raises(BraidError):
            zvk_presentation(3, (("b", BraidWord(2, (1,))),))

    def test_degtyarev_order_320(self, presets):
        mono = parse_monodromy(preset_text("degtyarev-newbraid", ".braid"))
        affine = zvk_presentation(3, mono.braids, "block")
        pres = affine.with_relators([mono.infinity])
        quotient = pres.with_relators([(1,) * 5])
        assert todd_coxeter(quotient).index == 320
        ab = abelianization(affine)
        assert (ab.rank, ab.torsion) == (1, ())

    def test_raw_output_simplifies_to_two_by_two(self):
        from meridian.fpgroups import tietze_simplify

        mono = parse_monodromy(preset_text("degtyarev-newbraid", ".braid"))
        raw = zvk_presentation(3, mono.braids, "none")
        simplified = tietze_simplify(raw).presentation
        assert simplified.rank == 2
        assert len(simplified.relators) == 2
        ab = abelianization(simplified)
        assert (ab.rank, ab.torsion) == (1, ())
        quotient = simplified.with_relators([(1,) * 5])
        assert todd_coxeter(quotient).index == 320

    @pytest.mark.parametrize("preset", ["degtyarev-newbraid", "degtyarev-table1"])
    def test_block_matches_none(self, preset):
        mono = parse_monodromy(preset_text(preset, ".braid"))
        full = zvk_presentation(3, mono.braids, "none").with_relators(
            [mono.infinity])
        block = zvk_presentation(3, mono.braids, "block").with_relators(
            [mono.infinity])
        assert len(block.relators) <= len(full.relators)
        ab_full, ab_block = abelianization(full), abelianization(block)
        assert (ab_full.rank, ab_full.torsion) == (ab_block.rank, ab_block.torsion)
        for n in (2, 5, 10):
            dims_full = sorted(twisted_h1_dim(full, chi) for chi in
                               characters_of_order_dividing(ab_full, n))
            dims_block = sorted(twisted_h1_dim(block, chi) for chi in
                                characters_of_order_dividing(ab_block, n))
            assert dims_full == dims_block

    def test_infinity_meridian_appended(self):
        mono = parse_monodromy(preset_text("degtyarev-table1", ".braid"))
        pres = zvk_presentation(3, mono.braids, "none").with_relators(
            [mono.infinity])
        inf = reduce_word((-1, -2, -1, -2, -3))
        assert any(r == inf or r == invert(inf) for r in pres.relators) \
            or todd_coxeter(pres.with_relators([(1,) * 5])).index == 320


class TestMonodromyFormat:
    def test_round_trip_values(self):
        mono = parse_monodromy(preset_text("degtyarev-newbraid", ".braid"))
        braids = dict(mono.braids)
        assert braid_equal(braids["mu_0"], bw(1))
        assert braid_equal(braids["mu_minus"], bw(2, 2, 2, 2, 2))
        assert braid_equal(braids["mu_plus"], conj(bw(-2, 1), bw(2, 2, 2, 2, 2)))

    def test_infinity_transport_consistency(self):
        # the two presets present isomorphic projective groups
        for name in ("degtyarev-table1", "degtyarev-newbraid"):
            mono = parse_monodromy(preset_text(name, ".braid"))
            pres = zvk_presentation(3, mono.braids, "none").with_relators(
                [mono.infinity])
            assert todd_coxeter(pres.with_relators([(1,) * 5])).index == 320

    @pytest.mark.parametrize("expr,letters", [
        ("conj(s2^-1*s1, s2^5)", (-2, 1, 2, 2, 2, 2, 2, -1, 2)),
        ("[s1, s2]", (1, 2, -1, -2)),
        ("conj(s1, [s1, s2^-1])^2", (1, 1, -2, -1, 2, 1, -2, -1, 2, -1)),
    ])
    def test_one_grammar_for_braid_and_presentation_text(self, expr, letters):
        mono = parse_monodromy(f"strands 3;\nbraid b: {expr};\n"
                               f"infinity: {expr.replace('s', 'g')};\n")
        assert mono.braids[0][1].letters == letters
        assert mono.infinity == letters
        pres = parse_presentation(f"gens s1 s2; rel {expr};")
        assert pres.relators == (cyclic_reduce(letters),)

    @pytest.mark.parametrize("text,line,column,name", [
        ("strands 3;\npath a: s1*s3;\n", 2, 12, "s3"),
        ("strands 3;\nbraid b: s0;\n", 2, 10, "s0"),
        ("strands 3;\nbraid b: s1;\n# note\ninfinity: g1*g4;\n", 4, 14, "g4"),
        ("strands 3;\n  path a:s2 * s4;  # indented\n", 2, 15, "s4"),
    ])
    def test_out_of_range_letter_has_position(self, text, line, column, name):
        with pytest.raises(ParseError) as err:
            parse_monodromy(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert f"undeclared generator {name!r}" in str(err.value)

    @pytest.mark.parametrize("text,line,column,message", [
        ("strands 0;\n", 1, 1, "a braid needs at least one strand"),
        ("strands 3;\npath a: s1;\nstrands 4;\n", 3, 1,
         "'strands' declared twice"),
        ("strands 3;\npath a: s1;\n  compose m: a^-1 * b*a;\n", 3, 21,
         "unknown path name 'b'"),
        ("strands 3;\npath a: s1;\npath a: s2;\ncompose m: a;\n", 3, 1,
         "path 'a' declared twice"),
        ("strands 3;\nbraid m: s1;\ninfinity: g1;\ninfinity: g2;\n", 4, 1,
         "'infinity' declared twice"),
    ])
    def test_monodromy_input_errors_have_position(self, text, line, column,
                                                  message):
        with pytest.raises(ParseError) as err:
            parse_monodromy(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"{line}:{column}: {message}"

    def test_compose_may_name_a_later_path(self):
        mono = parse_monodromy("strands 2;\ncompose m: a^-1;\npath a: s1;\n")
        assert mono.braids == (("m", BraidWord(2, (-1,))),)

    def test_malformed_strands_line(self):
        with pytest.raises(ParseError):
            parse_monodromy("strands;\n")

    def test_parse_errors(self):
        with pytest.raises((ParseError, BraidError)):
            parse_monodromy("strands 3;\npath a: s9;\n")
        with pytest.raises(ParseError):
            parse_monodromy("path a: s1;\n")


@st.composite
def monodromies(draw, max_strands=6):
    strands = draw(st.integers(1, max_strands))
    letters = [x for x in range(1 - strands, strands) if x]
    words = st.lists(st.sampled_from(letters), max_size=10) if letters \
        else st.just([])
    braids = draw(st.lists(words, max_size=4))
    return strands, tuple(
        (f"b{i}", BraidWord(strands, tuple(w))) for i, w in enumerate(braids))


def strand_orbits(strands: int, braids) -> int:
    root = list(range(strands + 1))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for _, braid in braids:
        for i, j in enumerate(braid_permutation(braid), 1):
            root[find(i)] = find(j)
    return sum(find(i) == i for i in range(1, strands + 1))


@settings(max_examples=150)
@given(monodromies())
def test_abelianization_is_free_on_strand_orbits(monodromy):
    # the relators g_i^-1 beta(g_i) abelianize to g_pi(i) = g_i, pi the
    # permutation of beta, for every monodromy and either reduction
    orbits = strand_orbits(*monodromy)
    for reduction in ("none", "block"):
        raw = zvk_presentation(*monodromy, reduction)
        for pres in (raw, tietze_simplify(raw).presentation):
            ab = abelianization(pres)
            assert (ab.rank, ab.torsion) == (orbits, ())


def _finite_invariants(strands, words, reduction):
    """Epimorphisms onto S3 and D10, and the order and center of the
    quotient by every g_i^2 when it enumerates within a small cap."""
    pres = zvk_presentation(
        strands, [(f"b{i}", w) for i, w in enumerate(words)], reduction)
    epis = [find_epimorphisms(pres, dihedral_table(n)) for n in (6, 10)]
    squares = pres.with_relators([(g, g) for g in range(1, strands + 1)])
    try:
        table = todd_coxeter(squares, max_cosets=400)
    except CosetOverflow:
        return epis, None
    center, invariants = regular_rep_and_center(table)
    return epis, (table.index, tuple(center), invariants)


def _draw_monodromy_variants(words, data):
    """The braid words, reordered, with one inverted and after a Hurwitz
    move: each variant generates the same subgroup of B_n."""
    variants = [words, [words[i] for i in data.draw(
        st.permutations(range(len(words))))]]
    if words:
        j = data.draw(st.integers(0, len(words) - 1))
        variants.append(words[:j] + [words[j].inverse()] + words[j + 1:])
    if len(words) >= 2:
        i = data.draw(st.integers(0, len(words) - 2))
        b, c = words[i], words[i + 1]
        variants.append(words[:i] + [c, c.inverse() * b * c] + words[i + 2:])
    return variants


@settings(max_examples=60)
@given(monodromies(max_strands=4), st.data())
def test_finite_invariants_under_monodromy_moves(monodromy, data):
    """Reordering the braids, inverting one and a Hurwitz move keep the
    subgroup of B_n they generate, so the affine group and its generators
    are the same: the epimorphism lists and the centers must be equal."""
    strands, named = monodromy
    variants = _draw_monodromy_variants([w for _, w in named], data)
    results = [_finite_invariants(strands, v, reduction)
               for v in variants for reduction in ("none", "block")]
    assert all(epis == results[0][0] for epis, _ in results)
    centers = {center for _, center in results if center is not None}
    assert len(centers) <= 1


def _group_invariants(pres):
    """Abelian invariants, class-3 LCS quotients and, for abelianization Z,
    the rank-one strata: each depends on the group alone."""
    ab = abelian_invariants(pres)
    strata = None
    if (ab.rank, ab.torsion) == (1, ()):
        strata = [s.describe() for s in charvar_rank_one(pres).strata]
    return ab, lcs_quotients(pres, 3), strata


def _torus_depths(pres):
    """The multiset of (order, depth) over the characters of a finite
    abelianization, which no choice of coordinates changes."""
    return Counter((chi.order(), depth)
                   for chi, depth in charvar_finite_torus(pres).depths)


@settings(max_examples=80)
@given(monodromies(max_strands=4), st.data())
def test_group_invariants_under_monodromy_moves(monodromy, data):
    """Every variant's group, conjugated variant included, by either
    reduction, raw or Tietze-simplified, is one group up to isomorphism; an
    isomorphism of ZvK groups sends each
    generator to a conjugate of a generator, so the quotients by every
    g_i^2 are isomorphic too."""
    strands, named = monodromy
    variants = _draw_monodromy_variants([w for _, w in named], data)
    letters = [x for x in range(1 - strands, strands) if x]
    if letters:
        # a change of base point: every braid conjugated by one braid c
        c = BraidWord(strands, tuple(data.draw(
            st.lists(st.sampled_from(letters), min_size=1, max_size=4))))
        variants.append([c.inverse() * w * c for w in variants[0]])
    invariants, depths = [], []
    for words in variants:
        named = [(f"b{i}", w) for i, w in enumerate(words)]
        for reduction in ("none", "block"):
            raw = zvk_presentation(strands, named, reduction)
            squares = raw.with_relators((g, g) for g in range(1, strands + 1))
            for pres in (raw, tietze_simplify(raw).presentation):
                invariants.append(_group_invariants(pres))
            for pres in (squares, tietze_simplify(squares).presentation):
                depths.append(_torus_depths(pres))
    assert all(x == invariants[0] for x in invariants)
    assert all(x == depths[0] for x in depths)
