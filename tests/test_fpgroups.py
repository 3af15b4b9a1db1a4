import random

import pytest
from hypothesis import given, strategies as st

from meridian.abelian import abelianization
from meridian.cosets import todd_coxeter
from meridian.fpgroups import (
    ParseError,
    Presentation,
    TietzeResult,
    WordError,
    commutator,
    conjugate,
    cyclic_reduce,
    invert,
    multiply,
    parse_presentation,
    parse_word,
    power,
    print_presentation,
    reduce_word,
    tietze_simplify,
)
from conftest import random_presentation, random_word


class TestReduceWord:
    def test_cancellation(self):
        assert reduce_word([1, -1]) == ()

    def test_inner_cancellation(self):
        assert reduce_word([1, 2, -2, 1]) == (1, 1)

    def test_already_reduced(self):
        assert reduce_word([1, 2, 3]) == (1, 2, 3)

    def test_zero_letter_rejected(self):
        with pytest.raises(WordError):
            reduce_word([1, 0, 2])

    def test_idempotent_and_shrinking(self):
        rng = random.Random(0)
        for _ in range(300):
            raw = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 20))]
            w = reduce_word(raw)
            assert reduce_word(w) == w
            assert len(w) <= len(raw)

    def test_word_times_inverse_is_identity(self):
        rng = random.Random(1)
        for _ in range(300):
            w = random_word(rng, 3)
            assert multiply(w, invert(w)) == ()


class TestConjugate:
    def test_definition(self):
        assert conjugate((1,), (2,)) == (1, 2, -1)

    def test_identity_conjugator(self):
        assert conjugate((), (1, 2, 1)) == (1, 2, 1)

    def test_self_conjugation(self):
        assert conjugate((1,), (1, 1, 1)) == (1, 1, 1)

    def test_inverse_conjugation_round_trip(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b = random_word(rng, 3), random_word(rng, 3)
            assert conjugate(a, conjugate(invert(a), b)) == b


def test_commutator_convention():
    # [a, b] = a b a^-1 b^-1; validated globally by the order-320 pipeline
    assert commutator((1,), (2,)) == (1, 2, -1, -2)


def test_power_and_cyclic_reduce():
    assert power((1, 2), -2) == (-2, -1, -2, -1)
    assert cyclic_reduce((1, 2, 3, -2, -1)) == (3,)


class TestParser:
    def test_equation_and_commutator_sugar(self):
        p = parse_presentation(
            "gens x y;\n"
            "rel x*y*x*y*x = y*x*y*x*y;\n"
            "rel [x, y*x*y^-1*x*y*x*y^-1*x*y];\n")
        assert p.generators == ("x", "y")
        assert len(p.relators) == 2
        assert p.relators[0] == multiply(
            (1, 2, 1, 2, 1), invert((2, 1, 2, 1, 2)))

    def test_orbifold_powers(self):
        p = parse_presentation("gens x y; rel x^2; rel y^5; rel (x*y)^10;")
        assert p.relators == ((1, 1), (2,) * 5, (1, 2) * 10)

    def test_free_group(self):
        p = parse_presentation("gens x;")
        assert p.generators == ("x",)
        assert p.relators == ()

    def test_empty_relator_dropped_with_count(self):
        p = parse_presentation("gens x; rel 1; rel x*x^-1; rel x^2;")
        assert p.relators == ((1, 1),)

    def test_duplicate_relators_dropped(self):
        p = parse_presentation("gens x y; rel x*y; rel y*x; rel y^-1*x^-1;")
        # y*x is a rotation of x*y and the third is the inverse
        assert len(p.relators) == 1

    def test_undeclared_generator(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("gens x; rel x*z;")
        assert "z" in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("gens x;\nrel x^;")
        assert err.value.line == 2
        assert err.value.column > 0

    def test_comments(self):
        p = parse_presentation("# intro\ngens x; # trailing\nrel x^3;\n")
        assert p.relators == ((1, 1, 1),)

    def test_round_trip_on_random_presentations(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_presentation(rng)
            assert parse_presentation(print_presentation(p)) == p

    def test_round_trip_presets(self, presets):
        for p in presets.values():
            assert parse_presentation(print_presentation(p)) == p


@st.composite
def named_words(draw):
    """A presentation on 1-4 names ('conj' may be one) and a reduced word."""
    names = draw(st.lists(st.sampled_from(["x", "y", "g1", "s12", "conj", "a_b"]),
                          min_size=1, max_size=4, unique=True))
    letter = st.sampled_from([x for x in range(-len(names), len(names) + 1) if x])
    word = draw(st.lists(letter, max_size=14).map(reduce_word))
    return Presentation(tuple(names), ()), word


class TestParseWord:
    INDEX = {"x": 1, "y": 2}

    @given(named_words())
    def test_round_trip(self, case):
        pres, w = case
        index = {name: i for i, name in enumerate(pres.generators, start=1)}
        assert parse_word(pres.spell(w), index) == w

    def test_freely_not_cyclically_reduced(self):
        assert parse_word("y*x*y^-1", self.INDEX) == (2, 1, -2)
        assert parse_word("x*y*y^-1*x^-1", self.INDEX) == ()

    def test_conj_and_commutator_atoms(self):
        assert parse_word("conj(x*y, x)", self.INDEX) == (1, 2, 1, -2, -1)
        assert parse_word("[x, y]", self.INDEX) == (1, 2, -1, -2)
        assert parse_word("conj(x, [x, y])^2", self.INDEX) == \
            conjugate((1,), power(commutator((1,), (2,)), 2))

    def test_conj_is_a_generator_when_declared(self):
        index = {"conj": 1, "x": 2}
        assert parse_word("conj*x^-1*conj", index) == (1, -2, 1)
        with pytest.raises(ParseError, match="trailing input '\\('"):
            parse_word("conj(x, x)", index)
        with pytest.raises(ParseError, match="undeclared generator 'conj'"):
            parse_word("conj*x", self.INDEX)

    def test_trailing_input_and_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("x y", self.INDEX)
        assert (err.value.line, err.value.column) == (1, 3)
        with pytest.raises(ParseError) as err:
            parse_word("x*\n z", self.INDEX, line=7)
        assert (err.value.line, err.value.column) == (8, 2)
        assert "undeclared generator 'z'" in str(err.value)


class TestPresentation:
    def test_out_of_range_relator(self):
        with pytest.raises(WordError):
            Presentation(("x",), ((1, 2),))

    def test_duplicate_generator_names(self):
        with pytest.raises(ValueError):
            Presentation(("x", "x"), ())

    def test_relators_stored_cyclically_reduced(self):
        p = Presentation(("x", "y"), ((1, 2, -1),))
        assert p.relators == ((2,),)

    def test_spell(self):
        p = Presentation(("x", "y"), ())
        assert p.spell((1, 1, -2, -2, -2, 1)) == "x^2*y^-3*x"
        assert p.spell(()) == "1"


class TestTietze:
    def test_generator_elimination(self):
        p = parse_presentation("gens a b; rel b*a^-1;")
        result = tietze_simplify(p)
        assert result.completed
        assert result.presentation.generators == ("a",)
        assert result.presentation.relators == ()

    def test_trivial_relator(self):
        p = Presentation(("a",), ((1, -1),))
        out = tietze_simplify(p).presentation
        assert out.generators == ("a",)
        assert out.relators == ()

    def test_budget_flag(self):
        p = parse_presentation(
            "gens a b c; rel a*b*c; rel b*c*a*b; rel c^4*a;")
        assert tietze_simplify(p, budget=0) == TietzeResult(p, False, 0)
        result = tietze_simplify(p, budget=1)
        assert (result.steps, result.completed) == (1, False)
        assert result.presentation.rank == 2
        # two moves reach <a | a^3>; budget 2 is enough to finish
        done = parse_presentation("gens a; rel a^-3;")
        for budget in (2, 3, 10000):
            assert tietze_simplify(p, budget) == TietzeResult(done, True, 2)

    def test_length_grows_only_for_generator_eliminations(self):
        # non-growing moves are preferred; growth is only ever bought by
        # removing a generator, so rank must strictly drop in that case
        rng = random.Random(4)
        for _ in range(50):
            p = random_presentation(rng)
            out = tietze_simplify(p).presentation
            assert (out.total_relator_length() <= p.total_relator_length()
                    or out.rank < p.rank)

    def test_preserves_abelianization(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_presentation(rng)
            a, b = abelianization(p), abelianization(tietze_simplify(p).presentation)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)

    @pytest.mark.parametrize("text,order", [
        ("gens x y; rel x^2; rel y^3; rel (x*y)^5;", 60),
        ("gens x y; rel x^2; rel y^5; rel (x*y)^2;", 10),
        ("gens x y; rel x^4; rel y^2; rel (x*y)^2; rel [x,y]*x^2;", None),
    ])
    def test_preserves_finite_quotient_order(self, text, order):
        p = parse_presentation(text)
        expected = todd_coxeter(p).index if order is None else order
        assert todd_coxeter(p).index == expected
        simplified = tietze_simplify(p).presentation
        assert todd_coxeter(simplified).index == expected
