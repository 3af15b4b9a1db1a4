"""Tietze simplification against a copy of the routine it replaced.

``reference_tietze`` re-normalizes every relator after every move.  The
incremental routine must make the same moves in the same order: the same
presentation and step count for every input and budget.  ``completed``
differs on purpose: the copy reports False whenever the budget is used up,
the routine only when a move was still available.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_tietze
from meridian import cli, fpgroups
from meridian.cosets import (
    SubgroupSpec,
    reidemeister_schreier,
    schreier_rewrite,
    todd_coxeter,
)
from meridian.fpgroups import Presentation, reduce_word, tietze_simplify


@st.composite
def presentations(draw):
    rank = draw(st.integers(2, 5))
    letter = st.sampled_from([x for x in range(-rank, rank + 1) if x])
    words = st.lists(letter, max_size=12).map(reduce_word)
    relators = draw(st.lists(words, min_size=1, max_size=6))
    names = tuple(f"g{i}" for i in range(1, rank + 1))
    return Presentation(names, tuple(relators))


@settings(max_examples=400)
@given(presentations(), st.integers(0, 20))
def test_same_moves_as_reference(pres, budget):
    new = tietze_simplify(pres, budget)
    old = reference_tietze.tietze_simplify(pres, budget)
    assert (new.presentation, new.steps) == (old.presentation, old.steps)
    # a move was left exactly when one more unit of budget buys one more
    more = reference_tietze.tietze_simplify(pres, budget + 1)
    assert new.completed == (more.steps == old.steps)


def affine_kernel(presets, n):
    pres = presets["degtyarev-affine"]
    return pres, todd_coxeter(pres, SubgroupSpec.kernel_of((n,), [(1,), (1,)]))


@pytest.mark.parametrize("n,steps", [(8, 66), (9, 49), (10, 47), (11, 89),
                                     (12, 66)])
def test_kernel_step_counts(presets, n, steps):
    result = reidemeister_schreier(*affine_kernel(presets, n))
    assert (result.steps, result.completed) == (steps, True)


def test_kernel_matches_reference(presets):
    raw, _ = schreier_rewrite(*affine_kernel(presets, 8))
    assert tietze_simplify(raw, 20000) == \
        reference_tietze.tietze_simplify(raw, 20000)


def test_pipeline_step_counts(monkeypatch):
    steps = []

    def recording(pres, budget=fpgroups.TIETZE_BUDGET):
        result = tietze_simplify(pres, budget)
        steps.append(result.steps)
        return result

    monkeypatch.setattr(fpgroups, "tietze_simplify", recording)
    monkeypatch.setattr(cli, "tietze_simplify", recording)
    assert cli.main(["pipeline", "--preset", "degtyarev"]) == 0
    assert steps == [4, 11, 4, 7, 47]
