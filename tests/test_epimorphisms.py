"""Epimorphism search against a copy of the routine it replaced.

``reference_epimorphisms`` tests every generator assignment.  The search in
``meridian.cosets`` tests one first image per conjugacy class and conjugates
the survivors, so on non-abelian targets a wrong conjugation or a missing
sort shows up as a different list.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_epimorphisms
from meridian.cli import preset_text
from meridian.cosets import (
    MultTable,
    SearchCapExceeded,
    cyclic_table,
    dihedral_table,
    find_epimorphisms,
    regular_rep,
    todd_coxeter,
)
from meridian.fpgroups import Presentation, parse_presentation

GOLDEN_320 = (Path(__file__).resolve().parents[1]
              / "perfbench" / "golden" / "homs-320.out")


def _regular(text: str) -> MultTable:
    return regular_rep(todd_coxeter(parse_presentation(text)))


TARGETS = {
    **{f"dihedral-{n}": dihedral_table(n) for n in range(2, 13, 2)},
    **{f"cyclic-{n}": cyclic_table(n) for n in range(1, 9)},
    "S3": _regular("gens x y; rel x^2; rel y^3; rel (x*y)^2;"),
    "Q8": _regular("gens x y; rel x^4; rel x^2*y^-2; rel y^-1*x*y*x;"),
    # relator survivors that do not generate, centralizers beyond the center
    "A4": _regular("gens x y; rel x^2; rel y^3; rel (x*y)^3;"),
}


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(TARGETS)))
    mt = TARGETS[name]
    rank = draw(st.integers(0, 3).filter(lambda r: mt.size ** r <= 5000))
    letters = [x for x in range(-rank, rank + 1) if x]
    word = (st.lists(st.sampled_from(letters), max_size=8).map(tuple)
            if letters else st.just(()))
    relators = draw(st.lists(word, max_size=3))
    names = tuple(f"g{i}" for i in range(1, rank + 1))
    return Presentation(names, tuple(relators)), mt


@settings(max_examples=300)
@given(cases())
def test_same_assignments_as_reference(case):
    pres, mt = case
    found = find_epimorphisms(pres, mt)
    assert found == reference_epimorphisms.find_epimorphisms(pres, mt)
    for assign in found:
        assert all(mt.evaluate(rel, assign) == mt.identity
                   for rel in pres.relators)


@pytest.fixture(scope="module")
def target_320():
    return _regular(preset_text("degtyarev-projective", ".grp"))


def test_degtyarev_320(presets, target_320):
    found = find_epimorphisms(presets["degtyarev-affine"], target_320)
    assert len(found) == 3840
    lines = GOLDEN_320.read_text().splitlines()
    assert lines[0].endswith(": 3840")
    golden = [tuple(int(part.split("->")[1]) for part in line.split())
              for line in lines[1:]]
    assert len(golden) == 20
    assert found[:20] == golden


def test_degtyarev_320_whole_answer(presets, target_320):
    """All 3840 assignments: SHA-256 of one line "x y" per assignment, in
    sorted order, recorded from a search that tested generation for every
    assignment that survives the relators."""
    found = find_epimorphisms(presets["degtyarev-affine"], target_320)
    text = "".join(" ".join(map(str, a)) + "\n" for a in found)
    assert len(found) == 3840
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5736f120c8dd40b75383e1b2d6856eb83131a5cf9812e581edc322f2000df203")


@pytest.mark.parametrize("name, rank", [
    ("S3", 2), ("Q8", 3), ("dihedral-10", 2), ("cyclic-1", 3), ("cyclic-5", 0),
])
def test_cap_is_the_size_of_the_search_space(name, rank):
    mt = TARGETS[name]
    pres = Presentation(tuple(f"g{i}" for i in range(1, rank + 1)), ())
    total = mt.size ** rank
    assert (find_epimorphisms(pres, mt, cap=total)
            == reference_epimorphisms.find_epimorphisms(pres, mt, cap=total))
    with pytest.raises(SearchCapExceeded):
        find_epimorphisms(pres, mt, cap=total - 1)


def test_cap_is_checked_before_the_table_is_read():
    # every row lacks the identity, so reading inverses would raise ValueError
    broken = MultTable(2, [[1, 1], [1, 1]], 0, ())
    with pytest.raises(SearchCapExceeded):
        find_epimorphisms(parse_presentation("gens x y;"), broken, cap=3)
