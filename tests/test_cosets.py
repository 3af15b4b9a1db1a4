import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import meridian.cosets
import reference_cosets
import reference_felsch
from reference_epimorphisms import closure
from meridian.abelian import AbelianGroup, abelianization, quotient_invariants
from meridian.cli import parse_subgroup_spec, preset_text
from meridian.cosets import (
    CosetOverflow,
    InvalidSubgroup,
    MultTable,
    SearchCapExceeded,
    SubgroupSpec,
    abelian_invariants_of_subset,
    center_of,
    check_table,
    coset_representatives,
    cyclic_table,
    dihedral_table,
    find_epimorphisms,
    regular_rep,
    regular_rep_and_center,
    reidemeister_schreier,
    schreier_rewrite,
    todd_coxeter,
)
from meridian.fpgroups import (Presentation, commutator, parse_presentation,
                               parse_words)
from meridian.orbifold import orbifold_presentation, parse_signature


def perm_closure_order(gens, degree):
    """Order of the permutation group generated by gens (tuples on 0..d-1)."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return len(seen)


class TestToddCoxeter:
    def test_degtyarev_projective_has_order_320(self, presets):
        table = todd_coxeter(presets["degtyarev-projective"])
        assert table.index == 320
        assert check_table(presets["degtyarev-projective"], table)

    def test_triangle_235_against_permutation_oracle(self):
        pres = parse_presentation("gens x y; rel x^2; rel y^3; rel (x*y)^5;")
        assert todd_coxeter(pres).index == 60
        # independent oracle: breadth-first closure of a permutation model;
        # searched once over S_5 and frozen here
        x = (1, 0, 3, 2, 4)
        found = None
        import itertools

        perms = list(itertools.permutations(range(5)))
        for cand in perms:
            # order 3 and x*cand of order 5, generating a group of order 60
            if _perm_order(cand) != 3:
                continue
            xy = tuple(cand[x[i]] for i in range(5))
            if _perm_order(xy) != 5:
                continue
            if perm_closure_order([x, cand], 5) == 60:
                found = cand
                break
        assert found is not None
        assert perm_closure_order([x, found], 5) == 60

    def test_triangle_223_order_six(self):
        pres = parse_presentation("gens x y; rel x^2; rel y^2; rel (x*y)^3;")
        assert todd_coxeter(pres).index == 6

    def test_xt_coordinates_give_same_quotient(self, presets):
        # the generators x, t = x^-1 y present the same group
        quotient = presets["degtyarev-affine-xt"].with_relators([(1,) * 5])
        assert todd_coxeter(quotient).index == 320

    def test_relators_fix_all_cosets(self, presets):
        pres = presets["degtyarev-projective"]
        tables = [todd_coxeter(pres)]
        orb = presets["p1-2-5-10"]
        tables.append(todd_coxeter(orb, SubgroupSpec.kernel_of(
            (10,), list(abelianization(orb).gen_images))))
        for source, table in zip((pres, orb), tables):
            assert check_table(source, table)
            for g in range(table.n_gens):
                assert sorted(table.action[g]) == list(range(table.index))

    def test_subgroup_words_mode(self):
        pres = parse_presentation("gens x y; rel x^2; rel y^3; rel (x*y)^5;")
        sub = SubgroupSpec.from_words([(1,)])   # subgroup generated by x
        table = todd_coxeter(pres, sub)
        assert table.index == 30
        assert table.trace(0, (1,)) == 0

    def test_overflow_is_distinguishable(self):
        free = parse_presentation("gens x y;")
        with pytest.raises(CosetOverflow):
            todd_coxeter(free, max_cosets=50)

    def test_cap_counts_table_rows(self):
        # coset 0 is the only row the trivial group needs
        trivial = parse_presentation("gens x y; rel x; rel y*x;")
        assert todd_coxeter(trivial, max_cosets=1).index == 1
        with pytest.raises(CosetOverflow):
            todd_coxeter(parse_presentation("gens x; rel x^2;"), max_cosets=1)

    def test_kernel_mode_rejects_non_kernel_relator(self):
        pres = parse_presentation("gens x; rel x^3;")
        with pytest.raises(InvalidSubgroup):
            todd_coxeter(pres, SubgroupSpec.kernel_of((2,), [(1,)]))

    def test_kernel_mode_table(self, presets):
        pres = presets["p1-2-5-10"]
        ab = abelianization(pres)
        table = todd_coxeter(pres, SubgroupSpec.kernel_of(
            (10,), list(ab.gen_images)))
        assert table.index == 10
        assert check_table(pres, table)


def product_table(orders):
    """Z/o1 x Z/o2 x ... as a multiplication table; element i has the
    mixed-radix digits of i as coordinates, so 0 is the identity."""
    table = [[0]]
    for d in orders:
        table = [[a * d + (i + j) % d for a in row for j in range(d)]
                 for row in table for i in range(d)]
    return MultTable(len(table), table, 0, ())


def _perm_order(p):
    n = 1
    q = p
    identity = tuple(range(len(p)))
    while q != identity:
        q = tuple(p[q[i]] for i in range(len(p)))
        n += 1
    return n


class TestRegularRep:
    def test_degtyarev_center_is_klein(self, presets):
        table = todd_coxeter(presets["degtyarev-projective"])
        mt = regular_rep(table)
        center, invariants = regular_rep_and_center(table)
        assert mt.size == 320
        assert len(center) == 4
        assert invariants.torsion == (2, 2)
        assert mt.validate()

    def test_cyclic_center(self):
        pres = parse_presentation("gens x; rel x^5;")
        center, invariants = regular_rep_and_center(todd_coxeter(pres))
        assert len(center) == 5
        assert invariants.torsion == (5,)

    def test_odd_dihedral_center_trivial(self):
        pres = parse_presentation("gens x y; rel x^2; rel y^5; rel (x*y)^2;")
        center, invariants = regular_rep_and_center(todd_coxeter(pres))
        assert len(center) == 1
        assert invariants.torsion == ()

    def test_closure_of_generators_is_whole_group(self, presets):
        table = todd_coxeter(presets["p1-2-5-10"].with_relators([(1, 2) * 2]))
        mt = regular_rep(table)
        assert len(closure(mt, mt.generator_elements)) == mt.size
        assert mt.generates(mt.generator_elements)

    @pytest.mark.parametrize("text", [
        "gens x y; rel x^2; rel y^3; rel (x*y)^2;",
        "gens x y; rel x^4; rel x^2*y^-2; rel y^-1*x*y*x;",
        "gens x y; rel x^2; rel y^3; rel (x*y)^5;",
        "gens x y z; rel x^2; rel y^2; rel z^3; rel [x,y]; rel [x,z]; "
        "rel [y,z];",
    ])
    def test_rows_are_products_with_representatives(self, text):
        table = todd_coxeter(parse_presentation(text))
        reps = coset_representatives(table)
        assert [table.trace(0, w) for w in reps] == list(range(table.index))
        assert regular_rep(table).table == [
            [table.trace(i, w) for w in reps] for i in range(table.index)]

    def test_nontrivial_subgroup_rejected(self):
        pres = parse_presentation("gens x y; rel x^2; rel y^3; rel (x*y)^5;")
        table = todd_coxeter(pres, SubgroupSpec.from_words([(1,)]))
        with pytest.raises(ValueError):
            regular_rep(table)


def _assert_center_as_in_full_table(table):
    """The center from generator rows against the center of the whole
    multiplication table and the invariants read from it."""
    mt = regular_rep(table)
    center, invariants = regular_rep_and_center(table)
    assert center == center_of(mt)
    assert invariants == abelian_invariants_of_subset(mt, center)
    return center, invariants


@st.composite
def finite_presentations(draw):
    """2-3 generators of orders dividing 2, 3 or 4, and powers of short
    random words; a third generator is sometimes made central, so centers
    larger than the ones of small quotients of triangle groups come up."""
    rank = draw(st.integers(2, 3))
    letters = [x for x in range(-rank, rank + 1) if x]
    relators = [(g,) * draw(st.integers(2, 4)) for g in range(1, rank + 1)]
    word = st.lists(st.sampled_from(letters), min_size=2, max_size=4)
    relators += [tuple(w) * k for w, k in draw(st.lists(
        st.tuples(word, st.integers(2, 4)), min_size=1, max_size=3))]
    if rank == 3 and draw(st.booleans()):
        relators += [commutator((3,), (g,)) for g in (1, 2)]
    names = tuple(f"g{i}" for i in range(1, rank + 1))
    return Presentation(names, tuple(relators))


@settings(max_examples=200)
@given(finite_presentations())
def test_center_from_generator_rows(pres):
    try:
        table = todd_coxeter(pres, max_cosets=2000)
    except CosetOverflow:
        assume(False)
    _assert_center_as_in_full_table(table)


@pytest.mark.parametrize("pres, order, torsion", [
    (Presentation((), ()), 1, ()),
    (parse_presentation("gens x y; rel x^4; rel y^6; rel [x,y];"), 24, (2, 12)),
    (parse_presentation("gens x y; rel x^4; rel x^2*y^-2; rel y^-1*x*y*x;"),
     2, (2,)),
    (orbifold_presentation(parse_signature("g=0 k=0 m=2,3,5")), 1, ()),
    (parse_presentation(preset_text("degtyarev-projective", ".grp")),
     4, (2, 2)),
], ids=["trivial", "Z4xZ6", "Q8", "A5", "degtyarev-projective"])
def test_center_fixed_cases(pres, order, torsion):
    center, invariants = _assert_center_as_in_full_table(todd_coxeter(pres))
    assert (len(center), invariants.torsion) == (order, torsion)


class TestReidemeisterSchreier:
    def test_free_group_index_two(self):
        free = parse_presentation("gens x y;")
        table = todd_coxeter(free, SubgroupSpec.kernel_of((2,), [(1,), (1,)]))
        sub = reidemeister_schreier(free, table).presentation
        ab = abelianization(sub)
        assert (ab.rank, ab.torsion) == (3, ())
        assert sub.relators == ()

    @pytest.mark.parametrize("index", [2, 3, 4])
    def test_nielsen_schreier_rank(self, index):
        free = parse_presentation("gens x y;")
        table = todd_coxeter(free, SubgroupSpec.kernel_of(
            (index,), [(1,), (0,)]))
        sub = reidemeister_schreier(free, table).presentation
        ab = abelianization(sub)
        assert sub.relators == ()
        assert (ab.rank, ab.torsion) == (1 + index * (2 - 1), ())

    def test_index_one_keeps_abelianization(self, presets):
        pres = presets["p1-2-5-10"]
        table = todd_coxeter(pres, SubgroupSpec.from_words([(1,), (2,)]))
        assert table.index == 1
        sub = reidemeister_schreier(pres, table).presentation
        a, b = abelianization(pres), abelianization(sub)
        assert (a.rank, a.torsion) == (b.rank, b.torsion)

    def test_orbifold_kernel_is_genus_two_surface(self, presets):
        pres = presets["p1-2-5-10"]
        ab = abelianization(pres)
        table = todd_coxeter(pres, SubgroupSpec.kernel_of(
            (10,), list(ab.gen_images)))
        sub = reidemeister_schreier(pres, table).presentation
        sub_ab = abelianization(sub)
        assert (sub_ab.rank, sub_ab.torsion) == (4, ())

    def test_degtyarev_kernel_matches_recurrence_presentation(self, presets):
        """The derived subgroup presentation with the shift recurrence.

        An independent abelianization: generators t_n, n in Z, with relations
        t_(n+1) + t_(n+3) = t_n + t_(n+2) + t_(n+4) forces every t_n to be a
        Z-combination of t_0..t_3, and the alternating-sum relations become
        trivial, so H_1 = Z^4.  The rewritten kernel must agree.
        """
        from meridian.abelian import smith_normal_form

        window = 30
        rows = []
        for n in range(window - 4):
            row = [0] * window
            for offset, coeff in ((0, -1), (1, 1), (2, -1), (3, 1), (4, -1)):
                row[n + offset] = coeff
            rows.append(row)
        for n in range(window - 5):
            row = [0] * window
            for offset, coeff in ((0, 1), (1, -2), (2, 2), (3, -2), (4, 2),
                                  (5, -1)):
                row[n + offset] = coeff
            rows.append(row)
        snf = smith_normal_form(rows)
        rank = window - len([d for d in snf.diagonal if d])
        torsion = tuple(d for d in snf.diagonal if d >= 2)
        assert (rank, torsion) == (4, ())

        pres = presets["degtyarev-affine"].with_relators([(1, 2) * 5])
        table = todd_coxeter(pres, SubgroupSpec.kernel_of((10,), [(1,), (1,)]))
        sub = reidemeister_schreier(pres, table).presentation
        ab = abelianization(sub)
        assert (ab.rank, ab.torsion) == (4, ())


class TestEpimorphisms:
    def test_affine_onto_dihedral_ten(self, presets):
        found = find_epimorphisms(presets["degtyarev-affine"], dihedral_table(10))
        assert found

    def test_projective_onto_cyclic_five(self, presets):
        found = find_epimorphisms(presets["degtyarev-projective"], cyclic_table(5))
        assert len(found) == 4

    def test_order_obstruction(self):
        pres = parse_presentation("gens x; rel x^2;")
        assert find_epimorphisms(pres, cyclic_table(3)) == []

    def test_stable_under_relator_reordering(self, presets):
        pres = presets["degtyarev-affine"]
        reordered = Presentation(pres.generators, pres.relators[::-1])
        a = find_epimorphisms(pres, dihedral_table(10))
        b = find_epimorphisms(reordered, dihedral_table(10))
        assert a == b

    def test_cap(self, presets):
        with pytest.raises(SearchCapExceeded):
            find_epimorphisms(presets["degtyarev-affine"], dihedral_table(10),
                              cap=10)


class TestMultTables:
    def test_dihedral_validates(self):
        for order in (2, 6, 10, 12):
            assert dihedral_table(order).validate()

    def test_cyclic_validates(self):
        assert cyclic_table(7).validate()

    def test_missing_inverse_is_rejected(self):
        mt = MultTable(3, [[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0, ())
        with pytest.raises(ValueError, match="no inverse; not a group table"):
            mt.validate()

    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.randoms())
    @example([12], random.Random(0))
    @example([2, 2], random.Random(0))     # the Klein four group
    def test_abelian_invariants_of_subset(self, orders, rng):
        mt = product_table(orders)
        elements = list(range(mt.size))
        rng.shuffle(elements)
        k = len(orders)
        diagonal = [[d if j == i else 0 for j in range(k)]
                    for i, d in enumerate(orders)]
        assert abelian_invariants_of_subset(mt, elements) == \
            AbelianGroup(0, quotient_invariants(diagonal, k).torsion)

    def test_dihedral_center_invariants(self):
        # the center of D_2n is {1, r^(n/2)} for even n and trivial for odd n
        for n in range(3, 31):
            mt = dihedral_table(2 * n)
            assert abelian_invariants_of_subset(mt, center_of(mt)) == \
                AbelianGroup(0, (2,) if n % 2 == 0 else ())

    @pytest.mark.parametrize("name, seed, expected", [
        ("cyclic-1", (), True),
        ("cyclic-2", (), False),
        ("cyclic-6", (2, 3), True),
        ("cyclic-6", (2, 4), False),
        ("dihedral-10", (1,), False),
        ("dihedral-10", (5,), False),
        ("dihedral-10", (1, 5), True),
    ])
    def test_generates(self, name, seed, expected):
        assert SMALL_TABLES[name].generates(seed) is expected


SMALL_TABLES = {
    **{f"cyclic-{n}": cyclic_table(n) for n in range(1, 13)},
    **{f"dihedral-{n}": dihedral_table(n) for n in range(2, 17, 2)},
    "Q8": regular_rep(todd_coxeter(parse_presentation(
        "gens x y; rel x^4; rel x^2*y^-2; rel y^-1*x*y*x;"))),
    "A5": regular_rep(todd_coxeter(parse_presentation(
        "gens x y; rel x^2; rel y^3; rel (x*y)^5;"))),
}


@settings(max_examples=300)
@given(st.sampled_from(sorted(SMALL_TABLES)),
       st.lists(st.integers(0, 10 ** 6), max_size=3))
def test_generates_agrees_with_closure(name, raw):
    mt = SMALL_TABLES[name]
    seed = [r % mt.size for r in raw]
    assert mt.generates(seed) == (len(closure(mt, seed)) == mt.size)


# --- Felsch against the HLT enumerator it replaced ---------------------------

BASE_GROUPS = (
    [f"gens x y; rel x^2; rel y^{n}; rel (x*y)^2;" for n in range(2, 9)]
    + [f"gens x y; rel x^2; rel y^3; rel (x*y)^{n};" for n in (3, 4, 5)]
    + [f"gens x y; rel x^2; rel y^2; rel (x*y)^{n};" for n in range(2, 9)]
)


@st.composite
def finite_enumerations(draw):
    pres = parse_presentation(draw(st.sampled_from(BASE_GROUPS)))
    word = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8)
    pres = pres.with_relators(draw(st.lists(word, max_size=2)))
    subgroup = draw(st.none() | st.lists(word, max_size=2).map(
        SubgroupSpec.from_words))
    return pres, subgroup


def _assert_same_as_hlt(pres, subgroup):
    table = todd_coxeter(pres, subgroup)
    assert (table.action, table.inverse) == \
        reference_cosets.todd_coxeter(pres, subgroup)
    assert check_table(pres, table)
    return table


@settings(max_examples=600)
@given(finite_enumerations())
def test_same_standardized_table_as_hlt(case):
    _assert_same_as_hlt(*case)


def _order_of_w(table):
    """|<g1*...*gn>|: the least k for which w^k fixes coset 0."""
    w = tuple(range(1, table.n_gens + 1))
    c, k = table.trace(0, w), 1
    while c != 0:
        c, k = table.trace(c, w), k + 1
    return k


@settings(max_examples=300)
@given(finite_enumerations())
def test_trivial_subgroup_through_cyclic_subgroup(case):
    """The order comes from the table of <w>, w = g1*...*gn: the regular
    table equals HLT's, and [G : <w>] * |<w>| = |G|."""
    pres, _ = case
    table = _assert_same_as_hlt(pres, None)
    w = tuple(range(1, pres.rank + 1))
    cyclic = todd_coxeter(pres, SubgroupSpec.from_words([w]))
    assert cyclic.index * _order_of_w(table) == table.index


def _felsch_steps(pres, subgroup):
    """What step(c, col) of the enumeration behind todd_coxeter returns, for
    every live coset c and column col."""
    enumerate_cosets, enumerations = meridian.cosets._felsch, []

    def recorded(*args):
        enumerations.append(enumerate_cosets(*args))
        return enumerations[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meridian.cosets, "_felsch", recorded)
        todd_coxeter(pres, subgroup)
    [(live, step)] = enumerations
    return [step(c, col) for c in live for col in range(2 * pres.rank)]


@pytest.mark.parametrize("spec", ["x", "x*y"])
def test_word_mode_stores_no_labels(presets, spec):
    pres = presets["degtyarev-projective"]
    words = parse_words(spec, {"x": 1, "y": 2})
    steps = _felsch_steps(pres, SubgroupSpec.from_words(words))
    assert all(label == 0 for _, label in steps)


@settings(max_examples=100)
@given(finite_enumerations())
def test_word_mode_stores_no_labels_on_random_subgroups(case):
    pres, subgroup = case
    assume(subgroup is not None and not subgroup.is_trivial_subgroup())
    assert all(label == 0 for _, label in _felsch_steps(pres, subgroup))


@settings(max_examples=300)
@given(finite_enumerations())
def test_rows_as_in_reference_felsch(case):
    """The enumeration needs as many table rows as the Felsch pass it
    replaced: a cap of that many passes and one less overflows.  The
    trivial subgroup goes through <g1*...*gn>, so its cap must also hold
    the order."""
    pres, subgroup = case
    if subgroup is None or subgroup.is_trivial_subgroup():
        words = [tuple(range(1, pres.rank + 1))]
        order = len(reference_cosets.todd_coxeter(pres, subgroup)[0][0])
    else:
        words, order = subgroup.words, 1
    rows = max(order, reference_felsch.felsch(pres.rank, pres.relators, words,
                                              10 ** 6)[2])
    table = todd_coxeter(pres, subgroup, max_cosets=rows)
    assert check_table(pres, table)
    if rows > 1:
        with pytest.raises(CosetOverflow):
            todd_coxeter(pres, subgroup, max_cosets=rows - 1)


@pytest.mark.parametrize("text, order", [
    ("gens x; rel x^7;", 7),
    # w = a*b*c is trivial, so the table of <w> is the regular one
    ("gens a b c; rel a^2; rel b^3; rel c^5; rel a*b*c;", 60),
])
def test_cyclic_route_fixed_cases(text, order):
    assert _assert_same_as_hlt(parse_presentation(text), None).index == order


def test_rank_zero_is_the_trivial_group():
    table = todd_coxeter(Presentation((), ((), ())))
    assert (table.index, table.action, table.inverse) == (1, [], [])


@pytest.mark.parametrize("text", [
    "gens x;",
    # Z^2: the abelianization shows |G| infinite before any enumeration
    "gens x y; rel x*y*x^-1*y^-1;",
    # the infinite dihedral group: <x*y> has index 2 and infinite order
    "gens x y; rel x^2; rel y^2;",
])
def test_infinite_order_raises_at_once(text):
    start = time.perf_counter()
    with pytest.raises(CosetOverflow):
        todd_coxeter(parse_presentation(text))
    assert time.perf_counter() - start < 0.1


def test_rows_of_cyclic_table_are_capped():
    # Z/2 * Z/3: <x*y> has infinite index, so its table fills the cap
    with pytest.raises(CosetOverflow):
        todd_coxeter(parse_presentation("gens x y; rel x^2; rel y^3;"),
                     max_cosets=100)


@pytest.mark.parametrize("text, index", [
    # without rescanning the edges a coincidence moves, the enumeration ends
    # at a table of 4 cosets that breaks (x*y)^4
    ("gens x y; rel x^2; rel y^3; rel (x*y)^4; rel x; rel x^2*y^-3;", 1),
    # without the conjugates of inverse relators, scanning a deduction at its
    # source coset misses the cycles that cross it backwards
    ("gens x y; rel x^2; rel y^4; rel (x*y)^2; rel x^-1;", 2),
    ("gens x y; rel x^2; rel y^3; rel (x*y)^5; rel x^-1;", 1),
])
def test_every_deduction_is_scanned(text, index):
    assert _assert_same_as_hlt(parse_presentation(text), None).index == index


# The Tietze-simplified presentations on which `meridian pipeline --preset
# degtyarev` enumerates the projective and the meridian^5 quotients.
PIPELINE = {
    "pipeline-projective": """gens g1 g3;
        rel g3*g1*g3^-1*g1*g3*g1*g3^-1*g1*g3;
        rel g3^-1*g1*g3^-1*g1^-1*g3^2*g1*g3*g1*g3^-2*g1*g3^-1*g1^-1*g3*g1^-1;
        rel g3*g1*g3*g1*g3*g1^-1*g3^-1*g1^-1*g3^-1*g1^-1;""",
    "pipeline-meridian5": """gens g1 g3;
        rel g3*g1*g3^-1*g1*g3*g1*g3^-1*g1*g3*g1*g3^-1*g1^-1*g3*g1^-1*g3^-1
            *g1^-1*g3*g1^-1*g3^-1*g1^-1;
        rel g3*g1*g3*g1*g3*g1^-1*g3^-1*g1^-1*g3^-1*g1^-1;
        rel g1^5;""",
}


def _presentation(presets, name):
    """A preset, a pipeline presentation, or presentation text."""
    if name in presets:
        return presets[name]
    return parse_presentation(PIPELINE.get(name, name))


@pytest.mark.parametrize("name, spec, index, rows", [
    # The trivial subgroup goes through the table of <g1*g2>, whose rows and
    # the order 320 are both capped: 461 and 466 rows, and 320 elements for a
    # table of 88 rows.  Enumerated directly, the trivial subgroup needed
    # 3,590, 3,242 and 370 rows, and plain Felsch, defining in table order
    # only, 5,593, 6,038 and 427.  The word-mode pins keep the preferred
    # definitions of the longer enumerations covered.
    ("degtyarev-projective", "", 320, 461),
    ("pipeline-meridian5", "", 320, 466),
    ("pipeline-projective", "", 320, 320),
    ("degtyarev-projective", "x", 64, 1316),
    ("pipeline-meridian5", "g1", 64, 1430),
    ("pipeline-projective", "g1", 64, 95),
], ids=lambda v: (v or "trivial") if isinstance(v, str) else None)
def test_rows_with_preferred_definitions(presets, name, spec, index, rows):
    pres = _presentation(presets, name)
    words = parse_words(spec, {g: i + 1 for i, g in enumerate(pres.generators)})
    subgroup = SubgroupSpec.from_words(words)
    assert todd_coxeter(pres, subgroup, max_cosets=rows).index == index
    with pytest.raises(CosetOverflow):
        todd_coxeter(pres, subgroup, max_cosets=rows - 1)


@pytest.mark.parametrize("name, extra, spec, index", [
    ("degtyarev-projective", (), "", 320),
    ("degtyarev-projective", (), "x", 64),
    ("degtyarev-projective", (), "y", 64),
    ("degtyarev-affine", ((1,) * 5,), "", 320),
    ("degtyarev-affine-xt", ((1,) * 5,), "", 320),
    ("c-2-3", (), "y x*y*x", 2),
    ("c-2-3", (), "y*x (x*y)^2", 3),
    ("c-2-3", (), "x y*x^-1*y", 3),
    ("c-2-3", (), "x*y*x*y*x y", 4),
    ("c-2-3", (), "[x,y] [x,y^-1]", 6),
    ("c-2-3", (), "(x*y)^3 (y*x)^3 y^-1*(x*y)^3*y", 12),
    ("pipeline-projective", (), "", 320),
    ("pipeline-projective", (), "g1", 64),
    ("pipeline-projective", (), "g3", 64),
    ("pipeline-meridian5", (), "", 320),
    ("pipeline-meridian5", (), "g1", 64),
    ("pipeline-meridian5", (), "g3", 64),
    # preferred entries go stale: their coset dies in a coincidence ...
    ("gens x y; rel x^2; rel y^3; rel (x*y)^4;", (), "x*y^2*x^-1", 8),
    # ... or their entry is filled by a deduction first, or both
    ("gens x y; rel x^2; rel y^3; rel (x*y)^4; rel y*x^2*y^2;", (), "", 24),
    ("gens x y; rel x^2; rel y^3; rel (x*y)^5;", (), "x*y^-1*x^-3*y^-1", 12),
    # deducing at a gap of one letter without reading the backward scan's
    # last letter misses a coincidence: index 16 here, or a broken table
    ("gens x y; rel x^2; rel y^8; rel (x*y)^2;", (), "x^-1*y*x^-1*y*x^-1", 8),
    ("gens x y; rel x^2; rel y^4; rel (x*y)^2;", (), "x^-1*y^-1*x^3*y", 4),
])
def test_presets_same_standardized_table_as_hlt(presets, name, extra, spec,
                                                index):
    pres = _presentation(presets, name).with_relators(extra)
    words = parse_words(spec, {g: i + 1 for i, g in enumerate(pres.generators)})
    table = _assert_same_as_hlt(pres, SubgroupSpec.from_words(words))
    assert table.index == index


# --- kernel tables against both enumerators ----------------------------------

KERNELS = (
    [(text, None) for text in BASE_GROUPS]
    + [("degtyarev-affine", f"kernel Z/{n} x->1 y->1") for n in range(2, 13)]
    + [("p1-2-5-10", "kernel Z/10 x->5 y->8")]
)


@pytest.mark.parametrize("name, spec", KERNELS)
def test_kernel_table_is_enumerated_table(presets, name, spec):
    """A kernel table is the table of the subgroup its Schreier generators
    generate, as Felsch and HLT enumerate it; spec None is the commutator
    subgroup of a finite group."""
    pres = _presentation(presets, name)
    if spec is None:
        ab = abelianization(pres)
        assert ab.rank == 0
        kernel = SubgroupSpec.kernel_of(ab.torsion, ab.gen_images)
    else:
        kernel = parse_subgroup_spec(spec, pres)
    table = todd_coxeter(pres, kernel)
    words = SubgroupSpec.from_words(schreier_rewrite(pres, table)[1])
    felsch = todd_coxeter(pres, words)
    assert (table.action, table.inverse) == (felsch.action, felsch.inverse) \
        == reference_cosets.todd_coxeter(pres, words)


@settings(max_examples=200)
@given(st.data())
def test_kernel_index_is_computed_before_the_walk(data):
    """The cap sees the order of the image before the walk: a cap of the
    walked index passes and one less overflows."""
    rank = data.draw(st.integers(1, 3))
    moduli = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    coords = st.lists(st.integers(-9, 9), min_size=len(moduli),
                      max_size=len(moduli))
    images = data.draw(st.lists(coords, min_size=rank, max_size=rank))
    pres = Presentation(tuple(f"g{i}" for i in range(1, rank + 1)), ())
    spec = SubgroupSpec.kernel_of(moduli, images)
    index = todd_coxeter(pres, spec).index
    assert todd_coxeter(pres, spec, max_cosets=index).index == index
    if index > 1:
        with pytest.raises(CosetOverflow):
            todd_coxeter(pres, spec, max_cosets=index - 1)
