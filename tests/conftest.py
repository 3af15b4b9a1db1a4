import random

import pytest
from hypothesis import settings

from meridian.abelian import AbelianGroup, quotient_invariants, smith_normal_form
from meridian.cli import preset_text
from meridian.exactalg import UniPoly, poly_det
from meridian.fpgroups import Presentation, parse_presentation, reduce_word


def random_word(rng: random.Random, rank: int, max_len: int = 12):
    letters = [i for i in range(-rank, rank + 1) if i]
    return reduce_word(rng.choice(letters)
                       for _ in range(rng.randint(0, max_len)))


def random_presentation(rng: random.Random, max_rank: int = 4,
                        max_relators: int = 4) -> Presentation:
    rank = rng.randint(1, max_rank)
    names = tuple(f"g{i}" for i in range(1, rank + 1))
    relators = tuple(random_word(rng, rank)
                     for _ in range(rng.randint(0, max_relators)))
    return Presentation(names, relators)


# The exponent matrix of a 7-generator, 11-relator presentation of the
# trivial group, on which smith_normal_form's entries grow past 200 bits.
DENSE_11X7 = [[6, -3, -5, 1, -6, 0, 0], [3, 6, 6, -6, 5, 1, -2],
              [5, 6, -3, 3, -5, -1, -6], [-6, -6, 4, 2, -6, 0, 4],
              [-3, 0, 5, -6, 2, -3, 6], [1, 1, 2, -3, -1, -3, 4],
              [-3, 6, 1, -2, -6, 0, 2], [4, -5, -4, 4, 5, -2, -5],
              [5, -1, 5, 5, 2, 0, 2], [4, -3, -2, -2, 3, 1, 2],
              [0, 3, -6, 1, -3, 5, 6]]


def mat_mul(a, b):
    """Product of integer matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def check_snf(matrix):
    """Check the Smith form of a nonempty matrix M against M itself.

    The diagonal is a divisor chain and V is unimodular.  M*V = U^-1 * D for
    some unimodular U, so column j of M*V is divisible by d_j and the columns
    past the diagonal vanish; and Z^cols modulo the rows of M*V, modulo the
    rows of M, and the group the diagonal describes all agree.
    """
    snf = smith_normal_form(matrix)
    cols = len(matrix[0])
    diagonal = snf.diagonal
    for a, b in zip(diagonal, diagonal[1:]):
        assert a > 0 and b % a == 0
    det = poly_det([[UniPoly.constant(x) for x in row] for row in snf.v])
    assert det in (UniPoly.constant(1), UniPoly.constant(-1))
    product = mat_mul(matrix, snf.v)
    for row in product:
        assert all(x % d == 0 for x, d in zip(row, diagonal))
        assert not any(row[len(diagonal):])
    group = AbelianGroup(cols - len(diagonal), tuple(d for d in diagonal if d > 1))
    assert quotient_invariants(product, cols) == \
        quotient_invariants(matrix, cols) == group
    return snf


@pytest.fixture(scope="session")
def presets():
    names = ("degtyarev-affine", "degtyarev-affine-xt", "degtyarev-projective",
             "p1-2-5-10", "p1-2-2-5-5", "c-2-3", "free2", "genus2")
    return {name: parse_presentation(preset_text(name, ".grp"))
            for name in names}


# Property tests draw the same examples on every run and never time out on a
# slow machine, so the suite's verdict does not change from run to run.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
