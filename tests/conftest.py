import random

import pytest
from hypothesis import settings

from meridian.cli import preset_text
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


def mat_mul(a, b):
    """Product of integer matrices, for checking Smith transforms U*M*V."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


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
