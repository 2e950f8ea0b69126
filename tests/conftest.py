import random
from fractions import Fraction
from pathlib import Path

import pytest

from uplogic.structure import (
    SetFunction,
    UpperProbStructure,
    load_set_function,
    load_structure,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def marble() -> UpperProbStructure:
    return load_structure((FIXTURES / "marble.json").read_bytes())


@pytest.fixture
def table() -> UpperProbStructure:
    return load_structure((FIXTURES / "table.json").read_bytes())


@pytest.fixture
def table_upper() -> SetFunction:
    return load_set_function((FIXTURES / "table_upper.json").read_bytes())


@pytest.fixture
def veps() -> SetFunction:
    return load_set_function((FIXTURES / "veps.json").read_bytes())


def random_structure(
    rng: random.Random,
    max_worlds: int = 5,
    max_measures: int = 4,
    props: tuple = ("p", "q"),
) -> UpperProbStructure:
    n_worlds = rng.randint(1, max_worlds)
    n_measures = rng.randint(1, max_measures)
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    assignment = {w: {p: rng.random() < 0.5 for p in props} for w in worlds}
    measures = []
    for _ in range(n_measures):
        weights = [rng.randint(0, 6) for _ in worlds]
        if sum(weights) == 0:
            weights[rng.randrange(n_worlds)] = 1
        total = sum(weights)
        measures.append(
            {w: Fraction(x, total) for w, x in zip(worlds, weights) if x}
        )
    return UpperProbStructure(
        props=tuple(props),
        worlds=worlds,
        assignment=assignment,
        measures=tuple(measures),
    )


def structure_with_zeros(rng: random.Random, max_worlds: int = 5) -> UpperProbStructure:
    """A random structure with explicit zero masses and a world that no
    dist lists."""
    M = random_structure(rng, max_worlds=max_worlds)
    measures = tuple({**mu, **{w: Fraction(0) for w in M.worlds
                               if w not in mu and rng.random() < 0.5}}
                     for mu in M.measures)
    worlds = list(M.worlds)
    worlds.insert(rng.randint(0, len(worlds)), "unlisted")
    return UpperProbStructure(props=M.props, worlds=tuple(worlds),
                              assignment={**M.assignment, "unlisted": {}}, measures=measures)
