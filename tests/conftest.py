from __future__ import annotations

import random
from pathlib import Path

import pytest

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominancePartition,
    Threshold,
    category,
    crisp,
    ordinal,
    parse_scenario,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
CASES = ("case1", "case2", "case3", "case4")


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def load_case(name: str) -> DecisionTask:
    return parse_scenario(fixture_path(name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def case1() -> DecisionTask:
    return load_case("case1")


@pytest.fixture(scope="session")
def case2() -> DecisionTask:
    return load_case("case2")


@pytest.fixture(scope="session")
def case3() -> DecisionTask:
    return load_case("case3")


@pytest.fixture(scope="session")
def case4() -> DecisionTask:
    return load_case("case4")


LABELS = ("red", "blue", "white", "green", "black")

# partitions of tie_heavy_task, least important level first, named by their top rung
TIE_PARTITIONS = {
    "categorical": [[6], [3, 4, 5], [1, 2]],
    "ordinal": [[6], [1, 2, 4, 5], [3]],
    "categorical+ordinal": [[6], [4, 5], [1, 2, 3]],
}


def tie_heavy_task(seed: int, n: int, top: str = "categorical") -> DecisionTask:
    """n alternatives over a few distinct values per attribute, validator-clean.

    Attributes: two categorical ones (1, 2) with five labels each, an ordinal
    one (3), two numeric ones drawn from the same six crisp numbers (4 under
    cost with ``max 3``, 5 under benefit with ``min 2``, so one value can pass
    one threshold and fail the other), and a row number (6) on the least
    important level that keeps every alternative distinct.  Attributes 1, 3, 4
    and 5 are screened; ``top`` picks the partition from TIE_PARTITIONS.
    """
    rng = random.Random(seed)
    alternatives = tuple(
        Alternative(
            f"p{index}",
            {
                1: category(rng.choice(LABELS)),
                2: category(rng.choice(LABELS)),
                3: ordinal(rng.randint(1, 5)),
                4: crisp(rng.randint(0, 5)),
                5: crisp(rng.randint(0, 5)),
                6: crisp(index),
            },
        )
        for index in range(n)
    )
    return DecisionTask(
        task_id=f"ties-{seed}",
        attributes=(
            Attribute(1, "color", "categorical", "none"),
            Attribute(2, "finish", "categorical", "none"),
            Attribute(3, "comfort", "ordinal", "benefit"),
            Attribute(4, "delay", "numeric", "cost"),
            Attribute(5, "size", "numeric", "benefit"),
            Attribute(6, "row", "numeric", "cost"),
        ),
        basic_ids=frozenset({1, 3, 4, 5}),
        thresholds=(
            Threshold(1, "allowed", frozenset(LABELS[:4])),
            Threshold(3, "min_level", 2),
            Threshold(4, "max", 3),
            Threshold(5, "min", 2),
        ),
        partition=DominancePartition(TIE_PARTITIONS[top]),
        alternatives=alternatives,
    )
