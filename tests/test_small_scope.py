"""Every small task, decided by the engine and by the naive reference.

Most bugs show on small inputs, so checking every task up to a small bound
finds what sampling misses (Jackson, *Software Abstractions*, 2006).  The
space is every task of three distinct alternatives over two attributes:

* each attribute is one of five kind and polarity pairs;
* a numeric value is one of eight shapes (crisp 0, 1 or 2, an interval
  inside [0, 2], at least 0 or 1), an ordinal one of three levels and a
  category one of two labels;
* each task is decided under three partitions, the two attributes on one
  level or on two in either order, in both dominance modes.

Two attributes holding intervals give a rung four coordinates, so every
branch of ``ladder._front`` and of ``ladder._global_winner`` runs.  The tests
decide every ``STRIDE``-th task; the whole space, 1,113,048 decisions, runs as
a plain script:

    PYTHONPATH=src python tests/test_small_scope.py
"""

from __future__ import annotations

import sys
from itertools import combinations, islice, product
from typing import Iterator

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominanceMode,
    DominancePartition,
    at_least,
    category,
    crisp,
    decide_task,
    interval,
    ordinal,
    validate_task,
)
from ladderchoice.oracle import brute_force_lt

KINDS = (("numeric", "cost"), ("numeric", "benefit"), ("ordinal", "cost"), ("ordinal", "benefit"), ("categorical", "none"))
DOMAINS = {
    "numeric": (crisp(0), crisp(1), crisp(2), interval(0, 1), interval(1, 2), interval(0, 2), at_least(0), at_least(1)),
    "ordinal": (ordinal(1), ordinal(2), ordinal(3)),
    "categorical": (category("red"), category("blue")),
}
PARTITIONS = tuple(DominancePartition(levels) for levels in ([[1, 2]], [[1], [2]], [[2], [1]]))
STRIDE = 29  # the tests' share of the space: about 38,000 decisions


def tasks(stride: int = 1) -> Iterator[DecisionTask]:
    """The first and every ``stride``-th task of each pair of kinds, in a fixed order: alternatives, then partition."""
    for kinds in product(KINDS, repeat=2):
        attributes = tuple(Attribute(aid, f"a{aid}", kind, polarity) for aid, (kind, polarity) in enumerate(kinds, 1))
        space = product(combinations(list(product(*(DOMAINS[kind] for kind, _ in kinds))), 3), PARTITIONS)
        for rows, partition in islice(space, 0, None, stride):
            yield DecisionTask(
                task_id="small",
                attributes=attributes,
                basic_ids=frozenset(),
                thresholds=(),
                partition=partition,
                alternatives=tuple(Alternative(f"x{i}", {1: a, 2: b}) for i, (a, b) in enumerate(rows, 1)),
            )


def check(mode: DominanceMode, stride: int = 1) -> tuple[int, list[str]]:
    """How many tasks of the slice were decided, and each on which the engine and ``brute_force_lt`` differ."""
    decided, found = 0, []
    for task in tasks(stride):
        _, outcome = decide_task(task, mode)
        got = (outcome.verdict.value, outcome.chosen)
        expected = brute_force_lt(task, mode.value)
        if got != expected:
            found.append(f"{task.attributes} {task.partition.levels} {task.alternatives}: engine={got} reference={expected}")
        decided += 1
    return decided, found


def test_the_slice_is_validator_clean_and_reaches_every_kind_pair():
    slice_ = list(tasks(STRIDE))
    assert all(not validate_task(task) for task in slice_)
    assert {tuple((a.kind, a.polarity) for a in task.attributes) for task in slice_} == set(product(KINDS, repeat=2))


def test_global_slice_agrees_with_the_reference():
    assert check(DominanceMode.GLOBAL, STRIDE)[1][:3] == []


def test_undominated_slice_agrees_with_the_reference():
    assert check(DominanceMode.UNDOMINATED, STRIDE)[1][:3] == []


if __name__ == "__main__":
    total = 0
    for mode in DominanceMode:
        decided, found = check(mode)
        print("\n".join(found[:10]))
        if found:
            sys.exit(f"{len(found)} of {decided} {mode.value} decisions disagree with the reference")
        total += decided
    print(f"{total} small-scope decisions agree with the reference on Python {sys.version.split()[0]}")
