"""Every small task, decided by the engine and by the naive reference.

Most bugs show on small inputs, so checking every task up to a small bound
finds what sampling misses (Jackson, *Software Abstractions*, 2006).  Each
attribute is one of five kind and polarity pairs, and its values come from
``DOMAINS``: a numeric value is one of eight shapes (crisp 0, 1 or 2, an
interval inside [0, 2], at least 0 or 1), an ordinal one of three levels and a
category one of two labels.  Every task is decided in both dominance modes.
There are two spaces.

The first, :func:`tasks`, is every task of three distinct alternatives over
two attributes, with no threshold, under three partitions: the two attributes
on one level or on two in either order.  Two attributes holding intervals give
a rung four coordinates, so every branch of ``ladder._front`` and of
``ladder._global_winner`` runs.  The tests decide every ``STRIDE``-th task.

The second, :func:`threshold_tasks`, is every task of one to three distinct
alternatives over one attribute, which is basic and the one level.  Its
threshold is each op that fits the kind at each edge of the domain (numeric
0, 1 or 2, ordinal 1, 2 or 3, ``allowed`` red, blue or both), and its
aspiration is none or each such threshold.  So ``psp`` removes alternatives
and the single-plan gate judges aspirations.  The tests decide all of it,
16,704 decisions.

The whole of both spaces runs as a plain script, which prints each space's
decision count and exits non-zero on any disagreement:

    PYTHONPATH=src python tests/test_small_scope.py
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations, islice, product
from typing import Iterable, Iterator

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominanceMode,
    DominancePartition,
    Threshold,
    Verdict,
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
STRIDE = 29  # the tests' share of the first space: about 38,000 decisions
# the thresholds of the second space: each op that fits a kind, at each edge of its domain
EDGES = {
    "numeric": tuple(Threshold(1, op, bound) for op in ("max", "min") for bound in (0, 1, 2)),
    "ordinal": tuple(Threshold(1, op, bound) for op in ("min_level", "max_level") for bound in (1, 2, 3)),
    "categorical": tuple(Threshold(1, "allowed", bound) for bound in ({"red"}, {"blue"}, {"red", "blue"})),
}
THRESHOLD_DECISIONS = 16_704  # 8,352 tasks of the second space, in both modes


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


def threshold_tasks() -> Iterator[DecisionTask]:
    """Every task of the second space, in a fixed order: kind, alternatives, threshold, then aspiration."""
    for kind, polarity in KINDS:
        edges = EDGES[kind]
        for size in (1, 2, 3):
            for values, threshold, aspiration in product(combinations(DOMAINS[kind], size), edges, (None, *edges)):
                yield DecisionTask(
                    task_id="edge",
                    attributes=(Attribute(1, "a1", kind, polarity),),
                    basic_ids={1},
                    thresholds=(threshold,),
                    partition=DominancePartition([[1]]),
                    alternatives=tuple(Alternative(f"x{i}", {1: value}) for i, value in enumerate(values, 1)),
                    aspiration=None if aspiration is None else (aspiration,),
                )


def check(mode: DominanceMode, space: Iterable[DecisionTask]) -> tuple[Counter, list[str]]:
    """How many tasks of ``space`` came to each verdict, and each on which the engine and ``brute_force_lt`` differ."""
    verdicts: Counter = Counter()
    found = []
    for task in space:
        _, outcome = decide_task(task, mode)
        got = (outcome.verdict.value, outcome.chosen)
        expected = brute_force_lt(task, mode.value)
        if got != expected:
            found.append(
                f"{task.attributes} {task.thresholds} {task.aspiration} {task.partition.levels} {task.alternatives}: "
                f"engine={got} reference={expected}"
            )
        verdicts[got[0]] += 1
    return verdicts, found


def test_the_slice_is_validator_clean_and_reaches_every_kind_pair():
    slice_ = list(tasks(STRIDE))
    assert all(not validate_task(task) for task in slice_)
    assert {tuple((a.kind, a.polarity) for a in task.attributes) for task in slice_} == set(product(KINDS, repeat=2))


def test_global_slice_agrees_with_the_reference():
    assert check(DominanceMode.GLOBAL, tasks(STRIDE))[1][:3] == []


def test_undominated_slice_agrees_with_the_reference():
    assert check(DominanceMode.UNDOMINATED, tasks(STRIDE))[1][:3] == []


def test_the_threshold_space_is_validator_clean():
    assert all(not validate_task(task) for task in threshold_tasks())


def test_the_threshold_space_agrees_with_the_reference_and_reaches_every_verdict():
    verdicts: Counter = Counter()
    for mode in DominanceMode:
        reached, found = check(mode, threshold_tasks())
        assert found[:3] == []
        verdicts += reached
    assert sum(verdicts.values()) == THRESHOLD_DECISIONS
    assert set(verdicts) == {verdict.value for verdict in Verdict}


if __name__ == "__main__":
    for name, space in (("pair", tasks), ("threshold", threshold_tasks)):
        decided = 0
        for mode in DominanceMode:
            verdicts, found = check(mode, space())
            if found:
                print("\n".join(found[:10]))
                sys.exit(f"{len(found)} of {sum(verdicts.values())} {mode.value} decisions of the {name} space disagree with the reference")
            decided += sum(verdicts.values())
        print(f"{decided} decisions of the {name} space agree with the reference on Python {sys.version.split()[0]}")
