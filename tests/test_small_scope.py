"""Every small task, decided by the engine and by the naive reference.

Most bugs show on small inputs, so checking every task up to a small bound
finds what sampling misses (Jackson, *Software Abstractions*, 2006).  Each
attribute is one of five kind and polarity pairs, and its values come from
``DOMAINS``: a numeric value is one of eight shapes (crisp 0, 1 or 2, an
interval inside [0, 2], at least 0 or 1), an ordinal one of three levels and a
category one of two labels.  Every task is decided in both dominance modes.
There are three spaces.

The first, :func:`tasks`, is every task of three distinct alternatives over
two attributes, with no threshold, under three partitions: the two attributes
on one level or on two in either order.  Two attributes holding intervals give
a rung four coordinates, so every branch of ``ladder._front`` and of
``ladder._global_winner`` runs.  The tests decide every ``STRIDE``-th task.

The second, :func:`threshold_tasks`, is every task of one to four distinct
alternatives over one attribute, which is basic and the one level.  Its
threshold is each op that fits the kind at each edge of the domain (numeric
0, 1 or 2, ordinal 1, 2 or 3, ``allowed`` red, blue or both), and its
aspiration is none or each such threshold.  So ``psp`` removes alternatives
and the single-plan gate judges aspirations.  Only the numeric domain holds
more than three values, so only numeric tasks hold four alternatives.  The
tests decide all of it, 28,464 decisions.

The third, :func:`triple_tasks`, is every task of three distinct alternatives
over three attributes on one level, with no threshold.  The attributes are
each multiset of three of the five kind and polarity pairs, and their values
come from the smaller ``TRIPLE_DOMAINS``: crisp 0 or 1, the interval [0, 1] or
at least 1, ordinal 1 or 2, and red or blue.  That is 218,576 tasks.  One rung
then holds up to six coordinates, or labels and coordinates, so it reaches the
three-coordinate staircase of ``ladder._front``, its keyed staircases of four
to six coordinates, and several label groups on one rung.  The tests decide
every ``TRIPLE_STRIDE``-th task of each multiset.  That stride is the smallest
prime that keeps the slice, in both modes, under 20,000 decisions; a prime
shares no factor with the domain sizes, 2 and 4.

The whole of the three spaces runs as a plain script, which prints each space's
decision count and exits non-zero on any disagreement:

    PYTHONPATH=src python tests/test_small_scope.py
"""

from __future__ import annotations

import sys
from collections import Counter
from math import comb, prod
from itertools import combinations, combinations_with_replacement, islice, product
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
from ladderchoice import ladder
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
THRESHOLD_DECISIONS = 28_464  # 14,232 tasks of the second space, in both modes
TRIPLE_DOMAINS = {
    "numeric": (crisp(0), crisp(1), interval(0, 1), at_least(1)),
    "ordinal": (ordinal(1), ordinal(2)),
    "categorical": (category("red"), category("blue")),
}
TRIPLE_PARTITION = DominancePartition([[1, 2, 3]])
TRIPLE_TASKS = 218_576  # the third space, each task decided in both modes
TRIPLE_STRIDE = 23  # the tests' share of the third space: about 19,000 decisions


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


def triple_tasks(stride: int = 1) -> Iterator[DecisionTask]:
    """The first and every ``stride``-th task of each multiset of three kinds, in a fixed order: kinds, then alternatives."""
    for kinds in combinations_with_replacement(KINDS, 3):
        attributes = tuple(Attribute(aid, f"a{aid}", kind, polarity) for aid, (kind, polarity) in enumerate(kinds, 1))
        rows = combinations(list(product(*(TRIPLE_DOMAINS[kind] for kind, _ in kinds))), 3)
        for values in islice(rows, 0, None, stride):
            yield DecisionTask(
                task_id="triple",
                attributes=attributes,
                basic_ids=frozenset(),
                thresholds=(),
                partition=TRIPLE_PARTITION,
                alternatives=tuple(Alternative(f"x{i}", dict(enumerate(row, 1))) for i, row in enumerate(values, 1)),
            )


def threshold_tasks() -> Iterator[DecisionTask]:
    """Every task of the second space, in a fixed order: kind, alternatives, threshold, then aspiration."""
    for kind, polarity in KINDS:
        edges = EDGES[kind]
        for size in (1, 2, 3, 4):
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


def test_the_triple_slice_is_validator_clean_and_reaches_every_kind_multiset():
    slice_ = list(triple_tasks(TRIPLE_STRIDE))
    assert all(not validate_task(task) for task in slice_)
    kinds = {tuple((a.kind, a.polarity) for a in task.attributes) for task in slice_}
    assert kinds == set(combinations_with_replacement(KINDS, 3))
    sizes = [prod(len(TRIPLE_DOMAINS[kind]) for kind, _ in kinds) for kinds in combinations_with_replacement(KINDS, 3)]
    assert sum(comb(size, 3) for size in sizes) == TRIPLE_TASKS
    assert 2 * len(slice_) < 20_000 <= 2 * len(list(triple_tasks(19)))  # 19 is the prime below the stride


def test_the_triple_slice_agrees_with_the_reference_and_reaches_every_sweep(monkeypatch):
    # every width of rung the undominated sweep is handed, and each rung's count of label groups
    fronts, groups = set(), set()
    front, rows = ladder._front, ladder._rows

    def recording_front(group):
        if len(group) > 1:
            fronts.add(len(group[0]))
        return front(group)

    def recording_rows(cells, attrs, task):
        read, n_labels = rows(cells, attrs, task)
        groups.add(len({row[:n_labels] for row in read}))
        return read, n_labels

    monkeypatch.setattr(ladder, "_front", recording_front)
    monkeypatch.setattr(ladder, "_rows", recording_rows)
    for mode in DominanceMode:
        assert check(mode, triple_tasks(TRIPLE_STRIDE))[1][:3] == []
    assert {3, 4, 5, 6} <= fronts
    assert max(groups) > 1


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
    for name, space in (("pair", tasks), ("threshold", threshold_tasks), ("triple", triple_tasks)):
        decided = 0
        for mode in DominanceMode:
            verdicts, found = check(mode, space())
            if found:
                print("\n".join(found[:10]))
                sys.exit(f"{len(found)} of {sum(verdicts.values())} {mode.value} decisions of the {name} space disagree with the reference")
            decided += sum(verdicts.values())
        print(f"{decided} decisions of the {name} space agree with the reference on Python {sys.version.split()[0]}")
