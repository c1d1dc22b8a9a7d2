"""Ladder search: lexicographic dominance filtering over importance levels.

The search walks the dominance partition from the most important level down,
shrinking the survivor set at each rung and stopping the moment exactly one
alternative remains.  Two dominance modes are supported:

* ``GLOBAL`` keeps the alternative (if any) that strictly dominates every
  rival on the level's attributes; the filtered set has at most one element,
  and an empty result signals that the attribute grouping should be rethought
  (``Repartition``).
* ``UNDOMINATED`` keeps every alternative not strictly dominated by some
  rival; the set can never become empty, but may stay plural all the way
  down, ending in ``NoUniqueChoice``.

The ladder reads rows: a candidate is its id and its value map, and one rung
(:func:`_kept`) says which candidates survive, so each rung narrows the ids
and the maps together.  :func:`decide_task` ranks the value maps the sift
returns (:func:`~ladderchoice.sift.sift_rows`) and builds no id index.  Ids
are read only by the id-based entry points, :func:`lsp` and
:func:`dominant_set`, which index the task's alternatives by id on each call
(:func:`~ladderchoice.model.first_by_id`) and look each candidate up once,
and by the trace.  No call writes to the task.

Both modes read a rung through one function, :func:`_columns`, and one order:
dominance is strict componentwise order on the polarity-signed coordinates
:func:`signed_columns` gives, with equal category keys.  Each column is read
once, by its attribute's kind, never by a value's tag: a categorical column's
keys are labels, and an ordered column holding a value of another family
raises ``ValueError`` naming the first such value in candidate order.  An
ordered column gives one coordinate when all its values are points, else
two.  Cost of one rung over n candidates and m attributes:

* ``GLOBAL`` makes no comparisons, O(n·m).  A vector that beats all the
  others is their componentwise maximum, so the rung keeps the candidates at
  the maximum of every coordinate column.  It stops at the first column that
  holds two labels or leaves nobody, and a winning vector held by two
  different ids is beaten by neither, so the rung then keeps nobody too.
* ``UNDOMINATED`` joins the columns into rows of labels, then coordinates
  (:func:`_rows`), O(n·m).  Rows with different labels or equal rows never
  beat each other, so each label group's d distinct rows are judged alone
  (:func:`_front`) and the result is mapped back.  With no coordinate every
  row stays; with one, the maximum, O(d).  With more, Kung, Luccio and
  Preparata (JACM 1975) sort the rows in descending order and sweep them
  once against staircases of the kept rows, so a trade-off does not cost d
  squared and no pair of rows is compared.  The sweep has two loops, which
  share the step that puts a kept row into a staircase (:func:`_cover`).
  Two and three coordinates sweep one staircase, O(d log d), and test no
  key.  Four or more keep a staircase per value of the coordinates past the
  third and test a row against each staircase whose key is at least its
  own, O(d·k log d) for k such values.  The keyed loop gives the same
  answer on fewer coordinates, with the one key ``()``, but its key test on
  every row is about half the time of a two- or three-coordinate rung, the
  most common width, so those rungs keep a loop without it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from itertools import compress
from operator import ge, itemgetter, neg

from .model import (
    KIND_FAMILY,
    Attribute,
    DecisionTask,
    LadderOutcome,
    LevelRecord,
    SiftResult,
    Verdict,
    first_by_id,
)
from .sift import satisfies_threshold, sift_rows

_tag, _lo, _hi = itemgetter(0), itemgetter(1), itemgetter(2)


class DominanceMode(Enum):
    GLOBAL = "global"
    UNDOMINATED = "undominated"


def signed_columns(keys: Sequence[tuple], attr: Attribute) -> list[list]:
    """The coordinates that order the values of one ordered column, larger being better, read cell by cell.

    Gives one list per coordinate, the i-th item of each belonging to
    ``keys[i]``: a key's coordinates are ``(lo, hi)`` for the numeric shapes
    and ``(level,)`` for an ordinal, each negated under cost.  When every
    value is a point (crisp, ordinal, a degenerate interval) the upper ends
    repeat the lower ends, so the lower ends come alone.  No key is hashed.
    A category has no order and raises ``ValueError``, and so does a value of
    another family than the attribute's kind, at the first such key.
    """
    family = KIND_FAMILY[attr.kind]
    if family == "c" or set(map(_tag, keys)) != {family}:
        for key in keys:
            if key[0] == "c":
                raise ValueError("a category value has no order")
            if key[0] != family:
                raise ValueError(f"{attr.kind} attribute {attr.id} cannot order a value of another family, {key!r}")
    los = list(map(_lo, keys))
    his = list(map(_hi, keys)) if family == "n" else los
    columns = [los] if his == los else [los, his]
    if attr.polarity == "cost":
        return [list(map(neg, column)) for column in columns]
    return columns


def _columns(cells: Sequence[dict], attrs: Iterable[int], task: DecisionTask) -> Iterator[tuple[bool, list]]:
    """The columns of the value maps ``cells`` on ``attrs``, in attribute id order, each with whether it holds labels.

    A categorical attribute gives one column, its value keys, used as labels;
    an ordered one its signed coordinate columns (:func:`signed_columns`),
    read when it is reached.
    """
    by_id = task._by_id
    for aid in sorted(attrs):
        attr = by_id[aid]
        keys = [values[aid].key for values in cells]
        if attr.kind == "categorical":
            yield True, keys
        else:
            for column in signed_columns(keys, attr):
                yield False, column


def _rows(cells: Sequence[dict], attrs: Iterable[int], task: DecisionTask) -> tuple[list[tuple], int]:
    """Each value map's row on ``attrs``, its labels then its signed coordinates; and how many labels lead."""
    labels: list[list] = []
    coords: list[list] = []
    for is_label, column in _columns(cells, attrs, task):
        (labels if is_label else coords).append(column)
    return list(zip(*labels, *coords)) or [()] * len(cells), len(labels)


def _front(rows: list[tuple]) -> list[tuple]:
    """The rows that no other row beats, out of distinct rows of one width and one label group.

    After a descending sort an earlier row is never smaller on the first
    coordinate, and the rows are distinct, so a row is beaten exactly when an
    earlier kept row is at least as large on the rest.  One coordinate keeps
    the maximum.  More sweep once in that order (Kung, Luccio and Preparata,
    JACM 1975) against staircases of the (second, third) pairs of kept rows,
    and a row is beaten when a staircase it is tested against holds a pair at
    least as large as its own.  Two and three coordinates sweep one staircase.
    Four or more keep a staircase per key, a row's coordinates past the
    third, and test a row against the staircase of each key at least as large
    as its own.  The keyed loop would give the same answer on two and three
    coordinates, but its key test on every row, against the one key ``()``,
    made those rungs take about twice as long.
    """
    if len(rows) == 1:
        return rows
    width = len(rows[0])
    if width == 1:
        return [max(rows)]
    rows.sort(reverse=True)
    third = min(width, 3) - 1  # on two coordinates the pair is the second twice
    # a staircase holds the (second, third) pairs of kept rows that no other
    # kept row of its key covers, second ascending and so third descending; of
    # the entries whose second is at least a row's, the first has the largest
    # third, so it alone decides whether the staircase beats the row
    front = []
    if width <= 3:
        seconds, lasts = [], []
        for row in rows:
            second, last = row[1], row[third]
            i = bisect_left(seconds, second)
            if i < len(lasts) and lasts[i] >= last:
                continue
            front.append(row)
            _cover(seconds, lasts, second, last)
        return front
    stairs: dict[tuple, tuple[list, list]] = {}
    for row in rows:
        second, last, key = row[1], row[third], row[3:]
        for above, (seconds, lasts) in stairs.items():
            if all(map(ge, above, key)):
                i = bisect_left(seconds, second)
                if i < len(lasts) and lasts[i] >= last:
                    break
        else:
            front.append(row)
            _cover(*stairs.setdefault(key, ([], [])), second, last)
    return front


def _cover(seconds: list, lasts: list, second, last) -> None:
    """Put a kept row's pair into a staircase, removing the entries it covers.

    The pair covers the run before its position whose thirds are no larger,
    and the entry at it if that has the same second.
    """
    start = end = bisect_left(seconds, second)
    if end < len(seconds) and seconds[end] == second:
        end += 1
    while start and lasts[start - 1] <= last:
        start -= 1
    seconds[start:end] = [second]
    lasts[start:end] = [last]


def dominant_set(
    candidates: Sequence[str],
    attrs: Iterable[int],
    mode: DominanceMode,
    task: DecisionTask,
) -> tuple[str, ...]:
    """Filter candidate ids by dominance on one attribute group, preserving order.

    UNDOMINATED keeps ids no rival strictly dominates; GLOBAL keeps the id (at
    most one) that strictly dominates every rival.  A lone candidate survives
    in both modes, and so do the repeats of a lone id.  ``mode`` may also be
    a mode's value, ``"global"`` or ``"undominated"``.
    """
    mode = DominanceMode(mode)
    by_id = first_by_id(task.alternatives)
    cells = [by_id[cid].values for cid in candidates]
    if len(cells) < 2:
        return tuple(candidates)
    return tuple(compress(candidates, _kept(candidates, cells, attrs, mode, task)))


def _kept(
    ids: Sequence[str], cells: Sequence[dict], attrs: Iterable[int], mode: DominanceMode, task: DecisionTask
) -> list[bool]:
    """Whether each of two or more candidates, ids ``ids`` with value maps ``cells``, survives the rung on ``attrs``."""
    if mode is DominanceMode.GLOBAL:
        kept = [False] * len(ids)
        for i in _global_winner(ids, cells, attrs, task):
            kept[i] = True
        return kept
    rows, n_labels = _rows(cells, attrs, task)
    distinct = set(rows)
    if n_labels:
        # rows with different labels never beat each other
        groups: dict[tuple, list[tuple]] = {}
        for row in distinct:
            groups.setdefault(row[:n_labels], []).append(row[n_labels:])
        front = {labels + row for labels, group in groups.items() for row in _front(group)}
    else:
        front = set(_front(list(distinct)))
    return list(map(front.__contains__, rows))


def _global_winner(ids: Sequence[str], cells: Sequence[dict], attrs: Iterable[int], task: DecisionTask) -> Sequence[int]:
    """The positions in ``cells`` at the maximum of every coordinate column, if they hold one id; else ``()``.

    A categorical column must hold a single label.  The read stops at the
    first column that holds two labels or leaves no position.
    """
    held: Sequence[int] = range(len(cells))
    for is_label, column in _columns(cells, attrs, task):
        if is_label:
            if len(set(column)) > 1:
                return ()  # two labels never beat each other
        else:
            top = max(column)
            held = [i for i in held if column[i] == top]
            if not held:
                return ()
    # two different ids on the winning vector do not beat each other
    return held if len({ids[i] for i in held}) == 1 else ()


def single_plan_gate(alt_id: str, values: dict, task: DecisionTask) -> LadderOutcome:
    """Accept-or-abstain rule for a sole feasible alternative, id ``alt_id`` with value map ``values``.

    With an aspiration block present, the plan is chosen only if its values
    clear every aspiration threshold on the top level; otherwise the verdict
    is Abstain.  Without one, surviving the sift is enough.
    """
    if task.aspiration is not None:
        for t in task.aspiration:
            if not satisfies_threshold(values[t.attribute_id], t):
                return LadderOutcome(Verdict.ABSTAIN)
    return LadderOutcome(Verdict.CHOSEN, chosen=alt_id)


def lsp(
    task: DecisionTask,
    feasible: Sequence[str],
    mode: DominanceMode = DominanceMode.GLOBAL,
) -> LadderOutcome:
    """Run the ladder search over a sifted candidate list.

    Empty input abstains outright; a single candidate goes through
    :func:`single_plan_gate`.  Otherwise levels are visited from most to
    least important, each filtering the current survivor set, so the trace
    never exceeds the level count.  ``mode`` may also be a mode's value.
    Each candidate is ranked on the values of the first alternative with its
    id.
    """
    mode = DominanceMode(mode)
    by_id = first_by_id(task.alternatives)
    ids = tuple(feasible)
    return _climb(task, ids, [by_id[cid].values for cid in ids], mode)


def _climb(task: DecisionTask, ids: tuple[str, ...], cells: list[dict], mode: DominanceMode) -> LadderOutcome:
    """:func:`lsp` over the candidates ``ids``, ranked on their value maps ``cells``; each rung narrows both."""
    if not ids:
        return LadderOutcome(Verdict.ABSTAIN)
    if len(ids) == 1:
        return single_plan_gate(ids[0], cells[0], task)

    trace: list[LevelRecord] = []
    for r in range(task.partition.level_count, 0, -1):
        attrs = task.partition.level(r)
        kept = _kept(ids, cells, attrs, mode, task)
        after = tuple(compress(ids, kept))
        trace.append(LevelRecord(r, attrs, ids, after))
        if len(after) == 1:
            return LadderOutcome(Verdict.CHOSEN, chosen=after[0], trace=tuple(trace))
        if not after:
            return LadderOutcome(Verdict.REPARTITION, trace=tuple(trace))
        ids, cells = after, list(compress(cells, kept))
    return LadderOutcome(Verdict.NO_UNIQUE_CHOICE, trace=tuple(trace))


def decide_task(
    task: DecisionTask, mode: DominanceMode = DominanceMode.GLOBAL
) -> tuple[SiftResult, LadderOutcome]:
    """Full pipeline: sift, then ladder-search the feasible set, each ranked on the values the sift judged."""
    sifted, cells = sift_rows(task)
    return sifted, _climb(task, sifted.feasible, cells, DominanceMode(mode))
