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

Both modes read a rung through one function, :func:`_columns`, and one order,
the one :mod:`~ladderchoice.values` defines: dominance is strict
componentwise order on the polarity-signed coordinates
:func:`~ladderchoice.values.signed_columns` gives, with equal category keys.
Each column is read once, by its attribute's kind, never by a value's tag: a
categorical column's keys are labels, and an ordered column holding a value
of another family raises ``ValueError`` naming the first such value in
candidate order.  An ordered column gives one coordinate when all its values
are points, else two.  Cost of one rung over n candidates and m attributes:

* ``GLOBAL`` makes no comparisons, O(n·m).  A vector that beats all the
  others is their componentwise maximum, so the rung keeps the candidates at
  the maximum of every coordinate column.  It stops at the first column that
  holds two labels or leaves nobody, and a winning vector held by two
  different ids is beaten by neither, so the rung then keeps nobody too.
* ``UNDOMINATED`` joins the columns into rows of labels, then coordinates
  (:func:`_rows`), O(n·m).  Rows with different labels or equal rows never
  beat each other, so each label group's d distinct rows are judged alone
  (:func:`_front`) and the result is mapped back.  With no coordinate every
  row stays; with one, the maximum, O(d).  With two or three, Kung, Luccio
  and Preparata (JACM 1975) sort the rows in descending order and sweep them
  once against a staircase of the kept rows, O(d log d), so a trade-off does
  not cost d squared.  With four or more, the descending presort of
  Sort-Filter-Skyline (Chomicki et al., ICDE 2003) puts every dominator
  first; the top row is kept, every row it beats is dropped, and so on,
  O(d log d + d·k) :func:`_beats` calls for k kept rows.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import compress
from operator import ge
from typing import Iterable, Iterator, Sequence

from .model import (
    Alternative,
    DecisionTask,
    LadderOutcome,
    LevelRecord,
    SiftResult,
    Verdict,
)
from .sift import psp
from .values import satisfies_threshold, signed_columns


class DominanceMode(Enum):
    GLOBAL = "global"
    UNDOMINATED = "undominated"


def _mode(mode: object) -> DominanceMode:
    """``mode`` as a :class:`DominanceMode`: a member or its value; anything else is a ``ValueError``."""
    return mode if type(mode) is DominanceMode else DominanceMode(mode)


def _columns(alts: Sequence[Alternative], attrs: Iterable[int], task: DecisionTask) -> Iterator[tuple[bool, list]]:
    """The columns of ``alts`` on ``attrs``, attribute by attribute in id order, each with whether it holds labels.

    A categorical attribute gives one column, its value keys, used as labels;
    an ordered one its signed coordinate columns
    (:func:`~ladderchoice.values.signed_columns`), read when it is reached.
    """
    by_id = task._by_id
    cells = [alt.values for alt in alts]
    for aid in sorted(attrs):
        attr = by_id[aid]
        keys = [values[aid].key for values in cells]
        if attr.kind == "categorical":
            yield True, keys
        else:
            for column in signed_columns(keys, attr):
                yield False, column


def _rows(alts: Sequence[Alternative], attrs: Iterable[int], task: DecisionTask) -> tuple[list[tuple], int]:
    """Each alternative's row on ``attrs``, its labels then its signed coordinates; and how many labels lead."""
    labels: list[list] = []
    coords: list[list] = []
    for is_label, column in _columns(alts, attrs, task):
        (labels if is_label else coords).append(column)
    return list(zip(*labels, *coords)) or [()] * len(alts), len(labels)


def _beats(s: tuple, t: tuple) -> bool:
    """Strict dominance of one coordinate row over another: different, and no coordinate of ``s`` smaller."""
    return s != t and all(map(ge, s, t))


def _front(rows: list[tuple]) -> list[tuple]:
    """The rows that no other row beats, out of distinct rows of one width and one label group.

    After a descending sort an earlier row is never smaller on the first
    coordinate, and the rows are distinct, so a row is beaten exactly when an
    earlier kept row is at least as large on the rest.  One coordinate keeps
    the maximum; two and three sweep once in that order against a staircase
    (Kung, Luccio and Preparata, JACM 1975) and call no :func:`_beats`; four
    or more run the Sort-Filter-Skyline loop.
    """
    if len(rows) == 1:
        return rows
    width = len(rows[0])
    if width == 1:
        return [max(rows)]
    rows.sort(reverse=True)
    if width <= 3:
        # the staircase: the (second, last) pairs of kept rows that no other kept
        # row covers, second ascending and so last descending; of the entries
        # whose second is at least a row's, the first has the largest last, so it
        # alone decides whether the row is beaten (on two coordinates the pair is
        # the second twice)
        front = []
        seconds: list = []
        lasts: list = []
        for row in rows:
            second, last = row[1], row[-1]
            i = bisect_left(seconds, second)
            if i < len(lasts) and lasts[i] >= last:
                continue
            front.append(row)
            # the row covers the run before position i whose lasts are no larger,
            # and the entry at i if it has the same second; it replaces them
            start = end = i
            if i < len(seconds) and seconds[i] == second:
                end += 1
            while start and lasts[start - 1] <= last:
                start -= 1
            seconds[start:end] = [second]
            lasts[start:end] = [last]
        return front
    # the top row is beaten by nothing left, and whatever it beats is out
    front = []
    while rows:
        top = rows[0]
        front.append(top)
        rows = [row for row in rows[1:] if not _beats(top, row)]
    return front


def dominates(s: Alternative, t: Alternative, attrs: Iterable[int], task: DecisionTask) -> bool:
    """Strict dominance of ``s`` over ``t`` on the given attributes.

    Requires ``s`` to be at least as good as ``t`` on every attribute and
    strictly better on at least one; any Incomparable or Worse attribute
    breaks dominance.
    """
    (s_row, t_row), n_labels = _rows((s, t), attrs, task)
    return s_row[:n_labels] == t_row[:n_labels] and _beats(s_row[n_labels:], t_row[n_labels:])


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
    mode = _mode(mode)
    by_id = task._alternative_by_id
    alts = [by_id[cid] for cid in candidates]
    if len(alts) < 2:
        return tuple(candidates)
    if mode is DominanceMode.GLOBAL:
        return _global_winner(alts, attrs, task)
    rows, n_labels = _rows(alts, attrs, task)
    distinct = set(rows)
    if n_labels:
        # rows with different labels never beat each other
        groups: dict[tuple, list[tuple]] = {}
        for row in distinct:
            groups.setdefault(row[:n_labels], []).append(row[n_labels:])
        kept = {labels + row for labels, group in groups.items() for row in _front(group)}
    else:
        kept = set(_front(list(distinct)))
    return tuple(compress(candidates, map(kept.__contains__, rows)))


def _global_winner(alts: list[Alternative], attrs: Iterable[int], task: DecisionTask) -> tuple[str, ...]:
    """The ids of ``alts`` at the maximum of every coordinate column, if they are one id; else ``()``.

    A categorical column must hold a single label.  The read stops at the
    first column that holds two labels or leaves no position.
    """
    held: Sequence[int] = range(len(alts))
    for is_label, column in _columns(alts, attrs, task):
        if is_label:
            if len(set(column)) > 1:
                return ()  # two labels never beat each other
        else:
            top = max(column)
            held = [i for i in held if column[i] == top]
            if not held:
                return ()
    # two different ids on the winning vector do not beat each other
    ids = [alts[i].id for i in held]
    return tuple(ids) if len(set(ids)) == 1 else ()


def single_plan_gate(alt: Alternative, task: DecisionTask) -> LadderOutcome:
    """Accept-or-abstain rule for a sole feasible alternative.

    With an aspiration block present, the plan is chosen only if it clears
    every aspiration threshold on the top level; otherwise the verdict is
    Abstain.  Without one, surviving the sift is enough.
    """
    if task.aspiration is not None:
        for t in task.aspiration:
            if not satisfies_threshold(alt.values[t.attribute_id], t):
                return LadderOutcome(Verdict.ABSTAIN)
    return LadderOutcome(Verdict.CHOSEN, chosen=alt.id)


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
    """
    mode = _mode(mode)
    if not feasible:
        return LadderOutcome(Verdict.ABSTAIN)
    if len(feasible) == 1:
        return single_plan_gate(task.alternative(feasible[0]), task)

    survivors = tuple(feasible)
    trace: list[LevelRecord] = []
    for r in range(task.partition.level_count, 0, -1):
        attrs = task.partition.level(r)
        after = dominant_set(survivors, attrs, mode, task)
        trace.append(LevelRecord(r, attrs, survivors, after))
        if len(after) == 1:
            return LadderOutcome(Verdict.CHOSEN, chosen=after[0], trace=tuple(trace))
        if not after:
            return LadderOutcome(Verdict.REPARTITION, trace=tuple(trace))
        survivors = after
    return LadderOutcome(Verdict.NO_UNIQUE_CHOICE, trace=tuple(trace))


def decide_task(
    task: DecisionTask, mode: DominanceMode = DominanceMode.GLOBAL
) -> tuple[SiftResult, LadderOutcome]:
    """Full pipeline: sift, then ladder-search the feasible set."""
    sifted = psp(task)
    return sifted, lsp(task, sifted.feasible, mode)
