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

Both modes read one order: :func:`~ladderchoice.values.signed_coords` gives
each distinct value of an ordered attribute its polarity-signed coordinates,
asked once per distinct value, and dominance is strict componentwise order on
them with equal category keys.  Both read each column by its attribute's
kind, never by a value's tag: a categorical column's keys are labels, and an
ordered column holding a category raises ``ValueError``.  Cost of one rung
over n candidates and m attributes:

* ``GLOBAL`` compiles no pairs and makes no comparisons.  A vector that beats
  all the others is their componentwise maximum, so the rung reads each
  column once, O(n·m): a categorical column with two labels has no winner,
  and an ordered one has none unless one of its values holds the column's
  maximum; the winner holds every such value.  A winning vector held by two
  different ids is beaten by neither, so the rung keeps nobody.
* ``UNDOMINATED`` compiles its candidates to ``(category keys, signed
  coords)`` pairs and groups them (:func:`_signed_vectors`), O(n·m); equal
  pairs never beat each other, so it judges the d distinct pairs and maps the
  result back.  It is Sort-Filter-Skyline (Chomicki et al., ICDE 2003):
  presort the pairs in descending lexicographic order, a linear extension of
  :func:`_beats`, which puts every dominator before what it dominates, then
  compare each pair only with the window of undominated ones found so far,
  O(d log d + d·k·m) for a final window of k.  When nothing dominates
  anything, k = d and the pass is quadratic in d, but ties no longer count:
  a categorical-only rung is linear in n.
"""

from __future__ import annotations

from enum import Enum
from operator import ge
from typing import Iterable, Sequence

from .model import (
    Alternative,
    DecisionTask,
    LadderOutcome,
    LevelRecord,
    SiftResult,
    Verdict,
)
from .sift import psp
from .values import satisfies_threshold, signed_coords


class DominanceMode(Enum):
    GLOBAL = "global"
    UNDOMINATED = "undominated"


def _signed_vectors(
    alts: Iterable[Alternative], attrs: Iterable[int], task: DecisionTask
) -> tuple[list[tuple], list[int]]:
    """The distinct ``(category keys, signed coords)`` pairs of ``alts``, and each one's index into them.

    Each column is read by its attribute's kind: a categorical one gives
    labels, and each distinct value of an ordered one gets its signed coords
    once (:func:`~ladderchoice.values.signed_coords` raises on a category
    there).  :func:`_beats` reads nothing but two pairs, so candidates with
    equal pairs share one; on a valid task that is one pair per tuple of value
    keys.
    """
    # per attribute: None when categorical, else value key -> its signed coords
    columns = [(a.id, a.polarity, None if a.kind == "categorical" else {}) for a in map(task.attribute, attrs)]
    index: dict[tuple, int] = {}  # pair -> its index, numbered in first-seen order
    which: list[int] = []
    for alt in alts:
        values = alt.values
        labels, coords = [], []
        for aid, polarity, signed in columns:
            key = values[aid].key
            if signed is None:
                labels.append(key)
            else:
                part = signed.get(key)
                if part is None:
                    part = signed[key] = signed_coords(key, polarity)
                coords += part
        which.append(index.setdefault((tuple(labels), tuple(coords)), len(index)))
    return list(index), which


def _beats(s: tuple, t: tuple) -> bool:
    """Strict dominance: equal category keys, different coords, and no coord of ``s`` smaller."""
    return s[0] == t[0] and s[1] != t[1] and all(map(ge, s[1], t[1]))


def dominates(s: Alternative, t: Alternative, attrs: Iterable[int], task: DecisionTask) -> bool:
    """Strict dominance of ``s`` over ``t`` on the given attributes.

    Requires ``s`` to be at least as good as ``t`` on every attribute and
    strictly better on at least one; any Incomparable or Worse attribute
    breaks dominance.
    """
    vectors, (i, j) = _signed_vectors((s, t), attrs, task)
    return _beats(vectors[i], vectors[j])


def dominant_set(
    candidates: Sequence[str],
    attrs: Iterable[int],
    mode: DominanceMode,
    task: DecisionTask,
) -> tuple[str, ...]:
    """Filter candidate ids by dominance on one attribute group, preserving order.

    UNDOMINATED keeps ids no rival strictly dominates; GLOBAL keeps the id (at
    most one) that strictly dominates every rival.  A lone candidate survives
    in both modes, and so do the repeats of a lone id.
    """
    alts = [task.alternative(cid) for cid in candidates]
    if len(alts) < 2:
        return tuple(candidates)
    if mode is DominanceMode.GLOBAL:
        return _global_winner(alts, attrs, task)
    vectors, which = _signed_vectors(alts, attrs, task)
    # descending order puts every dominator first, and each dominated
    # pair has an undominated dominator, so the window is enough
    kept = [False] * len(vectors)
    window: list[tuple] = []
    for i in sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True):
        if not any(_beats(w, vectors[i]) for w in window):
            window.append(vectors[i])
            kept[i] = True
    return tuple(cid for cid, i in zip(candidates, which) if kept[i])


def _global_winner(alts: list[Alternative], attrs: Iterable[int], task: DecisionTask) -> tuple[str, ...]:
    """The ids of ``alts`` that hold every column's maximum, if they are one id; else ``()``.

    Columns are read in id order and each by its attribute's kind: a
    categorical one must hold a single label, and an ordered one must have a
    key whose signed coords are the componentwise maximum of the column's
    (:func:`~ladderchoice.values.signed_coords` raises on a category there).
    """
    holders = alts
    for aid in sorted(attrs):
        attr = task.attribute(aid)
        keys = {alt.values[aid].key for alt in alts}
        if attr.kind == "categorical":
            if len(keys) > 1:
                return ()  # two labels never beat each other
            continue
        coords = {key: signed_coords(key, attr.polarity) for key in keys}
        if len(keys) > 1:
            # only the lexicographic maximum can be the componentwise one
            best = max(keys, key=coords.__getitem__)
            if coords[best] != tuple(map(max, *coords.values())):
                return ()
            holders = [alt for alt in holders if alt.values[aid].key == best]
            if not holders:
                return ()
    # two different ids on the winning vector do not beat each other
    ids = [alt.id for alt in holders]
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
    never exceeds the level count.
    """
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
