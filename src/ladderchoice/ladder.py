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

Each rung compiles every candidate once, to its category keys and the
polarity-signed coordinates of its ordered values (:func:`_signed_vectors`).
Cost of one rung over n candidates and m attributes:

* ``GLOBAL`` is a champion scan: keep a candidate, replace it whenever it
  fails to dominate the next one, then check the survivor against everyone,
  O(n·m).
* ``UNDOMINATED`` is Sort-Filter-Skyline (Chomicki et al., ICDE 2003):
  presort the pairs in descending lexicographic order, which puts every
  dominator before what it dominates, then compare each candidate only with
  the window of undominated ones found so far, O(n log n + n·k·m) for a
  final window of k.  When nothing dominates anything, k = n and the pass is
  quadratic again.

The duplicate screen of :func:`~ladderchoice.model.validate_task` is linear
too: it groups alternatives by their tuple of value keys.
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


def _signed_vectors(alts: Iterable[Alternative], attrs: Iterable[int], task: DecisionTask) -> list[tuple]:
    """One ``(category keys, signed coords)`` pair per alternative; :func:`_beats` compares two."""
    polarities = [(aid, task.attribute(aid).polarity) for aid in attrs]
    vectors = []
    for alt in alts:
        labels, coords = [], []
        for aid, polarity in polarities:
            value = alt.values[aid]
            if value.key[0] == "c":
                labels.append(value.key)
            else:
                coords += signed_coords(value, polarity)
        vectors.append((tuple(labels), tuple(coords)))
    return vectors


def _beats(s: tuple, t: tuple) -> bool:
    """Strict dominance: equal category keys, different coords, and no coord of ``s`` smaller."""
    return s[0] == t[0] and s[1] != t[1] and all(map(ge, s[1], t[1]))


def dominates(s: Alternative, t: Alternative, attrs: Iterable[int], task: DecisionTask) -> bool:
    """Strict dominance of ``s`` over ``t`` on the given attributes.

    Requires ``s`` to be at least as good as ``t`` on every attribute and
    strictly better on at least one; any Incomparable or Worse attribute
    breaks dominance.
    """
    return _beats(*_signed_vectors((s, t), attrs, task))


def dominant_set(
    candidates: Sequence[str],
    attrs: Iterable[int],
    mode: DominanceMode,
    task: DecisionTask,
) -> tuple[str, ...]:
    """Filter candidate ids by dominance on one attribute group, preserving order.

    UNDOMINATED keeps ids no rival strictly dominates; GLOBAL keeps the id (at
    most one) that strictly dominates every rival.  A lone candidate survives
    in both modes.
    """
    alts = [task.alternative(cid) for cid in candidates]
    if len(alts) < 2:
        return tuple(candidates)
    vectors = _signed_vectors(alts, attrs, task)
    if mode is DominanceMode.UNDOMINATED:
        # descending order puts every dominator first, and each dominated
        # candidate has an undominated dominator, so the window is enough
        kept = [False] * len(vectors)
        window: list[tuple] = []
        for i in sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True):
            if not any(_beats(w, vectors[i]) for w in window):
                window.append(vectors[i])
                kept[i] = True
        return tuple(cid for cid, keep in zip(candidates, kept) if keep)
    champion = 0
    for i in range(1, len(vectors)):
        if not _beats(vectors[champion], vectors[i]):
            champion = i
    best = candidates[champion]
    if all(_beats(vectors[champion], v) for cid, v in zip(candidates, vectors) if cid != best):
        return tuple(cid for cid in candidates if cid == best)
    return ()


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
