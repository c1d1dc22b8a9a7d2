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

Cost of one rung over n candidates and m attributes, with :func:`dominates`
the only dominance predicate:

* ``GLOBAL`` is a champion scan: keep a candidate, replace it whenever it
  fails to dominate the next one, then check the survivor against everyone,
  O(n·m).
* ``UNDOMINATED`` is Sort-Filter-Skyline (Chomicki et al., ICDE 2003):
  presort by a score that strictly rises under dominance, then compare each
  candidate only with the window of undominated ones found so far,
  O(n log n + n·k·m) for a final window of k.  When nothing dominates
  anything, k = n and the pass is quadratic again.

The duplicate screen of :func:`~ladderchoice.model.validate_task` is linear
too: it groups alternatives by their tuple of value keys.
"""

from __future__ import annotations

from enum import Enum
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
from .values import PartialOrdering, compare_values, satisfies_threshold


class DominanceMode(Enum):
    GLOBAL = "global"
    UNDOMINATED = "undominated"


def dominates(s: Alternative, t: Alternative, attrs: Iterable[int], task: DecisionTask) -> bool:
    """Strict dominance of ``s`` over ``t`` on the given attributes.

    Requires ``s`` to be at least as good as ``t`` on every attribute and
    strictly better on at least one; any Incomparable or Worse attribute
    breaks dominance.
    """
    strict = False
    for aid in attrs:
        ordering = compare_values(s.values[aid], t.values[aid], task.attribute(aid).polarity)
        if ordering is PartialOrdering.BETTER:
            strict = True
        elif ordering is not PartialOrdering.EQUAL:
            return False
    return strict


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
    attrs = frozenset(attrs)
    alts = [task.alternative(cid) for cid in candidates]
    if len(alts) < 2:
        return tuple(candidates)
    if mode is DominanceMode.UNDOMINATED:
        kept = _skyline(alts, attrs, task)
        return tuple(cid for cid, keep in zip(candidates, kept) if keep)
    champion = alts[0]
    for alt in alts[1:]:
        if not dominates(champion, alt, attrs, task):
            champion = alt
    if all(dominates(champion, alt, attrs, task) for alt in alts if alt.id != champion.id):
        return tuple(cid for cid in candidates if cid == champion.id)
    return ()


def _presort_scores(alts: Sequence[Alternative], attrs: frozenset[int], task: DecisionTask) -> list[int]:
    """A score per alternative that strictly rises under strict dominance on ``attrs``.

    Each numeric or ordinal attribute adds, signed by its polarity, the dense
    rank of every coordinate of the value key (``lo`` and ``hi``, or the
    level) among the alternatives.  A dominator is at least as good on every
    coordinate and better on one, so its sum is strictly larger.  Categories
    add 0: a differing label blocks dominance, an equal one adds nothing.
    """
    scores = [0] * len(alts)
    for aid in attrs:
        attr = task.attribute(aid)
        if attr.kind == "categorical":
            continue
        sign = -1 if attr.polarity == "cost" else 1
        for coordinate in zip(*(alt.values[aid].key[1:] for alt in alts)):
            rank = {x: r for r, x in enumerate(sorted(set(coordinate)))}
            for i, x in enumerate(coordinate):
                scores[i] += sign * rank[x]
    return scores


def _skyline(alts: Sequence[Alternative], attrs: frozenset[int], task: DecisionTask) -> list[bool]:
    """Sort-Filter-Skyline: for each alternative, whether no rival strictly dominates it.

    Visiting alternatives by falling presort score puts every dominator before
    what it dominates, and each dominated alternative has an undominated
    dominator (dominance is a strict partial order), so comparing against the
    window of undominated alternatives found so far is enough.
    """
    scores = _presort_scores(alts, attrs, task)
    kept = [False] * len(alts)
    window: list[Alternative] = []
    for i in sorted(range(len(alts)), key=scores.__getitem__, reverse=True):
        if not any(dominates(w, alts[i], attrs, task) for w in window):
            window.append(alts[i])
            kept[i] = True
    return kept


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
