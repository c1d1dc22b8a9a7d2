"""Naive reference implementations and a seeded task generator for cross-checking.

Everything here is a deliberately plain transcription of the decision rules,
re-deriving value comparison and threshold checks from scratch: nothing is
imported from the engine modules, so agreement between the two paths is a
meaningful check rather than a tautology.  Speed is a non-goal.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Iterable, Sequence

from .model import (
    Alternative,
    Attribute,
    AttributeValue,
    DecisionTask,
    DominancePartition,
    Threshold,
    at_least,
    category,
    crisp,
    interval,
    ordinal,
    validate_task,
)

# ---------------------------------------------------------------------------
# naive re-derivations (duplicated on purpose; see module docstring)


def _naive_bounds(v: AttributeValue) -> tuple[float, float]:
    if v.kind == "crisp":
        return (v.lo, v.lo)
    if v.kind == "interval":
        return (v.lo, v.hi)
    return (v.lo, math.inf)


def _naive_weakly_better(a: AttributeValue, b: AttributeValue, polarity: str) -> bool:
    # "a is at least as good as b": equal, or better in the polarity's direction
    if a.kind == "category" or b.kind == "category":
        return a.label == b.label
    if a.kind == "ordinal":
        if polarity == "benefit":
            return a.level >= b.level
        return a.level <= b.level
    lo_a, hi_a = _naive_bounds(a)
    lo_b, hi_b = _naive_bounds(b)
    if polarity == "benefit":
        return lo_a >= lo_b and hi_a >= hi_b
    return lo_a <= lo_b and hi_a <= hi_b


def _naive_strictly_better(a: AttributeValue, b: AttributeValue, polarity: str) -> bool:
    if a.kind == "category" or b.kind == "category":
        return False
    if a.kind == "ordinal":
        return a.level > b.level if polarity == "benefit" else a.level < b.level
    return _naive_weakly_better(a, b, polarity) and _naive_bounds(a) != _naive_bounds(b)


def _naive_passes(v: AttributeValue, t: Threshold) -> bool:
    if t.op == "max":
        return _naive_bounds(v)[0] <= t.bound
    if t.op == "min":
        return _naive_bounds(v)[1] >= t.bound
    if t.op == "min_level":
        return v.level >= t.bound
    if t.op == "max_level":
        return v.level <= t.bound
    return v.label in t.bound


def _naive_dominates(s: Alternative, t: Alternative, attrs: Iterable[int], task: DecisionTask) -> bool:
    attrs = list(attrs)
    pol = {aid: task.attribute(aid).polarity for aid in attrs}
    if not all(_naive_weakly_better(s.values[aid], t.values[aid], pol[aid]) for aid in attrs):
        return False
    return any(_naive_strictly_better(s.values[aid], t.values[aid], pol[aid]) for aid in attrs)


def _check_mode(mode: str) -> None:
    if mode not in ("global", "undominated"):
        raise ValueError(f"mode must be 'global' or 'undominated', got {mode!r}")


def brute_force_dominant(
    candidates: Sequence[str], attrs: Iterable[int], mode: str, task: DecisionTask
) -> tuple[str, ...]:
    """Exhaustive pairwise dominance filter; ``mode`` is 'global' or 'undominated', anything else a ``ValueError``."""
    _check_mode(mode)
    attrs = list(attrs)
    alts = {cid: task.alternative(cid) for cid in candidates}
    kept = []
    for cid in candidates:
        others = [o for o in candidates if o != cid]
        if mode == "global":
            if all(_naive_dominates(alts[cid], alts[o], attrs, task) for o in others):
                kept.append(cid)
        else:
            if not any(_naive_dominates(alts[o], alts[cid], attrs, task) for o in others):
                kept.append(cid)
    return tuple(kept)


def brute_force_lt(task: DecisionTask, mode: str = "global") -> tuple[str, str | None]:
    """Re-run the whole sift-then-ladder pipeline with nested loops.

    Returns (verdict name, chosen id or None); ``mode`` is as in
    :func:`brute_force_dominant`.  The sift loop repeats until no alternative
    can be removed, following the fixed-point phrasing rather than the
    engine's single pass.
    """
    _check_mode(mode)
    pool = list(task.alternatives)
    while True:
        removed = [
            alt for alt in pool if any(not _naive_passes(alt.values[t.attribute_id], t) for t in task.thresholds)
        ]
        if not removed:
            break
        pool = [alt for alt in pool if alt not in removed]

    if not pool:
        return ("Abstain", None)
    if len(pool) == 1:
        only = pool[0]
        if task.aspiration is not None:
            if not all(_naive_passes(only.values[t.attribute_id], t) for t in task.aspiration):
                return ("Abstain", None)
        return ("Chosen", only.id)

    survivors = [alt.id for alt in pool]
    for r in range(task.partition.level_count, 0, -1):
        survivors = list(brute_force_dominant(survivors, task.partition.level(r), mode, task))
        if len(survivors) == 1:
            return ("Chosen", survivors[0])
        if not survivors:
            return ("Repartition", None)
    return ("NoUniqueChoice", None)


# ---------------------------------------------------------------------------
# seeded task generator

KIND_MIX = (("numeric", 0.5), ("ordinal", 0.3), ("categorical", 0.2))
TOTAL_ORDER_MIX = (("numeric", 0.6), ("ordinal", 0.4))
CATEGORY_POOL = ("red", "blue", "white", "green", "black")


def _pick_kind(rng: random.Random, mix) -> str:
    roll = rng.random()
    acc = 0.0
    for kind, weight in mix:
        acc += weight
        if roll < acc:
            return kind
    return mix[-1][0]


def _random_value(rng: random.Random, attr: Attribute, total_order_only: bool) -> AttributeValue:
    if attr.kind == "ordinal":
        return ordinal(rng.randint(1, 5))
    if attr.kind == "categorical":
        return category(rng.choice(CATEGORY_POOL))
    if total_order_only:
        return crisp(rng.randint(0, 20))
    shape = rng.random()
    if shape < 0.5:
        return crisp(rng.randint(0, 20))
    if shape < 0.8:
        lo = rng.randint(0, 15)
        return interval(lo, lo + rng.randint(0, 8))
    return at_least(rng.randint(0, 20))


@functools.lru_cache(maxsize=None)
def _value_domain(kind: str, total_order_only: bool) -> tuple[AttributeValue, ...]:
    """Every value :func:`_random_value` can draw for an attribute of ``kind``, one per canonical key."""
    if kind == "ordinal":
        drawable = [ordinal(level) for level in range(1, 6)]
    elif kind == "categorical":
        drawable = [category(label) for label in CATEGORY_POOL]
    else:
        drawable = [crisp(x) for x in range(21)]
        if not total_order_only:
            drawable += [interval(lo, lo + width) for lo in range(16) for width in range(9)]
            drawable += [at_least(x) for x in range(21)]
    domain: dict[tuple, AttributeValue] = {}
    for value in drawable:
        domain.setdefault(value.key, value)
    return tuple(domain.values())


def _random_threshold(rng: random.Random, attr: Attribute) -> Threshold:
    # loose bounds so the feasible set is rarely empty
    if attr.kind == "numeric":
        if attr.polarity == "cost":
            return Threshold(attr.id, "max", rng.randint(12, 25))
        return Threshold(attr.id, "min", rng.randint(0, 6))
    if attr.kind == "ordinal":
        if attr.polarity == "cost":
            return Threshold(attr.id, "max_level", rng.randint(3, 5))
        return Threshold(attr.id, "min_level", rng.randint(1, 3))
    picked = rng.sample(CATEGORY_POOL, k=rng.randint(3, len(CATEGORY_POOL)))
    return Threshold(attr.id, "allowed", frozenset(picked))


def random_task(
    seed: int,
    n_alternatives: int = 4,
    n_attributes: int = 4,
    n_levels: int = 2,
    total_order_only: bool = False,
) -> DecisionTask:
    """Deterministic random task; same seed, same task, always validator-clean.

    ``total_order_only`` restricts values to crisp numbers and ordinals so
    every per-attribute comparison is a total order.  Alternatives that would
    duplicate an earlier one are resampled; if a thousand draws in a row are
    all taken, the rest are drawn without replacement from the value vectors
    still free.  When the drawn attributes cannot tell the requested number
    of alternatives apart (e.g. one ordinal attribute has only five distinct
    values), the count is capped at the number of distinguishable value
    vectors.
    """
    if n_alternatives < 1 or n_attributes < 1 or n_levels < 1:
        raise ValueError("dimensions must be positive")
    rng = random.Random(seed)
    mix = TOTAL_ORDER_MIX if total_order_only else KIND_MIX

    attributes = []
    for aid in range(1, n_attributes + 1):
        kind = _pick_kind(rng, mix)
        polarity = "none" if kind == "categorical" else rng.choice(("cost", "benefit"))
        attributes.append(Attribute(id=aid, name=f"a{aid}", kind=kind, polarity=polarity))

    capacity = 1
    for attr in attributes:
        capacity *= len(_value_domain(attr.kind, total_order_only))
        if capacity >= n_alternatives:
            break
    n_alternatives = min(n_alternatives, capacity)

    ids = [a.id for a in attributes]
    n_levels = min(n_levels, n_attributes)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, n_attributes), k=n_levels - 1)) if n_levels > 1 else []
    levels = []
    start = 0
    for cut in cuts + [n_attributes]:
        levels.append(shuffled[start:cut])
        start = cut
    partition = DominancePartition(levels)

    # every attribute is screened, so the basic and dominance sets overlap fully
    basic_ids = frozenset(ids)
    thresholds = tuple(_random_threshold(rng, a) for a in attributes)

    alternatives: list[Alternative] = []
    seen: set[tuple] = set()
    unused: list[tuple[AttributeValue, ...]] | None = None
    for index in range(n_alternatives):
        if unused is None:
            for _ in range(1000):
                values = {a.id: _random_value(rng, a, total_order_only) for a in attributes}
                if tuple(values[aid].key for aid in ids) not in seen:
                    break
            else:
                # rejection sampling stalls once nearly every value vector is
                # taken: draw the rest without replacement from the free ones
                domains = [_value_domain(a.kind, total_order_only) for a in attributes]
                unused = [
                    vector
                    for vector in itertools.product(*domains)
                    if tuple(v.key for v in vector) not in seen
                ]
        if unused is not None:
            values = dict(zip(ids, unused.pop(rng.randrange(len(unused)))))
        seen.add(tuple(values[aid].key for aid in ids))
        alternatives.append(Alternative(id=f"alt{index + 1}", values=values))

    task = DecisionTask(
        task_id=f"random-{seed}",
        attributes=tuple(attributes),
        basic_ids=basic_ids,
        thresholds=thresholds,
        partition=partition,
        alternatives=tuple(alternatives),
    )
    assert not validate_task(task), f"generator produced an invalid task for seed {seed}"
    return task
