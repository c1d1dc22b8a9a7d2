"""Seeded scenario generator for the benchmark; standard library only.

The benchmark hands the engine nothing but the text this module writes, so
the engine's own generator (``oracle.random_task``) is not used: it screens
duplicates pairwise and validates every task, which costs seconds at
n = 1000.  Here duplicates are rejected in linear time through a set of value
keys, and a task is never validated while it is generated.

Deliberately invalid scenarios are made by mutating a valid one in a way
whose ``ScenarioError`` category is known in advance.  For the mutations that
``validate_task`` rejects, the valid text is kept too, so a traced run can
time ``validate_task`` on a task of the same size.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

LABELS = ("very_low", "low", "moderate", "high", "very_high")
CATEGORY_POOL = ("red", "blue", "white", "green", "black")
NUMERIC_TOP = 100

# category -> the mutation that produces it; the last four are caught by
# validate_task, the first three while the text is decoded or converted
INVALID_KINDS = (
    "syntax",
    "schema",
    "value",
    "unknown-reference",
    "kind-mismatch",
    "duplicate-id",
    "duplicate-alternative",
)


@dataclass(frozen=True)
class Settings:
    """What a batch of generated scenarios looks like.

    ``sizes`` are alternative counts, drawn at random or, with
    ``cycle_sizes``, taken in turn.  ``kind_mix`` weights the attribute
    kinds; each scenario gets the kind counts closest to those weights.
    Without ``partial_order`` numeric values are crisp, so every numeric and
    ordinal attribute is totally ordered.  ``loose`` thresholds pass nearly
    every alternative; realistic ones pass about four in five per attribute
    and may add an aspiration block.  ``invalid_share`` of the scenarios, one
    in each block of ``round(1 / invalid_share)``, is mutated into one of
    ``invalid_kinds``.
    """

    sizes: Sequence[int]
    n_attributes: tuple[int, int]
    n_levels: tuple[int, int] = (1, 3)
    kind_mix: tuple[tuple[str, float], ...] = (("numeric", 0.5), ("ordinal", 0.3), ("categorical", 0.2))
    cycle_sizes: bool = False
    partial_order: bool = True
    loose: bool = False
    invalid_share: float = 0.0
    invalid_kinds: tuple[str, ...] = INVALID_KINDS

    def __post_init__(self) -> None:
        if not self.sizes or min(self.sizes) < 2:
            raise ValueError("sizes must be alternative counts of at least 2")
        lo, hi = self.n_attributes
        if not 1 <= lo <= hi:
            raise ValueError("n_attributes must be a range of positive counts")
        if not 1 <= self.n_levels[0] <= min(self.n_levels[1], lo):
            raise ValueError("n_levels must be a range of positive counts no larger than n_attributes")
        if not 0.0 <= self.invalid_share <= 0.5:
            raise ValueError("invalid_share must lie in [0, 0.5]")
        unknown = set(self.invalid_kinds) - set(INVALID_KINDS)
        if unknown or not self.invalid_kinds:
            raise ValueError(f"invalid_kinds must be drawn from {INVALID_KINDS}")


@dataclass(frozen=True)
class Scenario:
    """One generated scenario text and what parsing it must do.

    ``expected`` is None for a valid scenario, else the ``ScenarioError``
    category it must raise.  ``base`` is the valid text the scenario was
    mutated from, set when that error comes from ``validate_task``.
    """

    text: str
    expected: Optional[str] = None
    base: Optional[str] = None


def _kind_counts(mix, m: int) -> list[str]:
    """``m`` kinds in the proportions of ``mix`` (largest remainder), in ``mix`` order.

    The order is fixed because ``validate_task`` compares attribute 1 first:
    shuffling would make its cost vary from seed to seed with that kind.
    """
    total = sum(weight for _, weight in mix)
    shares = [(kind, m * weight / total) for kind, weight in mix]
    counts = {kind: int(share) for kind, share in shares}
    by_remainder = sorted(shares, key=lambda ks: ks[1] - int(ks[1]), reverse=True)
    for kind, _ in by_remainder[: m - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind, _ in mix for _ in range(counts[kind])]


def _value(rng: random.Random, kind: str, partial_order: bool) -> tuple[object, tuple]:
    """A JSON value of the given attribute kind and its comparison key."""
    if kind == "ordinal":
        level = rng.randint(1, 5)
        payload = LABELS[level - 1] if rng.random() < 0.8 else level
        return {"ordinal": payload}, ("o", level)
    if kind == "categorical":
        label = rng.choice(CATEGORY_POOL)
        return {"category": label}, ("c", label)
    shape = rng.random() if partial_order else 0.0
    lo = rng.randint(0, NUMERIC_TOP)
    if shape < 0.5:
        return lo, ("n", lo, lo)
    if shape < 0.8:
        hi = lo + rng.randint(0, NUMERIC_TOP // 5)
        return {"interval": [lo, hi]}, ("n", lo, hi)
    return {"at_least": lo}, ("n", lo, None)


def _threshold(rng: random.Random, attr: dict, loose: bool) -> dict:
    kind, polarity = attr["kind"], attr["polarity"]
    if kind == "numeric":
        if polarity == "cost":
            low = NUMERIC_TOP * 95 // 100 if loose else NUMERIC_TOP * 7 // 10
            return {"max": rng.randint(low, NUMERIC_TOP)}
        return {"min": rng.randint(0, NUMERIC_TOP * (5 if loose else 30) // 100)}
    if kind == "ordinal":
        if polarity == "cost":
            return {"max_level": 5 if loose else rng.randint(4, 5)}
        return {"min_level": 1 if loose else rng.randint(1, 2)}
    keep = len(CATEGORY_POOL) if loose else rng.randint(len(CATEGORY_POOL) - 1, len(CATEGORY_POOL))
    return {"allowed": sorted(rng.sample(CATEGORY_POOL, keep))}


def _capacity(kinds: Sequence[str]) -> int:
    capacity = 1
    for kind in kinds:
        capacity *= NUMERIC_TOP + 1 if kind == "numeric" else len(CATEGORY_POOL)
    return capacity


def _valid_doc(rng: random.Random, settings: Settings, task_id: str, n: int) -> dict:
    m = rng.randint(*settings.n_attributes)
    kinds = _kind_counts(settings.kind_mix, m)
    attributes = [
        {
            "id": aid,
            "name": f"x{aid}",
            "kind": kind,
            "polarity": "none" if kind == "categorical" else rng.choice(("cost", "benefit")),
        }
        for aid, kind in enumerate(kinds, start=1)
    ]
    ids = [attr["id"] for attr in attributes]

    levels = _levels(rng, ids, settings.n_levels)
    # the partition covers every attribute, so any basic subset is valid
    basic_ids = sorted(rng.sample(ids, rng.randint(1, m)))
    by_id = {attr["id"]: attr for attr in attributes}
    doc = {
        "task_id": task_id,
        "attributes": attributes,
        "basic": {
            "ids": basic_ids,
            "thresholds": {str(aid): _threshold(rng, by_id[aid], settings.loose) for aid in basic_ids},
        },
        "dominance": {"levels": levels},
    }
    if not settings.loose and rng.random() < 0.25:
        aid = rng.choice(levels[-1])
        doc["aspiration"] = {str(aid): _threshold(rng, by_id[aid], False)}

    n = min(n, _capacity(kinds) // 2)
    seen: set[tuple] = set()
    alternatives = []
    while len(alternatives) < n:
        drawn = [_value(rng, kind, settings.partial_order) for kind in kinds]
        key = tuple(k for _, k in drawn)
        if key in seen:
            continue
        seen.add(key)
        values = {str(aid): payload for aid, (payload, _) in zip(ids, drawn)}
        alternatives.append({"id": f"a{len(alternatives) + 1}", "values": values})
    doc["alternatives"] = alternatives
    return doc


def _mutate(rng: random.Random, doc: dict, kind: str) -> Scenario:
    """Turn a valid document into a scenario that must fail with category ``kind``."""
    base = json.dumps(doc)
    alternatives = doc["alternatives"]
    if kind == "syntax":
        return Scenario(base[: rng.randint(1, len(base) - 1)], kind)
    if kind == "schema":
        del doc["dominance"]
        return Scenario(json.dumps(doc), kind)
    if kind == "value":
        alt = rng.choice(alternatives)
        alt["values"][rng.choice(list(alt["values"]))] = {"interval": [2, 1]}
        return Scenario(json.dumps(doc), kind)

    if kind == "unknown-reference":
        doc["dominance"]["levels"][-1].append(len(doc["attributes"]) + 1)
    elif kind == "kind-mismatch":
        values = rng.choice(alternatives)["values"]
        attr = rng.choice(doc["attributes"])
        values[str(attr["id"])] = {"category": "red"} if attr["kind"] == "numeric" else 5
    else:
        source = rng.randrange(len(alternatives))
        position = rng.randint(0, len(alternatives))
        copy = {"id": alternatives[source]["id"], "values": dict(alternatives[source]["values"])}
        if kind == "duplicate-alternative":
            copy["id"] = "dup"
        alternatives.insert(position, copy)
    return Scenario(json.dumps(doc), kind, base=base)


def generate(seed: int, settings: Settings, count: int) -> list[Scenario]:
    """``count`` scenarios; the same seed and settings give byte-identical text."""
    rng = random.Random(seed)
    block = round(1 / settings.invalid_share) if settings.invalid_share else 0
    scenarios = []
    for index in range(count):
        if block and index % block == 0:
            invalid_at = index + rng.randrange(block)
        n = settings.sizes[index % len(settings.sizes)] if settings.cycle_sizes else rng.choice(settings.sizes)
        doc = _valid_doc(rng, settings, f"s{seed}-{index}", n)
        if block and index == invalid_at:
            scenarios.append(_mutate(rng, doc, rng.choice(settings.invalid_kinds)))
        else:
            scenarios.append(Scenario(json.dumps(doc)))
    return scenarios


def _levels(rng: random.Random, attribute_ids: Sequence[int], n_levels: tuple[int, int]) -> list[list[int]]:
    """A seeded grouping of every attribute into importance levels."""
    ids = list(attribute_ids)
    rng.shuffle(ids)
    count = rng.randint(n_levels[0], min(n_levels[1], len(ids)))
    cuts = sorted(rng.sample(range(1, len(ids)), count - 1)) + [len(ids)]
    return [sorted(ids[start:cut]) for start, cut in zip([0] + cuts, cuts)]


def groupings(attribute_ids: Sequence[int], max_levels: int) -> list[list[list[int]]]:
    """Every grouping of all the attributes into 1..max_levels ordered, non-empty levels."""
    ids = list(attribute_ids)
    found = set()
    for labels in itertools.product(range(max_levels), repeat=len(ids)):
        used = sorted(set(labels))
        found.add(tuple(tuple(aid for aid, label in zip(ids, labels) if label == u) for u in used))
    return [[list(level) for level in grouping] for grouping in sorted(found)]
