"""Domain types for discrete multi-attribute choice tasks.

A task bundles a set of attributes, a group of "basic" attributes screened
against acceptance thresholds, a partition of "dominance" attributes into
importance levels, and the alternatives to choose between.  All types are
immutable after construction; local field sanity is enforced by the
constructors, while cross-object consistency is reported (never raised) by
:func:`validate_task`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Optional, Union

ORDINAL_LABELS = ("very_low", "low", "moderate", "high", "very_high")
ORDINAL_LEVELS = {label: i + 1 for i, label in enumerate(ORDINAL_LABELS)}

NUMERIC_KINDS = ("crisp", "interval", "at_least")


def _is_int(x: object) -> bool:
    """Whether ``x`` is an ``int`` and not a ``bool``; ``3.0`` is refused, not coerced."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_level(x: object) -> bool:
    """Whether ``x`` is a level of the fixed 1..5 scale."""
    return _is_int(x) and 1 <= x <= 5


def label_level(label: str, extra_labels: Optional[dict[str, int]] = None) -> int:
    """Level of a scale label: an attribute's declared extra label, else one of the five built-in ones."""
    if extra_labels and label in extra_labels:
        return extra_labels[label]
    if label not in ORDINAL_LEVELS:
        raise ValueError(f"unknown ordinal label {label!r}")
    return ORDINAL_LEVELS[label]


@dataclass(frozen=True)
class AttributeValue:
    """Tagged value an alternative can take on one attribute.

    Exactly one of five shapes: a crisp number, a closed interval, an open
    lower bound ("at least x"), an ordinal level on the fixed 1..5 scale, or
    a categorical label.  Use the module factories :func:`crisp`,
    :func:`interval`, :func:`at_least`, :func:`ordinal` and :func:`category`
    rather than the raw constructor.
    """

    kind: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    level: Optional[int] = None
    label: Optional[str] = None
    # canonical equality key: ("n", lo, hi) for the numeric shapes, ("o", level)
    # or ("c", label); two values are semantically equal exactly when their keys are
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "crisp":
            if self.lo is None or not math.isfinite(self.lo):
                raise ValueError("crisp value must be a finite number")
            key = ("n", self.lo, self.lo)
        elif self.kind == "interval":
            if self.lo is None or self.hi is None:
                raise ValueError("interval needs both bounds")
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise ValueError("interval bounds must be finite")
            if self.lo > self.hi:
                raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")
            key = ("n", self.lo, self.hi)
        elif self.kind == "at_least":
            if self.lo is None or not math.isfinite(self.lo):
                raise ValueError("at_least needs a finite lower bound")
            key = ("n", self.lo, math.inf)
        elif self.kind == "ordinal":
            if not _is_level(self.level):
                raise ValueError(f"ordinal level must be in 1..5, got {self.level!r}")
            key = ("o", self.level)
        elif self.kind == "category":
            if not isinstance(self.label, str):
                raise ValueError(f"category label must be a string, got {self.label!r}")
            if not self.label:
                raise ValueError("category needs a non-empty label")
            key = ("c", self.label)
        else:
            raise ValueError(f"unknown value kind {self.kind!r}")
        object.__setattr__(self, "key", key)

    @property
    def is_numeric(self) -> bool:
        return self.kind in NUMERIC_KINDS

    def bounds(self) -> tuple[float, float]:
        """Numeric values as a (lo, hi) pair; crisp is degenerate, at_least is unbounded above."""
        if self.key[0] != "n":
            raise ValueError(f"{self.kind} value has no numeric bounds")
        return self.key[1:]

    def __str__(self) -> str:
        if self.kind == "crisp":
            return format_number(self.lo)
        if self.kind == "interval":
            return f"[{format_number(self.lo)},{format_number(self.hi)}]"
        if self.kind == "at_least":
            return f">={format_number(self.lo)}"
        if self.kind == "ordinal":
            return f"ordinal({self.level})"
        return f"category({self.label})"


def format_number(x: float) -> str:
    """Render a number without a trailing '.0' when it is integral."""
    if isinstance(x, float) and x.is_integer() and math.isfinite(x):
        return str(int(x))
    return str(x)


def _as_number(x: object, what: str) -> float:
    """``x`` as a float; booleans, anything but an int or a float, and ints beyond float range are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} must be a finite number, got an integer too large for a float") from None


def crisp(x: float) -> AttributeValue:
    return AttributeValue("crisp", lo=_as_number(x, "crisp value"))


def interval(lo: float, hi: float) -> AttributeValue:
    return AttributeValue("interval", lo=_as_number(lo, "interval bound"), hi=_as_number(hi, "interval bound"))


def at_least(x: float) -> AttributeValue:
    return AttributeValue("at_least", lo=_as_number(x, "at_least bound"))


def ordinal(level_or_label: Union[int, str]) -> AttributeValue:
    """Build an ordinal value from a level (1..5) or a canonical scale label."""
    if isinstance(level_or_label, str):
        level_or_label = label_level(level_or_label)
    return AttributeValue("ordinal", level=level_or_label)


def category(label: str) -> AttributeValue:
    return AttributeValue("category", label=label)


def values_equal(a: AttributeValue, b: AttributeValue) -> bool:
    """Semantic equality: numeric shapes agree on bounds, ordinals on level, categories on label.

    A crisp number equals the degenerate interval with the same endpoints.
    Values of different families are never equal.
    """
    return a.key == b.key


@dataclass(frozen=True)
class Attribute:
    """One criterion of the task: numeric, ordinal (1..5 scale) or categorical.

    Polarity records which direction is preferable: cost (smaller is better),
    benefit (larger is better), or none for categorical attributes.
    """

    id: int
    name: str
    kind: str
    polarity: str
    unit: Optional[str] = None
    labels: Optional[dict[str, int]] = None  # extra ordinal labels -> level, beyond the built-in five

    def __post_init__(self) -> None:
        if not _is_int(self.id) or self.id <= 0:
            raise ValueError(f"attribute id must be a positive integer, got {self.id!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"attribute name must be a string, got {self.name!r}")
        if self.unit is not None and not isinstance(self.unit, str):
            raise ValueError(f"attribute unit must be a string, got {self.unit!r}")
        if self.kind not in ("numeric", "ordinal", "categorical"):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "categorical":
            if self.polarity != "none":
                raise ValueError(f"categorical attribute {self.id} must have polarity 'none'")
        elif self.polarity not in ("cost", "benefit"):
            raise ValueError(f"attribute {self.id} ({self.kind}) needs polarity 'cost' or 'benefit'")
        if self.labels is not None:
            for lab, lvl in self.labels.items():
                if not _is_level(lvl):
                    raise ValueError(f"label {lab!r} maps to level {lvl!r}, expected 1..5")


THRESHOLD_OPS = ("max", "min", "min_level", "max_level", "allowed")

# which predicate ops make sense for which attribute kind
_OPS_FOR_KIND = {
    "numeric": ("max", "min"),
    "ordinal": ("min_level", "max_level"),
    "categorical": ("allowed",),
}

# which value kinds an attribute of each kind can carry
_VALUE_KINDS_FOR_KIND = {
    "numeric": NUMERIC_KINDS,
    "ordinal": ("ordinal",),
    "categorical": ("category",),
}


@dataclass(frozen=True)
class Threshold:
    """Acceptance predicate on one attribute.

    Ops: ``max``/``min`` bound a numeric value, ``min_level``/``max_level``
    bound an ordinal level, ``allowed`` lists admissible category labels.
    """

    attribute_id: int
    op: str
    bound: Union[float, int, frozenset[str]] = 0.0

    def __post_init__(self) -> None:
        if self.op not in THRESHOLD_OPS:
            raise ValueError(f"unknown threshold op {self.op!r}")
        if self.op in ("max", "min"):
            bound = _as_number(self.bound, f"{self.op} threshold bound")
            if not math.isfinite(bound):
                raise ValueError(f"{self.op} threshold needs a finite numeric bound")
            object.__setattr__(self, "bound", bound)
        elif self.op in ("min_level", "max_level"):
            if not _is_level(self.bound):
                raise ValueError(f"{self.op} threshold needs a level in 1..5, got {self.bound!r}")
        else:
            if isinstance(self.bound, (str, dict)):
                raise ValueError(f"allowed threshold needs a list of labels, got {self.bound!r}")
            labels = frozenset(self.bound)
            if not labels or not all(isinstance(lab, str) for lab in labels):
                raise ValueError("allowed threshold needs a non-empty set of labels")
            object.__setattr__(self, "bound", labels)

    def __str__(self) -> str:
        if self.op == "allowed":
            return f"allowed {{{','.join(sorted(self.bound))}}}"
        return f"{self.op} {format_number(self.bound)}"


@dataclass(frozen=True)
class DominancePartition:
    """Dominance attributes grouped into importance levels, least important first.

    ``levels[0]`` is the least important group and ``levels[-1]`` the most
    important one; the ladder search walks them top-down.  Disjointness across
    levels is a task invariant checked by :func:`validate_task`.
    """

    levels: tuple[frozenset[int], ...]

    def __init__(self, levels) -> None:
        raw = tuple(tuple(level) for level in levels)
        for level in raw:
            for aid in level:
                if not _is_int(aid):
                    raise ValueError(f"partition entries must be integer attribute ids, got {aid!r}")
        normalized = tuple(frozenset(level) for level in raw)
        if not normalized:
            raise ValueError("partition needs at least one level")
        if any(not level for level in normalized):
            raise ValueError("partition levels must be non-empty")
        object.__setattr__(self, "levels", normalized)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def level(self, r: int) -> frozenset[int]:
        """Attribute ids at importance rank ``r`` (1 = least important)."""
        return self.levels[r - 1]

    def all_ids(self) -> frozenset[int]:
        return frozenset().union(*self.levels)


@dataclass(frozen=True)
class Alternative:
    """A candidate plan: an id plus one value per task attribute."""

    id: str
    values: dict[int, AttributeValue]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"alternative needs a non-empty string id, got {self.id!r}")


@dataclass(frozen=True)
class DecisionTask:
    """A full choice task: attributes, screening thresholds, importance ladder, alternatives.

    ``basic_ids`` names the attributes screened during sifting; ``thresholds``
    must cover exactly those ids.  ``partition`` groups the dominance
    attributes; the two id sets may overlap or coincide.  ``aspiration``
    optionally sets the accept/abstain standard applied when sifting leaves a
    single alternative, restricted to the top partition level.
    """

    task_id: str
    attributes: tuple[Attribute, ...]
    basic_ids: frozenset[int]
    thresholds: tuple[Threshold, ...]
    partition: DominancePartition
    alternatives: tuple[Alternative, ...]
    aspiration: Optional[tuple[Threshold, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.task_id, str):
            raise ValueError(f"task_id must be a string, got {self.task_id!r}")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        basic_ids = tuple(self.basic_ids)
        for aid in basic_ids:
            if not _is_int(aid):
                raise ValueError(f"basic ids must be integer attribute ids, got {aid!r}")
        object.__setattr__(self, "basic_ids", frozenset(basic_ids))
        object.__setattr__(
            self, "thresholds", tuple(sorted(self.thresholds, key=lambda t: t.attribute_id))
        )
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if self.aspiration is not None:
            object.__setattr__(
                self, "aspiration", tuple(sorted(self.aspiration, key=lambda t: t.attribute_id))
            )

    @cached_property
    def _by_id(self) -> dict[int, Attribute]:
        return {a.id: a for a in self.attributes}

    def attribute(self, attribute_id: int) -> Attribute:
        return self._by_id[attribute_id]

    def attribute_ids(self) -> frozenset[int]:
        return frozenset(a.id for a in self.attributes)

    @cached_property
    def _alternative_by_id(self) -> dict[str, Alternative]:
        index: dict[str, Alternative] = {}
        for alt in self.alternatives:
            index.setdefault(alt.id, alt)
        return index

    def alternative(self, alt_id: str) -> Alternative:
        """The first alternative with this id; ``KeyError`` if there is none."""
        return self._alternative_by_id[alt_id]


@dataclass(frozen=True)
class Elimination:
    """Audit record for one rejected (alternative, attribute) pair during sifting."""

    alternative_id: str
    attribute_id: int
    threshold: Threshold
    value: AttributeValue


@dataclass(frozen=True)
class SiftResult:
    """Outcome of the sifting stage: surviving ids in input order plus all eliminations."""

    feasible: tuple[str, ...]
    eliminations: tuple[Elimination, ...]

    def eliminated_ids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(e.alternative_id for e in self.eliminations))


class Verdict(Enum):
    CHOSEN = "Chosen"
    ABSTAIN = "Abstain"
    REPARTITION = "Repartition"
    NO_UNIQUE_CHOICE = "NoUniqueChoice"


@dataclass(frozen=True)
class LevelRecord:
    """Trace entry for one ladder level: which ids entered and which survived."""

    r: int
    attribute_ids: frozenset[int]
    survivors_before: tuple[str, ...]
    survivors_after: tuple[str, ...]


@dataclass(frozen=True)
class LadderOutcome:
    """Final verdict of the ladder search plus its per-level trace."""

    verdict: Verdict
    chosen: Optional[str] = None
    trace: tuple[LevelRecord, ...] = ()

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.CHOSEN) != (self.chosen is not None):
            raise ValueError("chosen id is set exactly when the verdict is Chosen")


@dataclass(frozen=True)
class Violation:
    """One validator finding; ``code`` is stable, ``message`` is for humans."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def _threshold_kind_matches(attr: Attribute, t: Threshold) -> bool:
    return t.op in _OPS_FOR_KIND[attr.kind]


def validate_task(task: DecisionTask) -> list[Violation]:
    """Check every cross-object task invariant; returns findings instead of raising.

    An empty list means the task is well-formed: unique ids, thresholds
    covering exactly the basic attributes with matching kinds, disjoint
    partition levels referencing known attributes, basic and dominance sets
    jointly covering every attribute, aspiration restricted to the top level,
    complete kind-consistent value vectors, and no two alternatives with
    completely equal value vectors.
    """
    violations: list[Violation] = []

    ids_seen: set[int] = set()
    for attr in task.attributes:
        if attr.id in ids_seen:
            violations.append(Violation("duplicate-attribute-id", f"attribute id {attr.id} declared twice"))
        ids_seen.add(attr.id)
    all_ids = frozenset(ids_seen)

    for aid in sorted(task.basic_ids):
        if aid not in all_ids:
            violations.append(Violation("unknown-reference", f"basic attribute {aid} is not declared"))

    partition_ids: set[int] = set()
    for index, level in enumerate(task.partition.levels, start=1):
        overlap = partition_ids & level
        if overlap:
            violations.append(
                Violation(
                    "partition-overlap",
                    f"level {index} repeats attribute id(s) {sorted(overlap)} from an earlier level",
                )
            )
        partition_ids |= level
        for aid in sorted(level):
            if aid not in all_ids:
                violations.append(
                    Violation("unknown-reference", f"partition level {index} references undeclared attribute {aid}")
                )

    uncovered = all_ids - (task.basic_ids | partition_ids)
    if uncovered:
        violations.append(
            Violation(
                "coverage",
                f"attribute id(s) {sorted(uncovered)} belong to neither the basic set nor the partition",
            )
        )

    thresholded = [t.attribute_id for t in task.thresholds]
    if len(set(thresholded)) != len(thresholded):
        dupes = sorted({aid for aid in thresholded if thresholded.count(aid) > 1})
        violations.append(Violation("threshold-coverage", f"multiple thresholds for attribute(s) {dupes}"))
    missing = task.basic_ids - set(thresholded)
    if missing:
        violations.append(Violation("threshold-coverage", f"basic attribute(s) {sorted(missing)} lack a threshold"))
    extra = set(thresholded) - task.basic_ids
    if extra:
        violations.append(Violation("threshold-coverage", f"threshold(s) on non-basic attribute(s) {sorted(extra)}"))

    for t in task.thresholds:
        attr = task._by_id.get(t.attribute_id)
        if attr is not None and not _threshold_kind_matches(attr, t):
            violations.append(
                Violation(
                    "kind-mismatch",
                    f"threshold '{t}' does not fit {attr.kind} attribute {attr.id} ({attr.name})",
                )
            )

    if task.aspiration is not None:
        top = task.partition.levels[-1]
        for t in task.aspiration:
            if t.attribute_id not in top:
                violations.append(
                    Violation(
                        "aspiration-level",
                        f"aspiration threshold on attribute {t.attribute_id} is outside the top level {sorted(top)}",
                    )
                )
            attr = task._by_id.get(t.attribute_id)
            if attr is not None and not _threshold_kind_matches(attr, t):
                violations.append(
                    Violation("kind-mismatch", f"aspiration threshold '{t}' does not fit attribute {t.attribute_id}")
                )

    # one pass per alternative: id, coverage and kind checks, and its value-key
    # tuple for the complete-equality screen over basic + dominance attributes;
    # duplicate pairs are reported in (i, j) order over the comparable alternatives
    relevant = (task.basic_ids | partition_ids) & all_ids
    checks = [(aid, attr.kind, _VALUE_KINDS_FOR_KIND[attr.kind]) for aid, attr in sorted(task._by_id.items())]
    screened = sorted(relevant)
    alt_ids_seen: set[str] = set()
    comparable: list[Alternative] = []
    groups: dict[tuple, list[int]] = {}
    for alt in task.alternatives:
        if alt.id in alt_ids_seen:
            violations.append(Violation("duplicate-alternative-id", f"alternative id {alt.id!r} declared twice"))
        alt_ids_seen.add(alt.id)

        values = alt.values
        if values.keys() == all_ids:
            present = checks
            complete = True
        else:
            missing_values = all_ids - values.keys()
            if missing_values:
                violations.append(
                    Violation("missing-value", f"alternative {alt.id!r} lacks value(s) for attribute(s) {sorted(missing_values)}")
                )
            extra_values = values.keys() - all_ids
            if extra_values:
                violations.append(
                    Violation("unknown-reference", f"alternative {alt.id!r} has value(s) for undeclared attribute(s) {sorted(extra_values)}")
                )
            present = [check for check in checks if check[0] in values]
            complete = relevant.isdisjoint(missing_values)
        for aid, attr_kind, value_kinds in present:
            value_kind = values[aid].kind
            if value_kind not in value_kinds:
                violations.append(
                    Violation(
                        "kind-mismatch",
                        f"alternative {alt.id!r} carries a {value_kind} value on {attr_kind} attribute {aid}",
                    )
                )
                if aid in relevant:
                    complete = False
        if complete:
            groups.setdefault(tuple([values[aid].key for aid in screened]), []).append(len(comparable))
            comparable.append(alt)

    pairs = sorted(pair for group in groups.values() for pair in combinations(group, 2))
    for i, j in pairs:
        violations.append(
            Violation(
                "duplicate-alternative",
                f"alternatives {comparable[i].id!r} and {comparable[j].id!r} are completely equal on every screened attribute",
            )
        )

    return violations
