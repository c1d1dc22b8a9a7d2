"""Domain types for discrete multi-attribute choice tasks.

A task bundles a set of attributes, a group of "basic" attributes screened
against acceptance thresholds, a partition of "dominance" attributes into
importance levels, and the alternatives to choose between.  All types are
immutable after construction; local field sanity is enforced by the
constructors, while cross-object consistency is reported (never raised) by
:func:`validate_task`.  A value is its ``kind`` and its ``key``, and the
value factories (:func:`crisp` and its siblings) are its checked builders.

Every value, attribute kind and threshold op belongs to one of three
families, tagged ``"n"`` (numeric), ``"o"`` (ordinal) or ``"c"``
(categorical).  A value's tag is the first item of its ``key``;
:data:`KIND_FAMILY` and :data:`OP_FAMILY` give the tag of an attribute kind
and of a threshold op.  A value or threshold fits an attribute exactly when
their tags agree, and that comparison is the only fit check there is.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, compress, count, repeat
from operator import attrgetter, itemgetter, ne
from typing import Iterable, Optional, Union

ORDINAL_LABELS = ("very_low", "low", "moderate", "high", "very_high")
ORDINAL_LEVELS = {label: i + 1 for i, label in enumerate(ORDINAL_LABELS)}

# family tag of each attribute kind and of each threshold op, matching AttributeValue.key[0]
KIND_FAMILY = {"numeric": "n", "ordinal": "o", "categorical": "c"}
OP_FAMILY = {"max": "n", "min": "n", "min_level": "o", "max_level": "o", "allowed": "c"}


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


# what a field of ids, levels, labels or records may be given as
_COLLECTIONS = (list, tuple, set, frozenset)


def _collection(items: object, what: str) -> tuple:
    """``items`` as a tuple; anything but a list, tuple or set is a ``ValueError`` naming ``what``."""
    if not isinstance(items, _COLLECTIONS):
        raise ValueError(f"{what} must be a list, tuple or set, got {items!r}")
    return tuple(items)


def _records(items: object, cls: type, what: str) -> tuple:
    """``items`` as a tuple of ``cls`` records; a wrong container (:func:`_collection`) or item is a ``ValueError`` naming ``what``.

    Each item's type is read at C speed; only a refused item is searched for.
    """
    items = _collection(items, what)
    if not all(issubclass(kind, cls) for kind in set(map(type, items))):
        bad = next(item for item in items if not isinstance(item, cls))
        raise ValueError(f"{what} must hold {cls.__name__} records, got {bad!r}")
    return items


def first_by_id(records: Iterable) -> dict:
    """Each record under its ``id``, in declaration order; where an id is declared twice, the first declaration wins."""
    index: dict = {}
    for record in records:
        index.setdefault(record.id, record)
    return index


def _refuse_changes(cls: type) -> type:
    """Make every assignment to or deletion from an instance of ``cls`` raise ``FrozenInstanceError``.

    For a frozen slotted dataclass, the ``__setattr__`` and ``__delattr__`` the
    decorator generates name the class as it was before ``slots=True`` rebuilt
    it, so on a name that is not a field they fail with a ``TypeError`` from
    ``super()``.  These two replace them; ``__init__`` and unpickling set
    fields through ``object.__setattr__`` and are unaffected.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


@_refuse_changes
@dataclass(frozen=True, slots=True)
class AttributeValue:
    """Tagged value an alternative can take on one attribute.

    A value is its ``kind`` and its ``key``.  The key is the canonical form
    every comparison reads: ``("n", lo, hi)`` for the three numeric kinds (a
    ``crisp`` number has ``hi == lo``, a closed ``interval`` its two bounds,
    an open lower bound ``at_least`` has ``hi == inf``), ``("o", level)`` for
    an ``ordinal`` level on the fixed 1..5 scale and ``("c", label)`` for a
    ``category`` label.  Two values are semantically equal exactly when their
    keys are; ``==`` also compares the kind, so ``crisp(5) != interval(5, 5)``.

    Build values with :func:`crisp`, :func:`interval`, :func:`at_least`,
    :func:`ordinal` and :func:`category`, each of which checks its own shape;
    the raw constructor checks nothing.
    """

    kind: str
    key: tuple

    @property
    def lo(self) -> Optional[float]:
        """Lower bound of a numeric value (the number itself when crisp), else None."""
        return self.key[1] if self.key[0] == "n" else None

    @property
    def hi(self) -> Optional[float]:
        """Upper bound of an interval, else None."""
        return self.key[2] if self.kind == "interval" else None

    @property
    def level(self) -> Optional[int]:
        """Level of an ordinal value, else None."""
        return self.key[1] if self.key[0] == "o" else None

    @property
    def label(self) -> Optional[str]:
        """Label of a category value, else None."""
        return self.key[1] if self.key[0] == "c" else None

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
    x = _as_number(x, "crisp value")
    if not math.isfinite(x):
        raise ValueError("crisp value must be a finite number")
    return AttributeValue("crisp", ("n", x, x))


def interval(lo: float, hi: float) -> AttributeValue:
    lo, hi = _as_number(lo, "interval bound"), _as_number(hi, "interval bound")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval bounds must be finite")
    if lo > hi:
        raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
    return AttributeValue("interval", ("n", lo, hi))


def at_least(x: float) -> AttributeValue:
    x = _as_number(x, "at_least bound")
    if not math.isfinite(x):
        raise ValueError("at_least needs a finite lower bound")
    return AttributeValue("at_least", ("n", x, math.inf))


def ordinal(level_or_label: Union[int, str]) -> AttributeValue:
    """Build an ordinal value from a level (1..5) or a canonical scale label."""
    if isinstance(level_or_label, str):
        level_or_label = label_level(level_or_label)
    if not _is_level(level_or_label):
        raise ValueError(f"ordinal level must be in 1..5, got {level_or_label!r}")
    return AttributeValue("ordinal", ("o", level_or_label))


def category(label: str) -> AttributeValue:
    """A category value; its label is a non-empty printable string, so a line that shows it stays one line."""
    if not isinstance(label, str):
        raise ValueError(f"category label must be a string, got {label!r}")
    if not label:
        raise ValueError("category needs a non-empty label")
    if not label.isprintable():
        raise ValueError(f"category label {label!r} holds a character that is not printable")
    return AttributeValue("category", ("c", label))


@_refuse_changes
@dataclass(frozen=True, slots=True)
class Attribute:
    """One criterion of the task: numeric, ordinal (1..5 scale) or categorical.

    Polarity records which direction is preferable: cost (smaller is better),
    benefit (larger is better), or none for categorical attributes.  The
    name is printable, so a message that shows it stays one line.
    """

    id: int
    name: str
    kind: str
    polarity: str
    unit: Optional[str] = None
    labels: Optional[dict[str, int]] = None  # extra ordinal labels -> level, beyond the built-in five

    def __post_init__(self) -> None:
        if self.labels is not None and not isinstance(self.labels, dict):
            raise ValueError("labels must map label -> level")
        if not _is_int(self.id) or self.id <= 0:
            raise ValueError(f"attribute id must be a positive integer, got {self.id!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"attribute name must be a string, got {self.name!r}")
        if not self.name.isprintable():
            raise ValueError(f"attribute name {self.name!r} holds a character that is not printable")
        if self.unit is not None and not isinstance(self.unit, str):
            raise ValueError(f"attribute unit must be a string, got {self.unit!r}")
        if not isinstance(self.kind, str) or self.kind not in KIND_FAMILY:
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "categorical":
            if self.polarity != "none":
                raise ValueError(f"categorical attribute {self.id} must have polarity 'none'")
        elif self.polarity not in ("cost", "benefit"):
            raise ValueError(f"attribute {self.id} ({self.kind}) needs polarity 'cost' or 'benefit'")
        if self.labels is not None:
            if self.kind != "ordinal":
                raise ValueError(f"attribute {self.id} ({self.kind}) cannot declare labels; only an ordinal attribute can")
            for lab, lvl in self.labels.items():
                if not isinstance(lab, str):
                    raise ValueError(f"ordinal label must be a string, got {lab!r}")
                if not _is_level(lvl):
                    raise ValueError(f"label {lab!r} maps to level {lvl!r}, expected 1..5")


@_refuse_changes
@dataclass(frozen=True, slots=True)
class Threshold:
    """Acceptance predicate on one attribute.

    Ops: ``max``/``min`` bound a numeric value, ``min_level``/``max_level``
    bound an ordinal level, ``allowed`` lists admissible category labels,
    each printable as :func:`category` requires.  The op's family tag in
    :data:`OP_FAMILY` decides how the bound is read.
    """

    attribute_id: int
    op: str
    bound: Union[float, int, frozenset[str]] = 0.0

    def __post_init__(self) -> None:
        if not _is_int(self.attribute_id):
            raise ValueError(f"threshold attribute id must be an integer, got {self.attribute_id!r}")
        if not isinstance(self.op, str) or self.op not in OP_FAMILY:
            raise ValueError(f"unknown threshold op {self.op!r}")
        family = OP_FAMILY[self.op]
        if family == "n":
            bound = _as_number(self.bound, f"{self.op} threshold bound")
            if not math.isfinite(bound):
                raise ValueError(f"{self.op} threshold needs a finite numeric bound")
            object.__setattr__(self, "bound", bound)
        elif family == "o":
            if not _is_level(self.bound):
                raise ValueError(f"{self.op} threshold needs a level in 1..5, got {self.bound!r}")
        else:
            if not isinstance(self.bound, _COLLECTIONS):
                raise ValueError(f"allowed threshold needs a list of labels, got {self.bound!r}")
            if not self.bound or not all(isinstance(lab, str) for lab in self.bound):
                raise ValueError("allowed threshold needs a non-empty set of labels")
            for lab in self.bound:
                if not lab.isprintable():
                    raise ValueError(f"allowed label {lab!r} holds a character that is not printable")
            object.__setattr__(self, "bound", frozenset(self.bound))

    def __str__(self) -> str:
        if self.op == "allowed":
            return f"allowed {{{','.join(sorted(self.bound))}}}"
        return f"{self.op} {format_number(self.bound)}"


@dataclass(frozen=True)
class DominancePartition:
    """Dominance attributes grouped into importance levels, least important first.

    ``levels[0]`` is the least important group and ``levels[-1]`` the most
    important one; the ladder search walks them top-down.  ``levels`` is a
    list or tuple, since its order is the ranking, and each level a list,
    tuple or set of integer attribute ids.  Disjointness across levels is a
    task invariant checked by :func:`validate_task`.
    """

    levels: tuple[frozenset[int], ...]

    def __init__(self, levels) -> None:
        if not isinstance(levels, (list, tuple)):
            raise ValueError(f"partition levels must be a list or tuple, got {levels!r}")
        for index, level in enumerate(levels, start=1):
            if not isinstance(level, _COLLECTIONS):
                raise ValueError(f"level {index} must be a list of attribute ids, got {level!r}")
        for level in levels:
            for aid in level:
                if not _is_int(aid):
                    raise ValueError(f"partition entries must be integer attribute ids, got {aid!r}")
        normalized = tuple(frozenset(level) for level in levels)
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


# characters the text trace uses to delimit ids: an id holding one would make a trace line ambiguous
_ID_DELIMITERS = frozenset(",|[]")


@_refuse_changes
@dataclass(frozen=True, slots=True)
class Alternative:
    """A candidate plan: an id plus one value per task attribute.

    The id is a non-empty printable string without ``,``, ``|``, ``[`` or
    ``]``, so that every id reads back unambiguously from a text trace line.
    """

    id: str
    values: dict[int, AttributeValue]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"alternative needs a non-empty string id, got {self.id!r}")
        if not self.id.isprintable() or not _ID_DELIMITERS.isdisjoint(self.id):
            raise ValueError(
                f"alternative id {self.id!r} holds ',', '|', '[', ']' or a character that is not printable"
            )
        if not isinstance(self.values, dict):
            raise ValueError(f"alternative {self.id!r} values must map attribute ids to values, got {self.values!r}")


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
        if not isinstance(self.partition, DominancePartition):
            raise ValueError(f"partition must be a DominancePartition, got {self.partition!r}")
        object.__setattr__(self, "attributes", _records(self.attributes, Attribute, "attributes"))
        basic_ids = _collection(self.basic_ids, "basic_ids")
        for aid in basic_ids:
            if not _is_int(aid):
                raise ValueError(f"basic ids must be integer attribute ids, got {aid!r}")
        object.__setattr__(self, "basic_ids", frozenset(basic_ids))
        object.__setattr__(
            self,
            "thresholds",
            tuple(sorted(_records(self.thresholds, Threshold, "thresholds"), key=lambda t: t.attribute_id)),
        )
        object.__setattr__(self, "alternatives", _records(self.alternatives, Alternative, "alternatives"))
        if self.aspiration is not None:
            object.__setattr__(
                self,
                "aspiration",
                tuple(sorted(_records(self.aspiration, Threshold, "aspiration"), key=lambda t: t.attribute_id)),
            )

    @cached_property
    def _by_id(self) -> dict[int, Attribute]:
        return first_by_id(self.attributes)

    def attribute(self, attribute_id: int) -> Attribute:
        return self._by_id[attribute_id]

    def attribute_ids(self) -> frozenset[int]:
        return frozenset(a.id for a in self.attributes)

    @cached_property
    def _alternative_by_id(self) -> dict[str, Alternative]:
        return first_by_id(self.alternatives)

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


def validate_task(task: DecisionTask) -> list[Violation]:
    """Check every cross-object task invariant; returns findings instead of raising.

    An empty list means the task is well-formed: unique ids, thresholds
    covering exactly the basic attributes with matching kinds, disjoint
    partition levels referencing known attributes, basic and dominance sets
    jointly covering every attribute, aspiration restricted to the top level,
    complete kind-consistent value vectors, and no two alternatives with
    completely equal value vectors.

    The alternatives are screened column by column.  Each declared
    attribute's value keys are read once, as a list over the rows, and their
    family tags are checked with one set per column.  A row is read again,
    cell by cell, only when the screen flags it: for a repeated id, ids other
    than the declared ones, or a cell that holds no value or a value of
    another family.  That reading is the one place that builds a row's
    findings.  The duplicate screen is linear: it zips the screened columns
    into rows and groups equal ones.
    """
    violations: list[Violation] = []

    ids_seen: set[int] = set()
    for attr in task.attributes:
        if attr.id in ids_seen:
            violations.append(Violation("duplicate-attribute-id", f"attribute id {attr.id} declared twice"))
        ids_seen.add(attr.id)
    declared = frozenset(ids_seen)

    for aid in sorted(task.basic_ids):
        if aid not in declared:
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
            if aid not in declared:
                violations.append(
                    Violation("unknown-reference", f"partition level {index} references undeclared attribute {aid}")
                )

    uncovered = declared - (task.basic_ids | partition_ids)
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
        if attr is not None and OP_FAMILY[t.op] != KIND_FAMILY[attr.kind]:
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
            if attr is not None and OP_FAMILY[t.op] != KIND_FAMILY[attr.kind]:
                violations.append(
                    Violation("kind-mismatch", f"aspiration threshold '{t}' does not fit attribute {t.attribute_id}")
                )

    # the column screen reads each declared attribute's value keys as a list over
    # the rows and flags the rows that need a finding; only those go through
    # _report_row, and the screened columns of the rest, zipped into rows, group
    # them for the complete-equality screen over basic + dominance attributes
    relevant = (task.basic_ids | partition_ids) & declared
    order = sorted(task._by_id.items())  # the first declaration of each id, in id order
    alts = task.alternatives
    rows = list(map(_values, alts))
    alt_ids = list(map(_id, alts))
    repeated: set[int] = set()  # the positions whose id an earlier alternative holds
    if len(set(alt_ids)) < len(alt_ids):
        firsts: dict[str, int] = {}
        repeated = {position for position, alt_id in enumerate(alt_ids) if firsts.setdefault(alt_id, position) != position}
    flagged = set(repeated)
    # a row with more ids than are declared, or fewer; one missing a declared id reads a _NO_VALUE
    flagged.update(compress(count(), map(ne, map(len, rows), repeat(len(declared)))))
    columns = _column_keys(rows, order)
    screened = []
    for (aid, attr), keys in zip(order, columns):
        family = KIND_FAMILY[attr.kind]
        try:
            if set(map(_tag, keys)) != {family}:
                flagged.update(compress(count(), map(ne, map(_tag, keys), repeat(family))))
        except (TypeError, LookupError):  # a key with no tag to read: the row reporter reads every row
            flagged.update(range(len(rows)))
        if aid in relevant:
            screened.append(keys)
    keyrows: list = list(zip(*screened)) or [()] * len(rows)

    if flagged:
        cells = [(aid, attr.kind, KIND_FAMILY[attr.kind], aid in relevant) for aid, attr in order]
        for position in sorted(flagged):
            found, keyrows[position] = _report_row(alts[position], position in repeated, declared, relevant, cells)
            violations += found

    if len(set(keyrows)) < len(keyrows):
        groups: dict[tuple, list[int]] = {}  # screened value keys -> positions of the complete rows holding them
        for position, keyrow in enumerate(keyrows):
            if keyrow is not None:
                groups.setdefault(keyrow, []).append(position)
        pairs = sorted(pair for group in groups.values() for pair in combinations(group, 2))
        for i, j in pairs:
            violations.append(
                Violation(
                    "duplicate-alternative",
                    f"alternatives {alts[i].id!r} and {alts[j].id!r} are completely equal on every screened attribute",
                )
            )

    return violations


_values, _id, _tag = attrgetter("values"), attrgetter("id"), itemgetter(0)

# what the column screen reads as the key of a missing cell or one that holds no value: its tag is no family's
_NO_VALUE = (None,)


def _column_keys(rows: list[dict], order: list[tuple[int, Attribute]]) -> list[list]:
    """The value keys of ``rows`` on each attribute of ``order``, one list per attribute.

    A cell that holds no value, or a row without the id, reads as ``_NO_VALUE``.
    """
    try:
        return [[values[aid].key for values in rows] for aid, _ in order]
    except (KeyError, AttributeError):
        return [[getattr(values.get(aid), "key", _NO_VALUE) for values in rows] for aid, _ in order]


def _report_row(
    alt: Alternative, repeated: bool, declared: frozenset, relevant: frozenset, cells: list[tuple]
) -> tuple[list[Violation], Optional[tuple]]:
    """The findings of one alternative, and its screened value keys if it holds a value on each screened attribute.

    ``cells`` holds the (id, kind, family tag, screened?) of each declared
    attribute in id order.  This is the one place that builds a row's
    findings: a repeated id, missing values, values on undeclared attributes,
    then each cell that holds no value or a value of another family.
    """
    violations = []
    if repeated:
        violations.append(Violation("duplicate-alternative-id", f"alternative id {alt.id!r} declared twice"))
    values = alt.values
    complete = True
    if values.keys() != declared:
        missing_values = declared - values.keys()
        if missing_values:
            violations.append(
                Violation("missing-value", f"alternative {alt.id!r} lacks value(s) for attribute(s) {sorted(missing_values)}")
            )
        extra_values = values.keys() - declared
        if extra_values:
            # int ids first in numeric order, then any other key by repr
            undeclared = sorted(extra_values, key=lambda x: (0, x) if _is_int(x) else (1, repr(x)))
            violations.append(
                Violation("unknown-reference", f"alternative {alt.id!r} has value(s) for undeclared attribute(s) {undeclared}")
            )
        complete = relevant.isdisjoint(missing_values)
    keys = []
    for aid, attr_kind, family, screened in cells:
        if aid not in values:
            continue
        try:
            key = values[aid].key
        except AttributeError:
            violations.append(
                Violation(
                    "kind-mismatch",
                    f"alternative {alt.id!r} carries {values[aid]!r}, not a value, on {attr_kind} attribute {aid}",
                )
            )
            if screened:
                complete = False
            continue
        if key[0] != family:
            violations.append(
                Violation(
                    "kind-mismatch",
                    f"alternative {alt.id!r} carries a {values[aid].kind} value on {attr_kind} attribute {aid}",
                )
            )
            if screened:
                complete = False
        elif screened:
            keys.append(key)
    return violations, tuple(keys) if complete else None
