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
from collections.abc import Iterable
from enum import Enum
from operator import attrgetter, itemgetter

ORDINAL_LABELS = ("very_low", "low", "moderate", "high", "very_high")
ORDINAL_LEVELS = {label: i + 1 for i, label in enumerate(ORDINAL_LABELS)}

# family tag of each attribute kind and of each threshold op, matching AttributeValue.key[0]
KIND_FAMILY = {"numeric": "n", "ordinal": "o", "categorical": "c"}
OP_FAMILY = {"max": "n", "min": "n", "min_level": "o", "max_level": "o", "allowed": "c"}
# each value kind with the family tag its factory writes, as pairs read with ==, so no raw kind is hashed
_KIND_TAGS = (("crisp", "n"), ("interval", "n"), ("at_least", "n"), ("ordinal", "o"), ("category", "c"))


def _is_int(x: object) -> bool:
    """Whether ``x`` is an ``int`` and not a ``bool``; ``3.0`` is refused, not coerced."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_level(x: object) -> bool:
    """Whether ``x`` is a level of the fixed 1..5 scale."""
    return _is_int(x) and 1 <= x <= 5


def label_level(label: str, extra_labels: dict[str, int] | None = None) -> int:
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


def _first_repeat(items: tuple | list) -> object:
    """The first item of ``items`` that repeats an earlier one, found in one pass; ``items`` must hold a repeat."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


def first_by_id(records: Iterable) -> dict:
    """Each record under its ``id``, in declaration order; where an id is declared twice, the first declaration wins."""
    index: dict = {}
    for record in records:
        index.setdefault(record.id, record)
    return index


def key_order(key: object) -> tuple:
    """Where a key of an alternative's values is listed: int ids first in numeric order, then any other key by ``repr``."""
    return (0, key) if _is_int(key) else (1, repr(key))


# how a record's __init__ sets a field, since the record's own __setattr__ refuses; bound once, for the hot constructors
_set = object.__setattr__


class _FieldsOnFirstUse:
    """``__dataclass_fields__`` of a record class, written the first time anything reads it.

    The first read, from the class or from an instance, applies
    ``dataclass(init=False, repr=False, eq=False)`` to the class, which sets
    the real ``__dataclass_fields__`` in the class's own namespace, over this
    descriptor, and compiles no method.  So ``dataclasses`` is imported only
    by a caller that asks for a record's metadata.
    """

    def __get__(self, instance: object, owner: type) -> dict:
        if owner is _Record:  # dataclass() reads every base; made one, _Record's empty fields would shadow this
            raise AttributeError("__dataclass_fields__")
        from dataclasses import dataclass

        return dataclass(init=False, repr=False, eq=False)(owner).__dataclass_fields__


class _Record:
    """What every record shares: equality, hashing, ``repr``, refusing changes, and copying and pickling.

    Each record writes its own ``__init__``, which checks the arguments and
    sets each field with ``object.__setattr__`` (``_set``), or with the slot's
    own setter where construction is hottest; its fields are its
    annotations, in order.  Equality and hashing read the fields in order, as
    a tuple, and only a record of the same class compares equal.  Every
    assignment or deletion raises ``dataclasses.FrozenInstanceError``.  A copy
    or an unpickled record is built again from the field values, through
    ``__init__``.  A record class becomes a dataclass the first time
    ``dataclasses.is_dataclass``, ``fields``, ``replace`` or ``asdict`` reads
    its ``__dataclass_fields__`` (:class:`_FieldsOnFirstUse`); that read, and
    the first refused change, import ``dataclasses``.
    """

    __slots__ = ()
    __dataclass_fields__ = _FieldsOnFirstUse()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)  # the field names in order
        cls._astuple = attrgetter(*cls._fields)  # the field values in order; a lone field's value itself

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __replace__(self, /, **changes: object) -> _Record:
        """``copy.replace`` (Python 3.13): the record with ``changes``, through ``dataclasses.replace``."""
        from dataclasses import replace

        return replace(self, **changes)


class AttributeValue(_Record):
    """Tagged value an alternative can take on one attribute.

    A value is its ``kind`` and its ``key``.  The key is the canonical form
    every comparison reads: ``("n", lo, hi)`` for the three numeric kinds (a
    ``crisp`` number has ``hi == lo``, a closed ``interval`` its two bounds,
    an open lower bound ``at_least`` has ``hi == inf``), ``("o", level)`` for
    an ``ordinal`` level on the fixed 1..5 scale and ``("c", label)`` for a
    ``category`` label.  Two values are semantically equal exactly when their
    keys are; ``==`` also compares the kind, so ``crisp(5) != interval(5, 5)``.

    Build values with :func:`crisp`, :func:`interval`, :func:`at_least`,
    :func:`ordinal` and :func:`category`, each of which checks its own shape.
    The raw constructor checks only that the key is a non-empty tuple whose
    tag is the family of the kind, so a value's kind and tag always agree.

    ``__init__`` also stores the value's identity as an int, ``_token``, which
    the sift keys its verdicts by (:func:`~ladderchoice.sift.sift_rows`).  It
    has no annotation, so it is not a field: equality, hashing, ``repr``,
    copying and pickling ignore it, and every copy gets its own.
    """

    __slots__ = ("kind", "key", "_token")
    kind: str
    key: tuple

    def __init__(self, kind: str, key: tuple) -> None:
        if not isinstance(key, tuple) or not key or (kind, key[0]) not in _KIND_TAGS:
            raise ValueError(f"a value of kind {kind!r} cannot have the key {key!r}")
        _set_kind(self, kind)
        _set_key(self, key)
        _set_token(self, id(self))

    @property
    def lo(self) -> float | None:
        """Lower bound of a numeric value (the number itself when crisp), else None."""
        return self.key[1] if self.key[0] == "n" else None

    @property
    def hi(self) -> float | None:
        """Upper bound of an interval, else None."""
        return self.key[2] if self.kind == "interval" else None

    @property
    def level(self) -> int | None:
        """Level of an ordinal value, else None."""
        return self.key[1] if self.key[0] == "o" else None

    @property
    def label(self) -> str | None:
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


# AttributeValue's slot setters, bound once: the hottest constructor writes each slot directly, without the
# name lookup of object.__setattr__
_set_kind, _set_key, _set_token = (slot.__set__ for slot in (AttributeValue.kind, AttributeValue.key, AttributeValue._token))


def format_number(x: float) -> str:
    """Render a number without a trailing '.0' when it is integral."""
    if isinstance(x, float) and x.is_integer() and math.isfinite(x):
        return str(int(x))
    return str(x)


def with_article(word: str) -> str:
    """``word`` after "an" when it starts with a vowel, else after "a": ``a crisp``, ``an ordinal``."""
    return f"{'an' if str(word).startswith(tuple('aeiou')) else 'a'} {word}"


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


def ordinal(level_or_label: int | str) -> AttributeValue:
    """Build an ordinal value from a level (1..5) or a canonical scale label."""
    if isinstance(level_or_label, str):
        level_or_label = label_level(level_or_label)
    if not _is_level(level_or_label):
        raise ValueError(f"ordinal level must be in 1..5, got {level_or_label!r}")
    return AttributeValue("ordinal", ("o", level_or_label))


def category(label: str) -> AttributeValue:
    """A category value.

    Its label is a non-empty printable string without ``,`` or ``|``, so a
    trace line that shows it stays one line and splits back into its fields.
    """
    if not isinstance(label, str):
        raise ValueError(f"category label must be a string, got {label!r}")
    if not label:
        raise ValueError("category needs a non-empty label")
    if not label.isprintable():
        raise ValueError(f"category label {label!r} holds a character that is not printable")
    if "," in label or "|" in label:
        raise ValueError(f"category label {label!r} holds ',' or '|'")
    return AttributeValue("category", ("c", label))


class Attribute(_Record):
    """One criterion of the task: numeric, ordinal (1..5 scale) or categorical.

    Polarity records which direction is preferable: cost (smaller is better),
    benefit (larger is better), or none for categorical attributes.  The
    name is printable, so a message that shows it stays one line.
    """

    __slots__ = ("id", "name", "kind", "polarity", "unit", "labels")
    id: int
    name: str
    kind: str
    polarity: str
    unit: str | None
    labels: dict[str, int] | None  # extra ordinal labels -> level, beyond the built-in five

    def __init__(
        self, id: int, name: str, kind: str, polarity: str, unit: str | None = None, labels: dict[str, int] | None = None
    ) -> None:
        if labels is not None and not isinstance(labels, dict):
            raise ValueError("labels must map label -> level")
        if not _is_int(id) or id <= 0:
            raise ValueError(f"attribute id must be a positive integer, got {id!r}")
        if not isinstance(name, str):
            raise ValueError(f"attribute name must be a string, got {name!r}")
        if not name.isprintable():
            raise ValueError(f"attribute name {name!r} holds a character that is not printable")
        if unit is not None and not isinstance(unit, str):
            raise ValueError(f"attribute unit must be a string, got {unit!r}")
        if not isinstance(kind, str) or kind not in KIND_FAMILY:
            raise ValueError(f"unknown attribute kind {kind!r}")
        if kind == "categorical":
            if polarity != "none":
                raise ValueError(f"categorical attribute {id} must have polarity 'none'")
        elif polarity not in ("cost", "benefit"):
            raise ValueError(f"attribute {id} ({kind}) needs polarity 'cost' or 'benefit'")
        if labels is not None:
            if kind != "ordinal":
                raise ValueError(f"attribute {id} ({kind}) cannot declare labels; only an ordinal attribute can")
            for lab, lvl in labels.items():
                if not isinstance(lab, str):
                    raise ValueError(f"ordinal label must be a string, got {lab!r}")
                if not _is_level(lvl):
                    raise ValueError(f"label {lab!r} maps to level {lvl!r}, expected 1..5")
        _set(self, "id", id)
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "polarity", polarity)
        _set(self, "unit", unit)
        _set(self, "labels", labels)


class Threshold(_Record):
    """Acceptance predicate on one attribute.

    Ops: ``max``/``min`` bound a numeric value, ``min_level``/``max_level``
    bound an ordinal level, ``allowed`` lists admissible category labels,
    each a label :func:`category` accepts and each listed once.  The
    op's family tag in :data:`OP_FAMILY` decides how the bound is read.
    """

    __slots__ = ("attribute_id", "op", "bound")
    attribute_id: int
    op: str
    bound: float | int | frozenset[str]

    def __init__(self, attribute_id: int, op: str, bound: float | int | frozenset[str]) -> None:
        if not _is_int(attribute_id):
            raise ValueError(f"threshold attribute id must be an integer, got {attribute_id!r}")
        if not isinstance(op, str) or op not in OP_FAMILY:
            raise ValueError(f"unknown threshold op {op!r}")
        family = OP_FAMILY[op]
        if family == "n":
            bound = _as_number(bound, f"{op} threshold bound")
            if not math.isfinite(bound):
                raise ValueError(f"{op} threshold needs a finite numeric bound")
        elif family == "o":
            if not _is_level(bound):
                raise ValueError(f"{op} threshold needs a level in 1..5, got {bound!r}")
        else:
            if not isinstance(bound, _COLLECTIONS):
                raise ValueError(f"allowed threshold needs a list of labels, got {bound!r}")
            if not bound or not all(isinstance(lab, str) for lab in bound):
                raise ValueError("allowed threshold needs a non-empty set of labels")
            for lab in bound:
                if not lab.isprintable():
                    raise ValueError(f"allowed label {lab!r} holds a character that is not printable")
            if len(set(bound)) < len(bound):
                raise ValueError(f"allowed threshold lists label {_first_repeat(bound)!r} twice")
            for lab in bound:
                if "," in lab or "|" in lab:
                    raise ValueError(f"allowed label {lab!r} holds ',' or '|'")
            bound = frozenset(bound)
        _set(self, "attribute_id", attribute_id)
        _set(self, "op", op)
        _set(self, "bound", bound)

    def __str__(self) -> str:
        if self.op == "allowed":
            return f"allowed {{{','.join(sorted(self.bound))}}}"
        return f"{self.op} {format_number(self.bound)}"


class DominancePartition(_Record):
    """Dominance attributes grouped into importance levels, least important first.

    ``levels[0]`` is the least important group and ``levels[-1]`` the most
    important one; the ladder search walks them top-down.  ``levels`` is a
    list or tuple, since its order is the ranking, and each level a list,
    tuple or set of integer attribute ids, each listed once.  Disjointness
    across levels is a task invariant checked by :func:`validate_task`.
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
        for index, (level, ids) in enumerate(zip(levels, normalized), start=1):
            if len(ids) < len(level):
                raise ValueError(f"level {index} lists attribute id {_first_repeat(level)} twice")
        _set(self, "levels", normalized)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def level(self, r: int) -> frozenset[int]:
        """Attribute ids at importance rank ``r`` (1 = least important)."""
        return self.levels[r - 1]


# characters the text trace uses to delimit ids: an id holding one would make a trace line ambiguous
_ID_DELIMITERS = frozenset(",|[]")


class Alternative(_Record):
    """A candidate plan: an id plus one value per task attribute.

    The id is a non-empty printable string without ``,``, ``|``, ``[`` or
    ``]``, so that every id reads back unambiguously from a text trace line.
    """

    __slots__ = ("id", "values")
    id: str
    values: dict[int, AttributeValue]

    def __init__(self, id: str, values: dict[int, AttributeValue]) -> None:
        if not isinstance(id, str) or not id:
            raise ValueError(f"alternative needs a non-empty string id, got {id!r}")
        if not id.isprintable() or not _ID_DELIMITERS.isdisjoint(id):
            raise ValueError(f"alternative id {id!r} holds ',', '|', '[', ']' or a character that is not printable")
        if not isinstance(values, dict):
            raise ValueError(f"alternative {id!r} values must map attribute ids to values, got {values!r}")
        _set(self, "id", id)
        _set(self, "values", values)


class DecisionTask(_Record):
    """A full choice task: attributes, screening thresholds, importance ladder, alternatives.

    ``basic_ids`` names the attributes screened during sifting; ``thresholds``
    must cover exactly those ids.  ``partition`` groups the dominance
    attributes; the two id sets may overlap or coincide.  ``aspiration``
    optionally sets the accept/abstain standard applied when sifting leaves a
    single alternative, restricted to the top partition level.  ``__init__``
    also indexes the attributes by id for :meth:`attribute`; the index has no
    annotation, so it is not a field, and nothing writes to a task after it.
    """

    task_id: str
    attributes: tuple[Attribute, ...]
    basic_ids: frozenset[int]
    thresholds: tuple[Threshold, ...]
    partition: DominancePartition
    alternatives: tuple[Alternative, ...]
    aspiration: tuple[Threshold, ...] | None = None

    def __init__(
        self,
        task_id: str,
        attributes: Iterable[Attribute],
        basic_ids: Iterable[int],
        thresholds: Iterable[Threshold],
        partition: DominancePartition,
        alternatives: Iterable[Alternative],
        aspiration: Iterable[Threshold] | None = None,
    ) -> None:
        if not isinstance(task_id, str):
            raise ValueError(f"task_id must be a string, got {task_id!r}")
        if not isinstance(partition, DominancePartition):
            raise ValueError(f"partition must be a DominancePartition, got {partition!r}")
        _set(self, "task_id", task_id)
        _set(self, "attributes", _records(attributes, Attribute, "attributes"))
        basic_ids = _collection(basic_ids, "basic_ids")
        for aid in basic_ids:
            if not _is_int(aid):
                raise ValueError(f"basic ids must be integer attribute ids, got {aid!r}")
        basic = frozenset(basic_ids)
        if len(basic) < len(basic_ids):
            raise ValueError(f"basic ids list attribute id {_first_repeat(basic_ids)} twice")
        _set(self, "basic_ids", basic)
        by_attribute = attrgetter("attribute_id")
        _set(self, "thresholds", tuple(sorted(_records(thresholds, Threshold, "thresholds"), key=by_attribute)))
        _set(self, "partition", partition)
        _set(self, "alternatives", _records(alternatives, Alternative, "alternatives"))
        if aspiration is not None:
            aspiration = tuple(sorted(_records(aspiration, Threshold, "aspiration"), key=by_attribute))
        _set(self, "aspiration", aspiration)
        _set(self, "_by_id", first_by_id(self.attributes))

    def attribute(self, attribute_id: int) -> Attribute:
        return self._by_id[attribute_id]

    def attribute_ids(self) -> frozenset[int]:
        return frozenset(a.id for a in self.attributes)

    def alternative(self, alt_id: str) -> Alternative:
        """The first alternative with this id; ``KeyError`` if there is none."""
        for alt in self.alternatives:
            if alt.id == alt_id:
                return alt
        raise KeyError(alt_id)


class Elimination(_Record):
    """Audit record for one rejected (alternative, attribute) pair during sifting."""

    alternative_id: str
    attribute_id: int
    threshold: Threshold
    value: AttributeValue

    def __init__(self, alternative_id: str, attribute_id: int, threshold: Threshold, value: AttributeValue) -> None:
        _set(self, "alternative_id", alternative_id)
        _set(self, "attribute_id", attribute_id)
        _set(self, "threshold", threshold)
        _set(self, "value", value)


class SiftResult(_Record):
    """Outcome of the sifting stage: surviving ids in input order plus all eliminations."""

    feasible: tuple[str, ...]
    eliminations: tuple[Elimination, ...]

    def __init__(self, feasible: tuple[str, ...], eliminations: tuple[Elimination, ...]) -> None:
        _set(self, "feasible", feasible)
        _set(self, "eliminations", eliminations)


class Verdict(Enum):
    CHOSEN = "Chosen"
    ABSTAIN = "Abstain"
    REPARTITION = "Repartition"
    NO_UNIQUE_CHOICE = "NoUniqueChoice"


class LevelRecord(_Record):
    """Trace entry for one ladder level: which ids entered and which survived."""

    r: int
    attribute_ids: frozenset[int]
    survivors_before: tuple[str, ...]
    survivors_after: tuple[str, ...]

    def __init__(
        self, r: int, attribute_ids: frozenset[int], survivors_before: tuple[str, ...], survivors_after: tuple[str, ...]
    ) -> None:
        _set(self, "r", r)
        _set(self, "attribute_ids", attribute_ids)
        _set(self, "survivors_before", survivors_before)
        _set(self, "survivors_after", survivors_after)


class LadderOutcome(_Record):
    """Final verdict of the ladder search plus its per-level trace."""

    verdict: Verdict
    chosen: str | None = None
    trace: tuple[LevelRecord, ...] = ()

    def __init__(self, verdict: Verdict, chosen: str | None = None, trace: tuple[LevelRecord, ...] = ()) -> None:
        if (verdict is Verdict.CHOSEN) != (chosen is not None):
            raise ValueError("chosen id is set exactly when the verdict is Chosen")
        _set(self, "verdict", verdict)
        _set(self, "chosen", chosen)
        _set(self, "trace", trace)


class Violation(_Record):
    """One validator finding; ``code`` is stable, ``message`` is for humans."""

    code: str
    message: str

    def __init__(self, code: str, message: str) -> None:
        _set(self, "code", code)
        _set(self, "message", message)

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
    attribute's value keys are read once, as a list over the rows, and the
    screen asks one question: is the whole task clean, with no repeated id,
    every row on exactly the declared ids, and every cell a value of its
    attribute's family?  A clean task has no row finding.  Any other task is
    read again, row by row and cell by cell, by the one function that builds
    a row's findings.  The duplicate screen is linear: it groups equal rows of
    value keys over the declared attributes, zipped from the columns of a
    clean task or given by the row reading of any other, where a row missing a
    value or holding one of another family has none.  It reports each group of
    equal rows once, naming its ids in position order, and lists the groups
    by their first members.  Its message says "every screened attribute": on
    a task that passes the ``coverage`` check, every declared attribute is
    basic or in the partition, so the two sets are one.
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

    thresholded = [t.attribute_id for t in task.thresholds]  # in id order, so a repeat follows what it repeats
    if len(set(thresholded)) != len(thresholded):
        dupes = sorted({aid for aid, after in zip(thresholded, thresholded[1:]) if aid == after})
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

    # the screen reads each declared attribute's value keys once, as a list over the rows,
    # and asks whether the whole task is clean: no repeated id, every row on exactly the
    # declared ids, every cell a value of its attribute's family.  A clean task zips its
    # columns into key rows; any other goes through _report_row, every row in order, which
    # gives its key rows.  Equal key rows are complete-equality duplicates.  A key row holds
    # every declared attribute, which is every screened one once coverage holds.
    # (id, kind, family tag) of the first declaration of each id, in id order
    cells = [(aid, attr.kind, KIND_FAMILY[attr.kind]) for aid, attr in sorted(task._by_id.items())]
    alts = task.alternatives
    rows = list(map(_values, alts))
    columns = []
    try:
        clean = len(set(map(_id, alts))) == len(alts) and set(map(len, rows)) <= {len(declared)}
        for aid, _, family in cells:
            keys = [values[aid].key for values in rows]
            if not set(map(_tag, keys)) <= {family}:
                clean = False
            columns.append(keys)
    except (LookupError, AttributeError, TypeError):  # a missing cell, one holding no value, or a key with no tag
        clean = False
    if clean:
        keyrows: list = list(zip(*columns)) or [()] * len(rows)
    else:
        keyrows = []
        seen: set[str] = set()
        for alt in alts:
            found, keyrow = _report_row(alt, alt.id in seen, declared, cells)
            seen.add(alt.id)
            violations += found
            keyrows.append(keyrow)

    if len(set(keyrows)) < len(keyrows):
        # value keys -> ids of the complete rows holding them, in position order; a group is
        # listed where its first member stands
        groups: dict[tuple, list[str]] = {}
        for alt, keyrow in zip(alts, keyrows):
            if keyrow is not None:
                groups.setdefault(keyrow, []).append(alt.id)
        for ids in groups.values():
            if len(ids) > 1:
                *rest, last = map(repr, ids)
                violations.append(
                    Violation(
                        "duplicate-alternative",
                        f"alternatives {', '.join(rest)} and {last} are completely equal on every screened attribute",
                    )
                )

    return violations


_values, _id, _tag = attrgetter("values"), attrgetter("id"), itemgetter(0)


def _report_row(
    alt: Alternative, repeated: bool, declared: frozenset, cells: list[tuple]
) -> tuple[list[Violation], tuple | None]:
    """The findings of one alternative, and its value keys if it holds a value of its family on each declared attribute.

    ``cells`` holds the (id, kind, family tag) of each declared attribute in
    id order.  This is the one place that builds a row's findings: a repeated
    id, missing values, values on undeclared attributes, then each cell that
    holds no value or a value of another family.  A misfit value is named by
    its kind, and a cell that holds no value by its repr.  The row's keys are
    complete exactly when every cell gave one.
    """
    violations = []
    if repeated:
        violations.append(Violation("duplicate-alternative-id", f"alternative id {alt.id!r} declared twice"))
    values = alt.values
    missing_values = declared - values.keys()
    if missing_values:
        violations.append(
            Violation("missing-value", f"alternative {alt.id!r} lacks value(s) for attribute(s) {sorted(missing_values)}")
        )
    extra_values = values.keys() - declared
    if extra_values:
        undeclared = sorted(extra_values, key=key_order)
        violations.append(
            Violation("unknown-reference", f"alternative {alt.id!r} has value(s) for undeclared attribute(s) {undeclared}")
        )
    keys = []
    for aid, attr_kind, family in cells:
        if aid not in values:
            continue
        value = values[aid]
        try:
            tag = value.key[0]
        except (LookupError, AttributeError, TypeError):  # a cell that holds no value
            tag = None
        if tag == family:
            keys.append(value.key)
            continue
        if isinstance(value, AttributeValue):
            carried = f"{with_article(value.kind)} value"
        else:
            carried = f"{value!r}, not a value,"
        violations.append(
            Violation("kind-mismatch", f"alternative {alt.id!r} carries {carried} on {attr_kind} attribute {aid}")
        )
    return violations, tuple(keys) if len(keys) == len(cells) else None
