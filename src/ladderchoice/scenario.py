"""Scenario file format: parse, validate and serialize decision tasks and traces.

Scenarios are UTF-8 JSON with top-level keys ``task_id``, ``attributes``,
``basic`` (ids plus thresholds keyed by attribute id), ``dominance`` (levels
ordered least important first), optional ``aspiration``, and
``alternatives``.  Values encode as a bare number (crisp),
``{"interval": [lo, hi]}``, ``{"at_least": x}``, ``{"ordinal": "moderate"}``
(labels or explicit levels 1..5) or ``{"category": "white"}``.

Attribute ids key ``values``, ``basic.thresholds`` and ``aspiration`` in
their canonical decimal spelling only: ``"1"``, not ``"01"``, ``" 1"`` or
``"0_1"``.

Parsing is strict: structural problems and task-invariant violations raise
:class:`ScenarioError` carrying a stable category (syntax, schema, value,
unknown-reference, kind-mismatch, duplicate-id, duplicate-alternative,
invariant), so callers can report precisely why a file was rejected.  Each
object holds only the keys named above (an attribute: ``id``, ``name``,
``kind``, ``polarity``, optional ``unit`` and, on an ordinal attribute only,
``labels``); an unknown key is a schema error naming the key and its object,
and each dominance level is a list of attribute ids.  Values are built by the
checked factories of :mod:`ladderchoice.model`, and a malformed payload's
value error carries the factory's message.

Within one parsed task, equal payloads on one attribute share one immutable
:class:`AttributeValue`, so a task costs one value construction per distinct
value, not one per cell.  Which objects are shared is not API: compare values
by equality or ``key``, never by identity.

A cell finds its value by an intern key computed inline, with no call: a bare
``int`` is its own key, and a payload ``p``, bare or as ``{tag: p}``, keys as
``(tag or None, type(p), p)`` when ``p`` is a string, an int or a nonzero
float.  Keys are exact on type, because ``True``, ``1`` and ``1.0`` hash equal
but parse differently.  Any other payload is built afresh in every cell: float
zero, because ``0.0`` and ``-0.0`` hash equal but serialize differently, and
interval lists and whatever else is neither a string nor a number.
"""

from __future__ import annotations

import json

from .model import (
    ORDINAL_LABELS,
    Alternative,
    Attribute,
    AttributeValue,
    DecisionTask,
    DominancePartition,
    LadderOutcome,
    LevelRecord,
    SiftResult,
    Threshold,
    Verdict,
    Violation,
    at_least,
    category,
    crisp,
    first_by_id,
    interval,
    key_order,
    label_level,
    ordinal,
    validate_task,
)

TYPE_CHECKING = False  # read by name by type checkers; nothing at run time imports typing
if TYPE_CHECKING:
    from typing import Any

CATEGORIES = (
    "syntax",
    "schema",
    "value",
    "unknown-reference",
    "kind-mismatch",
    "duplicate-id",
    "duplicate-alternative",
    "invariant",
)

_VIOLATION_CATEGORY = {
    "duplicate-attribute-id": "duplicate-id",
    "duplicate-alternative-id": "duplicate-id",
    "duplicate-alternative": "duplicate-alternative",
    "kind-mismatch": "kind-mismatch",
    "unknown-reference": "unknown-reference",
}


def violation_category(violation: Violation) -> str:
    """The error category of one validator finding."""
    return _VIOLATION_CATEGORY.get(violation.code, "invariant")


class ScenarioError(Exception):
    """Rejected scenario text, with a stable category and optional position."""

    def __init__(
        self,
        category_name: str,
        message: str,
        line: int | None = None,
        column: int | None = None,
        violations: tuple[Violation, ...] = (),
    ) -> None:
        if category_name not in CATEGORIES:
            raise ValueError(f"unknown scenario error category {category_name!r}")
        position = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{category_name}{position}: {message}")
        self.category = category_name
        self.line = line
        self.column = column
        self.violations = violations


def _require(mapping: Any, key: str, context: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError("schema", f"{context} is missing required key {key!r}")
    return mapping[key]


# the keys each object of the format may hold; any other key is refused, so a misspelt one never goes unread
_SCENARIO_KEYS = frozenset({"task_id", "attributes", "basic", "dominance", "aspiration", "alternatives"})
_ATTRIBUTE_KEYS = frozenset({"id", "name", "kind", "polarity", "unit", "labels"})
_BASIC_KEYS = frozenset({"ids", "thresholds"})
_DOMINANCE_KEYS = frozenset({"levels"})
_ALTERNATIVE_KEYS = frozenset({"id", "values"})


def _refuse_unknown_keys(mapping: dict, known: frozenset, context: str) -> None:
    """Raise a schema error naming the first key of ``mapping`` that is not in ``known``."""
    if not mapping.keys() <= known:
        key = next(key for key in mapping if key not in known)
        raise ScenarioError("schema", f"{context} has unknown key {key!r}")


def _parse_attribute(raw: Any) -> Attribute:
    aid = _require(raw, "id", "attribute")
    if not (raw.keys() <= _ATTRIBUTE_KEYS and "name" in raw and "kind" in raw and "polarity" in raw):
        # the checked path, which names what is unknown or missing
        context = f"attribute {aid}"
        _refuse_unknown_keys(raw, _ATTRIBUTE_KEYS, context)
        for key in ("name", "kind", "polarity"):
            _require(raw, key, context)
    try:
        return Attribute(aid, raw["name"], raw["kind"], raw["polarity"], raw.get("unit"), raw.get("labels"))
    except ValueError as exc:
        raise ScenarioError("schema", f"attribute {aid}: {exc}") from exc


def _parse_value(tag: str | None, payload: Any, attribute: Attribute | None) -> AttributeValue:
    """The value a cell holds as ``{tag: payload}``, or as a bare ``payload`` when ``tag`` is None.

    Raises ``ValueError`` when it is malformed.
    """
    if tag is None:
        if isinstance(payload, (int, float)):
            return crisp(payload)
        raise ValueError(f"unrecognized value encoding {payload!r}")
    if tag == "interval":
        if not isinstance(payload, list) or len(payload) != 2:
            raise ValueError(f"interval needs a list of two bounds, got {payload!r}")
        return interval(*payload)
    if tag == "at_least":
        return at_least(payload)
    if tag == "ordinal":
        if isinstance(payload, str):
            extras = attribute.labels if attribute is not None else None
            return ordinal(label_level(payload, extras))
        return ordinal(payload)
    if tag == "category":
        return category(payload)
    raise ValueError(f"unknown value tag {tag!r}")


def _attribute_id(key: str, context: str) -> int:
    """An attribute-id key as its int; only the canonical spelling ``str(int(key))`` is accepted."""
    try:
        aid = int(key)
    except ValueError:
        aid = None
    if aid is None or str(aid) != key:
        raise ScenarioError("schema", f"{context}: key {key!r} is not an attribute id")
    return aid


def _parse_threshold_map(raw: Any, context: str) -> list[Threshold]:
    if not isinstance(raw, dict):
        raise ScenarioError("schema", f"{context} must map attribute ids to predicates")
    thresholds = []
    for key, predicate in raw.items():
        attribute_id = _attribute_id(key, context)
        if not isinstance(predicate, dict) or len(predicate) != 1:
            raise ScenarioError("schema", f"{context}[{key}]: threshold must be a single-predicate object")
        ((op, bound),) = predicate.items()
        try:
            thresholds.append(Threshold(attribute_id, op, bound))
        except ValueError as exc:
            raise ScenarioError("value", f"{context}[{key}]: {exc}") from exc
    return thresholds


def parse_scenario(text: str) -> DecisionTask:
    """Parse scenario text into a validated task, or raise :class:`ScenarioError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("syntax", exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ScenarioError("syntax", "nesting too deep to decode") from exc
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise ScenarioError("syntax", f"cannot decode: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("schema", "scenario must be a JSON object")
    _refuse_unknown_keys(doc, _SCENARIO_KEYS, "scenario")

    task_id = _require(doc, "task_id", "scenario")
    raw_attributes = _require(doc, "attributes", "scenario")
    if not isinstance(raw_attributes, list) or not raw_attributes:
        raise ScenarioError("schema", "attributes must be a non-empty list")
    attributes = [_parse_attribute(raw) for raw in raw_attributes]
    by_id = first_by_id(attributes)

    basic = _require(doc, "basic", "scenario")
    basic_ids = _require(basic, "ids", "basic")
    _refuse_unknown_keys(basic, _BASIC_KEYS, "basic")
    if not isinstance(basic_ids, list):
        raise ScenarioError("schema", "basic.ids must be a list of attribute ids")
    thresholds = _parse_threshold_map(_require(basic, "thresholds", "basic"), "basic.thresholds")

    dominance = _require(doc, "dominance", "scenario")
    levels = _require(dominance, "levels", "dominance")
    _refuse_unknown_keys(dominance, _DOMINANCE_KEYS, "dominance")
    if not isinstance(levels, list):
        raise ScenarioError("schema", "dominance.levels must be a list of id lists")
    try:
        partition = DominancePartition(levels)
    except ValueError as exc:
        raise ScenarioError("schema", f"dominance.levels: {exc}") from exc

    aspiration = None
    if doc.get("aspiration") is not None:
        aspiration = tuple(_parse_threshold_map(doc["aspiration"], "aspiration"))

    raw_alternatives = _require(doc, "alternatives", "scenario")
    if not isinstance(raw_alternatives, list):
        raise ScenarioError("schema", "alternatives must be a list")
    alternatives = []
    # values key -> (attribute id, values already built on it, by intern key)
    columns: dict[str, tuple[int, dict]] = {}
    for raw in raw_alternatives:
        if type(raw) is dict and len(raw) == 2 and "id" in raw and "values" in raw:
            alt_id, raw_values = raw["id"], raw["values"]
        else:  # the checked path, which names what is missing or unknown
            alt_id = _require(raw, "id", "alternative")
            raw_values = _require(raw, "values", f"alternative {alt_id!r}")
            _refuse_unknown_keys(raw, _ALTERNATIVE_KEYS, f"alternative {alt_id!r}")
        if not isinstance(raw_values, dict):
            raise ScenarioError("schema", f"alternative {alt_id!r}: values must map attribute ids")
        values = {}
        for key, payload in raw_values.items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = (_attribute_id(key, f"alternative {alt_id!r}"), {})
            aid, interned = column
            # the intern key of the module docstring
            kind = type(payload)
            tag = None
            if kind is int:
                token = payload
            else:
                if kind is dict and len(payload) == 1:
                    ((tag, payload),) = payload.items()
                    kind = type(payload)
                token = (tag, kind, payload) if kind is str or kind is int or (kind is float and payload != 0.0) else None
            value = interned.get(token)
            if value is None:
                try:
                    value = _parse_value(tag, payload, by_id.get(aid))
                except ValueError as exc:
                    raise ScenarioError("value", f"alternative {alt_id!r}, attribute {aid}: {exc}") from exc
                if token is not None:
                    interned[token] = value
            values[aid] = value
        try:
            alternatives.append(Alternative(alt_id, values))
        except ValueError as exc:
            raise ScenarioError("schema", f"alternative: {exc}") from exc

    try:
        task = DecisionTask(
            task_id=task_id,
            attributes=tuple(attributes),
            basic_ids=basic_ids,
            thresholds=tuple(thresholds),
            partition=partition,
            alternatives=tuple(alternatives),
            aspiration=aspiration,
        )
    except ValueError as exc:
        raise ScenarioError("schema", f"scenario: {exc}") from exc
    violations = validate_task(task)
    if violations:
        raise ScenarioError(
            violation_category(violations[0]),
            "; ".join(str(v) for v in violations),
            violations=tuple(violations),
        )
    return task


def _value_to_json(value: AttributeValue, extra_labels: dict[str, int] | None) -> Any:
    if value.kind == "crisp":
        return value.lo
    if value.kind == "interval":
        return {"interval": [value.lo, value.hi]}
    if value.kind == "at_least":
        return {"at_least": value.lo}
    if value.kind == "ordinal":
        # the bare level where the attribute's extra labels give the built-in label another level
        label = ORDINAL_LABELS[value.level - 1]
        return {"ordinal": label if label_level(label, extra_labels) == value.level else value.level}
    return {"category": value.label}


def _threshold_to_json(t: Threshold) -> Any:
    if t.op == "allowed":
        return {"allowed": sorted(t.bound)}
    return {t.op: t.bound}


def _attribute_to_json(attr: Attribute) -> dict[str, Any]:
    doc: dict[str, Any] = {"id": attr.id, "name": attr.name, "kind": attr.kind, "polarity": attr.polarity}
    if attr.unit is not None:
        doc["unit"] = attr.unit
    if attr.labels is not None:
        doc["labels"] = dict(sorted(attr.labels.items()))
    return doc


def task_to_json(task: DecisionTask) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "task_id": task.task_id,
        "attributes": [_attribute_to_json(a) for a in task.attributes],
        "basic": {
            "ids": sorted(task.basic_ids),
            "thresholds": {str(t.attribute_id): _threshold_to_json(t) for t in task.thresholds},
        },
        "dominance": {"levels": [sorted(level) for level in task.partition.levels]},
    }
    if task.aspiration is not None:
        doc["aspiration"] = {str(t.attribute_id): _threshold_to_json(t) for t in task.aspiration}
    extra_labels = {attr.id: attr.labels for attr in task.attributes}
    # a key that equals a declared id, such as True or 1.0 for id 1, is written as that id, and listed as it
    ids = {aid: aid for aid in task._by_id}
    doc["alternatives"] = [
        {
            "id": alt.id,
            "values": {
                str(ids.get(aid, aid)): _value_to_json(alt.values[aid], extra_labels.get(aid))
                for aid in sorted(alt.values, key=lambda aid: key_order(ids.get(aid, aid)))
            },
        }
        for alt in task.alternatives
    ]
    return doc


def serialize_task(task: DecisionTask) -> str:
    """Deterministic JSON text for a task; parses back to an equal task."""
    return json.dumps(task_to_json(task), indent=2, ensure_ascii=False) + "\n"


def serialize_outcome(outcome: LadderOutcome) -> str:
    """Stable plain-text trace: a verdict header, then one line per visited level."""
    lines = [f"{outcome.verdict.value} {outcome.chosen if outcome.chosen is not None else '-'}"]
    lines.extend(_level_line(record) for record in outcome.trace)
    return "\n".join(lines)


def decision_text(sifted: SiftResult, outcome: LadderOutcome) -> str:
    """The ``decide`` transcript: each elimination, the feasible ids, each rung, then the verdict."""
    lines = [
        f"eliminated {e.alternative_id} | attribute {e.attribute_id} | {e.threshold} | value {e.value}"
        for e in sifted.eliminations
    ]
    lines.append(f"feasible [{','.join(sifted.feasible)}]")
    lines.extend(_level_line(record) for record in outcome.trace)
    lines.append(f"Chosen: {outcome.chosen}" if outcome.verdict is Verdict.CHOSEN else outcome.verdict.value)
    return "\n".join(lines)


def _level_line(record: LevelRecord) -> str:
    """One ladder rung as a plain-text trace line: its rank, attributes and survivors before and after."""
    attrs = ",".join(str(a) for a in sorted(record.attribute_ids))
    before = ",".join(record.survivors_before)
    after = ",".join(record.survivors_after)
    return f"level {record.r} | attrs {{{attrs}}} | before [{before}] | after [{after}]"


def outcome_to_json(outcome: LadderOutcome) -> dict[str, Any]:
    """Trace as plain data, mirroring the level-record fields verbatim."""
    return {
        "verdict": outcome.verdict.value,
        "chosen": outcome.chosen,
        "trace": [
            {
                "r": record.r,
                "attribute_ids": sorted(record.attribute_ids),
                "survivors_before": list(record.survivors_before),
                "survivors_after": list(record.survivors_after),
            }
            for record in outcome.trace
        ],
    }


def decision_to_json(task: DecisionTask, sifted: SiftResult, outcome: LadderOutcome) -> dict[str, Any]:
    """The ``decide --json`` document: :func:`outcome_to_json`, then the task id, feasible ids and eliminations."""
    doc = outcome_to_json(outcome)
    doc["task_id"] = task.task_id
    doc["feasible"] = list(sifted.feasible)
    doc["eliminations"] = [
        {
            "alternative": e.alternative_id,
            "attribute": e.attribute_id,
            "threshold": str(e.threshold),
            "value": str(e.value),
        }
        for e in sifted.eliminations
    ]
    return doc
