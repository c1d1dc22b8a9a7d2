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
invariant), so callers can report precisely why a file was rejected.

Within one parsed task, equal payloads on one attribute share one immutable
:class:`AttributeValue`, so a task costs one value construction per distinct
value, not one per cell.  Which objects are shared is not API: compare values
by equality or ``key``, never by identity.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .model import (
    ORDINAL_LABELS,
    Alternative,
    Attribute,
    AttributeValue,
    DecisionTask,
    DominancePartition,
    LadderOutcome,
    LevelRecord,
    Threshold,
    Violation,
    at_least,
    category,
    crisp,
    interval,
    label_level,
    ordinal,
    validate_task,
)

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


class ScenarioError(Exception):
    """Rejected scenario text, with a stable category and optional position."""

    def __init__(
        self,
        category_name: str,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
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


def _parse_attribute(raw: Any) -> Attribute:
    aid = _require(raw, "id", "attribute")
    name = _require(raw, "name", f"attribute {aid}")
    kind = _require(raw, "kind", f"attribute {aid}")
    polarity = _require(raw, "polarity", f"attribute {aid}")
    labels = raw.get("labels")
    if labels is not None and not isinstance(labels, dict):
        raise ScenarioError("schema", f"attribute {aid}: labels must map label -> level")
    try:
        return Attribute(id=aid, name=name, kind=kind, polarity=polarity, unit=raw.get("unit"), labels=labels)
    except ValueError as exc:
        raise ScenarioError("schema", f"attribute {aid}: {exc}") from exc


def _parse_value(raw: Any, attribute: Optional[Attribute]) -> AttributeValue:
    """One encoded value; raises ``ValueError`` or ``TypeError`` when it is malformed."""
    if isinstance(raw, (int, float)):
        return crisp(raw)
    if isinstance(raw, dict) and len(raw) == 1:
        ((tag, payload),) = raw.items()
        if tag == "interval":
            lo, hi = payload
            return interval(lo, hi)
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
    raise ValueError(f"unrecognized value encoding {raw!r}")


def _value_token(raw: Any) -> Optional[tuple]:
    """Hashable stand-in for an encoded value, or None when the value is not interned.

    Two encodings share a token only if parsing cannot tell them apart.  The
    token is exact on type, because ``True``, ``1`` and ``1.0`` hash equal; it
    leaves out float zero, because ``0.0`` and ``-0.0`` hash equal but
    serialize differently; and it leaves out payloads that are neither a
    string nor a number, such as interval lists.
    """
    tag = None
    if type(raw) is dict and len(raw) == 1:
        ((tag, raw),) = raw.items()
    kind = type(raw)
    if kind is str or kind is int or (kind is float and raw != 0.0):
        return (tag, kind, raw)
    return None


def _parse_threshold(attribute_id: int, raw: Any, context: str) -> Threshold:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ScenarioError("schema", f"{context}: threshold must be a single-predicate object")
    ((op, bound),) = raw.items()
    try:
        return Threshold(attribute_id=attribute_id, op=op, bound=bound)
    except (ValueError, TypeError) as exc:
        raise ScenarioError("value", f"{context}: {exc}") from exc


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
    return [_parse_threshold(_attribute_id(key, context), raw[key], f"{context}[{key}]") for key in raw]


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

    task_id = _require(doc, "task_id", "scenario")
    raw_attributes = _require(doc, "attributes", "scenario")
    if not isinstance(raw_attributes, list) or not raw_attributes:
        raise ScenarioError("schema", "attributes must be a non-empty list")
    attributes = [_parse_attribute(raw) for raw in raw_attributes]
    by_id = {}
    for attr in attributes:
        by_id.setdefault(attr.id, attr)

    basic = _require(doc, "basic", "scenario")
    basic_ids = _require(basic, "ids", "basic")
    if not isinstance(basic_ids, list):
        raise ScenarioError("schema", "basic.ids must be a list of attribute ids")
    thresholds = _parse_threshold_map(_require(basic, "thresholds", "basic"), "basic.thresholds")

    dominance = _require(doc, "dominance", "scenario")
    levels = _require(dominance, "levels", "dominance")
    if not isinstance(levels, list):
        raise ScenarioError("schema", "dominance.levels must be a list of id lists")
    try:
        partition = DominancePartition(levels)
    except (ValueError, TypeError) as exc:
        raise ScenarioError("schema", f"dominance.levels: {exc}") from exc

    aspiration = None
    if doc.get("aspiration") is not None:
        aspiration = tuple(_parse_threshold_map(doc["aspiration"], "aspiration"))

    raw_alternatives = _require(doc, "alternatives", "scenario")
    if not isinstance(raw_alternatives, list):
        raise ScenarioError("schema", "alternatives must be a list")
    alternatives = []
    # values key -> (attribute id, values already built on it by payload token)
    columns: dict[str, tuple[int, dict[tuple, AttributeValue]]] = {}
    for raw in raw_alternatives:
        alt_id = _require(raw, "id", "alternative")
        raw_values = _require(raw, "values", f"alternative {alt_id!r}")
        if not isinstance(raw_values, dict):
            raise ScenarioError("schema", f"alternative {alt_id!r}: values must map attribute ids")
        values = {}
        for key, payload in raw_values.items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = (_attribute_id(key, f"alternative {alt_id!r}"), {})
            aid, interned = column
            token = _value_token(payload)
            value = interned.get(token)
            if value is None:
                try:
                    value = _parse_value(payload, by_id.get(aid))
                except (ValueError, TypeError) as exc:
                    raise ScenarioError("value", f"alternative {alt_id!r}, attribute {aid}: {exc}") from exc
                if token is not None:
                    interned[token] = value
            values[aid] = value
        try:
            alternatives.append(Alternative(id=alt_id, values=values))
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
        first = _VIOLATION_CATEGORY.get(violations[0].code, "invariant")
        raise ScenarioError(
            first,
            "; ".join(str(v) for v in violations),
            violations=tuple(violations),
        )
    return task


def _value_to_json(value: AttributeValue, extra_labels: Optional[dict[str, int]]) -> Any:
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
    if attr.labels:
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
    doc["alternatives"] = [
        {
            "id": alt.id,
            "values": {
                str(aid): _value_to_json(alt.values[aid], extra_labels.get(aid)) for aid in sorted(alt.values)
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
    lines.extend(level_line(record) for record in outcome.trace)
    return "\n".join(lines)


def level_line(record: LevelRecord) -> str:
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
