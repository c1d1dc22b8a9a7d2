"""Ordering of attribute values and threshold satisfaction.

Single source of truth for "is this value better than that one" under an
attribute's polarity: :func:`signed_coords`, which :func:`compare_values` and
the ladder's dominance test compare componentwise.  Numeric shapes order by
both bounds, a partial order in which crossing intervals are Incomparable
rather than silently ranked.  Thresholds use best-case endpoints, so an
interval passes a bound whenever some point of it does.
"""

from __future__ import annotations

from enum import Enum
from operator import ge, neg

from .model import AttributeValue, Threshold


class PartialOrdering(Enum):
    BETTER = "better"
    WORSE = "worse"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "PartialOrdering":
        if self is PartialOrdering.BETTER:
            return PartialOrdering.WORSE
        if self is PartialOrdering.WORSE:
            return PartialOrdering.BETTER
        return self


def signed_coords(value: AttributeValue, polarity: str) -> tuple:
    """The coordinates that order ``value``, larger being better, negated under cost.

    ``(lo, hi)`` for the numeric shapes and ``(level,)`` for an ordinal; a
    category has no order, and an ordered value needs cost or benefit.
    """
    if value.key[0] == "c":
        raise ValueError("a category value has no order")
    if polarity == "benefit":
        return value.key[1:]
    if polarity == "cost":
        return tuple(map(neg, value.key[1:]))
    raise ValueError(f"{value.kind} comparison needs cost/benefit polarity, got {polarity!r}")


def compare_values(a: AttributeValue, b: AttributeValue, polarity: str) -> PartialOrdering:
    """Compare two same-family values: componentwise on :func:`signed_coords`.

    Categories are Equal on the same label and Incomparable otherwise.  Mixing
    families is a contract error.
    """
    if a.key[0] != b.key[0]:
        raise ValueError(f"cannot compare {a.kind} value with {b.kind} value")
    if a.key[0] == "c":
        return PartialOrdering.EQUAL if a.key == b.key else PartialOrdering.INCOMPARABLE
    sa, sb = signed_coords(a, polarity), signed_coords(b, polarity)
    if sa == sb:
        return PartialOrdering.EQUAL
    if all(map(ge, sa, sb)):
        return PartialOrdering.BETTER
    if all(map(ge, sb, sa)):
        return PartialOrdering.WORSE
    return PartialOrdering.INCOMPARABLE


def satisfies_threshold(value: AttributeValue, threshold: Threshold) -> bool:
    """Whether a value meets an acceptance threshold.

    Numeric bounds use best-case endpoints: a ``max c`` threshold passes when
    the value's lower bound stays within ``c``, a ``min c`` threshold passes
    when the upper bound reaches ``c``.  Kind mismatches are contract errors.
    """
    op = threshold.op
    if op in ("max", "min"):
        if not value.is_numeric:
            raise ValueError(f"{op} threshold cannot judge a {value.kind} value")
        lo, hi = value.bounds()
        return lo <= threshold.bound if op == "max" else hi >= threshold.bound
    if op in ("min_level", "max_level"):
        if value.kind != "ordinal":
            raise ValueError(f"{op} threshold cannot judge a {value.kind} value")
        return value.level >= threshold.bound if op == "min_level" else value.level <= threshold.bound
    if value.kind != "category":
        raise ValueError(f"allowed threshold cannot judge a {value.kind} value")
    return value.label in threshold.bound
