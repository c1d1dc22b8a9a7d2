"""Ordering of attribute values and threshold satisfaction.

Single source of truth for "is this value better than that one" under an
attribute's polarity.  Numeric shapes (crisp, interval, at-least) compare by
their (lo, hi) bounds componentwise, which yields a partial order: crossing
intervals are Incomparable rather than silently ranked.  Thresholds use
best-case endpoints, so an interval passes a bound whenever some point of it
does.
"""

from __future__ import annotations

from enum import Enum

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


def _same_family(a: AttributeValue, b: AttributeValue) -> bool:
    if a.is_numeric and b.is_numeric:
        return True
    return a.kind == b.kind


def compare_values(a: AttributeValue, b: AttributeValue, polarity: str) -> PartialOrdering:
    """Compare two same-family values under cost/benefit polarity.

    Numeric comparison lifts crisp values to degenerate intervals and
    at-least values to intervals unbounded above, then orders by both bounds:
    under benefit, ``a`` beats ``b`` iff both bounds of ``a`` are at least
    those of ``b`` with one strictly greater (mirrored under cost).  Ordinals
    order by level, flipped under cost.  Categories are Equal on the same
    label and Incomparable otherwise.  Mixing families is a contract error.
    """
    if not _same_family(a, b):
        raise ValueError(f"cannot compare {a.kind} value with {b.kind} value")

    if a.is_numeric:
        if polarity not in ("cost", "benefit"):
            raise ValueError(f"numeric comparison needs cost/benefit polarity, got {polarity!r}")
        lo_a, hi_a = a.bounds()
        lo_b, hi_b = b.bounds()
        if lo_a == lo_b and hi_a == hi_b:
            return PartialOrdering.EQUAL
        if lo_a >= lo_b and hi_a >= hi_b:
            result = PartialOrdering.BETTER
        elif lo_a <= lo_b and hi_a <= hi_b:
            result = PartialOrdering.WORSE
        else:
            return PartialOrdering.INCOMPARABLE
        return result.flipped() if polarity == "cost" else result

    if a.kind == "ordinal":
        if polarity not in ("cost", "benefit"):
            raise ValueError(f"ordinal comparison needs cost/benefit polarity, got {polarity!r}")
        if a.level == b.level:
            return PartialOrdering.EQUAL
        result = PartialOrdering.BETTER if a.level > b.level else PartialOrdering.WORSE
        return result.flipped() if polarity == "cost" else result

    return PartialOrdering.EQUAL if a.label == b.label else PartialOrdering.INCOMPARABLE


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
