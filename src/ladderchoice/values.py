"""Ordering of attribute values and threshold satisfaction.

Single source of truth for "is this value better than that one" under an
attribute's polarity: :func:`signed_coords`, the coordinates the ladder's
dominance test compares componentwise.  Numeric shapes order by both bounds,
a partial order in which crossing intervals are incomparable rather than
silently ranked.  Thresholds use best-case endpoints, so an interval passes a
bound whenever some point of it does.  Both questions read
``AttributeValue.key``: its first item, the family tag, decides which values
order and which thresholds judge a value; the rest are the coordinates.
"""

from __future__ import annotations

from .model import OP_FAMILY, AttributeValue, Threshold


def signed_coords(key: tuple, polarity: str) -> tuple:
    """The coordinates that order a value of ``key``, larger being better, negated under cost.

    ``(lo, hi)`` for the numeric shapes and ``(level,)`` for an ordinal; a
    category has no order, and an ordered value needs cost or benefit.
    """
    if key[0] == "c":
        raise ValueError("a category value has no order")
    if polarity == "benefit":
        return key[1:]
    if polarity == "cost":
        return (-key[1], -key[2]) if len(key) == 3 else (-key[1],)
    raise ValueError(f"an ordered value needs cost/benefit polarity, got {polarity!r}")


def satisfies_threshold(value: AttributeValue, threshold: Threshold) -> bool:
    """Whether a value meets an acceptance threshold.

    A threshold judges only values of its op's family in
    :data:`~ladderchoice.model.OP_FAMILY`; any other value is a contract
    error.  Bounds use best-case endpoints of ``value.key``: ``max`` and
    ``max_level`` test its lower end, ``min`` and ``min_level`` its upper end
    (an ordinal's level is both), and ``allowed`` its label.
    """
    op, key = threshold.op, value.key
    if key[0] != OP_FAMILY[op]:
        raise ValueError(f"{op} threshold cannot judge a {value.kind} value")
    if op == "max" or op == "max_level":
        return key[1] <= threshold.bound
    if op == "min" or op == "min_level":
        return key[-1] >= threshold.bound
    return key[1] in threshold.bound
