"""Ordering of attribute values and threshold satisfaction.

Single source of truth for "is this value better than that one" under an
attribute's polarity: :func:`signed_columns` reads a column of value keys
into the coordinates the ladder's dominance test compares componentwise,
larger being better.  Numeric shapes order by both bounds, a partial order
in which crossing intervals are incomparable rather than silently ranked.
Thresholds use best-case endpoints, so an interval passes a bound whenever
some point of it does.  Both questions read ``AttributeValue.key``: its first
item, the family tag, decides which values order and which thresholds judge
a value; the rest are the coordinates.
"""

from __future__ import annotations

from operator import itemgetter, neg
from typing import Sequence

from .model import KIND_FAMILY, OP_FAMILY, Attribute, AttributeValue, Threshold

_tag, _lo, _hi = itemgetter(0), itemgetter(1), itemgetter(2)


def signed_columns(keys: Sequence[tuple], attr: Attribute) -> list[list]:
    """The coordinates that order the values of one ordered column, larger being better, read cell by cell.

    Gives one list per coordinate, the i-th item of each belonging to
    ``keys[i]``: a key's coordinates are ``(lo, hi)`` for the numeric shapes
    and ``(level,)`` for an ordinal, each negated under cost.  When every
    value is a point (crisp, ordinal, a degenerate interval) the upper ends
    repeat the lower ends, so the lower ends come alone.  No key is hashed.
    A category has no order and raises ``ValueError``, and so does a value of
    another family than the attribute's kind, at the first such key.
    """
    family = KIND_FAMILY[attr.kind]
    if family == "c" or set(map(_tag, keys)) != {family}:
        for key in keys:
            if key[0] == "c":
                raise ValueError("a category value has no order")
            if key[0] != family:
                raise ValueError(f"{attr.kind} attribute {attr.id} cannot order a value of another family, {key!r}")
    los = list(map(_lo, keys))
    his = list(map(_hi, keys)) if family == "n" else los
    columns = [los] if his == los else [los, his]
    if attr.polarity == "cost":
        return [list(map(neg, column)) for column in columns]
    return columns


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
