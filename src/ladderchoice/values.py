"""Ordering of attribute values and threshold satisfaction.

Single source of truth for "is this value better than that one" under an
attribute's polarity: :func:`signed_coords`, the coordinates the ladder's
dominance test compares componentwise, and its column form
:func:`signed_columns`, which reads a whole column of keys at once.  Both sign
coordinates through one rule, :func:`_signed`.  Numeric shapes order by both
bounds, a partial order in which crossing intervals are incomparable rather
than silently ranked.  Thresholds use best-case endpoints, so an interval
passes a bound whenever some point of it does.  Both questions read
``AttributeValue.key``: its first item, the family tag, decides which values
order and which thresholds judge a value; the rest are the coordinates.
"""

from __future__ import annotations

from operator import itemgetter, neg
from typing import Sequence

from .model import KIND_FAMILY, OP_FAMILY, Attribute, AttributeValue, Threshold

_tag, _lo, _hi = itemgetter(0), itemgetter(1), itemgetter(2)


def _signed(coords: Sequence, polarity: str) -> Sequence:
    """``coords`` with larger being better: as they are under benefit, each negated under cost."""
    if polarity == "benefit":
        return coords
    if polarity == "cost":
        return list(map(neg, coords))
    raise ValueError(f"an ordered value needs cost/benefit polarity, got {polarity!r}")


def signed_coords(key: tuple, polarity: str) -> tuple:
    """The coordinates that order a value of ``key``, larger being better, negated under cost.

    ``(lo, hi)`` for the numeric shapes and ``(level,)`` for an ordinal; a
    category has no order, and an ordered value needs cost or benefit.
    """
    if key[0] == "c":
        raise ValueError("a category value has no order")
    return tuple(_signed(key[1:], polarity))


def signed_columns(keys: Sequence[tuple], attr: Attribute) -> list[list]:
    """The column form of :func:`signed_coords`: the keys of one ordered column, read cell by cell.

    Gives one list per coordinate, the i-th item of each belonging to
    ``keys[i]``: the lower ends alone when every value is a point (crisp,
    ordinal, a degenerate interval), since the upper ends then repeat them,
    else the lower ends and the upper ends.  Row i is ``signed_coords(keys[i],
    attr.polarity)``, cut to its first coordinate in the first case, and no
    key is hashed.  A category raises ``ValueError`` as in
    :func:`signed_coords`, and so does a value of another family than the
    attribute's kind, at the first such key.
    """
    family = KIND_FAMILY[attr.kind]
    if family == "c" or set(map(_tag, keys)) != {family}:
        for key in keys:
            if key[0] == "c":
                raise ValueError("a category value has no order")
            if key[0] != family:
                raise ValueError(f"{attr.kind} attribute {attr.id} cannot order a value of another family, {key!r}")
    columns = [list(map(_lo, keys))]
    if family == "n":
        his = list(map(_hi, keys))
        if his != columns[0]:
            columns.append(his)
    return [_signed(column, attr.polarity) for column in columns]


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
