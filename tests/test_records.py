"""Record contract: equality, hashing, immutability, derived fields, copying and pickling.

Values, attributes, thresholds and alternatives are frozen slotted
dataclasses, whose copying and pickling differ between Python versions.  So
this module imports no test framework and also runs as a plain script, on any
interpreter the package supports:

    PYTHONPATH=src python tests/test_records.py
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import sys
from pathlib import Path

from ladderchoice import (
    Alternative,
    Attribute,
    Threshold,
    at_least,
    category,
    crisp,
    decide_task,
    interval,
    ordinal,
    parse_scenario,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# (factory, its arguments, kind, lo, hi, level, label): each checked builder and what its value reads as
VALUES = [
    (crisp, (5,), "crisp", 5.0, None, None, None),
    (interval, (5, 7), "interval", 5.0, 7.0, None, None),
    (interval, (5, 5), "interval", 5.0, 5.0, None, None),
    (at_least, (5,), "at_least", 5.0, None, None, None),
    (ordinal, (3,), "ordinal", None, None, 3, None),
    (ordinal, ("high",), "ordinal", None, None, 4, None),
    (category, ("red",), "category", None, None, None, "red"),
]

RECORDS = [
    Attribute(1, "price", "numeric", "cost", unit="usd"),
    Attribute(2, "mood", "ordinal", "benefit", labels={"meh": 3}),
    Threshold(1, "max", 50),
    Threshold(3, "allowed", ["red", "blue"]),
    Alternative("a", {1: crisp(40), 2: ordinal(3)}),
]


def values():
    return [factory(*args) for factory, args, *_ in VALUES]


def tasks():
    return [parse_scenario(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.json"))]


def refuses(change) -> bool:
    """Whether ``change`` raises ``FrozenInstanceError``."""
    try:
        change()
    except dataclasses.FrozenInstanceError:
        return True
    return False


def test_fields_read_from_the_key_as_before():
    for factory, args, kind, lo, hi, level, label in VALUES:
        value = factory(*args)
        assert (value.kind, value.lo, value.hi, value.level, value.label) == (kind, lo, hi, level, label), value
        assert lo is None or type(value.lo) is float
    assert at_least(5).key == ("n", 5.0, math.inf)
    assert crisp(5).key == ("n", 5.0, 5.0)


def test_kind_takes_part_in_equality():
    assert crisp(5).key == interval(5, 5).key
    assert crisp(5) != interval(5, 5)
    for a, b in zip(values(), values()[1:]):
        assert a != b


def test_equal_values_hash_equal():
    for a, b in zip(values(), values()):
        assert a == b and hash(a) == hash(b)
    for a, b in [(crisp(5), crisp(5.0)), (ordinal(4), ordinal("high")), (interval(1, 2), interval(1.0, 2.0))]:
        assert a == b and hash(a) == hash(b)
    assert len(set(values() + values())) == len(VALUES)


def test_assigning_to_a_field_raises():
    for record in values() + RECORDS:
        for field in dataclasses.fields(record):
            assert refuses(lambda: setattr(record, field.name, None)), field


def test_a_derived_or_unknown_attribute_cannot_be_set():
    for value in values():
        for name in ("lo", "hi", "level", "label", "extra"):
            assert refuses(lambda: setattr(value, name, 1)), (value, name)
        assert not hasattr(value, "extra")
    for record in RECORDS:
        assert refuses(lambda: setattr(record, "extra", 1)), record


def test_deleting_any_attribute_raises():
    for record in values() + RECORDS:
        before = copy.copy(record)
        for name in [field.name for field in dataclasses.fields(record)] + ["extra"]:
            assert refuses(lambda: delattr(record, name)), (record, name)
        assert record == before


def test_the_refusal_names_the_attribute():
    value = crisp(5)
    for change, message in [
        (lambda: setattr(value, "kind", "interval"), "cannot assign to field 'kind'"),
        (lambda: setattr(value, "lo", 1), "cannot assign to field 'lo'"),
        (lambda: delattr(value, "key"), "cannot delete field 'key'"),
    ]:
        try:
            change()
        except dataclasses.FrozenInstanceError as exc:
            assert str(exc) == message, exc
        else:
            raise AssertionError(message)
    assert value == crisp(5)


def test_copies_and_pickles_are_equal():
    for original in values() + RECORDS:
        for twin in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            assert type(twin) is type(original) and twin == original, twin


def test_a_parsed_task_copies_and_pickles_to_an_equal_task():
    for task in tasks():
        task.attribute(1)  # fill the task's cached lookups before copying
        expected = decide_task(task)
        for twin in (copy.copy(task), copy.deepcopy(task), pickle.loads(pickle.dumps(task))):
            assert twin == task
            assert decide_task(twin) == expected
            assert [alt.values for alt in twin.alternatives] == [alt.values for alt in task.alternatives]


if __name__ == "__main__":
    checks = [check for name, check in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
    print(f"{len(checks)} record contract checks passed on Python {sys.version.split()[0]}")
