"""Record contract: repr, equality, hashing, immutability, derived fields, copying and pickling.

The instances of each of the eleven record classes of ``ladderchoice.model``
refuse every change; values, attributes, thresholds and alternatives hold
their fields in slots.  A record class becomes a dataclass the first time
its metadata is read, so each way to read it is also checked as the first
use of a record class in a fresh interpreter.  Copying and pickling such
records differ between Python versions, so this module imports no test
framework and also runs as a plain script, on any interpreter the package
supports:

    PYTHONPATH=src python tests/test_records.py
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import subprocess
import sys
from pathlib import Path

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominancePartition,
    Threshold,
    Verdict,
    at_least,
    category,
    crisp,
    decide_task,
    interval,
    ordinal,
    parse_scenario,
)
from ladderchoice.model import AttributeValue, Elimination, LadderOutcome, LevelRecord, SiftResult, Violation

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

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

def small_task() -> DecisionTask:
    return DecisionTask(
        "t",
        [Attribute(1, "price", "numeric", "cost"), Attribute(2, "mood", "ordinal", "benefit")],
        {1},
        [Threshold(1, "max", 50)],
        DominancePartition([[2]]),
        [Alternative("a", {1: crisp(40), 2: ordinal(3)})],
    )


# each record class: a builder of one instance, its field names, its repr, and a change to one field
CASES = [
    (lambda: crisp(5), ("kind", "key"), "AttributeValue(kind='crisp', key=('n', 5.0, 5.0))", {"kind": "interval"}),
    (
        lambda: Attribute(1, "price", "numeric", "cost", unit="usd"),
        ("id", "name", "kind", "polarity", "unit", "labels"),
        "Attribute(id=1, name='price', kind='numeric', polarity='cost', unit='usd', labels=None)",
        {"unit": "eur"},
    ),
    (
        lambda: Attribute(2, "mood", "ordinal", "benefit", labels={"meh": 3}),
        ("id", "name", "kind", "polarity", "unit", "labels"),
        "Attribute(id=2, name='mood', kind='ordinal', polarity='benefit', unit=None, labels={'meh': 3})",
        {"labels": {"meh": 2}},
    ),
    (
        lambda: Threshold(1, "max", 50),
        ("attribute_id", "op", "bound"),
        "Threshold(attribute_id=1, op='max', bound=50.0)",
        {"bound": 40},
    ),
    (
        lambda: Threshold(3, "allowed", ["red"]),
        ("attribute_id", "op", "bound"),
        "Threshold(attribute_id=3, op='allowed', bound=frozenset({'red'}))",
        {"attribute_id": 4},
    ),
    (
        lambda: DominancePartition([[1], (2,)]),
        ("levels",),
        "DominancePartition(levels=(frozenset({1}), frozenset({2})))",
        {"levels": [[2], [1]]},
    ),
    (
        lambda: Alternative("a", {1: crisp(40), 2: ordinal(3)}),
        ("id", "values"),
        "Alternative(id='a', values={1: AttributeValue(kind='crisp', key=('n', 40.0, 40.0)),"
        " 2: AttributeValue(kind='ordinal', key=('o', 3))})",
        {"id": "b"},
    ),
    (
        small_task,
        ("task_id", "attributes", "basic_ids", "thresholds", "partition", "alternatives", "aspiration"),
        "DecisionTask(task_id='t', attributes=(Attribute(id=1, name='price', kind='numeric', polarity='cost',"
        " unit=None, labels=None), Attribute(id=2, name='mood', kind='ordinal', polarity='benefit', unit=None,"
        " labels=None)), basic_ids=frozenset({1}), thresholds=(Threshold(attribute_id=1, op='max', bound=50.0),),"
        " partition=DominancePartition(levels=(frozenset({2}),)), alternatives=(Alternative(id='a',"
        " values={1: AttributeValue(kind='crisp', key=('n', 40.0, 40.0)), 2: AttributeValue(kind='ordinal',"
        " key=('o', 3))}),), aspiration=None)",
        {"aspiration": [Threshold(2, "min_level", 2)]},
    ),
    (
        lambda: Elimination("a", 1, Threshold(1, "max", 50), crisp(60)),
        ("alternative_id", "attribute_id", "threshold", "value"),
        "Elimination(alternative_id='a', attribute_id=1, threshold=Threshold(attribute_id=1, op='max', bound=50.0),"
        " value=AttributeValue(kind='crisp', key=('n', 60.0, 60.0)))",
        {"alternative_id": "b"},
    ),
    (
        lambda: SiftResult(("a",), ()),
        ("feasible", "eliminations"),
        "SiftResult(feasible=('a',), eliminations=())",
        {"feasible": ("b",)},
    ),
    (
        lambda: LevelRecord(1, frozenset({2}), ("a", "b"), ("a",)),
        ("r", "attribute_ids", "survivors_before", "survivors_after"),
        "LevelRecord(r=1, attribute_ids=frozenset({2}), survivors_before=('a', 'b'), survivors_after=('a',))",
        {"r": 2},
    ),
    (
        lambda: LadderOutcome(Verdict.CHOSEN, chosen="a"),
        ("verdict", "chosen", "trace"),
        "LadderOutcome(verdict=<Verdict.CHOSEN: 'Chosen'>, chosen='a', trace=())",
        {"chosen": "b"},
    ),
    (
        lambda: Violation("coverage", "attribute id(s) [3] belong to neither"),
        ("code", "message"),
        "Violation(code='coverage', message='attribute id(s) [3] belong to neither')",
        {"code": "unknown-reference"},
    ),
]

RECORDS = [build() for build, *_ in CASES]

# the record classes whose instances hold their fields in slots and have no __dict__
SLOTTED = {AttributeValue, Attribute, Threshold, Alternative}


def values():
    return [factory(*args) for factory, args, *_ in VALUES]


def tasks():
    return [parse_scenario(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.json"))]


def hash_or_none(record) -> int | None:
    """``hash(record)``, or None when a field holds something unhashable."""
    try:
        return hash(record)
    except TypeError:
        return None


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


def test_each_record_reads_as_pinned():
    for record, (_, _, text, _) in zip(RECORDS, CASES):
        assert repr(record) == text, repr(record)


def test_equal_records_hash_equal_and_others_differ():
    for (build, _, _, change), record in zip(CASES, RECORDS):
        twin = build()
        assert twin is not record and twin == record and not twin != record
        assert hash_or_none(twin) == hash_or_none(record)
        changed = dataclasses.replace(record, **change)
        assert changed != record and not changed == record, changed
    for record, other in zip(RECORDS, RECORDS[1:]):
        if type(record) is not type(other):
            assert record.__eq__(other) is NotImplemented and record != other
    assert crisp(5).__eq__(("crisp", ("n", 5.0, 5.0))) is NotImplemented
    # an attribute with extra labels, an alternative and a task hold a dict, so they do not hash
    unhashable = [type(record).__name__ for record in RECORDS if hash_or_none(record) is None]
    assert unhashable == ["Attribute", "Alternative", "DecisionTask"], unhashable


def test_fields_replace_and_asdict_see_every_field():
    for (_, names, _, change), record in zip(CASES, RECORDS):
        cls = type(record)
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
        assert tuple(field.name for field in dataclasses.fields(record)) == names == cls.__match_args__
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, **change)
        assert type(changed) is cls
        assert all(getattr(changed, name) == getattr(record, name) for name in names if name not in change)
        assert tuple(dataclasses.asdict(record)) == names
    assert dataclasses.asdict(crisp(5)) == {"kind": "crisp", "key": ("n", 5.0, 5.0)}
    assert dataclasses.asdict(Elimination("a", 1, Threshold(1, "max", 50), crisp(60))) == {
        "alternative_id": "a",
        "attribute_id": 1,
        "threshold": {"attribute_id": 1, "op": "max", "bound": 50.0},
        "value": {"kind": "crisp", "key": ("n", 60.0, 60.0)},
    }
    assert dataclasses.replace(Threshold(1, "max", 50), bound=40).bound == 40.0
    assert dataclasses.replace(small_task(), thresholds={Threshold(1, "min", 5)}).thresholds == (Threshold(1, "min", 5),)


def test_which_records_hold_slots():
    assert len({type(record) for record in RECORDS}) == 11
    for record in RECORDS:
        slotted = type(record) in SLOTTED
        assert ("__slots__" in vars(type(record))) is slotted, record
        assert hasattr(record, "__dict__") is not slotted, record


def test_copies_and_pickles_are_equal():
    for original in values() + RECORDS:
        pickles = [pickle.loads(pickle.dumps(original, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [copy.copy(original), copy.deepcopy(original)] + pickles:
            assert type(twin) is type(original) and twin == original, twin
            assert repr(twin) == repr(original) and hash_or_none(twin) == hash_or_none(original)


def test_a_parsed_task_copies_and_pickles_to_an_equal_task():
    for task in tasks():
        expected = decide_task(task)
        twins = [copy.copy(task), copy.deepcopy(task), pickle.loads(pickle.dumps(task))]
        for twin in twins:
            assert twin == task
            assert decide_task(twin) == expected
            assert [alt.values for alt in twin.alternatives] == [alt.values for alt in task.alternatives]
        # the attribute index is no field, so every way to build a task again must build it too
        regrouped = DominancePartition(task.partition.levels[::-1])
        changed = [dataclasses.replace(task, partition=regrouped)]
        if sys.version_info >= (3, 13):
            changed.append(copy.replace(task, partition=regrouped))
        assert all(twin.partition == regrouped for twin in changed)
        for twin in twins + changed:
            assert vars(twin).keys() == vars(task).keys(), twin
            assert all(twin.attribute(aid) == task.attribute(aid) for aid in task.attribute_ids())


# each way to read a record's metadata or to be refused a change, as the first use of a record
# class in a fresh interpreter, and what it prints
FIRST_USES = {
    "is_dataclass": (
        "import dataclasses; print(dataclasses.is_dataclass(Violation), dataclasses.is_dataclass(Violation('c', 'm')))",
        "True True",
    ),
    "fields": ("import dataclasses; print([field.name for field in dataclasses.fields(crisp(5))])", "['kind', 'key']"),
    "fields with defaults": (
        "import dataclasses\n"
        "print([(field.name, field.default) for field in dataclasses.fields(TheoryRow) if field.default is not dataclasses.MISSING])",
        "[('chosen', None), ('detail', '')]",
    ),
    "replace": (
        "import dataclasses; print(repr(dataclasses.replace(Threshold(1, 'max', 50), bound=40)))",
        "Threshold(attribute_id=1, op='max', bound=40.0)",
    ),
    "asdict": (
        "import dataclasses; print(dataclasses.asdict(Elimination('a', 1, Threshold(1, 'max', 50), crisp(60))))",
        "{'alternative_id': 'a', 'attribute_id': 1, 'threshold': {'attribute_id': 1, 'op': 'max', 'bound': 50.0},"
        " 'value': {'kind': 'crisp', 'key': ('n', 60.0, 60.0)}}",
    ),
    "assignment": (
        "try:\n    crisp(5).kind = 'interval'\nexcept Exception as exc:\n    import dataclasses\n"
        "    print(type(exc) is dataclasses.FrozenInstanceError, exc)",
        "True cannot assign to field 'kind'",
    ),
    "deletion": (
        "try:\n    del Violation('c', 'm').code\nexcept Exception as exc:\n    import dataclasses\n"
        "    print(type(exc) is dataclasses.FrozenInstanceError, exc)",
        "True cannot delete field 'code'",
    ),
    "match": (
        "match crisp(5), Violation('c', 'm'):\n    case AttributeValue(kind, key), Violation(code, message):\n"
        "        print(kind, key, code, message)",
        "crisp ('n', 5.0, 5.0) c m",
    ),
    "copy.replace": (
        "import copy; print(repr(copy.replace(crisp(5), kind='interval')))",
        "AttributeValue(kind='interval', key=('n', 5.0, 5.0))",
    ),
    # dataclass() reads __dataclass_fields__ on every base of the class it makes a dataclass, _Record too
    "fields of a second class": (
        "import dataclasses; dataclasses.fields(crisp(5)); print([field.name for field in dataclasses.fields(Violation)])",
        "['code', 'message']",
    ),
}


def fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that has imported the record classes and used none of them."""
    imports = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "from ladderchoice.baselines import TheoryRow\n"
        "from ladderchoice.model import AttributeValue, Elimination, Threshold, Violation, crisp\n"
    )
    run = subprocess.run([sys.executable, "-c", imports + code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_each_metadata_read_and_refusal_works_as_the_first_use_of_a_record_class():
    for name, (code, expected) in FIRST_USES.items():
        if name == "copy.replace" and sys.version_info < (3, 13):
            continue  # copy.replace is new in Python 3.13
        assert fresh(code) == expected, name


if __name__ == "__main__":
    checks = [check for name, check in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
    print(f"{len(checks)} record contract checks passed on Python {sys.version.split()[0]}")
