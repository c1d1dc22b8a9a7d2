"""Domain type invariants and the task validator."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominanceMode,
    DominancePartition,
    Threshold,
    Verdict,
    at_least,
    category,
    crisp,
    decide_task,
    interval,
    ordinal,
    serialize_task,
    validate_task,
)
from ladderchoice.model import AttributeValue, LadderOutcome
from ladderchoice.oracle import random_task
from ladderchoice.sift import satisfies_threshold


def make_task(**overrides) -> DecisionTask:
    """Small well-formed two-attribute task; override fields to break it."""
    fields = dict(
        task_id="t",
        attributes=(
            Attribute(1, "price", "numeric", "cost"),
            Attribute(2, "grade", "ordinal", "benefit"),
        ),
        basic_ids=frozenset({1}),
        thresholds=(Threshold(1, "max", 100),),
        partition=DominancePartition([[1], [2]]),
        alternatives=(
            Alternative("a", {1: crisp(50), 2: ordinal(4)}),
            Alternative("b", {1: crisp(60), 2: ordinal(3)}),
        ),
    )
    fields.update(overrides)
    return DecisionTask(**fields)


class TestValueConstruction:
    @pytest.mark.parametrize(
        "kind,key",
        [("ordinal", 5), ("ordinal", ()), ("ordinal", [["n"]]), ("ordinal", ("n", 3.0, 3.0)), ("crisp", ("o", 1))],
        ids=["no-sequence", "empty", "unhashable-tag", "another-family", "tag-of-another-kind"],
    )
    def test_the_raw_constructor_refuses_a_key_whose_tag_is_not_its_kinds(self, kind, key):
        # so a cell's value always has a tag, of its kind's family: the screen reads no
        # value by its tag alone, and a misfit is named by a kind that does not fit
        with pytest.raises(ValueError, match=rf"^a value of kind '{kind}' cannot have the key "):
            AttributeValue(kind, key)

    def test_interval_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            interval(5, 3)

    def test_ordinal_level_range(self):
        assert ordinal(1).level == 1
        assert ordinal(5).level == 5
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                ordinal(bad)

    def test_ordinal_from_canonical_label(self):
        assert ordinal("moderate").level == 3
        with pytest.raises(ValueError):
            ordinal("medium")

    def test_at_least_needs_finite_bound(self):
        assert at_least(3).key == ("n", 3.0, float("inf"))
        with pytest.raises(ValueError):
            at_least(float("inf"))

    def test_crisp_rejects_nan(self):
        with pytest.raises(ValueError):
            crisp(float("nan"))

    def test_category_needs_label(self):
        with pytest.raises(ValueError):
            category("")

    @pytest.mark.parametrize("lo,hi", [(0, math.inf), (-math.inf, 0), (0, math.nan)], ids=["inf", "-inf", "nan"])
    def test_interval_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match=r"^interval bounds must be finite$"):
            interval(lo, hi)

    def test_crisp_bounds_are_degenerate(self):
        assert crisp(40).key == ("n", 40.0, 40.0)


class TestValuesEqual:
    def test_crisp_equals_degenerate_interval(self):
        assert crisp(40).key == interval(40, 40).key

    def test_cross_family_never_equal(self):
        assert crisp(3).key != ordinal(3).key
        assert category("3").key != crisp(3).key

    def test_equivalence_relation(self):
        pool = [
            crisp(1), crisp(2), interval(1, 1), interval(1, 2), at_least(1),
            ordinal(2), ordinal(3), category("x"), category("y"),
        ]
        for a in pool:
            assert a.key == a.key
        for a, b in itertools.product(pool, pool):
            assert (a.key == b.key) == (b.key == a.key)
            assert (a.key == b.key) == _naive_same(a, b)
        for a, b, c in itertools.product(pool, pool, pool):
            if a.key == b.key and b.key == c.key:
                assert a.key == c.key


class TestAttributeAndThreshold:
    def test_categorical_polarity_must_be_none(self):
        with pytest.raises(ValueError):
            Attribute(1, "color", "categorical", "benefit")
        Attribute(1, "color", "categorical", "none")

    def test_numeric_needs_direction(self):
        with pytest.raises(ValueError):
            Attribute(1, "price", "numeric", "none")

    def test_id_positive(self):
        with pytest.raises(ValueError):
            Attribute(0, "x", "numeric", "cost")

    def test_threshold_ops(self):
        assert Threshold(1, "max", 50).bound == 50.0
        assert Threshold(1, "min_level", 3).bound == 3
        assert Threshold(1, "allowed", {"red"}).bound == frozenset({"red"})
        with pytest.raises(ValueError):
            Threshold(1, "atmost", 50)
        with pytest.raises(ValueError):
            Threshold(1, "min_level", 9)
        with pytest.raises(ValueError):
            Threshold(1, "allowed", set())

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unknown attribute kind 'text'$"):
            Attribute(1, "x", "text", "cost")

    @pytest.mark.parametrize("op", ["max", "min"])
    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_a_numeric_bound_must_be_finite(self, op, bound):
        with pytest.raises(ValueError, match=rf"^{op} threshold needs a finite numeric bound$"):
            Threshold(1, op, bound)

    @pytest.mark.parametrize("bound", [5, None, 2.5, "white", {"white": 1}], ids=["int", "none", "float", "string", "dict"])
    def test_an_allowed_bound_must_be_a_collection(self, bound):
        with pytest.raises(ValueError, match=rf"^allowed threshold needs a list of labels, got {re.escape(repr(bound))}$"):
            Threshold(1, "allowed", bound)

    @pytest.mark.parametrize("bound", [[["white"]], ("white", 1), set()], ids=["nested-list", "number-label", "empty"])
    def test_allowed_labels_must_be_strings(self, bound):
        with pytest.raises(ValueError, match=r"^allowed threshold needs a non-empty set of labels$"):
            Threshold(1, "allowed", bound)

    @pytest.mark.parametrize("labels", [5, ["meh"], "meh"], ids=["int", "list", "string"])
    def test_labels_must_be_a_map(self, labels):
        with pytest.raises(ValueError, match=r"^labels must map label -> level$"):
            Attribute(1, "mood", "ordinal", "benefit", labels=labels)

    def test_extended_label_levels_checked(self):
        with pytest.raises(ValueError):
            Attribute(1, "mood", "ordinal", "benefit", labels={"meh": 7})

    @pytest.mark.parametrize("kind,polarity", [("numeric", "cost"), ("categorical", "none")])
    def test_only_an_ordinal_attribute_declares_labels(self, kind, polarity):
        with pytest.raises(ValueError, match=rf"attribute 1 \({kind}\) cannot declare labels; only an ordinal attribute can"):
            Attribute(1, "mood", kind, polarity, labels={"meh": 3})


# (value, its text): integral numbers print without '.0', fractional ones as they are
RENDERED_VALUES = [
    (crisp(5), "5"),
    (crisp(2.5), "2.5"),
    (interval(1, 4), "[1,4]"),
    (interval(0.5, 3.25), "[0.5,3.25]"),
    (at_least(3), ">=3"),
    (at_least(3.75), ">=3.75"),
    (ordinal(4), "ordinal(4)"),
    (ordinal("low"), "ordinal(2)"),
    (category("white"), "category(white)"),
]

# (threshold, its text): an allowed bound prints its labels sorted
RENDERED_THRESHOLDS = [
    (Threshold(1, "max", 50), "max 50"),
    (Threshold(1, "max", 49.5), "max 49.5"),
    (Threshold(1, "min", 3), "min 3"),
    (Threshold(1, "min", 0.25), "min 0.25"),
    (Threshold(1, "min_level", 3), "min_level 3"),
    (Threshold(1, "max_level", 2), "max_level 2"),
    (Threshold(1, "allowed", ["white", "black", "red"]), "allowed {black,red,white}"),
]


class TestRendering:
    @pytest.mark.parametrize("value,text", RENDERED_VALUES, ids=[text for _, text in RENDERED_VALUES])
    def test_value(self, value, text):
        assert str(value) == text

    @pytest.mark.parametrize("threshold,text", RENDERED_THRESHOLDS, ids=[text for _, text in RENDERED_THRESHOLDS])
    def test_threshold(self, threshold, text):
        assert str(threshold) == text


class TestLadderOutcome:
    @pytest.mark.parametrize(
        "verdict,chosen",
        [(Verdict.CHOSEN, None), (Verdict.ABSTAIN, "a"), (Verdict.REPARTITION, "a"), (Verdict.NO_UNIQUE_CHOICE, "a")],
        ids=["chosen-without-id", "abstain-with-id", "repartition-with-id", "no-unique-choice-with-id"],
    )
    def test_an_id_exactly_when_chosen(self, verdict, chosen):
        with pytest.raises(ValueError, match=r"^chosen id is set exactly when the verdict is Chosen$"):
            LadderOutcome(verdict, chosen)


class TestMalformedArguments:
    """A container or values map of the wrong type is a ValueError naming the argument."""

    @pytest.mark.parametrize(
        "levels",
        [5, None, "ab", {frozenset({1}), frozenset({2})}, frozenset({(1,), (2,)})],
        ids=["int", "none", "string", "set", "frozenset"],
    )
    def test_partition_levels(self, levels):
        # a set of levels would rank them by its iteration order, not the caller's
        with pytest.raises(ValueError, match=rf"^partition levels must be a list or tuple, got {re.escape(repr(levels))}$"):
            DominancePartition(levels)

    @pytest.mark.parametrize("field", ["attributes", "basic_ids", "thresholds", "alternatives", "aspiration"])
    @pytest.mark.parametrize("bad", [5, "ab", {1: 2}], ids=["int", "string", "dict"])
    def test_task_collection_fields(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be a list, tuple or set, got {re.escape(repr(bad))}$"):
            make_task(**{field: bad})

    @pytest.mark.parametrize(
        "field,good,record",
        [
            ("attributes", Attribute(1, "price", "numeric", "cost"), "Attribute"),
            ("thresholds", Threshold(1, "max", 100), "Threshold"),
            ("aspiration", Threshold(2, "min_level", 1), "Threshold"),
            ("alternatives", Alternative("a", {1: crisp(50), 2: ordinal(4)}), "Alternative"),
        ],
        ids=["attributes", "thresholds", "aspiration", "alternatives"],
    )
    @pytest.mark.parametrize("bad", ["a", (5,), None, {1: crisp(60)}], ids=["string", "tuple", "none", "dict"])
    def test_task_record_fields(self, field, good, record, bad):
        # the first item of another type is named, not the later one
        with pytest.raises(ValueError, match=rf"^{field} must hold {record} records, got {re.escape(repr(bad))}$"):
            make_task(**{field: [good, bad, 5]})

    def test_task_partition(self):
        with pytest.raises(ValueError, match=r"^partition must be a DominancePartition, got \[\[1\], \[2\]\]$"):
            make_task(partition=[[1], [2]])

    @pytest.mark.parametrize("values", [5, None, [crisp(1)]], ids=["int", "none", "list"])
    def test_alternative_values(self, values):
        with pytest.raises(ValueError, match=rf"^alternative 'z' values must map attribute ids to values, got {re.escape(repr(values))}$"):
            Alternative("z", values)

    @pytest.mark.parametrize("aid", ["z", None, 1.5, True], ids=["string", "none", "float", "bool"])
    def test_threshold_attribute_id(self, aid):
        # an id that is not an int would later break sorting the task's thresholds
        with pytest.raises(ValueError, match=rf"^threshold attribute id must be an integer, got {re.escape(repr(aid))}$"):
            Threshold(aid, "max", 3)

    def test_label_keys_are_strings(self):
        # a key that is not a string would later break sorting the labels in serialize_task
        with pytest.raises(ValueError, match=r"^ordinal label must be a string, got 5$"):
            Attribute(1, "x", "ordinal", "benefit", labels={"a": 3, 5: 2})

    def test_collections_of_each_kind_are_accepted(self):
        task = make_task(
            attributes=list(make_task().attributes),
            basic_ids={1},
            thresholds=[Threshold(1, "max", 100)],
            alternatives=list(make_task().alternatives),
            aspiration=frozenset({Threshold(2, "min_level", 1)}),
        )
        assert task == make_task(aspiration=(Threshold(2, "min_level", 1),))
        assert validate_task(task) == []


# the arguments of a clean task, swapped out one at a time below
ARGUMENTS = {
    Attribute: (3, "comfort", "ordinal", "benefit", "stars", {"okay": 3}),
    Threshold: (2, "min", 1),
    Alternative: ("a", {1: crisp(3), 2: crisp(5), 3: ordinal(4)}),
    DominancePartition: ([[1, 2], [3]],),
    DecisionTask: ("t", None, {1, 2}, None, None, None, (Threshold(3, "min_level", 2),)),  # None: built below
}
SLOTS = [(cls, position) for cls, args in ARGUMENTS.items() for position in range(len(args))]
# what a caller might pass by mistake: scalars, and nested containers whose keys mix types
hashables = st.one_of(
    st.none(), st.booleans(), st.integers(1, 5), st.floats(), st.text(max_size=3), st.binary(max_size=2)
)
nested = st.recursive(
    hashables,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
        st.dictionaries(hashables, children, max_size=3),
    ),
    max_leaves=4,
)
# and maps whose values are often levels, so that a map of labels gets past the level check
arbitrary = st.one_of(hashables, nested, st.dictionaries(hashables, st.one_of(st.integers(1, 5), nested), min_size=1, max_size=3))


def build_with(cls: type, position: int, swapped: object) -> DecisionTask:
    """The clean task of :data:`ARGUMENTS`, with argument ``position`` of its ``cls`` record swapped."""

    def make(record: type) -> object:
        args = list(ARGUMENTS[record])
        if record is cls:
            args[position] = swapped
        return record(*args)

    args = list(ARGUMENTS[DecisionTask])
    args[1] = (Attribute(1, "price", "numeric", "cost"), Attribute(2, "speed", "numeric", "benefit"), make(Attribute))
    args[3] = (Threshold(1, "max", 10), make(Threshold))
    args[4] = make(DominancePartition)
    args[5] = (make(Alternative), Alternative("b", {1: crisp(4), 2: crisp(6), 3: ordinal(2)}))
    if cls is DecisionTask:
        args[position] = swapped
    return DecisionTask(*args)


class TestArbitraryArguments:
    def test_the_unswapped_task_is_clean(self):
        assert validate_task(build_with(Attribute, 0, ARGUMENTS[Attribute][0])) == []

    @pytest.mark.parametrize("cls,position", SLOTS, ids=[f"{cls.__name__}-{position}" for cls, position in SLOTS])
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(swapped=arbitrary)
    def test_an_argument_is_refused_or_the_task_is_handled(self, cls, position, swapped):
        # a construction succeeds or raises ValueError; validate_task reports and
        # never raises; a clean task decides in both modes and serializes
        try:
            task = build_with(cls, position, swapped)
        except ValueError:
            return
        findings = validate_task(task)
        assert isinstance(findings, list)
        if not findings:
            for mode in DominanceMode:
                decide_task(task, mode)
            serialize_task(task)


class TestPartition:
    def test_levels_must_be_nonempty(self):
        with pytest.raises(ValueError):
            DominancePartition([])
        with pytest.raises(ValueError):
            DominancePartition([[1], []])

    @pytest.mark.parametrize("level", ["ab", {"1": 2}, 7], ids=["string", "dict", "int"])
    def test_a_level_must_be_a_collection_of_ids(self, level):
        with pytest.raises(ValueError, match=f"^level 2 must be a list of attribute ids, got {re.escape(repr(level))}$"):
            DominancePartition([[1], level])

    def test_a_level_may_be_any_list_tuple_or_set(self):
        p = DominancePartition([[1], (2,), {3}, frozenset({4})])
        assert p.levels == (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}))
        assert DominancePartition(([1], (2,), {3}, frozenset({4}))) == p

    def test_level_indexing_least_first(self):
        p = DominancePartition([[1, 2], [3]])
        assert p.level_count == 2
        assert p.level(1) == frozenset({1, 2})
        assert p.level(2) == frozenset({3})
        assert frozenset().union(*p.levels) == frozenset({1, 2, 3})


# what fits what, spelled out by kind: the threshold ops and the value shapes each attribute kind takes
FITS = {
    "numeric": ({"max", "min"}, {"crisp", "interval", "at_least"}),
    "ordinal": ({"min_level", "max_level"}, {"ordinal"}),
    "categorical": ({"allowed"}, {"category"}),
}
THRESHOLDS = {
    "max": Threshold(1, "max", 2),
    "min": Threshold(1, "min", 2),
    "min_level": Threshold(1, "min_level", 3),
    "max_level": Threshold(1, "max_level", 3),
    "allowed": Threshold(1, "allowed", {"red"}),
}
VALUES = {
    "crisp": crisp(2),
    "interval": interval(1, 3),
    "at_least": at_least(2),
    "ordinal": ordinal(3),
    "category": category("red"),
}
POLARITY = {"numeric": "cost", "ordinal": "cost", "categorical": "none"}
# each value kind as a message names it, with its article
A_KIND = {"crisp": "a crisp", "interval": "an interval", "at_least": "an at_least", "ordinal": "an ordinal", "category": "a category"}


class TestFitMatrix:
    """Every attribute kind x threshold op x value shape: the validator and the threshold check agree."""

    @pytest.mark.parametrize("value_kind", list(VALUES))
    @pytest.mark.parametrize("op", list(THRESHOLDS))
    @pytest.mark.parametrize("attr_kind", list(FITS))
    def test_kind_mismatch_exactly_when_the_threshold_cannot_judge(self, attr_kind, op, value_kind):
        threshold, value = THRESHOLDS[op], VALUES[value_kind]
        task = DecisionTask(
            task_id="fit",
            attributes=(Attribute(1, "a", attr_kind, POLARITY[attr_kind]),),
            basic_ids=frozenset({1}),
            thresholds=(threshold,),
            partition=DominancePartition([[1]]),
            alternatives=(Alternative("x", {1: value}),),
            aspiration=(threshold,),
        )
        ops, value_kinds = FITS[attr_kind]
        expected = []
        if op not in ops:
            expected += [
                f"threshold '{threshold}' does not fit {attr_kind} attribute 1 (a)",
                f"aspiration threshold '{threshold}' does not fit attribute 1",
            ]
        if value_kind not in value_kinds:
            expected.append(f"alternative 'x' carries {A_KIND[value_kind]} value on {attr_kind} attribute 1")
        findings = validate_task(task)
        assert [v.message for v in findings] == expected
        assert all(v.code == "kind-mismatch" for v in findings)

        judges = any(op in o and value_kind in v for o, v in FITS.values())
        try:
            satisfies_threshold(value, threshold)
        except ValueError as exc:
            assert str(exc) == f"{op} threshold cannot judge {A_KIND[value_kind]} value"
            raised = True
        else:
            raised = False
        assert raised == (not judges)
        # when at most one of the threshold and the value misfits the attribute, the check raises exactly then
        if op in ops or value_kind in value_kinds:
            assert raised == bool(findings)


class TestValidateTask:
    def test_well_formed_task_is_clean(self):
        assert validate_task(make_task()) == []

    def test_case_fixtures_are_clean(self, case1, case2, case3, case4):
        for task in (case1, case2, case3, case4):
            assert validate_task(task) == []

    def test_byte_identical_alternatives_flagged(self):
        dupe = Alternative("b", {1: crisp(50), 2: ordinal(4)})
        task = make_task(alternatives=(Alternative("a", {1: crisp(50), 2: ordinal(4)}), dupe))
        codes = [v.code for v in validate_task(task)]
        assert codes == ["duplicate-alternative"]

    def test_semantically_equal_vectors_flagged(self):
        # crisp 50 vs the degenerate interval [50, 50] is still complete equality
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50), 2: ordinal(4)}),
                Alternative("b", {1: interval(50, 50), 2: ordinal(4)}),
            )
        )
        assert [v.code for v in validate_task(task)] == ["duplicate-alternative"]

    def test_partition_overlap_flagged(self):
        task = make_task(partition=DominancePartition([[1, 2], [2]]))
        assert "partition-overlap" in [v.code for v in validate_task(task)]

    def test_coverage_gap_flagged(self):
        task = make_task(partition=DominancePartition([[1]]))
        violations = validate_task(task)
        assert any(v.code == "coverage" and "2" in v.message for v in violations)

    def test_threshold_must_cover_exactly_basic_ids(self):
        missing = make_task(thresholds=())
        assert any(v.code == "threshold-coverage" for v in validate_task(missing))
        extra = make_task(thresholds=(Threshold(1, "max", 100), Threshold(2, "min_level", 2)))
        assert any(v.code == "threshold-coverage" for v in validate_task(extra))

    @pytest.mark.parametrize(
        "basic_ids,thresholds",
        [
            ({1}, (Threshold(1, "max", 100), Threshold(1, "max", 50))),
            ({1, 2}, (Threshold(1, "max", 100), Threshold(2, "min_level", 3), Threshold(1, "max", 50))),
        ],
        ids=["repeated", "beside-an-unrepeated-one"],
    )
    def test_two_thresholds_on_one_attribute_flagged(self, basic_ids, thresholds):
        # the finding names the repeated attribute only
        task = make_task(basic_ids=frozenset(basic_ids), thresholds=thresholds)
        assert [str(v) for v in validate_task(task)] == [
            "threshold-coverage: multiple thresholds for attribute(s) [1]"
        ]

    def test_threshold_kind_mismatch_flagged(self):
        task = make_task(thresholds=(Threshold(1, "min_level", 3),))
        assert any(v.code == "kind-mismatch" for v in validate_task(task))

    def test_unknown_references_flagged(self):
        task = make_task(basic_ids=frozenset({1, 9}))
        assert any(v.code == "unknown-reference" for v in validate_task(task))

    def test_undeclared_keys_of_any_type_are_unknown_references(self):
        # int ids first in numeric order, then every other key by repr
        row = {1: crisp(3), 2: ordinal(4), "a": crisp(1), 10: crisp(2), 5: crisp(2), (1,): crisp(2), 2.5: crisp(2)}
        task = make_task(alternatives=(Alternative("a", row), Alternative("b", {1: crisp(60), 2: ordinal(3)})))
        assert [str(v) for v in validate_task(task)] == [
            "unknown-reference: alternative 'a' has value(s) for undeclared attribute(s) [5, 10, 'a', (1,), 2.5]"
        ]

    def test_duplicate_attribute_id_flagged(self):
        task = make_task(
            attributes=(
                Attribute(1, "price", "numeric", "cost"),
                Attribute(1, "price2", "numeric", "cost"),
                Attribute(2, "grade", "ordinal", "benefit"),
            )
        )
        assert any(v.code == "duplicate-attribute-id" for v in validate_task(task))

    def test_values_are_judged_against_the_first_declaration_of_an_id(self):
        # the parser reads values under the first declaration, and so does the validator
        task = make_task(
            attributes=(
                Attribute(1, "price", "numeric", "cost"),
                Attribute(1, "grade", "ordinal", "benefit"),
                Attribute(2, "grade", "ordinal", "benefit"),
            )
        )
        assert [v.code for v in validate_task(task)] == ["duplicate-attribute-id"]

    def test_duplicate_alternative_id_flagged(self):
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50), 2: ordinal(4)}),
                Alternative("a", {1: crisp(60), 2: ordinal(3)}),
            )
        )
        assert any(v.code == "duplicate-alternative-id" for v in validate_task(task))

    def test_missing_value_flagged(self):
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50)}),
                Alternative("b", {1: crisp(60), 2: ordinal(3)}),
            )
        )
        assert any(v.code == "missing-value" for v in validate_task(task))

    def test_value_kind_mismatch_flagged(self):
        task = make_task(
            alternatives=(
                Alternative("a", {1: crisp(50), 2: crisp(4)}),
                Alternative("b", {1: crisp(60), 2: ordinal(3)}),
            )
        )
        assert any(v.code == "kind-mismatch" for v in validate_task(task))

    def test_a_cell_holding_no_value_is_a_kind_mismatch(self):
        # twins holding None on any declared attribute are kept out of the duplicate
        # screen, on attribute 3 too, which neither the basic set nor the partition holds
        task = make_task(
            attributes=(*make_task().attributes, Attribute(3, "extra", "numeric", "cost")),
            alternatives=(
                Alternative("a", {1: None, 2: ordinal(4), 3: crisp(1)}),
                Alternative("b", {1: None, 2: ordinal(4), 3: crisp(1)}),
                Alternative("c", {1: crisp(5), 2: ordinal(4), 3: None}),
                Alternative("d", {1: crisp(5), 2: ordinal(4), 3: None}),
            ),
        )
        assert [str(v) for v in validate_task(task)] == [
            "coverage: attribute id(s) [3] belong to neither the basic set nor the partition",
            "kind-mismatch: alternative 'a' carries None, not a value, on numeric attribute 1",
            "kind-mismatch: alternative 'b' carries None, not a value, on numeric attribute 1",
            "kind-mismatch: alternative 'c' carries None, not a value, on numeric attribute 3",
            "kind-mismatch: alternative 'd' carries None, not a value, on numeric attribute 3",
        ]

    def test_aspiration_restricted_to_top_level(self):
        task = make_task(aspiration=(Threshold(1, "max", 10),))
        assert any(v.code == "aspiration-level" for v in validate_task(task))
        ok = make_task(aspiration=(Threshold(2, "min_level", 4),))
        assert validate_task(ok) == []

    def test_fuzzed_mutations_are_caught(self):
        # flipping any single alternative to duplicate another must be flagged
        rng = random.Random(11)
        for _ in range(50):
            base = make_task()
            clone = Alternative("c", dict(base.alternatives[rng.randrange(2)].values))
            task = make_task(alternatives=base.alternatives + (clone,))
            assert any(v.code == "duplicate-alternative" for v in validate_task(task))


def _naive_same(a, b) -> bool:
    """Semantic equality written out from the kinds, without the canonical key."""
    ends = {
        "crisp": lambda v: (v.lo, v.lo),
        "interval": lambda v: (v.lo, v.hi),
        "at_least": lambda v: (v.lo, float("inf")),
    }
    if a.kind in ends and b.kind in ends:
        return ends[a.kind](a) == ends[b.kind](b)
    if a.kind == b.kind == "ordinal":
        return a.level == b.level
    return a.kind == b.kind == "category" and a.label == b.label


def naive_row_findings(task: DecisionTask) -> list[tuple[str, str]]:
    """What validate_task finds in the alternatives, one row and one cell at a time.

    Per row, in order: a repeated id, missing values, values on undeclared
    keys (int ids in numeric order, then any other key by repr), then each
    declared attribute, by id, whose cell holds no value or a value whose shape
    its kind does not take (FITS).  A row holding a fitting value on every
    declared attribute is comparable, and every pair of comparable rows equal
    on all of them is a duplicate, in (i, j) order.
    """
    declared = task.attribute_ids()
    kinds: dict[int, str] = {}
    for attr in task.attributes:
        kinds.setdefault(attr.id, attr.kind)
    findings = []
    seen: set[str] = set()
    comparable = []
    for alt in task.alternatives:
        if alt.id in seen:
            findings.append(("duplicate-alternative-id", f"alternative id {alt.id!r} declared twice"))
        seen.add(alt.id)
        missing = sorted(declared - alt.values.keys())
        if missing:
            findings.append(("missing-value", f"alternative {alt.id!r} lacks value(s) for attribute(s) {missing}"))
        extra = alt.values.keys() - declared
        if extra:
            ints = sorted(key for key in extra if type(key) is int)
            others = sorted((key for key in extra if type(key) is not int), key=repr)
            findings.append(
                ("unknown-reference", f"alternative {alt.id!r} has value(s) for undeclared attribute(s) {ints + others}")
            )
        fitting = 0
        for aid in sorted(declared):
            if aid not in alt.values:
                continue
            value, kind = alt.values[aid], kinds[aid]
            if not isinstance(value, AttributeValue):
                findings.append(("kind-mismatch", f"alternative {alt.id!r} carries {value!r}, not a value, on {kind} attribute {aid}"))
            elif value.kind in FITS[kind][1]:
                fitting += 1
            else:
                findings.append(("kind-mismatch", f"alternative {alt.id!r} carries {A_KIND[value.kind]} value on {kind} attribute {aid}"))
        if fitting == len(declared):
            comparable.append(alt)
    for i, first in enumerate(comparable):
        for second in comparable[i + 1 :]:
            if all(_naive_same(first.values[aid], second.values[aid]) for aid in declared):
                findings.append(
                    (
                        "duplicate-alternative",
                        f"alternatives {first.id!r} and {second.id!r} are completely equal on every screened attribute",
                    )
                )
    return findings


def naive_duplicate_messages(task: DecisionTask) -> list[str]:
    """The complete-equality screen as a pairwise loop over every (i, j), i < j."""
    return [message for code, message in naive_row_findings(task) if code == "duplicate-alternative"]


def duplicate_messages(task: DecisionTask) -> list[str]:
    return [v.message for v in validate_task(task) if v.code == "duplicate-alternative"]


def _twin(value):
    """A different spelling of the same value: crisp x as [x, x], a zero with the other sign."""
    if value.kind == "crisp":
        return interval(value.lo, value.lo) if value.lo else crisp(-value.lo)
    if value.kind == "interval" and value.lo == value.hi:
        return crisp(value.lo)
    return value


class TestDuplicateScreen:
    def test_interleaved_groups_keep_pair_order(self):
        a, b = {1: crisp(50), 2: ordinal(4)}, {1: crisp(60), 2: ordinal(3)}
        task = make_task(
            alternatives=(
                Alternative("p0", a),
                Alternative("p1", b),
                Alternative("p2", dict(b)),
                Alternative("p3", dict(a)),
                Alternative("p4", dict(a)),
            )
        )
        assert duplicate_messages(task) == naive_duplicate_messages(task)
        assert [m.split(" are ")[0] for m in duplicate_messages(task)] == [
            "alternatives 'p0' and 'p3'",
            "alternatives 'p0' and 'p4'",
            "alternatives 'p1' and 'p2'",
            "alternatives 'p3' and 'p4'",
        ]

    @pytest.mark.parametrize(
        "first,second",
        [(crisp(3), interval(3, 3)), (crisp(0.0), crisp(-0.0)), (interval(-0.0, 0.0), crisp(0))],
        ids=["crisp-vs-degenerate-interval", "zero-vs-negative-zero", "signed-zero-interval"],
    )
    def test_equal_spellings_are_duplicates(self, first, second):
        task = make_task(
            alternatives=(Alternative("a", {1: first, 2: ordinal(4)}), Alternative("b", {1: second, 2: ordinal(4)}))
        )
        assert first.key == second.key
        assert duplicate_messages(task) == naive_duplicate_messages(task) != []

    @pytest.mark.parametrize("levels", [[[1], [2, 3]], [[1], [2]]], ids=["covered", "uncovered"])
    def test_wrong_kind_or_missing_value_keeps_a_pair_out(self, levels):
        # on any declared attribute, whether or not the partition holds attribute 3
        pairs = [
            ("a", {1: category("x"), 2: ordinal(4), 3: crisp(1)}),  # wrong kind on attribute 1
            ("c", {1: crisp(5), 2: ordinal(4), 3: category("y")}),  # wrong kind on attribute 3
            ("e", {2: ordinal(2), 3: crisp(1)}),  # no value on attribute 1
            ("g", {1: crisp(7), 2: ordinal(2)}),  # no value on attribute 3
            ("i", {1: crisp(7), 2: ordinal(2), 3: crisp(1)}),  # a value of its kind on every attribute
        ]
        task = make_task(
            attributes=(*make_task().attributes, Attribute(3, "extra", "numeric", "cost")),
            partition=DominancePartition(levels),
            alternatives=tuple(Alternative(name + suffix, dict(values)) for name, values in pairs for suffix in "12"),
        )
        assert duplicate_messages(task) == naive_duplicate_messages(task)
        assert [m.split(" are ")[0] for m in duplicate_messages(task)] == ["alternatives 'i1' and 'i2'"]

    def test_matches_pairwise_screen_on_large_tasks(self):
        rng = random.Random(29)
        for seed, n in [(1, 40), (2, 120), (3, 300), (4, 300)]:
            base = random_task(seed, n_alternatives=n, n_attributes=4, n_levels=2)
            alternatives = list(base.alternatives)
            for k in range(n // 10):
                source = rng.choice(base.alternatives)
                values = {aid: (_twin(v) if rng.random() < 0.5 else v) for aid, v in source.values.items()}
                alternatives.insert(rng.randrange(len(alternatives) + 1), Alternative(f"dup{k}", values))
            task = DecisionTask(
                task_id=base.task_id,
                attributes=base.attributes,
                basic_ids=base.basic_ids,
                thresholds=base.thresholds,
                partition=base.partition,
                alternatives=tuple(alternatives),
            )
            expected = naive_duplicate_messages(task)
            assert len(expected) >= n // 10
            assert duplicate_messages(task) == expected


# a value of another family for each attribute kind
MISFITS = {"numeric": (ordinal(2), category("x")), "ordinal": (crisp(2), category("x")), "categorical": (crisp(2), ordinal(2))}


# what an anomaly puts in a cell that holds no value
NOT_VALUES = (None, "x", 3, (("n", 1.0, 1.0),))
# keys no attribute declares, and keys equal to id 1 that are not the int 1
UNDECLARED_KEYS = (9, "x", 2.5, (1,), None)
EQUAL_KEYS = (True, 1.0)
ANOMALIES = ("missing", "extra-int", "extra-other", "equal-key", "misfit", "not-a-value", "repeat-id", "twin")


@st.composite
def anomalous_tasks(draw):
    """A random_task, perhaps with an attribute outside the basic set and the partition, whose rows take zero to three anomalies each.

    ``twin`` copies an earlier row's values, which then take the row's other
    anomalies; on the uncovered attribute a twin may differ, and then it is no
    duplicate.  ``repeat-id`` takes an earlier row's id.
    """
    base = random_task(draw(st.integers(0, 2**16)), n_alternatives=draw(st.integers(1, 8)), n_attributes=draw(st.integers(1, 4)))
    attributes = base.attributes
    uncovered = draw(st.booleans())
    if uncovered:
        attributes += (Attribute(len(attributes) + 1, "aside", "numeric", "cost"),)
    kinds = {attr.id: attr.kind for attr in attributes}
    rows: list[Alternative] = []
    for alt in base.alternatives:
        alt_id, values = alt.id, dict(alt.values)
        if uncovered:
            values[len(attributes)] = crisp(draw(st.integers(0, 1)))
        for anomaly in draw(st.lists(st.sampled_from(ANOMALIES), max_size=3)):
            if anomaly == "twin" and rows:
                values = dict(draw(st.sampled_from(rows)).values)
                if uncovered and len(attributes) in values:
                    values[len(attributes)] = crisp(draw(st.integers(0, 1)))
            elif anomaly == "repeat-id" and rows:
                alt_id = draw(st.sampled_from(rows)).id
            elif anomaly == "missing" and values:
                del values[draw(st.sampled_from(sorted(values, key=repr)))]
            elif anomaly == "extra-int":
                values[draw(st.integers(len(attributes) + 1, 12))] = crisp(1)
            elif anomaly == "extra-other":
                values[draw(st.sampled_from(UNDECLARED_KEYS))] = crisp(1)
            elif anomaly == "equal-key" and 1 in values:
                values[draw(st.sampled_from(EQUAL_KEYS))] = values.pop(1)
            elif anomaly in ("misfit", "not-a-value"):
                aid = draw(st.sampled_from(sorted(kinds)))
                choices = MISFITS[kinds[aid]] if anomaly == "misfit" else NOT_VALUES
                values[aid] = draw(st.sampled_from(choices))
        rows.append(Alternative(alt_id, values))
    return dataclasses.replace(base, attributes=attributes, alternatives=tuple(rows))


class TestColumnScreen:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(anomalous_tasks())
    def test_the_findings_are_the_row_loops(self, task):
        task_level = [(v.code, v.message) for v in validate_task(dataclasses.replace(task, alternatives=()))]
        assert [(v.code, v.message) for v in validate_task(task)] == task_level + naive_row_findings(task)

    def test_every_row_finding_is_drawn_and_rows_take_several(self):
        codes: set[str] = set()
        covered: set[bool] = set()  # whether a task passed the coverage check
        most = 0  # the most codes one row's findings have

        @settings(max_examples=200, derandomize=True, database=None, deadline=None)
        @given(anomalous_tasks())
        def record(task):
            nonlocal most
            covered.add(all(v.code != "coverage" for v in validate_task(task)))
            by_row: dict[str, set[str]] = {}
            for code, message in naive_row_findings(task):
                codes.add(code)
                if code != "duplicate-alternative":
                    by_row.setdefault(re.search(r"'(.*?)'", message).group(1), set()).add(code)
            most = max([most, *map(len, by_row.values())])

        record()
        assert codes == {"duplicate-alternative-id", "missing-value", "unknown-reference", "kind-mismatch", "duplicate-alternative"}
        assert covered == {True, False}
        assert most >= 3
