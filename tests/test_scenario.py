"""Scenario format: parsing, rejection categories, round-trips, trace output."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

import pytest

from ladderchoice import (
    Alternative,
    Attribute,
    DecisionTask,
    DominancePartition,
    ScenarioError,
    Threshold,
    Verdict,
    category,
    crisp,
    decide_task,
    ordinal,
    outcome_to_json,
    parse_scenario,
    serialize_outcome,
    serialize_task,
    validate_task,
)
from ladderchoice import scenario
from ladderchoice.cli import main
from ladderchoice.model import LadderOutcome, LevelRecord
from ladderchoice.scenario import decision_to_json
from ladderchoice.oracle import random_task
from conftest import CASES, fixture_path, load_case

DATA = Path(__file__).parent / "data"


class TestParseFixtures:
    def test_case1_shape(self, case1):
        assert case1.task_id == "case1"
        assert len(case1.attributes) == 5
        assert len(case1.alternatives) == 3
        assert [sorted(level) for level in case1.partition.levels] == [[1, 2, 3], [4, 5]]
        assert case1.basic_ids == frozenset({1, 2, 3, 4, 5})

    def test_case4_shape(self, case4):
        assert case4.basic_ids == frozenset({1, 2, 3, 4})
        assert [sorted(level) for level in case4.partition.levels] == [[5]]
        assert case4.alternative("w1").values[5].key == ("n", 3.0, float("inf"))

    def test_ordinal_labels_resolve_to_levels(self, case1):
        assert case1.alternative("m1").values[4].level == 5
        assert case1.alternative("m2").values[5].level == 3

    def test_declared_extra_labels(self):
        text = json.dumps(
            {
                "task_id": "t",
                "attributes": [
                    {"id": 1, "name": "mood", "kind": "ordinal", "polarity": "benefit", "labels": {"meh": 3}}
                ],
                "basic": {"ids": [1], "thresholds": {"1": {"min_level": 1}}},
                "dominance": {"levels": [[1]]},
                "alternatives": [
                    {"id": "a", "values": {"1": {"ordinal": "meh"}}},
                    {"id": "b", "values": {"1": {"ordinal": "high"}}},
                ],
            }
        )
        task = parse_scenario(text)
        assert task.alternative("a").values[1].level == 3

    def test_fixtures_take_the_attribute_and_alternative_fast_paths(self, monkeypatch):
        # the checked path of an attribute or an alternative names what is unknown through
        # _refuse_unknown_keys; the fast path, which a well-formed object takes, does not
        contexts = []
        refuse = scenario._refuse_unknown_keys

        def recording(mapping, known, context):
            contexts.append(context)
            return refuse(mapping, known, context)

        monkeypatch.setattr(scenario, "_refuse_unknown_keys", recording)
        for name in CASES:
            parse_scenario(fixture_path(name).read_text(encoding="utf-8"))
        assert set(contexts) == {"scenario", "basic", "dominance"}


# (file under tests/data, its category, its whole message): every validator message and its order, pinned per file
REJECTIONS = [
    ("bad_syntax.json", "syntax", "syntax (line 4, column 1): Expecting value"),
    ("interval_backwards.json", "value", "value: alternative 'a', attribute 1: interval lower bound 60.0 exceeds upper bound 40.0"),
    ("interval_shape.json", "value", "value: alternative 'a', attribute 1: interval needs a list of two bounds, got [20, 30, 40]"),
    ("ordinal_out_of_range.json", "value", "value: alternative 'a', attribute 1: ordinal level must be in 1..5, got 6"),
    ("unknown_label.json", "value", "value: alternative 'a', attribute 1: unknown ordinal label 'medium'"),
    ("at_least_nonfinite.json", "value", "value: alternative 'a', attribute 1: at_least needs a finite lower bound"),
    ("unknown_attribute_ref.json", "unknown-reference", "unknown-reference: unknown-reference: alternative 'a' has value(s) for undeclared attribute(s) [9]"),
    ("threshold_kind_mismatch.json", "kind-mismatch", "kind-mismatch: kind-mismatch: threshold 'min_level 3' does not fit numeric attribute 1 (time)"),
    ("value_kind_mismatch.json", "kind-mismatch", "kind-mismatch: kind-mismatch: alternative 'a' carries an ordinal value on numeric attribute 1"),
    ("duplicate_attribute_id.json", "duplicate-id", "duplicate-id: duplicate-attribute-id: attribute id 1 declared twice"),
    ("duplicate_alternative_id.json", "duplicate-id", "duplicate-id: duplicate-alternative-id: alternative id 'a' declared twice"),
    ("def2_duplicate.json", "duplicate-alternative", "duplicate-alternative: duplicate-alternative: alternatives 'a' and 'b' are completely equal on every screened attribute"),
    ("partition_overlap.json", "invariant", "invariant: partition-overlap: level 2 repeats attribute id(s) [4] from an earlier level"),
    ("coverage_gap.json", "invariant", "invariant: coverage: attribute id(s) [2] belong to neither the basic set nor the partition"),
    ("threshold_missing.json", "invariant", "invariant: threshold-coverage: basic attribute(s) [2] lack a threshold"),
    ("aspiration_off_top.json", "invariant", "invariant: aspiration-level: aspiration threshold on attribute 1 is outside the top level [2]"),
    ("missing_value.json", "invariant", "invariant: missing-value: alternative 'a' lacks value(s) for attribute(s) [2]"),
    ("attribute_polarity_mismatch.json", "schema", "schema: attribute 1: categorical attribute 1 must have polarity 'none'"),
    ("alternative_id_delimiter.json", "schema", "schema: alternative: alternative id 'm1,x\\n|' holds ',', '|', '[', ']' or a character that is not printable"),
    ("unknown_key.json", "schema", "schema: scenario has unknown key 'aspirations'"),
    ("level_shape.json", "schema", "schema: dominance.levels: level 2 must be a list of attribute ids, got '2'"),
    ("category_label_unprintable.json", "value", "value: alternative 'a', attribute 1: category label 'whi\\nte | attribute 9' holds a character that is not printable"),
    ("allowed_label_unprintable.json", "value", "value: basic.thresholds[1]: allowed label 'blu\\te' holds a character that is not printable"),
    ("allowed_label_repeated.json", "value", "value: basic.thresholds[1]: allowed threshold lists label 'legal' twice"),
    ("category_label_delimiter.json", "value", "value: alternative 'site3', attribute 1: category label 'white | attribute 9' holds ',' or '|'"),
    ("allowed_label_delimiter.json", "value", "value: basic.thresholds[1]: allowed label 'blue,red' holds ',' or '|'"),
    ("attribute_name_unprintable.json", "schema", "schema: attribute 1: attribute name 'pri\\nce' holds a character that is not printable"),
    ("level_repeated_id.json", "schema", "schema: dominance.levels: level 2 lists attribute id 3 twice"),
    ("basic_ids_repeated_id.json", "schema", "schema: scenario: basic ids list attribute id 1 twice"),
]


def assert_case1_refused(path, replacement, tmp_path, capsys):
    """case1 with one entry replaced is a value or schema error, and `validate` exits 1 naming it; returns the error."""
    doc = json.loads(fixture_path("case1").read_text(encoding="utf-8"))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = replacement
    text = json.dumps(doc)
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    assert excinfo.value.category in ("value", "schema")
    scenario = tmp_path / "mutated.json"
    scenario.write_text(text, encoding="utf-8")
    assert main(["validate", str(scenario)]) == 1
    assert f"{scenario}: {excinfo.value.category}" in capsys.readouterr().err
    return excinfo.value


class TestRejections:
    @pytest.mark.parametrize("filename,expected_category,expected_message", REJECTIONS)
    def test_malformed_file_rejected_with_category(self, filename, expected_category, expected_message):
        text = (DATA / filename).read_text(encoding="utf-8")
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(text)
        assert excinfo.value.category == expected_category
        assert str(excinfo.value) == expected_message

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario("{\n  broken\n")
        assert excinfo.value.category == "syntax"
        assert excinfo.value.line == 2
        assert excinfo.value.column is not None

    @pytest.mark.parametrize("text", ["[]", "5", '"case1"', "null"], ids=["list", "number", "string", "null"])
    def test_a_scenario_must_be_an_object(self, text, tmp_path, capsys):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value) == "schema: scenario must be a JSON object"
        scenario = tmp_path / "not_an_object.json"
        scenario.write_text(text, encoding="utf-8")
        assert main(["validate", str(scenario)]) == 1
        assert capsys.readouterr().err == f"{scenario}: schema: scenario must be a JSON object\n"

    # (path into case1's document, replacement, whole message): a container or a bound of the wrong shape
    SHAPES = [
        (("attributes",), [], "schema: attributes must be a non-empty list"),
        (("attributes",), {"1": {"name": "x"}}, "schema: attributes must be a non-empty list"),
        (("attributes", 0), {"id": 1, "kind": "numeric", "polarity": "cost"}, "schema: attribute 1 is missing required key 'name'"),
        (("attributes", 0), {"id": 1, "name": "t", "polarity": "cost"}, "schema: attribute 1 is missing required key 'kind'"),
        (("attributes", 0), {"id": 1, "name": "t", "kind": "numeric"}, "schema: attribute 1 is missing required key 'polarity'"),
        (("attributes", 0, "kind"), "text", "schema: attribute 1: unknown attribute kind 'text'"),
        (("attributes", 3, "labels"), ["meh"], "schema: attribute 4: labels must map label -> level"),
        (("attributes", 3, "labels"), 5, "schema: attribute 4: labels must map label -> level"),
        (("basic", "ids"), 5, "schema: basic.ids must be a list of attribute ids"),
        (("basic", "thresholds"), [], "schema: basic.thresholds must map attribute ids to predicates"),
        (("aspiration",), [{"4": {"min_level": 3}}], "schema: aspiration must map attribute ids to predicates"),
        (("basic", "thresholds", "1"), {"max": math.inf}, "value: basic.thresholds[1]: max threshold needs a finite numeric bound"),
        (("aspiration",), {"1": {"min": -math.inf}}, "value: aspiration[1]: min threshold needs a finite numeric bound"),
        (("dominance", "levels"), {"1": [1]}, "schema: dominance.levels must be a list of id lists"),
        (("alternatives",), {"m1": {}}, "schema: alternatives must be a list"),
        (("alternatives", 0, "values"), [40, 50], "schema: alternative 'm1': values must map attribute ids"),
        (("alternatives", 0, "values", "1"), {"interval": [40, math.inf]}, "value: alternative 'm1', attribute 1: interval bounds must be finite"),
        # an id listed twice in one list; the same id on two levels is the partition-overlap finding instead
        (("dominance", "levels", 0), [1, 2, 3, 1], "schema: dominance.levels: level 1 lists attribute id 1 twice"),
        (("basic", "ids"), [1, 2, 3, 4, 5, 1], "schema: scenario: basic ids list attribute id 1 twice"),
    ]

    @pytest.mark.parametrize(
        "path,replacement,message",
        SHAPES,
        ids=["empty-attributes", "object-attributes", "no-name", "no-kind", "no-polarity", "unknown-kind",
             "list-labels", "number-labels", "number-basic-ids", "list-thresholds", "list-aspiration",
             "infinite-max", "infinite-min", "object-levels", "object-alternatives", "list-values",
             "infinite-interval", "repeated-level-id", "repeated-basic-id"],
    )
    def test_a_misshapen_entry_is_named(self, path, replacement, message, tmp_path, capsys):
        error = assert_case1_refused(path, replacement, tmp_path, capsys)
        assert str(error) == message

    def test_all_violations_reported_together(self):
        text = (DATA / "def2_duplicate.json").read_text(encoding="utf-8")
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(text)
        assert excinfo.value.violations

    # (path into case1's document, replacement): a boolean where a level or a number is read
    BOOLEANS = [
        (("alternatives", 0, "values", "1"), True),
        (("alternatives", 0, "values", "1"), {"interval": [True, 3]}),
        (("alternatives", 0, "values", "1"), {"at_least": True}),
        (("alternatives", 0, "values", "3"), {"ordinal": True}),
        (("basic", "thresholds", "1"), {"max": True}),
        (("basic", "thresholds", "3"), {"min_level": True}),
        (("attributes", 2, "labels"), {"meh": True}),
    ]

    @pytest.mark.parametrize(
        "path,replacement", BOOLEANS, ids=["crisp", "interval", "at_least", "ordinal", "max", "min_level", "labels"]
    )
    def test_boolean_is_not_a_level_or_a_number(self, path, replacement, tmp_path, capsys):
        assert_case1_refused(path, replacement, tmp_path, capsys)

    @pytest.mark.parametrize(
        "payload", [[1, 2, 3], [1], [], 5, None, "ab", {"a": 1, "b": 2}],
        ids=["three", "one", "empty", "number", "null", "string", "object"],
    )
    def test_interval_needs_a_list_of_two_bounds(self, payload, tmp_path, capsys):
        error = assert_case1_refused(("alternatives", 0, "values", "1"), {"interval": payload}, tmp_path, capsys)
        assert str(error) == f"value: alternative 'm1', attribute 1: interval needs a list of two bounds, got {payload!r}"

    @pytest.mark.parametrize("level", ["ab", {"a": 1}, 1, None], ids=["string", "object", "number", "null"])
    def test_a_dominance_level_must_be_a_list(self, level, tmp_path, capsys):
        error = assert_case1_refused(("dominance", "levels", 0), level, tmp_path, capsys)
        assert str(error) == f"schema: dominance.levels: level 1 must be a list of attribute ids, got {level!r}"

    def test_only_an_ordinal_attribute_takes_labels(self, tmp_path, capsys):
        error = assert_case1_refused(("attributes", 0, "labels"), {"meh": 3}, tmp_path, capsys)
        assert str(error) == "schema: attribute 1: attribute 1 (numeric) cannot declare labels; only an ordinal attribute can"

    # (path into case1's document, replacement): an attribute id or a level of the wrong type
    WRONG_TYPES = [
        (("basic", "ids"), ["1", 2, 3, 4, 5]),
        (("basic", "ids"), [True, 2, 3, 4, 5]),
        (("attributes", 0, "id"), True),
        (("dominance", "levels", 0, 0), True),
        (("dominance", "levels", 0, 0), 1.0),
        (("alternatives", 0, "values", "3"), {"ordinal": 3.0}),
        (("basic", "thresholds", "3"), {"min_level": 3.0}),
    ]

    @pytest.mark.parametrize(
        "path,replacement",
        WRONG_TYPES,
        ids=["string-basic-id", "boolean-basic-id", "boolean-attribute-id", "boolean-partition-entry",
             "float-partition-entry", "float-ordinal", "float-min-level"],
    )
    def test_id_or_level_of_the_wrong_type(self, path, replacement, tmp_path, capsys):
        assert_case1_refused(path, replacement, tmp_path, capsys)

    # (path into case1's document, the object named in the error): a key no object of the format holds
    UNKNOWN_KEYS = [
        (("aspirations",), "scenario"),
        (("attributes", 2, "units"), "attribute 3"),
        (("basic", "threshold"), "basic"),
        (("dominance", "level"), "dominance"),
        (("alternatives", 1, "value"), "alternative 'm2'"),
    ]

    @pytest.mark.parametrize(
        "path,context", UNKNOWN_KEYS, ids=["scenario", "attribute", "basic", "dominance", "alternative"]
    )
    def test_unknown_key_is_refused(self, path, context, tmp_path, capsys):
        error = assert_case1_refused(path, {"4": {"max_level": 4}}, tmp_path, capsys)
        assert str(error) == f"schema: {context} has unknown key {path[-1]!r}"

    def test_misspelt_block_is_not_silently_ignored(self):
        text = (DATA / "unknown_key.json").read_text(encoding="utf-8")
        read = parse_scenario(text.replace('"aspirations"', '"aspiration"'))
        assert decide_task(read)[1].verdict is Verdict.ABSTAIN
        with pytest.raises(ScenarioError, match="scenario has unknown key 'aspirations'"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "bound", ["white", {"white": 1}, 3, None, [], [1], [["white"]]],
        ids=["string", "object", "number", "null", "empty", "number-label", "list-label"],
    )
    def test_allowed_bound_must_be_a_list_of_labels(self, bound, tmp_path, capsys):
        doc = json.loads(fixture_path("case4").read_text(encoding="utf-8"))
        doc["basic"]["thresholds"]["3"] = {"allowed": bound}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.category == "value"
        if isinstance(bound, list):
            assert str(excinfo.value) == "value: basic.thresholds[3]: allowed threshold needs a non-empty set of labels"
        else:
            assert str(excinfo.value) == f"value: basic.thresholds[3]: allowed threshold needs a list of labels, got {bound!r}"
        scenario = tmp_path / "mutated.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(scenario)]) == 1
        assert f"{scenario}: value: basic.thresholds[3]" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["white", {"white": 1}], ids=["string", "dict"])
    def test_threshold_refuses_a_string_or_mapping_as_labels(self, bound):
        with pytest.raises(ValueError, match="allowed threshold needs a list of labels"):
            Threshold(3, "allowed", bound)

    @pytest.mark.parametrize(
        "fields", [{"name": 5}, {"name": None}, {"unit": [1]}, {"unit": 3}, {"name": 5, "unit": [1]}],
        ids=["number-name", "null-name", "list-unit", "number-unit", "both"],
    )
    def test_attribute_name_and_unit_must_be_strings(self, fields):
        doc = json.loads(fixture_path("case4").read_text(encoding="utf-8"))
        doc["attributes"][0].update(fields)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.category == "schema"
        assert str(excinfo.value).startswith("schema: attribute 1: attribute ")

    # the text trace delimits ids with these, and an unprintable one can break a trace line in two
    @pytest.mark.parametrize(
        "char", [",", "|", "[", "]", "\n", "\r", "\t", "\x00", "\x7f", "\u2028"],
        ids=["comma", "bar", "open-bracket", "close-bracket", "newline", "return", "tab", "nul", "delete", "line-separator"],
    )
    def test_alternative_id_charset(self, char):
        alt_id = f"m{char}1"
        with pytest.raises(ValueError, match="alternative id"):
            Alternative(alt_id, {})
        doc = json.loads(fixture_path("case1").read_text(encoding="utf-8"))
        doc["alternatives"][1]["id"] = alt_id
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.category == "schema"
        assert str(excinfo.value).startswith(f"schema: alternative: alternative id {alt_id!r} holds")

    # a label or name shows in eliminated lines and validate findings, and a line break would split one record in two
    @pytest.mark.parametrize(
        "char", ["\n", "\r", "\t", "\x00", "\x7f", "\u2028"],
        ids=["newline", "return", "tab", "nul", "delete", "line-separator"],
    )
    def test_labels_and_names_must_be_printable(self, char):
        text = f"whi{char}te"
        for build, what in (
            (lambda: category(text), "category label"),
            (lambda: Threshold(3, "allowed", ["red", text]), "allowed label"),
            (lambda: Attribute(1, text, "numeric", "cost"), "attribute name"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {text!r} holds a character that is not printable')}$"):
                build()
        for path, category_name, prefix in (
            (("alternatives", 0, "values", "3"), "value", "value: alternative 'w1', attribute 3: category label"),
            (("basic", "thresholds", "3", "allowed", 2), "value", "value: basic.thresholds[3]: allowed label"),
            (("attributes", 3, "name"), "schema", "schema: attribute 4: attribute name"),
        ):
            doc = json.loads(fixture_path("case4").read_text(encoding="utf-8"))
            *parents, last = path
            target = doc
            for key in parents:
                target = target[key]
            target[last] = {"category": text} if last == "3" else text
            with pytest.raises(ScenarioError) as excinfo:
                parse_scenario(json.dumps(doc))
            assert excinfo.value.category == category_name
            assert str(excinfo.value) == f"{prefix} {text!r} holds a character that is not printable"

    @pytest.mark.parametrize("alt_id", ["m 1", "plan-2_b.c", "é", "{x}", "a:b;c"])
    def test_printable_ids_without_delimiters_are_accepted(self, alt_id):
        doc = json.loads(fixture_path("case1").read_text(encoding="utf-8"))
        doc["alternatives"][0]["id"] = alt_id
        assert parse_scenario(json.dumps(doc)).alternatives[0].id == alt_id

    def test_absent_or_null_unit_is_accepted(self):
        doc = json.loads(fixture_path("case4").read_text(encoding="utf-8"))
        doc["attributes"][3]["unit"] = None
        assert parse_scenario(json.dumps(doc)).attribute(4).unit is None

    def test_unknown_category_is_refused(self):
        with pytest.raises(ValueError):
            ScenarioError("bogus", "x")

    @pytest.mark.parametrize("label", [5, [1], {"a": 1}, True], ids=["number", "list", "object", "boolean"])
    def test_category_label_must_be_a_string(self, label):
        categorical = {"name": "c", "kind": "categorical", "polarity": "none"}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(rows_task([categorical], [[{"category": "red"}], [{"category": label}]]))
        assert str(excinfo.value) == f"value: alternative 'a1', attribute 1: category label must be a string, got {label!r}"

    # where an attribute-id key is read; "values-twice" keeps the canonical key beside the other spelling
    @pytest.mark.parametrize("where", ["values", "values-twice", "thresholds", "aspiration"])
    @pytest.mark.parametrize("spelling", ["0{}", " {}", "{} ", "+{}", "0_{}", "{}.0"])
    def test_attribute_id_key_must_be_canonical(self, where, spelling):
        doc = json.loads(fixture_path("case1").read_text(encoding="utf-8"))
        doc["aspiration"] = {"4": {"min_level": 3}}
        parse_scenario(json.dumps(doc))
        mapping, aid = {
            "values": (doc["alternatives"][0]["values"], "1"),
            "values-twice": (doc["alternatives"][0]["values"], "1"),
            "thresholds": (doc["basic"]["thresholds"], "1"),
            "aspiration": (doc["aspiration"], "4"),
        }[where]
        key = spelling.format(aid)
        mapping[key] = 999 if where == "values-twice" else mapping.pop(aid)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.category == "schema"
        assert f"key {key!r} is not an attribute id" in str(excinfo.value)


NUMERIC = {"name": "x", "kind": "numeric", "polarity": "cost"}
ORDINAL = {"name": "o", "kind": "ordinal", "polarity": "benefit"}


def rows_task(attributes, rows):
    """Task text with ``attributes`` (ids 1..m) in one dominance level plus a last numeric
    attribute whose value is the row number, so that no two rows are duplicates."""
    row_id = len(attributes) + 1
    attrs = [dict(attr, id=i) for i, attr in enumerate(attributes, start=1)]
    attrs.append(dict(NUMERIC, id=row_id, name="row"))
    alternatives = [
        {"id": f"a{r}", "values": {**{str(i): payload for i, payload in enumerate(row, start=1)}, str(row_id): r}}
        for r, row in enumerate(rows)
    ]
    return json.dumps(
        {
            "task_id": "rows",
            "attributes": attrs,
            "basic": {"ids": [], "thresholds": {}},
            "dominance": {"levels": [[attr["id"] for attr in attrs]]},
            "alternatives": alternatives,
        }
    )


def column(task, aid):
    return [alt.values[aid] for alt in task.alternatives]


# sha256 over serialize_task(parse_scenario(text)) for the four fixtures, then for
# serialize_task(random_task(...)) over 300 seeds, dims drawn per seed as `batch`
# draws them and every other seed totally ordered: what parsing builds is pinned
ROUND_TRIP_DIGEST = "1ab57b23dc44885de9e3b8d59cb1f80397fc4d606a522b01dd5d15919071e18d"


class TestInterning:
    def test_equal_payloads_share_one_value(self):
        task = parse_scenario(
            rows_task([NUMERIC, ORDINAL], [[5, {"ordinal": "high"}], [5, {"ordinal": "high"}], [5.0, {"ordinal": 4}]])
        )
        a0, a1, a2 = column(task, 1)
        assert a0 is a1
        assert a2 == a0 and a2 is not a0
        o0, o1, o2 = column(task, 2)
        assert o0 is o1
        assert o2.level == o0.level == 4
        assert len({id(value) for value in column(task, 3)}) == 3

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[1], [True]], "alternative 'a1', attribute 1: crisp value must be a number, got True"),
            ([[{"ordinal": 3}], [{"ordinal": True}]], "alternative 'a1', attribute 1: ordinal level must be in 1..5, got True"),
            ([[{"ordinal": 3}], [{"ordinal": 3.0}]], "alternative 'a1', attribute 1: ordinal level must be in 1..5, got 3.0"),
            ([[5], [{"ordinal": 9}], [{"ordinal": 9}]], "alternative 'a1', attribute 1: ordinal level must be in 1..5, got 9"),
            ([[{"at_least": 1}], [{"at_least": True}]], "alternative 'a1', attribute 1: at_least bound must be a number, got True"),
        ],
        ids=["crisp-true-after-1", "ordinal-true-after-3", "ordinal-3.0-after-3", "first-bad-occurrence", "at-least-true-after-1"],
    )
    def test_payloads_that_hash_equal_still_fail(self, rows, message):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(rows_task([NUMERIC], rows))
        assert excinfo.value.category == "value"
        assert str(excinfo.value) == f"value: {message}"

    def test_a_float_is_shared_only_with_the_same_bare_float(self):
        task = parse_scenario(rows_task([NUMERIC], [[2.5], [2.5], [{"at_least": 2.5}], [{"at_least": 2.5}]]))
        crisp0, crisp1, open0, open1 = column(task, 1)
        assert crisp0 is crisp1 and open0 is open1
        assert crisp0.kind == "crisp" and open0.kind == "at_least"
        assert crisp0.key == ("n", 2.5, 2.5) and open0.key == ("n", 2.5, math.inf)

    def test_uninterned_payloads_parse_between_interned_ones(self):
        rows = [[{"interval": [1, 2]}], [1], [{"interval": [1, 2]}], [1.0], [{"interval": [1, 2]}], [1]]
        task = parse_scenario(rows_task([NUMERIC], rows))
        assert [(value.kind, value.key) for value in column(task, 1)] == [
            ("interval", ("n", 1.0, 2.0)),
            ("crisp", ("n", 1.0, 1.0)),
        ] * 3

    def test_a_level_and_its_label_give_equal_values(self):
        task = parse_scenario(rows_task([ORDINAL], [[{"ordinal": 4}], [{"ordinal": "high"}], [{"ordinal": 4}]]))
        level, label, again = column(task, 1)
        assert level == label == again and hash(level) == hash(label)
        assert level is again

    def test_int_and_float_parse_alike(self):
        task = parse_scenario(rows_task([NUMERIC], [[1], [1.0], [1]]))
        assert [value.lo for value in column(task, 1)] == [1.0, 1.0, 1.0]
        assert all(type(value.lo) is float for value in column(task, 1))

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_float_zero_keeps_its_sign(self, first, second):
        rows = [[first], [second], [{"at_least": first}], [{"at_least": second}], [first]]
        task = parse_scenario(rows_task([NUMERIC], rows))
        signs = [math.copysign(1.0, value.lo) for value in column(task, 1)]
        expected = [math.copysign(1.0, x) for x in (first, second, first, second, first)]
        assert signs == expected
        assert '"1": -0.0' in serialize_task(task)
        assert '"at_least": -0.0' in serialize_task(task)

    def test_label_resolves_through_its_own_attribute(self):
        attributes = [dict(ORDINAL, labels={"meh": 2}), dict(ORDINAL, labels={"meh": 4}), ORDINAL]
        task = parse_scenario(rows_task(attributes, [[{"ordinal": "meh"}, {"ordinal": "meh"}, {"ordinal": "high"}]] * 2))
        assert [value.level for value in column(task, 1)] == [2, 2]
        assert [value.level for value in column(task, 2)] == [4, 4]
        assert [value.level for value in column(task, 3)] == [4, 4]
        with pytest.raises(ScenarioError, match="attribute 3: unknown ordinal label 'meh'"):
            parse_scenario(rows_task(attributes, [[{"ordinal": "meh"}, {"ordinal": "meh"}, {"ordinal": "meh"}]]))

    def test_interval_parses_as_before(self):
        task = parse_scenario(rows_task([NUMERIC], [[{"interval": [1, 2]}], [{"interval": [1, 2]}], [{"interval": [1.0, 2]}]]))
        assert [value.key for value in column(task, 1)] == [("n", 1.0, 2.0)] * 3
        assert all(value.kind == "interval" for value in column(task, 1))

    def test_redefined_builtin_label_round_trips(self):
        # "high" names level 2 on this attribute, so level 4 must not be written as "high"
        task = parse_scenario(rows_task([dict(ORDINAL, labels={"high": 2})], [[{"ordinal": 4}], [{"ordinal": "high"}]]))
        assert [value.level for value in column(task, 1)] == [4, 2]
        text = serialize_task(task)
        assert parse_scenario(text) == task
        assert serialize_task(parse_scenario(text)) == text

    def test_round_trip_text_is_pinned(self):
        digest = hashlib.sha256()
        for name in CASES:
            digest.update(serialize_task(parse_scenario(fixture_path(name).read_text(encoding="utf-8"))).encode())
        for seed in range(300):
            dims = random.Random(seed ^ 0x5EED)
            task = random_task(
                seed,
                n_alternatives=dims.randint(1, 6),
                n_attributes=dims.randint(1, 5),
                n_levels=dims.randint(1, 3),
                total_order_only=seed % 2 == 1,
            )
            text = serialize_task(task)
            round_trip = serialize_task(parse_scenario(text))
            assert round_trip == text
            digest.update(round_trip.encode())
        assert digest.hexdigest() == ROUND_TRIP_DIGEST


class TestRoundTrip:
    @pytest.mark.parametrize("name", CASES)
    def test_fixture_round_trip(self, name):
        task = load_case(name)
        assert parse_scenario(serialize_task(task)) == task

    def test_generated_round_trip(self):
        for seed in range(100):
            task = random_task(seed, n_alternatives=5, n_attributes=5, n_levels=3)
            assert parse_scenario(serialize_task(task)) == task

    def test_a_key_equal_to_a_declared_id_is_written_as_that_id(self):
        # True and 1.0 are taken for id 1 wherever a row's keys are read, so the text names id 1
        task = DecisionTask(
            task_id="keys",
            attributes=tuple(Attribute(aid, f"a{aid}", "numeric", "benefit") for aid in (1, 2)),
            basic_ids=frozenset(),
            thresholds=(),
            partition=DominancePartition([[1, 2]]),
            alternatives=(Alternative("a", {True: crisp(3), 2: crisp(1)}), Alternative("b", {1.0: crisp(4), 2: crisp(0)})),
        )
        assert validate_task(task) == []
        text = serialize_task(task)
        assert [list(alt["values"]) for alt in json.loads(text)["alternatives"]] == [["1", "2"], ["1", "2"]]
        assert parse_scenario(text) == task

    def test_a_row_with_a_string_key_beside_an_int_id_serializes(self):
        # the validator reports the row; the text lists the int id first, as the report does
        task = DecisionTask(
            task_id="mixed",
            attributes=(Attribute(1, "a1", "numeric", "benefit"),),
            basic_ids=frozenset(),
            thresholds=(),
            partition=DominancePartition([[1]]),
            alternatives=(Alternative("a", {"x": crisp(2), 1: crisp(1)}),),
        )
        assert [v.code for v in validate_task(task)] == ["unknown-reference"]
        assert list(json.loads(serialize_task(task))["alternatives"][0]["values"]) == ["1", "x"]

    def test_an_empty_extra_label_map_survives(self):
        task = DecisionTask(
            task_id="no-extra-labels",
            attributes=(Attribute(1, "grade", "ordinal", "benefit", labels={}),),
            basic_ids=frozenset(),
            thresholds=(),
            partition=DominancePartition([[1]]),
            alternatives=(Alternative("a", {1: ordinal(2)}),),
        )
        text = serialize_task(task)
        assert json.loads(text)["attributes"][0]["labels"] == {}
        assert parse_scenario(text) == task

    def test_serialization_is_deterministic(self, case1):
        assert serialize_task(case1) == serialize_task(case1)


class TestOutcomeSerialization:
    def test_chosen_with_one_record_is_two_lines(self):
        outcome = LadderOutcome(
            Verdict.CHOSEN,
            chosen="m1",
            trace=(LevelRecord(2, frozenset({4, 5}), ("m1", "m3"), ("m1",)),),
        )
        text = serialize_outcome(outcome)
        assert text.splitlines() == [
            "Chosen m1",
            "level 2 | attrs {4,5} | before [m1,m3] | after [m1]",
        ]
        assert serialize_outcome(outcome) == text

    def test_abstain_is_a_single_header(self):
        assert serialize_outcome(LadderOutcome(Verdict.ABSTAIN)) == "Abstain -"

    def test_case2_trace_line(self, case2):
        _, outcome = decide_task(case2)
        assert (
            serialize_outcome(outcome).splitlines()[1]
            == "level 2 | attrs {3,4} | before [m2,m3] | after [m3]"
        )

    def test_json_trace_mirrors_record_fields(self, case1):
        _, outcome = decide_task(case1)
        doc = outcome_to_json(outcome)
        assert doc["verdict"] == "Chosen"
        assert doc["chosen"] == "m1"
        assert doc["trace"] == [
            {
                "r": 2,
                "attribute_ids": [4, 5],
                "survivors_before": ["m1", "m3"],
                "survivors_after": ["m1"],
            }
        ]

    def test_decision_document_is_the_trace_then_the_sift(self, case1):
        sifted, outcome = decide_task(case1)
        doc = decision_to_json(case1, sifted, outcome)
        assert list(doc) == ["verdict", "chosen", "trace", "task_id", "feasible", "eliminations"]
        assert {key: doc[key] for key in ("verdict", "chosen", "trace")} == outcome_to_json(outcome)
        assert (doc["task_id"], doc["feasible"]) == ("case1", ["m1", "m3"])
        assert doc["eliminations"] == [
            {"alternative": e.alternative_id, "attribute": e.attribute_id, "threshold": str(e.threshold), "value": str(e.value)}
            for e in sifted.eliminations
        ] != []
