"""Scenario format: parsing, rejection categories, round-trips, trace output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ladderchoice import (
    ScenarioError,
    Verdict,
    decide_task,
    outcome_to_json,
    parse_scenario,
    serialize_outcome,
    serialize_task,
)
from ladderchoice.cli import main
from ladderchoice.model import LadderOutcome, LevelRecord
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
        assert case4.alternative("w1").values[5].bounds() == (3.0, float("inf"))

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


REJECTIONS = [
    ("bad_syntax.json", "syntax"),
    ("interval_backwards.json", "value"),
    ("ordinal_out_of_range.json", "value"),
    ("unknown_label.json", "value"),
    ("at_least_nonfinite.json", "value"),
    ("unknown_attribute_ref.json", "unknown-reference"),
    ("threshold_kind_mismatch.json", "kind-mismatch"),
    ("value_kind_mismatch.json", "kind-mismatch"),
    ("duplicate_attribute_id.json", "duplicate-id"),
    ("duplicate_alternative_id.json", "duplicate-id"),
    ("def2_duplicate.json", "duplicate-alternative"),
    ("partition_overlap.json", "invariant"),
    ("coverage_gap.json", "invariant"),
    ("threshold_missing.json", "invariant"),
    ("aspiration_off_top.json", "invariant"),
    ("missing_value.json", "invariant"),
    ("attribute_polarity_mismatch.json", "schema"),
]


class TestRejections:
    @pytest.mark.parametrize("filename,expected_category", REJECTIONS)
    def test_malformed_file_rejected_with_category(self, filename, expected_category):
        text = (DATA / filename).read_text(encoding="utf-8")
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(text)
        assert excinfo.value.category == expected_category

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario("{\n  broken\n")
        assert excinfo.value.category == "syntax"
        assert excinfo.value.line == 2
        assert excinfo.value.column is not None

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
        scenario = tmp_path / "booleans.json"
        scenario.write_text(text, encoding="utf-8")
        assert main(["validate", str(scenario)]) == 1
        assert f"{scenario}: {excinfo.value.category}" in capsys.readouterr().err

    def test_unknown_category_is_refused(self):
        with pytest.raises(ValueError):
            ScenarioError("bogus", "x")


class TestRoundTrip:
    @pytest.mark.parametrize("name", CASES)
    def test_fixture_round_trip(self, name):
        task = load_case(name)
        assert parse_scenario(serialize_task(task)) == task

    def test_generated_round_trip(self):
        for seed in range(100):
            task = random_task(seed, n_alternatives=5, n_attributes=5, n_levels=3)
            assert parse_scenario(serialize_task(task)) == task

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
