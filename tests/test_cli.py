"""Command-line behavior: exit codes, output shapes, determinism, batch sweep."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ladderchoice import cli
from ladderchoice.cli import main, run_batch
from ladderchoice import DominanceMode, Verdict
from ladderchoice.model import LadderOutcome

from conftest import fixture_path

DATA = Path(__file__).parent / "data"
CASE1 = str(fixture_path("case1"))
CASE2 = str(fixture_path("case2"))
CASE3 = str(fixture_path("case3"))
CASE4 = str(fixture_path("case4"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DEADLOCK = """
{
  "task_id": "deadlock",
  "attributes": [{"id": 1, "name": "time", "kind": "numeric", "polarity": "cost"}],
  "basic": {"ids": [1], "thresholds": {"1": {"max": 100}}},
  "dominance": {"levels": [[1]]},
  "alternatives": [
    {"id": "a", "values": {"1": {"interval": [30, 70]}}},
    {"id": "b", "values": {"1": {"interval": [40, 50]}}}
  ]
}
"""

GATED = """
{
  "task_id": "gated",
  "attributes": [{"id": 1, "name": "time", "kind": "numeric", "polarity": "cost"}],
  "basic": {"ids": [1], "thresholds": {"1": {"max": 100}}},
  "dominance": {"levels": [[1]]},
  "aspiration": {"1": {"max": 5}},
  "alternatives": [{"id": "a", "values": {"1": 50}}]
}
"""


NUMERIC_ID = json.loads(DEADLOCK)
NUMERIC_ID["alternatives"][0]["id"] = 7
NUMERIC_TASK_ID = json.loads(DEADLOCK)
NUMERIC_TASK_ID["task_id"] = 7


class TestDecide:
    @pytest.mark.parametrize("doc", [NUMERIC_ID, NUMERIC_TASK_ID], ids=["alternative-id", "task-id"])
    def test_id_that_is_not_a_string_is_a_schema_error(self, doc, tmp_path, capsys):
        path = tmp_path / "numeric_id.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "decide", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: schema: ")
        assert "string" in err

    def test_case1_report_and_exit_code(self, capsys):
        code, out, _ = run(capsys, "decide", CASE1)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eliminated m2 | attribute 5 | max_level 2 | value ordinal(3)"
        assert lines[1] == "feasible [m1,m3]"
        assert lines[-1] == "Chosen: m1"

    def test_case2(self, capsys):
        code, out, _ = run(capsys, "decide", CASE2)
        assert code == 0
        assert "Chosen: m3" in out
        assert "eliminated m1 | attribute 1" in out

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "decide", CASE1)
        _, second, _ = run(capsys, "decide", CASE1)
        assert first == second

    def test_json_variant(self, capsys):
        code, out, _ = run(capsys, "decide", CASE1, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Chosen"
        assert doc["chosen"] == "m1"
        assert doc["feasible"] == ["m1", "m3"]
        assert doc["trace"][0]["attribute_ids"] == [4, 5]
        assert doc["eliminations"][0]["alternative"] == "m2"

    def test_abstain_exit_code(self, capsys, tmp_path):
        path = tmp_path / "gated.json"
        path.write_text(GATED, encoding="utf-8")
        code, out, _ = run(capsys, "decide", str(path))
        assert code == 2
        assert out.splitlines()[-1] == "Abstain"

    def test_repartition_exit_code(self, capsys, tmp_path):
        path = tmp_path / "deadlock.json"
        path.write_text(DEADLOCK, encoding="utf-8")
        code, out, _ = run(capsys, "decide", str(path))
        assert code == 3
        assert out.splitlines()[-1] == "Repartition"

    def test_no_unique_choice_exit_code(self, capsys, tmp_path):
        path = tmp_path / "deadlock.json"
        path.write_text(DEADLOCK, encoding="utf-8")
        code, out, _ = run(capsys, "decide", str(path), "--mode", "undominated")
        assert code == 3
        assert out.splitlines()[-1] == "NoUniqueChoice"

    def test_invalid_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "dupe.json"
        path.write_text(
            DEADLOCK.replace('"interval": [40, 50]', '"interval": [30, 70]'), encoding="utf-8"
        )
        code, _, err = run(capsys, "decide", str(path))
        assert code == 1
        assert "duplicate-alternative" in err

    def test_an_interval_value_prints_as_its_bounds(self, capsys, tmp_path):
        doc = json.loads(DEADLOCK)
        doc["basic"]["thresholds"]["1"] = {"max": 35.5}
        doc["alternatives"][1]["values"]["1"] = {"interval": [40.5, 50]}
        path = tmp_path / "interval.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "decide", str(path))
        assert code == 0
        assert out.splitlines() == [
            "eliminated b | attribute 1 | max 35.5 | value [40.5,50]",
            "feasible [a]",
            "Chosen: a",
        ]

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "decide", "no-such-file.json")
        assert code == 1
        assert "not found" in err


def unreadable(kind: str, tmp_path: Path) -> str:
    """A path that is not a readable scenario text: a directory, non-UTF-8 bytes, or 200,000-deep nesting."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / f"{kind}.json"
    if kind == "not-utf8":
        path.write_bytes(b'{"task_id": "caf\xe9"}')
    else:
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    return str(path)


class TestUnreadableFiles:
    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "deep-nesting"])
    @pytest.mark.parametrize(
        "argv", [["decide"], ["compare", "--theories", "lt"], ["validate"]], ids=["decide", "compare", "validate"]
    )
    def test_error_line_and_exit_1(self, argv, kind, tmp_path, capsys):
        path = unreadable(kind, tmp_path)
        code, out, err = run(capsys, *argv, path)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        expected = {"directory": "Is a directory", "not-utf8": "syntax: not UTF-8 text", "deep-nesting": "syntax: nesting too deep"}
        assert expected[kind] in err
        prefix = f"{path}: " if argv[0] == "validate" else "error: "
        assert err.startswith(prefix)


# DEADLOCK with one number made too large: 10**400 overflows a float, and a
# 5,000-digit literal is beyond the decoder's digit limit
HUGE = "1" + "0" * 400
OVERSIZED = {
    "crisp": ('{"interval": [30, 70]}', HUGE, "value"),
    "max": ('{"max": 100}', f'{{"max": {HUGE}}}', "value"),
    "interval": ("[30, 70]", f"[1, {HUGE}]", "value"),
    "5000-digits": ('{"interval": [30, 70]}', "9" * 5000, "syntax"),
}


class TestOversizedIntegers:
    @pytest.mark.parametrize("kind", list(OVERSIZED))
    @pytest.mark.parametrize(
        "argv", [["decide"], ["compare", "--theories", "lt"], ["validate"]], ids=["decide", "compare", "validate"]
    )
    def test_error_line_and_exit_1(self, argv, kind, tmp_path, capsys):
        old, new, category = OVERSIZED[kind]
        path = tmp_path / "huge.json"
        path.write_text(DEADLOCK.replace(old, new, 1), encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        prefix = f"{path}: " if argv[0] == "validate" else "error: "
        assert err.startswith(prefix + category)


class TestCompare:
    def test_case2_rows(self, capsys):
        code, out, _ = run(
            capsys, "compare", CASE2, "--theories", "lt,pt,it", "--pt-risk-attr", "5"
        )
        assert code == 0
        assert out.splitlines() == ["lt: m3", "pt: m1", "it: undecidable"]

    def test_case3_rows(self, capsys):
        code, out, _ = run(capsys, "compare", CASE3, "--theories", "lt,it", "--it-profit-attr", "2")
        assert code == 0
        assert out.splitlines() == ["lt: site2", "it: site2"]

    def test_unknown_theory_rejected(self, capsys):
        code, _, err = run(capsys, "compare", CASE1, "--theories", "lt,seu")
        assert code == 1
        assert "unknown theory" in err

    def test_pt_needs_a_risk_designation(self, capsys):
        code, _, err = run(capsys, "compare", CASE1, "--theories", "pt")
        assert code == 1
        assert "--pt-risk-attr" in err

    def test_budget_flag_reaches_the_screen(self, capsys):
        code, out, _ = run(
            capsys, "compare", CASE2, "--theories", "it", "--it-profit-attr", "3", "--it-budget", "1"
        )
        assert code == 0
        # comfort is ordinal, not quantitative: still undecidable, but not an error
        assert out.splitlines() == ["it: undecidable"]


class TestValidate:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "validate", CASE1, CASE2, CASE3, CASE4)
        assert code == 0
        assert [line.split(": ")[1] for line in out.splitlines()] == ["ok"] * 4

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  nope\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "syntax" in err and "line 2" in err

    def test_partition_overlap_names_the_shared_id(self, capsys):
        code, _, err = run(capsys, "validate", str(DATA / "partition_overlap.json"))
        assert code == 1
        assert "4" in err and "invariant" in err

    def test_each_finding_carries_its_own_category(self, capsys, tmp_path):
        doc = json.loads(fixture_path("case1").read_text(encoding="utf-8"))
        doc["attributes"].append(dict(doc["attributes"][0]))
        doc["alternatives"][0]["values"]["99"] = 5
        path = tmp_path / "two_kinds.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"{path}: duplicate-id: duplicate-attribute-id: attribute id 1 declared twice",
            f"{path}: unknown-reference: unknown-reference: alternative 'm1' has value(s) for undeclared attribute(s) [99]",
        ]

    def test_a_missing_file_is_named(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code, out, err = run(capsys, "validate", CASE1, str(missing))
        assert code == 1
        assert out == f"{CASE1}: ok\n"
        assert err == f"{missing}: error: file not found\n"

    def test_one_bad_file_fails_the_batch(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, out, err = run(capsys, "validate", CASE1, str(bad))
        assert code == 1
        assert "ok" in out and "syntax" in err


class TestBatch:
    def test_small_sweep_agrees(self, capsys):
        code, out, _ = run(capsys, "batch", "--seed", "7", "--count", "50")
        assert code == 0
        assert out.strip() == "50/50 agree"

    def test_zero_count_is_a_trivial_pass(self, capsys):
        code, out, _ = run(capsys, "batch", "--count", "0")
        assert code == 0
        assert out.strip() == "0/0 agree"

    def test_undominated_mode_sweep(self, capsys):
        code, out, _ = run(capsys, "batch", "--seed", "3", "--count", "50", "--mode", "undominated")
        assert code == 0

    @pytest.mark.parametrize("mode", list(DominanceMode), ids=lambda mode: mode.value)
    def test_run_batch_reads_a_value_as_its_mode(self, mode):
        assert run_batch(1, 5, mode.value) == run_batch(1, 5, mode) == (0, "5/5 agree")
        with pytest.raises(ValueError, match="^'foo' is not a valid DominanceMode$"):
            run_batch(1, 5, "foo")

    def test_mutant_engine_is_caught(self, monkeypatch):
        def mutant(task, mode):
            return None, LadderOutcome(Verdict.CHOSEN, chosen="wrong-id")

        monkeypatch.setattr(cli, "decide_task", mutant)
        code, report = run_batch(seed=1, count=30, mode=DominanceMode.GLOBAL)
        assert code == 4
        assert "seed" in report


# command lines that must end in exit 1 (2 means abstain) with an error line and no traceback
USAGE_ERRORS = {
    "no-command": [],
    "decide-without-path": ["decide"],
    "unknown-mode": ["decide", CASE1, "--mode", "foo"],
    "budget-not-an-integer": ["compare", CASE2, "--it-budget", "x"],
    "negative-budget": ["compare", CASE2, "--theories", "it", "--it-budget", "-1"],
    "unknown-profit-attribute": ["compare", CASE2, "--pt-risk-attr", "5", "--it-profit-attr", "99"],
    "unknown-risk-attribute": ["compare", CASE2, "--pt-risk-attr", "99"],
    "benefit-risk-attribute": ["compare", CASE2, "--pt-risk-attr", "3"],
    "negative-count": ["batch", "--count", "-5"],
    "empty-theories": ["compare", CASE2, "--theories", ","],
    "blank-theories": ["compare", CASE2, "--theories", " "],
    "repeated-theory": ["compare", CASE2, "--theories", "lt,lt"],
    "unrequested-unknown-risk-attribute": ["compare", CASE2, "--theories", "lt", "--pt-risk-attr", "99"],
    "unrequested-benefit-risk-attribute": ["compare", CASE2, "--theories", "lt,it", "--pt-risk-attr", "3"],
    "unrequested-unknown-profit-attribute": ["compare", CASE2, "--theories", "lt,pt", "--pt-risk-attr", "5", "--it-profit-attr", "99"],
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_error_line_and_exit_1(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        prog = " ".join(["ladderchoice", *argv[:1]])
        assert err.splitlines()[-1].startswith(("error: ", f"{prog}: error: "))


class TestEmptyPath:
    @pytest.mark.parametrize(
        "argv, dest",
        [
            (["decide", ""], "path"),
            (["compare", ""], "path"),
            (["validate", ""], "paths"),
            (["validate", CASE1, ""], "paths"),
        ],
        ids=["decide", "compare", "validate", "validate-after-a-good-file"],
    )
    def test_is_a_usage_error_naming_the_argument(self, argv, dest, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"ladderchoice {argv[0]}: error: argument {dest}: expected a file path, got ''"


class TestEntryPoint:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "decide" in capsys.readouterr().out
