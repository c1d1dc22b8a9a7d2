"""Baseline choosers: value/weighting numerics and the proxy deciders."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from ladderchoice import baselines, compare_theories, psp
from ladderchoice.baselines import (
    TheoryRow,
    compatibility_screen,
    it_choose,
    pt_proxy_choose,
    pt_value,
    pt_weight,
)
from ladderchoice.model import Violation
from ladderchoice.oracle import _naive_passes, brute_force_dominant, random_task

# frozen against independent exp/log evaluation of the closed forms
VALUE_100 = 57.543993733715695       # exp(0.88 * log(100))
VALUE_NEG_100 = -129.47398590086033  # -2.25 * exp(0.88 * log(100))
WEIGHT_HALF = 0.42063935433575617    # 0.5^0.61 / (0.5^0.61 + 0.5^0.61)^(1/0.61)


class TestValueFunction:
    def test_zero_maps_to_zero(self):
        assert pt_value(0.0) == 0.0

    def test_gain_curvature(self):
        assert pt_value(100.0) == pytest.approx(VALUE_100, abs=1e-9)
        assert pt_value(100.0) == pytest.approx(math.exp(0.88 * math.log(100.0)), abs=1e-6)

    def test_loss_aversion(self):
        assert pt_value(-100.0) == pytest.approx(VALUE_NEG_100, abs=1e-9)

    def test_sign_preserving_and_increasing(self):
        rng = random.Random(3)
        for _ in range(300):
            x = rng.uniform(-500, 500)
            assert (pt_value(x) > 0) == (x > 0)
            step = abs(x) * 0.01 + 0.1
            assert pt_value(x + step) > pt_value(x)


class TestWeightingFunction:
    def test_endpoint_identities_exact(self):
        assert pt_weight(0.0, 0.61) == 0.0
        assert pt_weight(1.0, 0.61) == 1.0

    def test_midpoint(self):
        assert pt_weight(0.5, 0.61) == pytest.approx(WEIGHT_HALF, abs=1e-9)

    def test_identity_at_gamma_one(self):
        for k in range(1001):
            p = k / 1000
            assert pt_weight(p, 1.0) == p

    def test_monotone_on_unit_interval(self):
        prev = 0.0
        for k in range(1001):
            w = pt_weight(k / 1000, 0.61)
            assert 0.0 <= w <= 1.0
            assert w >= prev
            prev = w

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            pt_weight(1.5, 0.61)


class TestRecords:
    """``TheoryRow``: repr, equality, hashing and refused changes."""

    def test_repr_equality_and_hash(self):
        for record, text, fields in [
            (
                TheoryRow("pt", "chosen", "m1"),
                "TheoryRow(theory='pt', status='chosen', chosen='m1', detail='')",
                ("pt", "chosen", "m1", ""),
            ),
            (
                TheoryRow("it", "undecidable", detail="no alternatives"),
                "TheoryRow(theory='it', status='undecidable', chosen=None, detail='no alternatives')",
                ("it", "undecidable", None, "no alternatives"),
            ),
        ]:
            assert repr(record) == text
            twin = eval(text, {"TheoryRow": TheoryRow})
            assert twin is not record and twin == record and not twin != record
            assert hash(twin) == hash(record) == hash(fields)
            assert record != fields and record.__eq__(fields) is NotImplemented
        assert TheoryRow("pt", "chosen", "m1") != TheoryRow("pt", "chosen", "m2")
        assert TheoryRow("pt", "chosen").__eq__(Violation("pt", "chosen")) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self):
        record = TheoryRow("lt", "chosen", "m3")
        for name in [field.name for field in dataclasses.fields(record)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        assert dataclasses.replace(TheoryRow("pt", "chosen", "m1"), chosen="m2") == TheoryRow("pt", "chosen", "m2")


class TestRiskMinimizingProxy:
    def test_case1_prefers_the_lowest_risk(self, case1):
        assert pt_proxy_choose(case1, 5).chosen == "m1"

    def test_case2_still_prefers_the_lowest_risk(self, case2):
        # the untransformed minimum, contradicting the ladder engine's m3
        assert pt_proxy_choose(case2, 5).chosen == "m1"

    def test_equal_risks_are_undecidable(self, case1):
        from dataclasses import replace

        from ladderchoice import Alternative, ordinal

        flattened = replace(
            case1,
            alternatives=tuple(
                Alternative(a.id, {**a.values, 5: ordinal(2)}) for a in case1.alternatives
            ),
        )
        assert pt_proxy_choose(flattened, 5).status == "undecidable"

    def test_no_alternatives_is_undecidable(self, case1):
        from dataclasses import replace

        empty = replace(case1, alternatives=())
        assert pt_proxy_choose(empty, 5) == TheoryRow("pt", "undecidable", detail="no alternatives")

    def test_designation_must_be_a_cost(self, case1):
        with pytest.raises(ValueError):
            pt_proxy_choose(case1, 4)  # safety is a benefit
        with pytest.raises(ValueError):
            pt_proxy_choose(case1, 99)


class TestImageChooser:
    def test_case3_ranks_survivors_by_price(self, case3):
        assert it_choose(case3, profit_attribute_id=2).chosen == "site2"

    def test_case1_without_a_criterion_is_undecidable(self, case1):
        result = it_choose(case1)
        assert result.status == "undecidable"
        assert "criterion" in result.detail

    def test_case4_ranks_by_wear_time(self, case4):
        assert it_choose(case4, profit_attribute_id=5).chosen == "w1"

    def test_non_numeric_designation_is_undecidable(self, case1):
        assert it_choose(case1, profit_attribute_id=3).status == "undecidable"

    def test_unknown_designation_is_an_error_even_when_nothing_survives(self, case1):
        from dataclasses import replace

        from ladderchoice import Threshold

        thresholds = tuple(Threshold(t.attribute_id, "max", -1) if t.op == "max" else t for t in case1.thresholds)
        nobody = replace(case1, thresholds=thresholds)
        assert not compatibility_screen(nobody)
        for task in (case1, nobody):
            with pytest.raises(ValueError, match="profitability attribute 99"):
                it_choose(task, profit_attribute_id=99)

    def test_zero_budget_screen_equals_the_sift(self):
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=4, n_levels=2)
            assert compatibility_screen(task, 0) == psp(task).feasible

    def test_budget_relaxes_the_screen(self, case2):
        assert compatibility_screen(case2, 0) == ("m2", "m3")
        assert compatibility_screen(case2, 1) == ("m1", "m2", "m3")
        with pytest.raises(ValueError):
            compatibility_screen(case2, -1)


class TestComparisonHarness:
    def test_case2_rows(self, case2):
        rows = {r.theory: r for r in compare_theories(case2, pt_risk_attr=5)}
        assert (rows["lt"].status, rows["lt"].chosen) == ("chosen", "m3")
        assert (rows["pt"].status, rows["pt"].chosen) == ("chosen", "m1")
        assert rows["it"].status == "undecidable"
        # the choosers' own rows, detail included, pass through unchanged
        assert (rows["pt"], rows["it"]) == (pt_proxy_choose(case2, 5), it_choose(case2))
        assert rows["it"].detail == "no single quantitative criterion designated"

    def test_pt_without_designation_is_inapplicable(self, case3):
        rows = {r.theory: r for r in compare_theories(case3, it_profit_attr=2)}
        assert rows["pt"].status == "inapplicable"
        assert (rows["it"].status, rows["it"].chosen) == ("chosen", "site2")

    def test_unknown_theory_rejected(self, case1):
        with pytest.raises(ValueError, match=r"unknown theory 'expected-utility' \(expected lt, pt, it\)"):
            compare_theories(case1, theories=("expected-utility",))

    def test_unrequested_risk_designation_is_checked(self, case2):
        with pytest.raises(ValueError, match="risk attribute 99 is not part of the task"):
            compare_theories(case2, theories=("lt",), pt_risk_attr=99)

    def test_bad_requests_are_refused_before_any_chooser_runs(self, case2, monkeypatch):
        def chooser_ran(*args, **kwargs):
            raise AssertionError("a chooser ran")

        monkeypatch.setattr(baselines, "decide_task", chooser_ran)
        monkeypatch.setattr(baselines, "compatibility_screen", chooser_ran)
        refused = [
            ("no theory requested", dict(theories=())),
            ("theory 'lt' requested twice", dict(theories=("lt", "lt"))),
            ("unknown theory 'eu'", dict(theories=("lt", "eu"))),
            ("ordinal or numeric cost", dict(theories=("lt", "it"), pt_risk_attr=3)),
            ("profitability attribute 99", dict(theories=("lt", "pt"), pt_risk_attr=5, it_profit_attr=99)),
            ("rejection_budget must be >= 0", dict(theories=("lt",), it_budget=-1)),
        ]
        for message, request in refused:
            with pytest.raises(ValueError, match=message):
                compare_theories(case2, **request)


    def test_request_faults_are_reported_in_a_fixed_order(self, case2):
        request = dict(theories=(), pt_risk_attr=3, it_profit_attr=99, it_budget=-1)
        fixes = [
            ("no theory requested", dict(theories=("lt", "lt", "eu"))),
            ("unknown theory 'eu'", dict(theories=("lt", "lt"))),
            ("theory 'lt' requested twice", dict(theories=("lt",))),
            ("ordinal or numeric cost", dict(pt_risk_attr=5)),
            ("profitability attribute 99", dict(it_profit_attr=1)),
            ("rejection_budget must be >= 0", dict(it_budget=0)),
        ]
        for message, fix in fixes:
            with pytest.raises(ValueError, match=message):
                compare_theories(case2, **request)
            request.update(fix)
        assert [r.theory for r in compare_theories(case2, **request)] == ["lt"]


def oracle_tasks():
    for seed in range(300):
        yield random_task(seed, n_alternatives=2 + seed % 6, n_attributes=1 + seed % 5, n_levels=1 + seed % 3)


def oracle_screen(task, budget):
    """Ids with at most ``budget`` failed thresholds, counted with the oracle's own predicate."""
    return tuple(
        alt.id
        for alt in task.alternatives
        if sum(not _naive_passes(alt.values[t.attribute_id], t) for t in task.thresholds) <= budget
    )


def oracle_best(candidates, attribute_id, task):
    best = brute_force_dominant(candidates, [attribute_id], "global", task)
    return best[0] if best else None


class TestAgainstOracle:
    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_screen_matches_a_naive_violation_count(self, budget):
        for task in oracle_tasks():
            assert compatibility_screen(task, budget) == oracle_screen(task, budget)

    def test_pt_proxy_picks_the_naive_unique_best(self):
        for task in oracle_tasks():
            everyone = [alt.id for alt in task.alternatives]
            for attr in task.attributes:
                if attr.polarity == "cost":
                    assert pt_proxy_choose(task, attr.id).chosen == oracle_best(everyone, attr.id, task)

    def test_it_choose_ranks_the_naive_screen(self):
        for task in oracle_tasks():
            for attr in task.attributes:
                if attr.kind != "numeric":
                    continue
                for budget in range(3):
                    survivors = oracle_screen(task, budget)
                    expected = oracle_best(survivors, attr.id, task) if survivors else None
                    assert it_choose(task, attr.id, budget).chosen == expected
