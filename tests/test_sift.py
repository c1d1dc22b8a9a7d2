"""Sifting stage: golden cases and filter properties."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import tie_heavy_task
from ladderchoice import Alternative, Threshold, crisp, interval, parse_scenario, psp, serialize_task
from ladderchoice import sift
from ladderchoice.model import Elimination, SiftResult
from ladderchoice.oracle import random_task
from ladderchoice.sift import satisfies_threshold


def restrict(task, keep_ids):
    return replace(task, alternatives=tuple(a for a in task.alternatives if a.id in keep_ids))


def multipass(task):
    """Fixed-point phrasing of the sift: repeat elimination until stable."""
    pool = list(task.alternatives)
    while True:
        keep = [
            alt
            for alt in pool
            if all(satisfies_threshold(alt.values[t.attribute_id], t) for t in task.thresholds)
        ]
        if len(keep) == len(pool):
            return tuple(alt.id for alt in keep)
        pool = keep


class TestGoldenCases:
    def test_case1_eliminates_the_bus_on_risk_only(self, case1):
        result = psp(case1)
        assert result.feasible == ("m1", "m3")
        assert [(e.alternative_id, e.attribute_id) for e in result.eliminations] == [("m2", 5)]
        assert result.eliminations[0].threshold.op == "max_level"
        assert result.eliminations[0].value.level == 3

    def test_case2_eliminates_the_subway_on_time(self, case2):
        result = psp(case2)
        assert result.feasible == ("m2", "m3")
        assert [(e.alternative_id, e.attribute_id) for e in result.eliminations] == [("m1", 1)]

    def test_case3_screens_out_the_illegal_site(self, case3):
        result = psp(case3)
        assert result.feasible == ("site1", "site2")
        assert [e.alternative_id for e in result.eliminations] == ["site3"]

    def test_case4_keeps_both(self, case4):
        result = psp(case4)
        assert result.feasible == ("w1", "w2")
        assert result.eliminations == ()

    def test_empty_alternative_list(self, case1):
        result = psp(restrict(case1, ()))
        assert result.feasible == ()
        assert result.eliminations == ()

    def test_all_failing_attributes_are_recorded(self, case2):
        # m1 with a tighter money bound fails on both time and money
        from ladderchoice import Threshold

        tight = replace(
            case2,
            thresholds=tuple(
                Threshold(1, "max", 60) if t.attribute_id == 1 else
                Threshold(2, "max", 40) if t.attribute_id == 2 else t
                for t in case2.thresholds
            ),
        )
        result = psp(tight)
        m1_failures = [e.attribute_id for e in result.eliminations if e.alternative_id == "m1"]
        assert m1_failures == [1, 2]


class TestFilterProperties:
    def test_feasible_is_subset_in_input_order(self):
        for seed in range(200):
            task = random_task(seed, n_alternatives=5, n_attributes=4, n_levels=2)
            result = psp(task)
            ids = [a.id for a in task.alternatives]
            assert [i for i in ids if i in result.feasible] == list(result.feasible)
            eliminated = {e.alternative_id for e in result.eliminations}
            assert set(result.feasible) | eliminated == set(ids)
            assert not set(result.feasible) & eliminated

    def test_idempotence_on_the_feasible_set(self):
        for seed in range(200):
            task = random_task(seed, n_alternatives=5, n_attributes=4, n_levels=2)
            feasible = psp(task).feasible
            again = psp(restrict(task, feasible))
            assert again.feasible == feasible
            assert again.eliminations == ()

    def test_deleting_an_eliminated_alternative_changes_nothing(self):
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=4, n_levels=2)
            result = psp(task)
            for gone in {e.alternative_id for e in result.eliminations}:
                kept = [a.id for a in task.alternatives if a.id != gone]
                assert psp(restrict(task, kept)).feasible == result.feasible

    def test_single_pass_equals_fixed_point(self):
        for seed in range(300):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            assert psp(task).feasible == multipass(task)

    def test_no_survivor_fails_any_threshold(self):
        for seed in range(200):
            task = random_task(seed, n_alternatives=5, n_attributes=4, n_levels=2)
            for alt_id in psp(task).feasible:
                alt = task.alternative(alt_id)
                assert all(
                    satisfies_threshold(alt.values[t.attribute_id], t) for t in task.thresholds
                )


def per_cell(task):
    """The sift judged cell by cell, each threshold asked afresh for every alternative."""
    feasible, eliminations = [], []
    for alt in task.alternatives:
        failures = [
            Elimination(alt.id, t.attribute_id, t, alt.values[t.attribute_id])
            for t in task.thresholds
            if not satisfies_threshold(alt.values[t.attribute_id], t)
        ]
        if failures:
            eliminations.extend(failures)
        else:
            feasible.append(alt.id)
    return SiftResult(feasible=tuple(feasible), eliminations=tuple(eliminations))


class TestRepeatedValues:
    # one verdict per threshold per distinct value key must read exactly as a verdict per cell
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_per_cell_sift(self, seed):
        task = tie_heavy_task(seed, 1000)
        expected = per_cell(task)
        result = psp(task)
        assert result.feasible == expected.feasible
        assert result.eliminations == expected.eliminations
        # the task exercises what the verdict maps could get wrong: one crisp value
        # passing ``max 3`` on attribute 4 and failing ``min 2`` on attribute 5
        assert {(e.attribute_id, e.value.key) for e in result.eliminations} >= {(5, ("n", 1.0, 1.0))}
        assert any(a.values[4].key == ("n", 1.0, 1.0) for a in task.alternatives if a.id in result.feasible)
        assert 0 < len(result.feasible) < len(task.alternatives)

    def test_equal_values_that_are_distinct_objects_get_the_same_verdict(self, monkeypatch):
        # a built task holds a value object per cell; parsing its text shares one among equal cells
        fresh = tie_heavy_task(6, 300)
        shared = parse_scenario(serialize_task(fresh))
        column = [alt.values[4] for alt in fresh.alternatives]
        assert len(set(map(id, column))) == len(column) > len(set(column))
        assert psp(fresh) == psp(shared) == per_cell(fresh)

        judged = []  # (attribute id, value) of each judgement the sift makes

        def counting(value, threshold):
            judged.append((threshold.attribute_id, value))
            return satisfies_threshold(value, threshold)

        monkeypatch.setattr(sift, "satisfies_threshold", counting)
        # once per threshold per value object: every cell of the built task, fewer of the parsed one
        cells = len(fresh.alternatives) * len(fresh.thresholds)
        psp(fresh)
        assert len(judged) == cells
        judged.clear()
        psp(shared)
        objects = {(t.attribute_id, id(alt.values[t.attribute_id])) for alt in shared.alternatives for t in shared.thresholds}
        assert sorted((aid, id(value)) for aid, value in judged) == sorted(objects)
        assert len(objects) < cells

    def test_crisp_and_degenerate_interval_share_a_verdict(self):
        task = tie_heavy_task(4, 200)
        alts = list(task.alternatives)
        alts[0] = Alternative(alts[0].id, {**alts[0].values, 4: interval(4, 4)})
        alts[1] = Alternative(alts[1].id, {**alts[1].values, 4: crisp(4)})
        mixed = replace(task, alternatives=tuple(alts))
        assert psp(mixed) == per_cell(mixed)

    @pytest.mark.parametrize(
        "threshold,message",
        [
            (Threshold(1, "max", 3), "max threshold cannot judge a category value"),
            (Threshold(4, "min_level", 2), "min_level threshold cannot judge a crisp value"),
            (Threshold(3, "allowed", frozenset({"red"})), "allowed threshold cannot judge an ordinal value"),
        ],
        ids=["max-on-category", "level-on-number", "labels-on-level"],
    )
    def test_kind_mismatched_threshold_still_raises(self, threshold, message):
        task = tie_heavy_task(5, 1000)
        others = tuple(t for t in task.thresholds if t.attribute_id != threshold.attribute_id)
        with pytest.raises(ValueError, match=message):
            psp(replace(task, thresholds=(*others, threshold)))
