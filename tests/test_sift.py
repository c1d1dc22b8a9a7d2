"""Sifting stage: golden cases and filter properties."""

from __future__ import annotations

from dataclasses import replace

from ladderchoice import psp
from ladderchoice.oracle import random_task
from ladderchoice.values import satisfies_threshold


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
        assert result.eliminated_ids() == ("site3",)

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
            assert set(result.feasible) | set(result.eliminated_ids()) == set(ids)
            assert not set(result.feasible) & set(result.eliminated_ids())

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
            for gone in result.eliminated_ids():
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
