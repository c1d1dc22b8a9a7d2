"""Dominance filtering and the ladder search: golden cases plus guarantees."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations

import pytest

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
    lsp,
    psp,
    validate_task,
)
from ladderchoice.ladder import dominant_set, dominates, single_plan_gate
from ladderchoice.oracle import brute_force_dominant, random_task

GLOBAL = DominanceMode.GLOBAL
UNDOM = DominanceMode.UNDOMINATED


def deadlock_task():
    """Two alternatives whose intervals cross on the only dominance attribute."""
    task = DecisionTask(
        task_id="deadlock",
        attributes=(Attribute(1, "time", "numeric", "cost"),),
        basic_ids=frozenset({1}),
        thresholds=(Threshold(1, "max", 100),),
        partition=DominancePartition([[1]]),
        alternatives=(
            Alternative("a", {1: interval(30, 70)}),
            Alternative("b", {1: interval(40, 50)}),
        ),
    )
    assert validate_task(task) == []
    return task


def edge_task():
    """Two categorical attributes, ``at_least`` values on a cost attribute (signed ``hi`` is -inf) and a benefit one."""
    task = DecisionTask(
        task_id="edges",
        attributes=(
            Attribute(1, "color", "categorical", "none"),
            Attribute(2, "finish", "categorical", "none"),
            Attribute(3, "delay", "numeric", "cost"),
            Attribute(4, "size", "numeric", "benefit"),
        ),
        basic_ids=frozenset({3}),
        thresholds=(Threshold(3, "max", 100),),
        partition=DominancePartition([[1, 2], [3, 4]]),
        alternatives=(
            Alternative("a", {1: category("red"), 2: category("matte"), 3: at_least(2), 4: crisp(5)}),
            Alternative("b", {1: category("red"), 2: category("matte"), 3: at_least(3), 4: crisp(5)}),
            Alternative("c", {1: category("blue"), 2: category("matte"), 3: at_least(2), 4: crisp(6)}),
            Alternative("d", {1: category("red"), 2: category("gloss"), 3: crisp(1), 4: crisp(5)}),
            Alternative("e", {1: category("blue"), 2: category("gloss"), 3: interval(2, 9), 4: crisp(4)}),
        ),
    )
    assert validate_task(task) == []
    return task


def gated_task(aspiration_bound: float):
    """Single feasible alternative with an aspiration standard on the top level."""
    return DecisionTask(
        task_id="gate",
        attributes=(Attribute(1, "lifetime", "numeric", "benefit"),),
        basic_ids=frozenset({1}),
        thresholds=(Threshold(1, "min", 1),),
        partition=DominancePartition([[1]]),
        alternatives=(Alternative("only", {1: at_least(3)}),),
        aspiration=(Threshold(1, "min", aspiration_bound),),
    )


class TestDominates:
    def test_case2_top_level(self, case2):
        m2, m3 = case2.alternative("m2"), case2.alternative("m3")
        assert dominates(m3, m2, {3, 4}, case2)
        assert not dominates(m2, m3, {3, 4}, case2)

    def test_case1_top_level(self, case1):
        m1, m3 = case1.alternative("m1"), case1.alternative("m3")
        assert dominates(m1, m3, {4, 5}, case1)

    def test_equal_values_do_not_dominate(self, case1):
        m1 = case1.alternative("m1")
        clone = Alternative("copy", dict(m1.values))
        assert not dominates(m1, clone, {4, 5}, case1)


class TestDominantSet:
    def test_case1_global(self, case1):
        assert dominant_set(["m1", "m3"], {4, 5}, GLOBAL, case1) == ("m1",)

    def test_single_candidate_survives_both_modes(self, case1):
        assert dominant_set(["m1"], {1, 2}, GLOBAL, case1) == ("m1",)
        assert dominant_set(["m1"], {1, 2}, UNDOM, case1) == ("m1",)

    def test_matches_brute_force_on_random_tasks(self):
        for seed in range(300):
            task = random_task(seed, n_alternatives=5, n_attributes=4, n_levels=2)
            ids = [a.id for a in task.alternatives]
            for r in range(1, task.partition.level_count + 1):
                attrs = task.partition.level(r)
                for mode in (GLOBAL, UNDOM):
                    assert dominant_set(ids, attrs, mode, task) == brute_force_dominant(
                        ids, attrs, mode.value, task
                    )
        # a categorical-only rung, at_least under cost, and labels beside coords, on every subset
        task = edge_task()
        everyone = [a.id for a in task.alternatives]
        for attrs in ({1, 2}, {3}, {3, 4}, {1, 3, 4}):
            for size in range(len(everyone) + 1):
                for ids in combinations(everyone, size):
                    for mode in (GLOBAL, UNDOM):
                        assert dominant_set(ids, attrs, mode, task) == brute_force_dominant(
                            ids, attrs, mode.value, task
                        ), (ids, attrs, mode)

    def test_global_subset_of_undominated(self):
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=4, n_levels=2)
            ids = [a.id for a in task.alternatives]
            attrs = task.partition.level(task.partition.level_count)
            assert set(dominant_set(ids, attrs, GLOBAL, task)) <= set(
                dominant_set(ids, attrs, UNDOM, task)
            )


class TestLspGoldenCases:
    def test_case1(self, case1):
        outcome = lsp(case1, psp(case1).feasible, GLOBAL)
        assert outcome.verdict is Verdict.CHOSEN
        assert outcome.chosen == "m1"
        assert len(outcome.trace) == 1
        assert outcome.trace[0].r == 2
        assert outcome.trace[0].attribute_ids == frozenset({4, 5})

    def test_case2(self, case2):
        outcome = lsp(case2, psp(case2).feasible, GLOBAL)
        assert (outcome.verdict, outcome.chosen) == (Verdict.CHOSEN, "m3")
        assert outcome.trace[0].r == 2

    def test_case3(self, case3):
        outcome = lsp(case3, psp(case3).feasible, GLOBAL)
        assert (outcome.verdict, outcome.chosen) == (Verdict.CHOSEN, "site2")
        assert outcome.trace[0].r == 1

    def test_case4(self, case4):
        outcome = lsp(case4, psp(case4).feasible, GLOBAL)
        assert (outcome.verdict, outcome.chosen) == (Verdict.CHOSEN, "w1")

    def test_empty_feasible_abstains(self, case1):
        outcome = lsp(case1, [], GLOBAL)
        assert outcome.verdict is Verdict.ABSTAIN
        assert outcome.trace == ()

    def test_incomparable_values_stall_undominated_mode(self):
        task = deadlock_task()
        outcome = lsp(task, psp(task).feasible, UNDOM)
        assert outcome.verdict is Verdict.NO_UNIQUE_CHOICE
        assert outcome.trace[-1].survivors_after == ("a", "b")

    def test_incomparable_values_signal_repartition_in_global_mode(self):
        task = deadlock_task()
        outcome = lsp(task, psp(task).feasible, GLOBAL)
        assert outcome.verdict is Verdict.REPARTITION
        assert outcome.trace[-1].survivors_after == ()


class TestSinglePlanGate:
    def test_meeting_the_aspiration_accepts(self):
        task = gated_task(aspiration_bound=3)
        assert single_plan_gate(task.alternatives[0], task).verdict is Verdict.CHOSEN

    def test_failing_the_aspiration_abstains(self):
        task = gated_task(aspiration_bound=10**6)
        # at_least reaches any minimum, so force failure with a cost bound instead
        failing = replace(task, aspiration=(Threshold(1, "max", 2),))
        assert single_plan_gate(failing.alternatives[0], failing).verdict is Verdict.ABSTAIN

    def test_no_aspiration_accepts_by_default(self):
        task = replace(gated_task(3), aspiration=None)
        outcome = single_plan_gate(task.alternatives[0], task)
        assert (outcome.verdict, outcome.chosen) == (Verdict.CHOSEN, "only")

    def test_lsp_routes_single_survivor_through_the_gate(self):
        task = replace(gated_task(3), aspiration=(Threshold(1, "max", 2),))
        _, outcome = decide_task(task)
        assert outcome.verdict is Verdict.ABSTAIN

    def test_ladder_winner_bypasses_the_gate(self):
        # the accept/abstain rule is for a lone feasible plan only; a winner
        # picked out of several feasible plans is not re-screened
        task = DecisionTask(
            task_id="no-gate",
            attributes=(Attribute(1, "x", "numeric", "benefit"),),
            basic_ids=frozenset({1}),
            thresholds=(Threshold(1, "min", 0),),
            partition=DominancePartition([[1]]),
            alternatives=(Alternative("a", {1: crisp(1)}), Alternative("b", {1: crisp(2)})),
            aspiration=(Threshold(1, "min", 100),),
        )
        _, outcome = decide_task(task)
        assert (outcome.verdict, outcome.chosen) == (Verdict.CHOSEN, "b")


def rescaled(task, attribute_id, g):
    """Apply a strictly increasing map to one numeric attribute everywhere it appears."""

    def map_value(v):
        if v.kind == "crisp":
            return crisp(g(v.lo))
        if v.kind == "interval":
            return interval(g(v.lo), g(v.hi))
        return at_least(g(v.lo))

    def map_threshold(t):
        if t.attribute_id == attribute_id and t.op in ("max", "min"):
            return Threshold(t.attribute_id, t.op, g(t.bound))
        return t

    alternatives = tuple(
        Alternative(
            a.id,
            {aid: map_value(v) if aid == attribute_id else v for aid, v in a.values.items()},
        )
        for a in task.alternatives
    )
    return replace(
        task,
        thresholds=tuple(map_threshold(t) for t in task.thresholds),
        aspiration=None if task.aspiration is None else tuple(map_threshold(t) for t in task.aspiration),
        alternatives=alternatives,
    )


class TestLadderGuarantees:
    def test_trace_never_exceeds_the_level_count(self):
        for seed in range(300):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            for mode in (GLOBAL, UNDOM):
                _, outcome = decide_task(task, mode)
                assert len(outcome.trace) <= task.partition.level_count

    def test_undominated_survivors_shrink_and_stay_nonempty(self):
        for seed in range(300):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            _, outcome = decide_task(task, UNDOM)
            for record in outcome.trace:
                assert set(record.survivors_after) <= set(record.survivors_before)
                assert record.survivors_after

    def test_global_filter_keeps_at_most_one(self):
        for seed in range(300):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            _, outcome = decide_task(task, GLOBAL)
            for record in outcome.trace:
                if len(record.survivors_before) >= 2:
                    assert len(record.survivors_after) <= 1

    def test_mode_coherence(self):
        for seed in range(300):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            _, global_outcome = decide_task(task, GLOBAL)
            if global_outcome.verdict is not Verdict.CHOSEN:
                continue
            _, undom_outcome = decide_task(task, UNDOM)
            if undom_outcome.verdict is Verdict.CHOSEN:
                assert undom_outcome.chosen == global_outcome.chosen
            else:
                assert global_outcome.chosen in undom_outcome.trace[-1].survivors_after

    def test_choice_survives_monotone_rescaling(self):
        rng = random.Random(99)
        checked = 0
        seed = 0
        while checked < 200:
            task = random_task(seed, n_alternatives=5, n_attributes=4, n_levels=2)
            seed += 1
            numeric_ids = [a.id for a in task.attributes if a.kind == "numeric"]
            if not numeric_ids:
                continue
            scale, shift = rng.uniform(0.5, 3.0), rng.uniform(-5.0, 5.0)
            transformed = rescaled(task, rng.choice(numeric_ids), lambda x: scale * x + shift)
            _, before = decide_task(task, GLOBAL)
            _, after = decide_task(transformed, GLOBAL)
            assert (before.verdict, before.chosen) == (after.verdict, after.chosen)
            checked += 1

    def test_choice_ignores_alternative_order(self):
        rng = random.Random(5)
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=4, n_levels=2)
            shuffled_alts = list(task.alternatives)
            rng.shuffle(shuffled_alts)
            shuffled = replace(task, alternatives=tuple(shuffled_alts))
            for mode in (GLOBAL, UNDOM):
                _, a = decide_task(task, mode)
                _, b = decide_task(shuffled, mode)
                assert (a.verdict, a.chosen) == (b.verdict, b.chosen)

    def test_lone_feasible_plan_accepted_without_aspiration(self):
        task = random_task(123, n_alternatives=1, n_attributes=3, n_levels=2)
        sifted, outcome = decide_task(task)
        if sifted.feasible:
            assert (outcome.verdict, outcome.chosen) == (Verdict.CHOSEN, sifted.feasible[0])
        else:
            assert outcome.verdict is Verdict.ABSTAIN

    def test_lsp_requires_feasible_from_psp(self, case1):
        # contract: the candidate list is the sift output, never the raw field
        with pytest.raises(KeyError):
            lsp(case1, ["missing"], GLOBAL)
