"""Dominance filtering and the ladder search: golden cases plus guarantees."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import combinations
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TIE_PARTITIONS, dominates, tie_heavy_task
from ladderchoice import ladder
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
    ordinal,
    psp,
    validate_task,
)
from ladderchoice.ladder import dominant_set, single_plan_gate
from ladderchoice.oracle import _naive_dominates, brute_force_dominant, random_task

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
    """Dominance of one alternative over another, as a rung of the two decides it in each mode."""

    def test_case2_top_level(self, case2):
        m2, m3 = case2.alternative("m2"), case2.alternative("m3")
        for mode in (GLOBAL, UNDOM):
            assert dominates(m3, m2, {3, 4}, mode, case2)
            assert not dominates(m2, m3, {3, 4}, mode, case2)

    def test_case1_top_level(self, case1):
        m1, m3 = case1.alternative("m1"), case1.alternative("m3")
        for mode in (GLOBAL, UNDOM):
            assert dominates(m1, m3, {4, 5}, mode, case1)

    def test_equal_values_do_not_dominate(self, case1):
        m1 = case1.alternative("m1")
        clone = Alternative("copy", dict(m1.values))
        task = replace(case1, alternatives=(*case1.alternatives, clone))
        for mode in (GLOBAL, UNDOM):
            assert not dominates(m1, clone, {4, 5}, mode, task)
            assert not dominates(clone, m1, {4, 5}, mode, task)

    @pytest.mark.parametrize("mode", [GLOBAL, UNDOM], ids=["global", "undominated"])
    def test_every_pair_of_every_level_matches_the_oracle(self, mode):
        # every ordered pair of distinct alternatives, on each level of 400 random tasks
        for seed in range(400):
            task = random_task(seed, 5, 4, 2)
            for r in range(1, task.partition.level_count + 1):
                attrs = task.partition.level(r)
                for s in task.alternatives:
                    for t in task.alternatives:
                        if s is not t:
                            assert dominates(s, t, attrs, mode, task) == _naive_dominates(s, t, attrs, task), (seed, r, s.id, t.id)


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


class TestModeArgument:
    """A mode is a DominanceMode or its value; anything else is a ValueError."""

    @pytest.mark.parametrize("mode", [GLOBAL, UNDOM], ids=["global", "undominated"])
    def test_dominant_set_reads_a_value_as_its_mode(self, mode, case1):
        ids = ["m1", "m2", "m3"]
        assert dominant_set(ids, {1, 2}, mode.value, case1) == dominant_set(ids, {1, 2}, mode, case1)
        assert dominant_set(ids, {1, 2}, GLOBAL, case1) == ()

    @pytest.mark.parametrize("mode", [GLOBAL, UNDOM], ids=["global", "undominated"])
    def test_lsp_and_decide_task_read_a_value_as_its_mode(self, mode):
        task = deadlock_task()
        ids = [a.id for a in task.alternatives]
        assert lsp(task, ids, mode.value) == lsp(task, ids, mode)
        assert decide_task(task, mode.value) == decide_task(task, mode)
        assert lsp(task, ids, GLOBAL).verdict is Verdict.REPARTITION

    @pytest.mark.parametrize("mode", ["foo", "", "GLOBAL", {1, 2}, None, 0], ids=repr)
    def test_anything_else_is_refused(self, mode, case1):
        message = rf"^{re.escape(repr(mode))} is not a valid DominanceMode$"
        with pytest.raises(ValueError, match=message):
            dominant_set(["m1", "m2", "m3"], {1, 2}, mode, case1)
        with pytest.raises(ValueError, match=message):
            lsp(case1, ["m1", "m3"], mode)
        with pytest.raises(ValueError, match=message):
            lsp(case1, [], mode)


class TestComparisonCount:
    """UNDOMINATED sweeps staircases and compares no pair of rows, so a wide rung of many rows stays cheap.

    Its front is checked against the oracle on many tied rows, the
    four-coordinate sweep compares a row's key only with the staircases' keys,
    and three coordinates test no key at all.
    """

    def test_three_coordinates_match_the_oracle(self):
        task = tie_heavy_task(21, 2000)
        attrs = {3, 4, 5}  # an ordinal and two crisp columns, one coordinate each
        candidates = [a.id for a in task.alternatives]
        assert dominant_set(candidates, attrs, UNDOM, task) == brute_force_dominant(candidates, attrs, "undominated", task)

    def test_four_coordinates_match_the_oracle(self):
        rng = random.Random(21)
        n = 1000
        task = column_task(
            ("numeric", "benefit", [interval(lo, lo + rng.randint(0, 2)) for lo in [rng.randint(0, 3) for _ in range(n)]]),
            ("ordinal", "benefit", [ordinal(rng.randint(1, 5)) for _ in range(n)]),
            ("numeric", "cost", [crisp(rng.randint(0, 5)) for _ in range(n)]),
        )
        attrs = {1, 2, 3}  # an interval column, two coordinates, beside an ordinal and a crisp one
        candidates = [a.id for a in task.alternatives]
        distinct = {tuple(a.values[aid].key for aid in sorted(attrs)) for a in task.alternatives}
        assert len(distinct) > 100
        assert dominant_set(candidates, attrs, UNDOM, task) == brute_force_dominant(candidates, attrs, "undominated", task)


    def test_four_coordinates_compare_keys_only_with_the_staircases_keys(self, monkeypatch):
        # the rows lie on x + y + z = 1000, an antichain, beside a fourth column of two values;
        # a row's key, its fourth coordinate, is compared with each staircase's key, and
        # there is one staircase per distinct key
        task = four_coordinate_antichain(600)
        attrs = {1, 2, 3, 4}
        rows = set(ladder._rows(task.alternatives, attrs, task)[0])
        keys = {row[3:] for row in rows}
        assert {len(row) for row in rows} == {4} and len(keys) == 2
        compared = 0

        def counting(a, b):
            nonlocal compared
            compared += 1
            return a >= b

        monkeypatch.setattr(ladder, "ge", counting)
        kept = dominant_set([a.id for a in task.alternatives], attrs, UNDOM, task)
        assert 0 < compared <= len(rows) * len(keys)
        assert len(kept) > 500

    def test_three_coordinates_test_no_key(self, monkeypatch):
        # a key test is all(map(ge, above, key)); on three coordinates every key would be
        # (), and map calls ge on no pair of an empty key, so the test counts all as well
        task = crisp_antichain(1200)
        attrs = {1, 2, 3}
        rows = set(ladder._rows(task.alternatives, attrs, task)[0])
        assert {len(row) for row in rows} == {3} and len(rows) >= 1000
        calls = {"ge": 0, "all": 0}

        def counting(name, function):
            def count(*args):
                calls[name] += 1
                return function(*args)

            return count

        monkeypatch.setattr(ladder, "ge", counting("ge", ge))
        monkeypatch.setattr(ladder, "all", counting("all", all), raising=False)
        kept = dominant_set([a.id for a in task.alternatives], attrs, UNDOM, task)
        assert calls == {"ge": 0, "all": 0}
        assert len(kept) > 900


def four_coordinate_antichain(n):
    """Three crisp benefit columns holding the points of ``plane``, and a fourth of 0 or 1."""
    rng = random.Random(18)
    points = plane(rng, n, 1000, 500)
    return column_task(
        *(("numeric", "benefit", [crisp(p[k]) for p in points]) for k in range(3)),
        ("numeric", "benefit", [crisp(rng.randint(0, 1)) for _ in range(n)]),
    )


def column_task(*columns):
    """A validator-clean task whose alternative ``p{i}`` takes the i-th value of each column.

    Each column is ``(kind, polarity, values)`` and gets ids 1, 2, ... on the
    top level; a screened row number on its own lower level keeps every
    alternative distinct.
    """
    n = len(columns[0][2])
    row = len(columns) + 1
    task = DecisionTask(
        task_id="columns",
        attributes=tuple(Attribute(aid, f"a{aid}", kind, polarity) for aid, (kind, polarity, _) in enumerate(columns, 1))
        + (Attribute(row, "row", "numeric", "cost"),),
        basic_ids=frozenset({row}),
        thresholds=(Threshold(row, "max", n),),
        partition=DominancePartition([[row], list(range(1, row))]),
        alternatives=tuple(
            Alternative(f"p{i}", {**{aid: column[2][i] for aid, column in enumerate(columns, 1)}, row: crisp(i)})
            for i in range(n)
        ),
    )
    assert validate_task(task) == []
    return task


def distinct_numbers(rng, n):
    """n distinct crisp-ready numbers, most of them fractional."""
    return [x / 8 for x in rng.sample(range(8 * n * 10), n)]


class TestGlobalColumnMaxima:
    """GLOBAL at n = 1000 against the oracle: the winner holds every column's maximum, or nobody wins."""

    N = 1000

    @staticmethod
    def global_rung(task, candidates, attrs, seed=0):
        """GLOBAL's result on a shuffled copy of ``candidates``, checked against the oracle."""
        candidates = list(candidates)
        random.Random(seed).shuffle(candidates)
        kept = dominant_set(candidates, attrs, GLOBAL, task)
        assert kept == brute_force_dominant(candidates, attrs, "global", task)
        return kept

    @pytest.mark.parametrize("polarity", ["benefit", "cost"])
    def test_interval_maxima_in_different_values_have_no_winner(self, polarity):
        rng = random.Random(3)
        bounds = []
        for _ in range(self.N - 2):
            lo = rng.uniform(0, 500)
            bounds.append((lo, lo + rng.uniform(0, 400)))
        # the best lo and the best hi, in two different values
        bounds += [(600, 950), (0, 1000)]
        if polarity == "cost":
            bounds = [(-hi, -lo) for lo, hi in bounds]
        task = column_task(("numeric", polarity, [interval(lo, hi) for lo, hi in bounds]))
        everyone = [a.id for a in task.alternatives]
        assert self.global_rung(task, everyone, {1}) == ()
        # without the value holding the best hi, the one holding the best lo holds both
        winner, other = f"p{self.N - 2}", f"p{self.N - 1}"
        assert self.global_rung(task, [cid for cid in everyone if cid != other], {1}) == (winner,)

    @pytest.mark.parametrize("polarity", ["benefit", "cost"])
    def test_at_least_column(self, polarity):
        xs = distinct_numbers(random.Random(4), self.N)
        task = column_task(("numeric", polarity, [at_least(x) for x in xs]))
        best = (max if polarity == "benefit" else min)(range(self.N), key=xs.__getitem__)
        assert self.global_rung(task, [a.id for a in task.alternatives], {1}) == (f"p{best}",)

    def test_one_label_beside_a_number_has_a_winner(self):
        xs = distinct_numbers(random.Random(5), self.N)
        task = column_task(
            ("categorical", "none", [category("red")] * self.N), ("numeric", "benefit", [crisp(x) for x in xs])
        )
        best = max(range(self.N), key=xs.__getitem__)
        assert self.global_rung(task, [a.id for a in task.alternatives], {1, 2}) == (f"p{best}",)

    def test_two_labels_have_no_winner(self):
        xs = distinct_numbers(random.Random(6), self.N)
        best = max(range(self.N), key=xs.__getitem__)
        labels = [category("red")] * self.N
        labels[(best + 1) % self.N] = category("blue")
        task = column_task(("categorical", "none", labels), ("numeric", "benefit", [crisp(x) for x in xs]))
        assert self.global_rung(task, [a.id for a in task.alternatives], {1, 2}) == ()

    def test_a_winning_vector_needs_one_id(self):
        rng = random.Random(7)
        xs = distinct_numbers(rng, self.N)
        best = min(range(self.N), key=xs.__getitem__)
        twin = (best + 1) % self.N
        xs[twin] = xs[best]
        levels = [rng.randint(1, 4) for _ in range(self.N)]
        levels[best] = levels[twin] = 5
        task = column_task(("numeric", "cost", [crisp(x) for x in xs]), ("ordinal", "benefit", [ordinal(v) for v in levels]))
        everyone = [a.id for a in task.alternatives]
        assert self.global_rung(task, everyone, {1, 2}) == ()
        # the repeats of one id on the winning vector all survive
        repeated = [cid for cid in everyone if cid != f"p{twin}"] + [f"p{best}"] * 2
        assert self.global_rung(task, repeated, {1, 2}) == (f"p{best}",) * 3

    @staticmethod
    def with_column(task, values):
        """``task`` with attribute 1 of its i-th alternative replaced by the i-th of ``values``, unvalidated."""
        return replace(
            task, alternatives=tuple(Alternative(a.id, {**a.values, 1: v}) for a, v in zip(task.alternatives, values))
        )

    def test_an_ordered_column_holding_a_category_raises(self):
        task = column_task(("numeric", "benefit", [crisp(i) for i in range(5)]))
        for values in (
            [crisp(i) for i in range(4)] + [category("red")],
            [category("red")] * 5,
            [category("red"), category("blue")] * 2 + [category("red")],
        ):
            broken = self.with_column(task, values)
            everyone = [a.id for a in broken.alternatives]
            for candidates in (everyone, everyone[::-1]):
                for mode in (GLOBAL, UNDOM):
                    with pytest.raises(ValueError, match="a category value has no order"):
                        dominant_set(candidates, {1}, mode, broken)

    def test_a_categorical_column_reads_its_values_as_labels(self):
        task = column_task(("categorical", "none", [category("red"), category("blue")]))
        broken = self.with_column(task, [crisp(1), crisp(2)])
        for candidates in (["p0", "p1"], ["p1", "p0"]):
            assert dominant_set(candidates, {1}, GLOBAL, broken) == ()
            assert dominant_set(candidates, {1}, UNDOM, broken) == tuple(candidates)

    def test_an_ordered_column_holding_another_family_raises(self):
        # compared coordinate by coordinate, ordinal(3) would "beat" interval(1, 2) on a
        # numeric column, because the comparison stops at the shorter of the two
        for kind, values, stray in (
            ("numeric", [interval(1, 2), ordinal(3), crisp(0)], "('o', 3)"),
            ("ordinal", [ordinal(2), crisp(3), ordinal(1)], "('n', 3.0, 3.0)"),
        ):
            task = column_task((kind, "benefit", [ordinal(i + 1) if kind == "ordinal" else crisp(i) for i in range(3)]))
            broken = self.with_column(task, values)
            message = re.escape(f"{kind} attribute 1 cannot order a value of another family, {stray}")
            everyone = [a.id for a in broken.alternatives]
            for candidates in (everyone, everyone[::-1], everyone[:2]):
                for mode in (GLOBAL, UNDOM):
                    with pytest.raises(ValueError, match=message):
                        dominant_set(candidates, {1}, mode, broken)

    def test_both_modes_name_the_first_value_that_has_no_order_here(self):
        task = column_task(("numeric", "benefit", [crisp(i) for i in range(4)]))
        broken = self.with_column(task, [crisp(0), ordinal(3), category("x"), ordinal(4)])
        for candidates, message in (
            (["p0", "p1", "p2", "p3"], "numeric attribute 1 cannot order a value of another family, ('o', 3)"),
            (["p3", "p2", "p1", "p0"], "numeric attribute 1 cannot order a value of another family, ('o', 4)"),
            (["p0", "p2", "p1", "p3"], "a category value has no order"),
        ):
            for mode in (GLOBAL, UNDOM):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    dominant_set(candidates, {1}, mode, broken)


def window_reference(candidates, attrs, task):
    """UNDOMINATED as a Sort-Filter-Skyline window over ``(labels, signed coords)`` pairs, quadratic on an antichain.

    Each candidate's pair is built cell by cell; the pairs are sorted in
    descending order and each is compared with the window of undominated
    pairs found so far.
    """
    columns = [task.attribute(aid) for aid in sorted(attrs)]
    pairs = {}
    for cid in candidates:
        values = task.alternative(cid).values
        labels, coords = [], []
        for attr in columns:
            key = values[attr.id].key
            if attr.kind == "categorical":
                labels.append(key)
            else:
                # (lo, hi) or (level,), larger being better
                coords += key[1:] if attr.polarity == "benefit" else [-x for x in key[1:]]
        pairs[cid] = (tuple(labels), tuple(coords))

    def beats(s, t):
        return s[0] == t[0] and s[1] != t[1] and all(map(ge, s[1], t[1]))

    window = []
    for pair in sorted(set(pairs.values()), reverse=True):
        if not any(beats(w, pair) for w in window):
            window.append(pair)
    kept = set(window)
    return tuple(cid for cid in candidates if pairs[cid] in kept)


def trade_off(rng, n, spread):
    """n points on the line x + y = spread, an antichain, with a quarter moved half a step along one axis.

    Coordinates are halves, so rows repeat and a moved point ties on x or on
    y with the points it beats or is beaten by.
    """
    xs = [rng.randint(0, 2 * spread) / 2 for _ in range(n)]
    ys = [spread - x for x in xs]
    for i in rng.sample(range(n), n // 4):
        if rng.random() < 0.5:
            xs[i] += rng.choice((-0.5, 0.5))
        else:
            ys[i] += rng.choice((-0.5, 0.5))
    return xs, ys


def plane(rng, n, spread, most_x):
    """n points (x, y, z) on the plane x + y + z = spread, an antichain, with a quarter moved half a step up on y or z.

    x is at most ``most_x`` and at most y, so (x, y) can bound an interval.
    Coordinates are small integers or halves, so each one repeats, and a moved
    point beats its twins while tying with them on the two other coordinates.
    """
    points = []
    for _ in range(n):
        x = rng.randint(0, most_x)
        y = rng.randint(x, spread - x)
        points.append([x, y, spread - x - y])
    for i in rng.sample(range(n), n // 4):
        points[i][rng.choice((1, 2))] += 0.5
    return points


def crisp_antichain(n):
    """Three crisp benefit columns holding the points of ``plane``, nearly all of them distinct."""
    points = plane(random.Random(14), n, 1000, 500)
    return column_task(*(("numeric", "benefit", [crisp(p[k]) for p in points]) for k in range(3)))


class TestUndominatedFront:
    """UNDOMINATED on rungs that keep most of the field: label groups, and one, two and more coordinates."""

    @staticmethod
    def undominated_rung(task, candidates, attrs, reference, seed=0):
        """UNDOMINATED's result on a shuffled copy of ``candidates`` with two repeats, checked against ``reference``."""
        rng = random.Random(seed)
        candidates = list(candidates)
        rng.shuffle(candidates)
        candidates += candidates[:2]
        kept = dominant_set(candidates, attrs, UNDOM, task)
        assert kept == reference(candidates, attrs, task)
        return kept

    @staticmethod
    def oracle(candidates, attrs, task):
        return brute_force_dominant(candidates, attrs, "undominated", task)

    @pytest.mark.parametrize("polarity", ["benefit", "cost"])
    def test_a_two_attribute_trade_off_against_the_oracle(self, polarity):
        xs, ys = trade_off(random.Random(11), 400, 100)
        sign = 1 if polarity == "benefit" else -1
        task = column_task(
            ("numeric", polarity, [crisp(sign * x) for x in xs]), ("numeric", polarity, [crisp(sign * y) for y in ys])
        )
        kept = self.undominated_rung(task, [a.id for a in task.alternatives], {1, 2}, self.oracle)
        assert len(kept) > 200

    def test_label_groups_intervals_and_at_least_against_the_oracle(self):
        rng = random.Random(12)
        n = 400
        xs, ys = trade_off(rng, n, 60)
        labels = [category(rng.choice(("red", "blue", "white"))) for _ in range(n)]
        # a benefit column of intervals, degenerate ones among them, and a cost column of
        # at_least and crisp values that rise with them
        spans = [interval(x, x + rng.choice((0, 0, 1, 2))) for x in xs]
        delays = [at_least(60 - y) if rng.random() < 0.5 else crisp(60 - y) for y in ys]
        task = column_task(("categorical", "none", labels), ("numeric", "benefit", spans), ("numeric", "cost", delays))
        everyone = [a.id for a in task.alternatives]
        for attrs in ({1, 2}, {1, 3}, {2, 3}, {1, 2, 3}):
            self.undominated_rung(task, everyone, attrs, self.oracle)

    @pytest.mark.parametrize("polarity", ["benefit", "cost"])
    def test_an_antichain_of_2000_against_the_window_pass(self, polarity):
        rng = random.Random(13)
        n = 2000
        xs, ys = trade_off(rng, n, 1000)
        labels = [category(rng.choice(("red", "blue"))) for _ in range(n)]
        sign = 1 if polarity == "benefit" else -1
        task = column_task(
            ("numeric", polarity, [crisp(sign * x) for x in xs]),
            ("numeric", polarity, [at_least(sign * y) if k % 3 else crisp(sign * y) for k, y in enumerate(ys)]),
            ("categorical", "none", labels),
        )
        everyone = [a.id for a in task.alternatives]
        assert len(self.undominated_rung(task, everyone, {1, 2, 3}, window_reference)) > 1000

    @pytest.mark.parametrize("polarity", ["benefit", "cost"])
    def test_three_coordinate_antichains_against_the_oracle(self, polarity):
        rng = random.Random(15)
        n = 400
        sign = 1 if polarity == "benefit" else -1
        flat, ordinals, spans = plane(rng, n, 60, 30), plane(rng, n, 60, 4), plane(rng, n, 60, 30)
        # ordinal(x + 1) under benefit and ordinal(5 - x) under cost both order as x; an
        # interval under cost holds the negated bounds, and an at_least value is not a point
        wide = [interval(x, y) if sign == 1 else interval(-y, -x) for x, y, _ in spans]
        wide[::5] = [at_least(sign * x) for x, _, _ in spans[::5]]
        task = column_task(
            *(("numeric", polarity, [crisp(sign * p[k]) for p in flat]) for k in range(3)),
            ("ordinal", polarity, [ordinal(x + 1 if sign == 1 else 5 - x) for x, _, _ in ordinals]),
            *(("numeric", polarity, [crisp(sign * p[k]) for p in ordinals]) for k in (1, 2)),
            ("numeric", polarity, wide),
            ("numeric", polarity, [crisp(sign * z) for _, _, z in spans]),
        )
        everyone = [a.id for a in task.alternatives]
        for attrs in ({1, 2, 3}, {4, 5, 6}, {7, 8}):
            assert {len(row) for row in ladder._rows(task.alternatives, attrs, task)[0]} == {3}
            assert len(self.undominated_rung(task, everyone, attrs, self.oracle)) > n // 10

    @pytest.mark.parametrize("polarity", ["benefit", "cost"])
    def test_four_and_five_coordinate_antichains_against_the_oracle(self, polarity):
        rng = random.Random(17)
        n = 300
        sign = 1 if polarity == "benefit" else -1
        spans, flat = plane(rng, n, 60, 30), plane(rng, n, 60, 30)
        # an interval under cost holds the negated bounds; the rows of each rung are an
        # antichain on their first columns, and a column of few values ties them further
        task = column_task(
            ("numeric", polarity, [interval(x, y) if sign == 1 else interval(-y, -x) for x, y, _ in spans]),
            ("numeric", polarity, [crisp(sign * z) for _, _, z in spans]),
            ("ordinal", polarity, [ordinal(rng.randint(1, 3)) for _ in range(n)]),
            *(("numeric", polarity, [crisp(sign * p[k]) for p in flat]) for k in range(3)),
            ("numeric", polarity, [crisp(sign * rng.randint(0, 1)) for _ in range(n)]),
            ("numeric", polarity, [interval(z, z + rng.randint(0, 2)) if sign == 1 else interval(-z - 2, -z) for _, _, z in spans]),
        )
        everyone = [a.id for a in task.alternatives]
        for attrs, width in (({1, 2, 3}, 4), ({4, 5, 6, 7}, 4), ({1, 8}, 4), ({1, 2, 3, 7}, 5), ({1, 3, 7, 8}, 6)):
            assert {len(row) for row in ladder._rows(task.alternatives, attrs, task)[0]} == {width}
            assert len(self.undominated_rung(task, everyone, attrs, self.oracle)) > n // 10

    def test_a_four_coordinate_antichain_of_2000_against_the_window_pass(self):
        task = four_coordinate_antichain(2000)
        everyone = [a.id for a in task.alternatives]
        assert len(self.undominated_rung(task, everyone, {1, 2, 3, 4}, window_reference)) > 1500

    def test_a_three_coordinate_antichain_of_2000_against_the_window_pass(self):
        task = crisp_antichain(2000)
        everyone = [a.id for a in task.alternatives]
        assert len(self.undominated_rung(task, everyone, {1, 2, 3}, window_reference)) > 1500


# one ordered column of each shape: "point" values give one coordinate, "wide" ones two
ORDERED = {
    "point": st.one_of(st.integers(0, 3).map(crisp), st.integers(0, 3).map(lambda x: interval(x, x))),
    "wide": st.one_of(
        st.integers(0, 3).map(at_least), st.tuples(st.integers(0, 3), st.integers(0, 2)).map(lambda p: interval(p[0], sum(p)))
    ),
    "ordinal": st.integers(1, 3).map(ordinal),
}


@st.composite
def rung_columns(draw):
    """Columns of a random rung, its attribute ids, and how many coordinates its rows have."""
    n = draw(st.integers(2, 14))
    columns = [
        ("categorical", "none", draw(st.lists(st.sampled_from(["red", "blue"]).map(category), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    width = 0
    for shape in draw(st.lists(st.sampled_from(sorted(ORDERED)), max_size=4)):
        values = draw(st.lists(ORDERED[shape], min_size=n, max_size=n))
        if shape == "wide":
            values[0] = at_least(0)  # one value that is not a point keeps both coordinates
        kind = "ordinal" if shape == "ordinal" else "numeric"
        columns.append((kind, draw(st.sampled_from(["benefit", "cost"])), values))
        width += 2 if shape == "wide" else 1
    if not columns:
        columns.append(("categorical", "none", [category("red")] * n))
    return columns, width


@st.composite
def antichain_columns(draw):
    """Columns of a rung of three coordinates whose rows lie on the plane x + y + z = 12, a few moved off it.

    The first column holds x as crisp numbers or ordinal levels beside two
    crisp columns of y and z, or min(x, y) and max(x, y) as intervals (the
    first one ``at_least``, so not every value is a point) beside one crisp
    column of z.  Small coordinates tie on each axis, and a point moved half a
    step up on y or z beats its twins; a label column may split the rung.
    """
    n = draw(st.integers(2, 30))
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 8), st.sampled_from([(0, 0), (0, 0), (0.5, 0), (0, 0.5)])),
            min_size=n,
            max_size=n,
        )
    )
    xs, ys, zs = zip(*((x, y + up, 12 - x - y + right) for x, y, (up, right) in points))
    polarity = draw(st.sampled_from(["benefit", "cost"]))
    sign = 1 if polarity == "benefit" else -1
    shape = draw(st.sampled_from(["crisp", "ordinal", "wide"]))
    if shape == "wide":
        spans = [sorted((sign * x, sign * y)) for x, y in zip(xs, ys)]
        columns = [("numeric", polarity, [at_least(spans[0][0])] + [interval(lo, hi) for lo, hi in spans[1:]])]
    elif shape == "ordinal":
        columns = [("ordinal", polarity, [ordinal(x + 1 if sign == 1 else 5 - x) for x in xs])]
        columns.append(("numeric", polarity, [crisp(sign * y) for y in ys]))
    else:
        columns = [("numeric", polarity, [crisp(sign * x) for x in xs]), ("numeric", polarity, [crisp(sign * y) for y in ys])]
    columns.append(("numeric", polarity, [crisp(sign * z) for z in zs]))
    if draw(st.booleans()):
        columns.append(("categorical", "none", draw(st.lists(st.sampled_from(["red", "blue"]).map(category), min_size=n, max_size=n))))
    return columns, 3


def assert_modes_agree(candidates, attrs, task):
    """GLOBAL keeps what UNDOMINATED keeps when that is one id, its repeats included, and nobody otherwise.

    In a strict partial order a lone maximal row is the greatest row, so the
    two modes check each other where the oracle is too slow.
    """
    undominated = dominant_set(candidates, attrs, UNDOM, task)
    assert dominant_set(candidates, attrs, GLOBAL, task) == (undominated if len(set(undominated)) == 1 else ())


class TestRungProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(rung_columns(), antichain_columns()), st.randoms(use_true_random=False))
    def test_both_modes_and_dominates_match_the_oracle(self, drawn, rng):
        columns, width = drawn
        task = column_task(*columns)
        attrs = set(range(1, len(columns) + 1))
        candidates = [a.id for a in task.alternatives]
        rng.shuffle(candidates)
        candidates += rng.choices(candidates, k=rng.randint(0, 3))
        rows, labels = ladder._rows([task.alternative(cid) for cid in candidates], attrs, task)
        assert {len(row) - labels for row in rows} == {width}
        for mode in (GLOBAL, UNDOM):
            assert dominant_set(candidates, attrs, mode, task) == brute_force_dominant(candidates, attrs, mode.value, task)
        assert_modes_agree(candidates, attrs, task)
        s, t = task.alternatives[:2]
        for mode in (GLOBAL, UNDOM):
            assert dominates(s, t, attrs, mode, task) == _naive_dominates(s, t, attrs, task)
            assert dominates(t, s, attrs, mode, task) == _naive_dominates(t, s, attrs, task)

    def test_the_modes_agree_at_2000(self):
        rng = random.Random(16)
        ties = tie_heavy_task(21, 2000)
        levels = {frozenset(level) for partition in TIE_PARTITIONS.values() for level in partition}
        for task, attrs in [(crisp_antichain(2000), {1, 2, 3})] + [(ties, level) for level in levels]:
            candidates = [a.id for a in task.alternatives]
            rng.shuffle(candidates)
            candidates += rng.choices(candidates, k=3)
            assert_modes_agree(candidates, attrs, task)

    def test_the_columns_give_every_width(self):
        # each path of _front: no coordinate, one, the staircase's two and three, and four or more
        widths = set()

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(rung_columns())
        def record(drawn):
            widths.add(min(drawn[1], 4))

        record()
        assert widths == {0, 1, 2, 3, 4}
