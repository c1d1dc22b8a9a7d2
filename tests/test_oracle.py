"""Generator determinism and engine/reference agreement."""

from __future__ import annotations

from ladderchoice import DominanceMode, Verdict, decide_task, validate_task
from ladderchoice.oracle import brute_force_dominant, brute_force_lt, random_task


class TestGenerator:
    def test_same_seed_same_task(self):
        assert random_task(42) == random_task(42)
        assert random_task(42, total_order_only=True) == random_task(42, total_order_only=True)

    def test_seed_sweep_is_validator_clean(self):
        for seed in range(1, 101):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            assert validate_task(task) == []

    def test_total_order_only_restricts_value_kinds(self):
        for seed in range(50):
            task = random_task(seed, n_alternatives=4, n_attributes=5, n_levels=2, total_order_only=True)
            for alt in task.alternatives:
                assert all(v.kind in ("crisp", "ordinal") for v in alt.values.values())

    def test_single_alternative_exercises_the_gate(self):
        task = random_task(7, n_alternatives=1, n_attributes=3, n_levels=2)
        assert len(task.alternatives) == 1
        sifted, outcome = decide_task(task)
        assert outcome.verdict in (Verdict.CHOSEN, Verdict.ABSTAIN)
        assert len(outcome.trace) == 0

    def test_oversized_request_is_capped_not_crashed(self):
        # one ordinal attribute can only tell five alternatives apart
        task = random_task(19, n_alternatives=8, n_attributes=1, n_levels=1, total_order_only=True)
        assert 1 <= len(task.alternatives) <= 21
        assert validate_task(task) == []

    def test_rejects_non_positive_dimensions(self):
        import pytest

        with pytest.raises(ValueError):
            random_task(1, n_alternatives=0)


class TestBruteForce:
    def test_case1_dominant_set(self, case1):
        assert brute_force_dominant(["m1", "m3"], {4, 5}, "global", case1) == ("m1",)

    def test_single_candidate_is_its_own_dominant_set(self, case1):
        assert brute_force_dominant(["m2"], {1, 2}, "global", case1) == ("m2",)
        assert brute_force_dominant(["m2"], {1, 2}, "undominated", case1) == ("m2",)

    def test_case1_full_pipeline(self, case1):
        assert brute_force_lt(case1) == ("Chosen", "m1")

    def test_case3_full_pipeline(self, case3):
        assert brute_force_lt(case3) == ("Chosen", "site2")

    def test_agrees_with_engine_across_seeds(self):
        for seed in range(500):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            for mode in DominanceMode:
                _, outcome = decide_task(task, mode)
                assert (outcome.verdict.value, outcome.chosen) == brute_force_lt(task, mode.value)
