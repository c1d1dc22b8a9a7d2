"""Generator determinism and engine/reference agreement."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re

import pytest

from conftest import TIE_PARTITIONS, tie_heavy_task
from ladderchoice import DominanceMode, Verdict, decide_task, psp, serialize_task, validate_task
from ladderchoice.ladder import dominant_set
from ladderchoice.oracle import _random_threshold, brute_force_dominant, brute_force_lt, random_task

# sha256 over serialize_task of the tasks `batch --seed 7 --count 1000` draws, then of
# random_task(seed, 4, 5, 2, total_order_only=True) for seeds 0..49: the generator's
# stream is pinned, so the tasks every seeded test and sweep checks stay the same
GENERATOR_DIGEST = "e1bd62a8d9174a7078e4dfbd09bc60541a1dd7053cde452a4f8965c39a45133d"


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

    @pytest.mark.parametrize(
        "seed,kind,n_alternatives,expected",
        [(1, "numeric", 60, 60), (1, "numeric", 170, 170), (1, "numeric", 171, 170), (0, "categorical", 8, 5)],
        ids=["numeric-60", "numeric-170", "numeric-171", "categorical-8"],
    )
    def test_the_cap_is_the_number_of_distinct_values(self, seed, kind, n_alternatives, expected):
        # a numeric attribute in partial order draws 170 distinct values: 21
        # crisp numbers, 128 intervals that are not points and 21 at_least bounds
        task = random_task(seed, n_alternatives=n_alternatives, n_attributes=1)
        assert task.attributes[0].kind == kind
        assert len(task.alternatives) == expected
        assert validate_task(task) == []

    def test_stream_is_unchanged(self):
        digest = hashlib.sha256()
        for seed in range(7, 1007):
            dims = random.Random(seed ^ 0x5EED)
            task = random_task(
                seed,
                n_alternatives=dims.randint(1, 6),
                n_attributes=dims.randint(1, 5),
                n_levels=dims.randint(1, 3),
            )
            digest.update(serialize_task(task).encode())
        for seed in range(50):
            task = random_task(seed, n_alternatives=4, n_attributes=5, n_levels=2, total_order_only=True)
            digest.update(serialize_task(task).encode())
        assert digest.hexdigest() == GENERATOR_DIGEST

    @pytest.mark.parametrize(
        "seed,n_alternatives,capacity",
        [(5, 1000, 5**4), (21, 5000, 21 * 5**3)],
        ids=["four-ordinals", "one-numeric-three-ordinals"],
    )
    def test_nearly_full_value_space_is_filled(self, seed, n_alternatives, capacity):
        # every distinct value vector is used; rejection sampling alone cannot
        # draw the last few of them
        task = random_task(seed, n_alternatives=n_alternatives, n_attributes=4, total_order_only=True)
        assert len(task.alternatives) == capacity
        assert validate_task(task) == []
        assert random_task(seed, n_alternatives=n_alternatives, n_attributes=4, total_order_only=True) == task

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

    @pytest.mark.parametrize("mode", [DominanceMode.GLOBAL, "foo", "GLOBAL", "", None, {1, 2}], ids=repr)
    def test_a_mode_it_does_not_know_is_refused(self, mode, case1):
        # the reference imports nothing from the engine, so a DominanceMode is not a mode here either
        message = "^" + re.escape(f"mode must be 'global' or 'undominated', got {mode!r}") + "$"
        with pytest.raises(ValueError, match=message):
            brute_force_dominant(["m1", "m2", "m3"], {1, 2}, mode, case1)
        with pytest.raises(ValueError, match=message):
            brute_force_lt(case1, mode)
        assert brute_force_dominant(["m1", "m2", "m3"], {1, 2}, "global", case1) == ()
        assert brute_force_dominant(["m1", "m2", "m3"], {1, 2}, "undominated", case1) == ("m1", "m3")

    def test_agrees_with_engine_across_seeds(self):
        for seed in range(500):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            for mode in DominanceMode:
                _, outcome = decide_task(task, mode)
                assert (outcome.verdict.value, outcome.chosen) == brute_force_lt(task, mode.value)


def aspired_task(seed: int):
    """A task of 1-3 alternatives from :func:`random_task`, given an aspiration block on its top level.

    The sizes and the aspiration come from a stream of their own, so the
    generator's stream is untouched.
    """
    rng = random.Random(seed ^ 0xA5)
    task = random_task(
        seed, n_alternatives=rng.randint(1, 3), n_attributes=rng.randint(1, 4), n_levels=rng.randint(1, 3)
    )
    top = sorted(task.partition.levels[-1])
    aspired = rng.sample(top, k=rng.randint(1, len(top)))
    return dataclasses.replace(task, aspiration=tuple(_random_threshold(rng, task.attribute(aid)) for aid in aspired))


class TestAspirationGate:
    def test_agrees_with_the_reference(self):
        gated = set()
        for seed in range(300):
            task = aspired_task(seed)
            assert validate_task(task) == []
            for mode in DominanceMode:
                sifted, outcome = decide_task(task, mode)
                assert (outcome.verdict.value, outcome.chosen) == brute_force_lt(task, mode.value), (seed, mode)
                if len(sifted.feasible) == 1:
                    gated.add(outcome.verdict)
        # the gate both lets a sole survivor through and holds one back
        assert gated == {Verdict.CHOSEN, Verdict.ABSTAIN}


# (n_alternatives, n_attributes, n_levels, seeds): few trials at large n, where the
# champion scan and Sort-Filter-Skyline do real work
LARGE = [(60, 4, 2, range(20)), (150, 5, 3, range(6)), (300, 4, 2, range(3)), (300, 6, 3, range(3))]


class TestAgreementAtLargeN:
    @pytest.mark.parametrize("total_order_only", [False, True], ids=["partial-order", "total-order"])
    @pytest.mark.parametrize("n,n_attributes,n_levels,seeds", LARGE, ids=[f"n{n}-m{m}" for n, m, *_ in LARGE])
    def test_dominant_set_and_decide_task(self, n, n_attributes, n_levels, seeds, total_order_only):
        for seed in seeds:
            task = random_task(seed, n, n_attributes, n_levels, total_order_only=total_order_only)
            everyone = [a.id for a in task.alternatives]
            for candidates in (everyone, list(psp(task).feasible)):
                for r in range(1, task.partition.level_count + 1):
                    attrs = task.partition.level(r)
                    for mode in DominanceMode:
                        assert dominant_set(candidates, attrs, mode, task) == brute_force_dominant(
                            candidates, attrs, mode.value, task
                        ), (seed, r, mode)
            for mode in DominanceMode:
                _, outcome = decide_task(task, mode)
                assert (outcome.verdict.value, outcome.chosen) == brute_force_lt(task, mode.value), (seed, mode)

    def test_lone_and_repeated_candidates(self):
        task = random_task(3, 40, 3, 1)
        attrs = task.partition.level(1)
        first, second = task.alternatives[0].id, task.alternatives[1].id
        for mode in DominanceMode:
            for candidates in ([], [first], [first, first], [first, second, first]):
                assert dominant_set(candidates, attrs, mode, task) == brute_force_dominant(
                    candidates, attrs, mode.value, task
                )


# rungs of tie_heavy_task: a categorical-only rung, a lone ordinal and both together
TIE_RUNGS = {"categorical": {1, 2}, "ordinal": {3}, "categorical+ordinal": {1, 2, 3}}


class TestAgreementWithTies:
    """Large rungs over a handful of distinct value vectors, where most candidates tie."""

    @pytest.mark.parametrize("attrs", list(TIE_RUNGS.values()), ids=list(TIE_RUNGS))
    def test_dominant_set_at_n1000(self, attrs):
        task = tie_heavy_task(11, 1000)
        everyone = [a.id for a in task.alternatives]
        for candidates in (everyone, list(psp(task).feasible)):
            for mode in DominanceMode:
                assert dominant_set(candidates, attrs, mode, task) == brute_force_dominant(
                    candidates, attrs, mode.value, task
                ), mode

    @pytest.mark.parametrize("attrs", list(TIE_RUNGS.values()), ids=list(TIE_RUNGS))
    def test_global_winner_shared_by_two_ids_keeps_nobody(self, attrs):
        task = tie_heavy_task(12, 2000)
        everyone = [a.id for a in task.alternatives]
        # the top vector of the rung is held by several ids, none of which beats the others
        assert dominant_set(everyone, attrs, DominanceMode.GLOBAL, task) == ()
        assert brute_force_dominant(everyone, attrs, "global", task) == ()
        # two ids alone on one vector, and one of them repeated
        first = task.alternatives[0]
        twin = next(a for a in task.alternatives[1:] if all(a.values[i].key == first.values[i].key for i in attrs))
        for candidates in ([first.id, twin.id], [twin.id, first.id, twin.id]):
            assert dominant_set(candidates, attrs, DominanceMode.GLOBAL, task) == ()
            assert brute_force_dominant(candidates, attrs, "global", task) == ()

    def test_global_unique_winner_among_ties(self):
        task = tie_heavy_task(13, 2000)
        level = {a.id: a.values[3].level for a in task.alternatives}
        best = next(cid for cid, lv in level.items() if lv == 5)
        candidates = [cid for cid, lv in level.items() if lv < 5]
        candidates.insert(len(candidates) // 2, best)
        for ids in (candidates, [best, *candidates, best]):
            expected = brute_force_dominant(ids, {3}, "global", task)
            assert expected == tuple(cid for cid in ids if cid == best)
            assert dominant_set(ids, {3}, DominanceMode.GLOBAL, task) == expected

    @pytest.mark.parametrize("top", list(TIE_PARTITIONS), ids=list(TIE_PARTITIONS))
    def test_decide_task_at_n1000(self, top):
        task = tie_heavy_task(14, 1000, top)
        for mode in DominanceMode:
            _, outcome = decide_task(task, mode)
            assert (outcome.verdict.value, outcome.chosen) == brute_force_lt(task, mode.value), mode
