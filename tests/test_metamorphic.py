"""Decision-level metamorphic relations: how a verdict must change, or not, when the task changes.

A relation needs no second implementation of the procedure, so it can catch
a misreading that the engine and the naive reference in ``oracle.py`` share.
Each relation is asserted for both: one that fails on the reference is a
wrong relation, not a wrong engine.  The tasks are seeded ``random_task``s of
2-8 alternatives, 1-5 attributes and 1-3 levels.
"""

from __future__ import annotations

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladderchoice import Alternative, DominanceMode, category, crisp, decide_task, ordinal, psp, validate_task
from ladderchoice.model import Elimination, LadderOutcome, LevelRecord, SiftResult
from ladderchoice.oracle import brute_force_dominant, brute_force_lt, random_task

GLOBAL, UNDOMINATED = DominanceMode.GLOBAL, DominanceMode.UNDOMINATED

tasks = st.builds(
    random_task, st.integers(0, 2**16), st.integers(2, 8), st.integers(1, 5), st.integers(1, 3), st.booleans()
)
relation = settings(max_examples=600, derandomize=True, database=None, deadline=None)


def engine(task, mode: DominanceMode) -> tuple[str, str | None]:
    """The engine's verdict and chosen id, as ``brute_force_lt`` spells them."""
    ladder = decide_task(task, mode)[1]
    return ladder.verdict.value, ladder.chosen


def reference(task, mode: DominanceMode) -> tuple[str, str | None]:
    return brute_force_lt(task, mode.value)


@st.composite
def permuted_tasks(draw):
    """A task, and the same task with its alternatives in another order."""
    task = draw(tasks)
    order = draw(st.permutations(task.alternatives))
    return task, dataclasses.replace(task, alternatives=tuple(order))


@st.composite
def renamed_tasks(draw):
    """A task, the same task with its alternatives renamed, and the renaming: old id -> new id.

    The new ids are drawn from the old ones and as many fresh ones, so a
    renaming may swap two ids.
    """
    task = draw(tasks)
    ids = [alt.id for alt in task.alternatives]
    names = draw(st.permutations([*ids, *(f"new{index}" for index in range(len(ids)))]))
    rename = dict(zip(ids, names))
    alternatives = tuple(Alternative(rename[alt.id], alt.values) for alt in task.alternatives)
    return task, dataclasses.replace(task, alternatives=alternatives), rename


def renamed(sifted: SiftResult, outcome: LadderOutcome, rename: dict) -> tuple[SiftResult, LadderOutcome]:
    """The sift result and ladder outcome with every alternative id renamed."""
    ids = lambda alt_ids: tuple(rename[alt_id] for alt_id in alt_ids)
    eliminations = tuple(Elimination(rename[e.alternative_id], e.attribute_id, e.threshold, e.value) for e in sifted.eliminations)
    trace = tuple(LevelRecord(r.r, r.attribute_ids, ids(r.survivors_before), ids(r.survivors_after)) for r in outcome.trace)
    chosen = None if outcome.chosen is None else rename[outcome.chosen]
    return SiftResult(ids(sifted.feasible), eliminations), LadderOutcome(outcome.verdict, chosen, trace)


def failing_value(threshold):
    """A value of the threshold's family that fails it, or None where every value of the family passes."""
    op, bound = threshold.op, threshold.bound
    if op == "max":
        return crisp(bound + 1)
    if op == "min":
        return crisp(bound - 1)
    if op == "max_level":
        return ordinal(bound + 1) if bound < 5 else None
    if op == "min_level":
        return ordinal(bound - 1) if bound > 1 else None
    return category("purple")  # outside the generator's label pool, so in no allowed list


@st.composite
def tasks_with_an_infeasible_extra(draw):
    """A task, and the same task with one more alternative, ``extra``, that fails a basic threshold.

    ``extra`` copies a drawn alternative's values but one, which fails its
    threshold, and goes in at a drawn position.
    """
    task = draw(tasks)
    threshold = draw(st.sampled_from([t for t in task.thresholds if failing_value(t) is not None] or [None]))
    assume(threshold is not None)
    values = {**draw(st.sampled_from(task.alternatives)).values, threshold.attribute_id: failing_value(threshold)}
    alternatives = list(task.alternatives)
    alternatives.insert(draw(st.integers(0, len(alternatives))), Alternative("extra", values))
    grown = dataclasses.replace(task, alternatives=tuple(alternatives))
    assume(not validate_task(grown))
    return task, grown


class TestRelations:
    @relation
    @given(permuted_tasks())
    def test_permuting_the_alternatives_keeps_the_verdict_and_the_choice(self, pair):
        task, permuted = pair
        for mode in (GLOBAL, UNDOMINATED):
            for decide in (engine, reference):
                assert decide(permuted, mode) == decide(task, mode)

    @relation
    @given(tasks)
    def test_what_global_chooses_undominated_chooses(self, task):
        for decide in (engine, reference):
            verdict, chosen = decide(task, GLOBAL)
            if verdict == "Chosen":
                assert decide(task, UNDOMINATED) == ("Chosen", chosen)

    @relation
    @given(tasks)
    def test_a_global_trace_has_at_most_one_rung(self, task):
        # ids are unique, so no two candidates can each beat all the others on the top level
        assert len(decide_task(task, GLOBAL)[1].trace) <= 1
        feasible = psp(task).feasible
        assert len(brute_force_dominant(feasible, task.partition.levels[-1], "global", task)) <= 1
        assert reference(task, GLOBAL)[0] != "NoUniqueChoice"

    @relation
    @given(renamed_tasks())
    def test_renaming_the_alternatives_renames_the_outcome_and_the_trace(self, case):
        task, other, rename = case
        for mode in (GLOBAL, UNDOMINATED):
            assert decide_task(other, mode) == renamed(*decide_task(task, mode), rename)
            verdict, chosen = reference(task, mode)
            assert reference(other, mode) == (verdict, None if chosen is None else rename[chosen])

    @relation
    @given(tasks_with_an_infeasible_extra())
    def test_an_alternative_that_fails_a_threshold_only_adds_its_eliminations(self, case):
        task, grown = case
        for mode in (GLOBAL, UNDOMINATED):
            sifted, outcome = decide_task(task, mode)
            grown_sifted, grown_outcome = decide_task(grown, mode)
            assert grown_outcome == outcome
            assert grown_sifted.feasible == sifted.feasible
            added = [e for e in grown_sifted.eliminations if e.alternative_id == "extra"]
            kept = [e for e in grown_sifted.eliminations if e.alternative_id != "extra"]
            assert added and kept == list(sifted.eliminations)
            assert reference(grown, mode) == reference(task, mode)

    @relation
    @given(tasks, st.data())
    def test_global_contraction_keeps_the_choice_while_two_stay_feasible(self, task, data):
        # Sen's property alpha; UNDOMINATED mode does not have it: there a removed rival may be the only one
        # that beat some other candidate at an earlier rung
        for decide in (engine, reference):
            verdict, chosen = decide(task, GLOBAL)
            others = [alt for alt in task.alternatives if alt.id != chosen]
            if verdict != "Chosen" or not others:
                continue
            removed = data.draw(st.sampled_from(others))
            smaller = dataclasses.replace(task, alternatives=tuple(alt for alt in task.alternatives if alt is not removed))
            if len(psp(smaller).feasible) >= 2:
                assert decide(smaller, GLOBAL) == ("Chosen", chosen)

    def test_the_relations_meet_the_cases_they_are_about(self):
        # the drawn tasks reach what each relation speaks of: a GLOBAL choice, a GLOBAL rung, a reordering
        seen: set[str] = set()

        @relation
        @given(permuted_tasks())
        def record(pair):
            task, permuted = pair
            if engine(task, GLOBAL)[0] == "Chosen":
                seen.add("global chooses")
            if decide_task(task, GLOBAL)[1].trace:
                seen.add("global climbs")
            if engine(task, UNDOMINATED)[0] == "NoUniqueChoice":
                seen.add("undominated chooses nobody")
            if permuted.alternatives != task.alternatives:
                seen.add("reordered")

        record()
        assert seen == {"global chooses", "global climbs", "undominated chooses nobody", "reordered"}
