"""Decision-level metamorphic relations: how a verdict must change, or not, when the task changes.

A relation needs no second implementation of the procedure, so it can catch
a misreading that the engine and the naive reference in ``oracle.py`` share.
Each relation is asserted for both: one that fails on the reference is a
wrong relation, not a wrong engine.  The tasks are seeded ``random_task``s of
2-8 alternatives, 1-5 attributes and 1-3 levels.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from ladderchoice import DominanceMode, decide_task, psp
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
