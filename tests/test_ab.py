"""The call recorder and replayer of ``tools/ab.py`` on a workload of known calls."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from conftest import load_case
from ladderchoice import DominanceMode, ladder

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


class Workload:
    """Three operations, each an UNDOMINATED rung of case2 over all its alternatives, read as the benchmark reads the engine."""

    cycle = 3

    def __init__(self):
        self.engine = SimpleNamespace(dominant_set=ladder.dominant_set)
        self.task = load_case("case2")
        self.everyone = [a.id for a in self.task.alternatives]

    def prepare(self, i, traced):
        return i

    def run(self, item):
        attrs = self.task.partition.level(self.task.partition.level_count)
        return self.engine.dominant_set(self.everyone, attrs, DominanceMode.UNDOMINATED, self.task)


def test_record_sees_calls_from_within_the_package_and_copies_lists():
    front = ladder._front
    calls = ab.record(Workload(), ladder, "_front")
    assert ladder._front is front  # the recorder is taken out again
    assert len(calls) == 3 and all(len(args) == 1 and isinstance(args[0], list) and raised is None for args, raised in calls)
    # _front sorts its rows in place, and the recorded ones are the rows as they came
    rows = calls[0][0][0]
    assert rows != sorted(rows, reverse=True)
    assert ab.replay(front, calls) > 0
    assert calls[0][0][0] == rows


def test_record_sees_calls_through_the_engine_namespace():
    workload = Workload()
    calls = ab.record(workload, ladder, "dominant_set")
    assert workload.engine.dominant_set is ladder.dominant_set
    assert len(calls) == 3 and calls[0][0][0] == workload.everyone


class TwoTasks(Workload):
    """Four operations, each an UNDOMINATED rung over all of one task's alternatives, the two tasks in turn."""

    cycle = 4

    def __init__(self):
        super().__init__()
        self.tasks = [self.task, load_case("case1")]

    def run(self, item):
        task = self.tasks[item % 2]
        attrs = task.partition.level(task.partition.level_count)
        return self.engine.dominant_set([a.id for a in task.alternatives], attrs, DominanceMode.UNDOMINATED, task)


def test_each_pass_gives_the_calls_of_one_task_one_fresh_copy():
    workload = TwoTasks()
    calls = ab.record(workload, ladder, "dominant_set")
    assert all("_alternative_by_id" in vars(task) for task in workload.tasks)  # the recording built each index
    seen = []

    def spy(candidates, attrs, mode, task):
        seen.append((task, "_alternative_by_id" in vars(task)))
        return ladder.dominant_set(candidates, attrs, mode, task)

    ab.replay(spy, calls)
    ab.replay(spy, calls)
    passes = [seen[:4], seen[4:]]
    for one_pass in passes:
        tasks = [task for task, _ in one_pass]
        assert [indexed for _, indexed in one_pass] == [False, False, True, True]  # each copy starts with no index
        assert tasks[0] is tasks[2] and tasks[1] is tasks[3] and tasks[0] is not tasks[1]
        assert tasks[:2] == workload.tasks and not any(copy is task for copy, task in zip(tasks, workload.tasks))
    assert not any(a[0] is b[0] for a, b in zip(*passes))  # and each pass has its own copies
