"""The call recorder and replayer of ``tools/ab.py`` on a workload of known calls."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

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



def test_replay_hands_every_pass_the_recorded_task_itself():
    workload = Workload()
    calls = ab.record(workload, ladder, "dominant_set")
    built = dict(vars(workload.task))
    seen = []

    def spy(candidates, attrs, mode, task):
        seen.append(task)
        return ladder.dominant_set(candidates, attrs, mode, task)

    ab.replay(spy, calls)
    ab.replay(spy, calls)
    # no call writes to a task, so replay needs no copy of it
    assert len(seen) == 6 and all(task is workload.task for task in seen)
    assert vars(workload.task) == built


def test_replay_expects_only_what_a_call_raised_when_recorded():
    def refuse(kind):
        raise kind("refused")

    assert ab.replay(refuse, [((KeyError,), KeyError)]) >= 0
    with pytest.raises(ValueError):
        ab.replay(refuse, [((ValueError,), KeyError)])
