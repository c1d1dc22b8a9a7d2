"""Tests of the benchmark's own parts: the scenario generator and the tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import scenarios  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

from ladderchoice import ScenarioError, parse_scenario, psp  # noqa: E402

MIXED = scenarios.Settings(sizes=range(2, 13), n_attributes=(1, 6), invalid_share=0.25)


def test_same_seed_gives_identical_text():
    first = scenarios.generate(7, MIXED, 200)
    again = scenarios.generate(7, MIXED, 200)
    other = scenarios.generate(8, MIXED, 200)
    assert [s.text for s in first] == [s.text for s in again]
    assert [s.text for s in first] != [s.text for s in other]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_valid_scenarios_parse_and_invalid_ones_fail_as_expected(seed):
    seen = set()
    for scenario in scenarios.generate(seed, MIXED, 400):
        if scenario.expected is None:
            parse_scenario(scenario.text)
            continue
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(scenario.text)
        assert caught.value.category == scenario.expected
        seen.add(scenario.expected)
    assert seen == set(scenarios.INVALID_KINDS)


def test_invalid_share_is_one_per_block():
    settings = scenarios.Settings(sizes=(5,), n_attributes=(3, 3), invalid_share=1 / 6)
    generated = scenarios.generate(3, settings, 60)
    for start in range(0, 60, 6):
        assert sum(s.expected is not None for s in generated[start : start + 6]) == 1


def test_alternatives_are_distinct_and_sized_as_asked():
    settings = scenarios.Settings(sizes=(250, 500), cycle_sizes=True, n_attributes=(4, 6), loose=True)
    for scenario, size in zip(scenarios.generate(5, settings, 4), (250, 500, 250, 500)):
        task = parse_scenario(scenario.text)
        assert len(task.alternatives) == size


def test_tiny_value_space_caps_the_size():
    settings = scenarios.Settings(sizes=(12,), n_attributes=(1, 1), kind_mix=(("ordinal", 1.0),))
    for scenario in scenarios.generate(2, settings, 20):
        assert len(parse_scenario(scenario.text).alternatives) == 2


def test_settings_shape_the_scenarios():
    total = scenarios.Settings(
        sizes=(40,), n_attributes=(5, 5), kind_mix=(("numeric", 0.6), ("ordinal", 0.4)), partial_order=False
    )
    for scenario in scenarios.generate(4, total, 10):
        task = parse_scenario(scenario.text)
        assert [a.kind for a in task.attributes] == ["numeric"] * 3 + ["ordinal"] * 2
        assert all(alt.values[a.id].kind in ("crisp", "ordinal") for alt in task.alternatives for a in task.attributes)

    def feasible_share(loose: bool) -> float:
        settings = scenarios.Settings(sizes=(100,), n_attributes=(4, 6), loose=loose)
        tasks = [parse_scenario(s.text) for s in scenarios.generate(6, settings, 10)]
        return sum(len(psp(t).feasible) for t in tasks) / sum(len(t.alternatives) for t in tasks)

    assert feasible_share(True) > 0.85 > feasible_share(False)


def test_rejected_scenarios_keep_the_valid_text_they_came_from():
    kept = [s for s in scenarios.generate(9, MIXED, 200) if s.base is not None]
    assert kept
    for scenario in kept:
        assert scenario.expected in scenarios.INVALID_KINDS[3:]  # the ones validate_task catches
        parse_scenario(scenario.base)


def test_setup_probe_prints_its_time():
    fixture = BENCH.parent / "fixtures" / "case1.json"
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(BENCH.parent / "src"), "--cli", str(fixture)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    assert 0 < float(done.stdout.splitlines()[-1]) < 60


def test_groupings_cover_every_attribute_once():
    found = scenarios.groupings([1, 2, 3, 4], 2)
    assert len(found) == 15 == len({tuple(map(tuple, g)) for g in found})
    assert all(sorted(a for level in g for a in level) == [1, 2, 3, 4] for g in found)


def test_self_time_subtracts_children_timed_apart():
    tracer = Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1], ["parse", 1.0, 5.0, 0], ["decode", 6.0, 7.0, 1], ["validate", 7.0, 9.0, 1]]
    assert tracer.self_times() == {"op": [6.0], "parse": [1.0], "decode": [1.0], "validate": [2.0]}


def test_gauge_scales_by_the_mean_speed_over_the_timed_work():
    readings = iter([0.5, 0.010, 0.040, 0.020])
    gauge = speed.Gauge(lambda: next(readings), 0.015)
    for weight in (1.0, 2.0, 1.0):
        gauge.read(weight)
    assert gauge.readings == [0.010, 0.040, 0.020]  # the warm-up reading is not kept
    assert gauge.scale() == pytest.approx(0.015 * (100 + 2 * 25 + 50) / 4)  # the mean speed over the work


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99.9) == 100.0
    assert run.percentile(values, 60) == 60.0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(trace, section):
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "small-stream", "--seed", "3", "--seconds", "0.2"]
    done = subprocess.run(argv + ["--trace", str(trace)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in config[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
