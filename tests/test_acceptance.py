"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test results.
"""

from __future__ import annotations

import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

from ladderchoice import (
    Alternative,
    DominanceMode,
    Threshold,
    Verdict,
    at_least,
    compare_theories,
    crisp,
    decide_task,
    interval,
    parse_scenario,
    psp,
    serialize_task,
)
from ladderchoice.cli import main, run_batch
from ladderchoice.oracle import brute_force_lt, random_task

from conftest import CASES, dominates, fixture_path, load_case

GLOBAL = DominanceMode.GLOBAL
UNDOM = DominanceMode.UNDOMINATED


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL", file=sys.stderr)
        raise
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_case_fixtures(capsys):
    with criterion(1, "case fixtures reproduce exactly"):
        started = time.perf_counter()

        code = main(["decide", str(fixture_path("case1"))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "Chosen: m1"
        assert "eliminated m2 | attribute 5" in out

        code = main(["decide", str(fixture_path("case2"))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "Chosen: m3"
        assert "eliminated m1 | attribute 1" in out

        code = main(["decide", str(fixture_path("case3"))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "Chosen: site2"  # cheapest site passing the legality screen

        code = main(["decide", str(fixture_path("case4"))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "Chosen: w1"

        assert time.perf_counter() - started < 1.0


def test_criterion_2_theory_grid(capsys):
    with criterion(2, "ladder/prospect/image comparison grid"):
        # per-case designations: risk attribute for the travel cases, price
        # and wear-time profitability criteria for the other two
        configs = {
            "case1": dict(pt_risk_attr=5, it_profit_attr=None),
            "case2": dict(pt_risk_attr=5, it_profit_attr=None),
            "case3": dict(pt_risk_attr=None, it_profit_attr=2),
            "case4": dict(pt_risk_attr=None, it_profit_attr=5),
        }
        observed = {"case1": "m1", "case2": "m3", "case3": "site2", "case4": "w1"}

        grid = {}
        for name in CASES:
            rows = {r.theory: r for r in compare_theories(load_case(name), **configs[name])}
            grid[name] = rows

        # ladder engine: correct on all four
        for name in CASES:
            assert (grid[name]["lt"].status, grid[name]["lt"].chosen) == ("chosen", observed[name])

        # prospect proxy: right on case1, wrong on case2, no prediction on 3-4
        assert (grid["case1"]["pt"].status, grid["case1"]["pt"].chosen) == ("chosen", "m1")
        assert (grid["case2"]["pt"].status, grid["case2"]["pt"].chosen) == ("chosen", "m1")
        assert grid["case2"]["pt"].chosen != observed["case2"]
        assert grid["case3"]["pt"].status == "inapplicable"
        assert grid["case4"]["pt"].status == "inapplicable"

        # image chooser: undecidable on 1-2, correct on 3-4
        assert grid["case1"]["it"].status == "undecidable"
        assert grid["case2"]["it"].status == "undecidable"
        assert (grid["case3"]["it"].status, grid["case3"]["it"].chosen) == ("chosen", "site2")
        assert (grid["case4"]["it"].status, grid["case4"]["it"].chosen) == ("chosen", "w1")

        # the same grid through the command line
        assert main(["compare", str(fixture_path("case1")), "--theories", "lt,pt,it", "--pt-risk-attr", "5"]) == 0
        assert capsys.readouterr().out.splitlines() == ["lt: m1", "pt: m1", "it: undecidable"]
        assert main(["compare", str(fixture_path("case2")), "--theories", "lt,pt,it", "--pt-risk-attr", "5"]) == 0
        assert capsys.readouterr().out.splitlines() == ["lt: m3", "pt: m1", "it: undecidable"]
        assert main(["compare", str(fixture_path("case3")), "--theories", "lt,it", "--it-profit-attr", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["lt: site2", "it: site2"]
        assert main(["compare", str(fixture_path("case4")), "--theories", "lt,it", "--it-profit-attr", "5"]) == 0
        assert capsys.readouterr().out.splitlines() == ["lt: w1", "it: w1"]


def _sweep_tasks():
    for seed in range(1000):
        dims = random.Random(seed * 7919 + 13)
        yield random_task(
            seed,
            n_alternatives=dims.randint(1, 6),
            n_attributes=dims.randint(1, 5),
            n_levels=dims.randint(1, 3),
            total_order_only=True,
        )


def test_criterion_3_termination_and_uniqueness():
    with criterion(3, "bounded trace and unique choice on total orders"):
        started = time.perf_counter()
        for task in _sweep_tasks():
            sifted, outcome = decide_task(task, GLOBAL)
            assert len(outcome.trace) <= task.partition.level_count
            dead_ended = any(not rec.survivors_after for rec in outcome.trace)
            if sifted.feasible and not dead_ended:
                assert outcome.verdict is Verdict.CHOSEN
                assert sifted.feasible.count(outcome.chosen) == 1
        assert time.perf_counter() - started <= 10.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "engine agrees with the brute-force reference"):
        agreements = 0
        for task in _sweep_tasks():
            _, outcome = decide_task(task, GLOBAL)
            assert (outcome.verdict.value, outcome.chosen) == brute_force_lt(task, "global")
            agreements += 1
        assert agreements == 1000
        code, report = run_batch(seed=7, count=1000)
        assert code == 0
        assert report == "1000/1000 agree"


def test_criterion_5_invariant_suites():
    with criterion(5, "randomized invariant suites"):
        # sifting: subset of the input, idempotent on its own output
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=4, n_levels=2)
            feasible = psp(task).feasible
            assert set(feasible) <= {a.id for a in task.alternatives}
            again = psp(replace(task, alternatives=tuple(a for a in task.alternatives if a.id in feasible)))
            assert again.feasible == feasible

        # dominance, as a rung of two decides it in either mode: antisymmetric and transitive
        for seed in range(200):
            task = random_task(seed, n_alternatives=4, n_attributes=4, n_levels=2)
            attrs = task.partition.level(task.partition.level_count)
            alts = task.alternatives
            for mode in (GLOBAL, UNDOM):
                for s in alts:
                    for t in alts:
                        if s is t:
                            continue
                        if dominates(s, t, attrs, mode, task):
                            assert not dominates(t, s, attrs, mode, task)
                        for u in alts:
                            if u in (s, t):
                                continue
                            if dominates(s, t, attrs, mode, task) and dominates(t, u, attrs, mode, task):
                                assert dominates(s, u, attrs, mode, task)

        # global filter cardinality and undominated survivor monotonicity
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=5, n_levels=3)
            _, global_outcome = decide_task(task, GLOBAL)
            for rec in global_outcome.trace:
                if len(rec.survivors_before) >= 2:
                    assert len(rec.survivors_after) <= 1
            _, undom_outcome = decide_task(task, UNDOM)
            for rec in undom_outcome.trace:
                assert set(rec.survivors_after) <= set(rec.survivors_before)
                assert rec.survivors_after

        # choice invariance under monotone rescaling of one numeric attribute
        rng = random.Random(2024)
        checked = 0
        seed = 0
        while checked < 200:
            task = random_task(seed, n_alternatives=5, n_attributes=4, n_levels=2)
            seed += 1
            numeric_ids = [a.id for a in task.attributes if a.kind == "numeric"]
            if not numeric_ids:
                continue
            target = rng.choice(numeric_ids)
            scale, shift = rng.uniform(0.25, 4.0), rng.uniform(-10.0, 10.0)

            def g(x):
                return scale * x + shift

            def map_value(v):
                if v.kind == "crisp":
                    return crisp(g(v.lo))
                if v.kind == "interval":
                    return interval(g(v.lo), g(v.hi))
                if v.kind == "at_least":
                    return at_least(g(v.lo))
                return v

            transformed = replace(
                task,
                thresholds=tuple(
                    Threshold(t.attribute_id, t.op, g(t.bound))
                    if t.attribute_id == target and t.op in ("max", "min")
                    else t
                    for t in task.thresholds
                ),
                alternatives=tuple(
                    Alternative(a.id, {aid: map_value(v) if aid == target else v for aid, v in a.values.items()})
                    for a in task.alternatives
                ),
            )
            _, before = decide_task(task, GLOBAL)
            _, after = decide_task(transformed, GLOBAL)
            assert (before.verdict, before.chosen) == (after.verdict, after.chosen)
            checked += 1

        # permutation invariance of the verdict
        rng = random.Random(77)
        for seed in range(200):
            task = random_task(seed, n_alternatives=6, n_attributes=4, n_levels=2)
            shuffled = list(task.alternatives)
            rng.shuffle(shuffled)
            permuted = replace(task, alternatives=tuple(shuffled))
            for mode in (GLOBAL, UNDOM):
                _, a = decide_task(task, mode)
                _, b = decide_task(permuted, mode)
                assert (a.verdict, a.chosen) == (b.verdict, b.chosen)


def test_criterion_6_baseline_numerics():
    with criterion(6, "baseline value and weighting numerics"):
        from ladderchoice.baselines import pt_value, pt_weight

        assert abs(pt_value(100.0) - math.exp(0.88 * math.log(100.0))) < 1e-6
        assert pt_weight(0.0, 0.61) == 0.0
        assert pt_weight(1.0, 0.61) == 1.0
        for k in range(1001):
            p = k / 1000
            assert pt_weight(p, 1.0) == p


def test_criterion_7_format_round_trip():
    with criterion(7, "scenario round-trip identity"):
        for name in CASES:
            task = load_case(name)
            assert parse_scenario(serialize_task(task)) == task
        for seed in range(100):
            task = random_task(seed, n_alternatives=5, n_attributes=5, n_levels=3)
            assert parse_scenario(serialize_task(task)) == task
