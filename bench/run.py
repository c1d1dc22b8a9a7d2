"""Seeded end-to-end and per-layer benchmark for the ladderchoice engine.

    python3 bench/run.py --workload small-stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from ``src/``.
Each run is one process with one closed-loop client: the next operation
starts when the previous one has finished.  The loop stops once the timed
operations add up to ``--seconds`` and the workload's input cycle is
complete.  Every output is checked against the
brute-force oracle (or, for rejected scenarios, the expected error category)
outside the timed region.

``--trace 0`` prints the end-to-end metrics, their times scaled to the
reference speed of ``speed.py``.  ``--trace 1`` runs every
operation twice, once plainly and once with spans around the calls into each
engine module, and prints the per-layer metrics; the spans go to
``bench/out/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import scenarios
import setup_probe
from speed import EVERY_S, Gauge
from tracing import Tracer, layer_metrics, ratio

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FIXTURES = ("case1", "case2", "case3", "case4")

# Fixed per workload, and lower than the highest percentile that keeps ten
# samples above it: those read a few stray slow operations and spread by a
# quarter to three quarters across ten seeds (see README.md).
TAIL_PERCENTILE = {"small-stream": 99.0, "large-scenarios": 75.0, "regroup": 75.0, "cli-fixtures": 75.0}

LAYERS = (
    "scenario.json_decode",
    "scenario.parse_scenario",
    "model.validate_task",
    "sift.psp",
    "ladder.lsp.global",
    "ladder.lsp.undominated",
    "scenario.render",
    "baselines.compare_theories",
    "cli.interpreter",
    "cli.import",
    "cli.main",
)


def import_engine() -> SimpleNamespace:
    """Import the engine's modules from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "ladderchoice" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    model, scenario, sift, ladder, baselines, oracle = (
        importlib.import_module(f"ladderchoice.{name}")
        for name in ("model", "scenario", "sift", "ladder", "baselines", "oracle")
    )
    if Path(model.__file__).resolve().parent != SRC / "ladderchoice":
        raise SystemExit(f"error: imported ladderchoice from {model.__file__}, not from {SRC}")
    return SimpleNamespace(
        DominancePartition=model.DominancePartition,
        validate_task=model.validate_task,
        ScenarioError=scenario.ScenarioError,
        parse_scenario=scenario.parse_scenario,
        serialize_outcome=scenario.serialize_outcome,
        psp=sift.psp,
        DominanceMode=ladder.DominanceMode,
        decide_task=ladder.decide_task,
        lsp=ladder.lsp,
        compare_theories=baselines.compare_theories,
        brute_force_lt=oracle.brute_force_lt,
    )


class Counts:
    """Counts taken at the sift and ladder boundaries of traced operations."""

    def __init__(self) -> None:
        self.alternatives = self.feasible = self.rungs = self.candidates_in = self.pairs_bound = 0
        self.before = {"global": 0, "undominated": 0}
        self.removed = {"global": 0, "undominated": 0}

    def add(self, n_alternatives: int, sifted, outcome, mode: str) -> None:
        self.alternatives += n_alternatives
        self.feasible += len(sifted.feasible)
        for record in outcome.trace:
            k = len(record.survivors_before)
            self.rungs += 1
            self.candidates_in += k
            self.pairs_bound += k * (k - 1)
            self.before[mode] += k
            self.removed[mode] += k - len(record.survivors_after)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "sift.feasible_ratio": (ratio(self.feasible, self.alternatives), "ratio"),
            "ladder.rungs": (self.rungs, "count"),
            "ladder.candidates_in": (self.candidates_in, "count"),
            "ladder.pairs_bound": (self.pairs_bound, "count"),
            "ladder.removed_ratio.global": (ratio(self.removed["global"], self.before["global"]), "ratio"),
            "ladder.removed_ratio.undominated": (
                ratio(self.removed["undominated"], self.before["undominated"]),
                "ratio",
            ),
        }


class Workload:
    """One workload: inputs from the seed, a set-up, and a checked operation.

    The set-up imports the engine (and the command line with ``setup_cli``)
    and parses ``setup_files``; ``setup_s`` is timed on ``setup_probes``
    copies of it in fresh interpreters (see ``setup_probe.py``).  Input
    generation happens outside it, in ``__init__`` when set-up needs the
    inputs and in ``before_loop`` otherwise.  ``prepare(i)`` builds the i-th
    operation's input outside the timed region; ``run`` is the operation,
    ``traced`` the same work with spans, and ``check`` judges a result outside
    the timed region.  ``in_process`` says whether an operation runs in this
    process, which picks the reference work its times are scaled by (see
    ``speed.py``).
    """

    setup_probes = 15
    setup_cli = False
    in_process = True
    setup_files: tuple[Path, ...] = ()
    cycle = 1  # the loop ends on a multiple of this many operations, so each run sees a whole input mix
    min_ops = 0  # enough samples that the tail percentile keeps ten above it on a slower machine

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.counts = Counts()

    def setup(self, engine) -> None:
        self.engine = engine
        self.tasks = setup_probe.set_up(self.setup_cli, self.setup_files)

    def before_loop(self) -> None:
        """Work between set-up and the loop that is not set-up: generated inputs, oracle answers."""

    def prepare(self, i: int, traced: bool):
        return i

    def run(self, item):
        raise NotImplementedError

    def traced(self, item, tracer: Tracer, root: int):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ScenarioStream(Workload):
    """Scenario text in, rendered verdict out; the dominance mode alternates."""

    settings: scenarios.Settings
    pool_size: int

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.expected: dict[tuple[int, str], str] = {}
        self.bases: dict[int, object] = {}

    def setup(self, engine) -> None:
        super().setup(engine)
        self.modes = (engine.DominanceMode.GLOBAL, engine.DominanceMode.UNDOMINATED)

    def before_loop(self) -> None:
        self.pool = scenarios.generate(self.seed, self.settings, self.pool_size)

    def prepare(self, i: int, traced: bool):
        index = i % len(self.pool)
        mode = self.modes[(i + i // len(self.pool)) % 2]
        base = self._base(index) if traced else None
        return index, mode, base

    def _parse(self, text: str):
        try:
            return self.engine.parse_scenario(text), None
        except self.engine.ScenarioError as exc:
            return None, exc.category

    @staticmethod
    def _decode(text: str) -> None:
        try:
            json.loads(text)
        except ValueError:
            pass

    def run(self, item):
        index, mode, _ = item
        task, rejected = self._parse(self.pool[index].text)
        if rejected is not None:
            return None, rejected
        _, outcome = self.engine.decide_task(task, mode)
        return task, self.engine.serialize_outcome(outcome)

    def traced(self, item, tracer: Tracer, root: int):
        index, mode, base = item
        text = self.pool[index].text
        parse, (task, rejected) = tracer.call("scenario.parse_scenario", root, self._parse, text)
        tracer.call("scenario.json_decode", parse, self._decode, text)
        if task is not None or base is not None:
            tracer.call("model.validate_task", parse, self.engine.validate_task, task or base)
        if rejected is not None:
            return None, rejected
        _, sifted = tracer.call("sift.psp", root, self.engine.psp, task)
        _, outcome = tracer.call(f"ladder.lsp.{mode.value}", root, self.engine.lsp, task, sifted.feasible, mode)
        _, rendered = tracer.call("scenario.render", root, self.engine.serialize_outcome, outcome)
        self.counts.add(len(task.alternatives), sifted, outcome, mode.value)
        return task, rendered

    def check(self, item, result) -> bool:
        index, mode, _ = item
        task, rendered = result  # a rejected scenario gives (None, its error category)
        scenario = self.pool[index]
        if scenario.expected is not None or task is None:
            return task is None and rendered == scenario.expected
        key = (index, mode.value)
        if key not in self.expected:
            verdict, chosen = self.engine.brute_force_lt(task, mode.value)
            self.expected[key] = f"{verdict} {chosen if chosen is not None else '-'}"
        return rendered.split("\n", 1)[0] == self.expected[key]  # the verdict line of serialize_outcome

    def _base(self, index: int):
        """For a scenario that validate_task rejects, the valid task it was mutated from.

        validate_task runs every check without stopping at the first failure,
        so timing it on this task, which has the same size give or take one
        alternative, stands in for the rejected task parse_scenario built.
        """
        scenario = self.pool[index]
        if scenario.base is None:
            return None
        if index not in self.bases:
            self.bases[index] = self.engine.parse_scenario(scenario.base)
        return self.bases[index]


class SmallStream(ScenarioStream):
    settings = scenarios.Settings(sizes=range(2, 13), n_attributes=(2, 6), invalid_share=0.1)
    pool_size = 2000


class LargeScenarios(ScenarioStream):
    # Totally ordered, with at least two levels and no categorical attribute:
    # otherwise a top level on which nothing dominates keeps every alternative,
    # the undominated rung costs n^2 comparisons, and a few such scenarios
    # decide how many operations fit in a run.
    settings = scenarios.Settings(
        sizes=(250, 500, 1000),
        cycle_sizes=True,
        n_attributes=(4, 6),
        n_levels=(2, 3),
        kind_mix=(("numeric", 0.6), ("ordinal", 0.4)),
        partial_order=False,
        loose=True,
        invalid_share=1 / 6,
        invalid_kinds=("duplicate-alternative",),
    )
    pool_size = 48
    cycle = 6
    min_ops = 48


class Regroup(Workload):
    """Decide a parsed n = 1000 task again under a new grouping, in both modes.

    Operations walk every grouping of the four attributes into at most two
    levels, one task at a time, in seeded order, so each run sees the same
    mix of groupings: a lone ordinal attribute on the top level costs about
    twenty times more than a lone numeric one, and random groupings made the
    latencies swing from run to run.  For the same reason the two tasks are
    the same in every run, generated from ``TASK_SEED``; ``--seed`` sets the
    order of the groupings.  With tasks drawn per seed, the p75 tail moved by
    up to a third between sets of seeds, because each draw puts a different
    grouping at the edge between cheap and dear ones.  The tasks are totally
    ordered and have no categorical attribute for the reason given at
    ``LargeScenarios``.
    """

    TASK_SEED = 0

    settings = scenarios.Settings(
        sizes=(1000,),
        n_attributes=(4, 4),
        kind_mix=(("numeric", 0.5), ("ordinal", 0.5)),
        partial_order=False,
        loose=True,
    )
    setup_probes = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # two tasks, not more: each costs about a second of set-up and 15 oracle checks a run
        OUT.mkdir(exist_ok=True)
        self.setup_files = tuple(OUT / f"regroup-task{k}.json" for k in range(2))
        for path, scenario in zip(self.setup_files, scenarios.generate(self.TASK_SEED, self.settings, 2)):
            path.write_text(scenario.text, encoding="utf-8")
        self.groupings = scenarios.groupings(range(1, 5), 2)
        self.cycle = len(self.groupings) * len(self.setup_files)  # every task under every grouping
        self.rng = random.Random(seed)
        self.order: list[int] = []
        self.expected: dict[tuple, tuple] = {}

    def prepare(self, i: int, traced: bool):
        block, slot = divmod(i, len(self.groupings))
        if slot == 0:
            self.order = list(range(len(self.groupings)))
            self.rng.shuffle(self.order)
        key = (block % len(self.tasks), self.order[slot])
        levels = self.groupings[key[1]]
        return key, replace(self.tasks[key[0]], partition=self.engine.DominancePartition(levels))

    def run(self, item):
        _, task = item
        modes = self.engine.DominanceMode
        return self.engine.decide_task(task, modes.GLOBAL)[1], self.engine.decide_task(task, modes.UNDOMINATED)[1]

    def traced(self, item, tracer: Tracer, root: int):
        _, task = item
        outcomes = []
        for mode in (self.engine.DominanceMode.GLOBAL, self.engine.DominanceMode.UNDOMINATED):
            _, sifted = tracer.call("sift.psp", root, self.engine.psp, task)
            _, outcome = tracer.call(f"ladder.lsp.{mode.value}", root, self.engine.lsp, task, sifted.feasible, mode)
            self.counts.add(len(task.alternatives), sifted, outcome, mode.value)
            outcomes.append(outcome)
        return tuple(outcomes)

    def check(self, item, result) -> bool:
        key, task = item
        if key not in self.expected:
            self.expected[key] = tuple(self.engine.brute_force_lt(task, mode) for mode in ("global", "undominated"))
        return tuple((outcome.verdict.value, outcome.chosen) for outcome in result) == self.expected[key]


_EXIT = {"Chosen": 0, "Abstain": 2, "Repartition": 3, "NoUniqueChoice": 3}
_COMPARE_STATUS = {"Abstain": "abstain", "Repartition": "repartition", "NoUniqueChoice": "no-unique-choice"}


def fixture_path(case: str) -> Path:
    return ROOT / "fixtures" / f"{case}.json"


class CliFixtures(Workload):
    """``python -m ladderchoice.cli`` on the shipped fixtures, one process at a time."""

    setup_cli = True
    setup_files = tuple(fixture_path(case) for case in FIXTURES)
    in_process = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.commands = [
            ("decide", case, mode, as_json)
            for case in FIXTURES
            for mode in ("global", "undominated")
            for as_json in (False, True)
        ]
        self.commands += [("compare", "case2", "global", False), ("validate", None, None, False)]
        self.cycle = len(self.commands)
        self.rng = random.Random(seed)
        self.order: list[int] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self, engine) -> None:
        super().setup(engine)
        self.tasks = dict(zip(FIXTURES, self.tasks))

    def before_loop(self) -> None:
        self.expected = {
            (case, mode): self.engine.brute_force_lt(task, mode)
            for case, task in self.tasks.items()
            for mode in ("global", "undominated")
        }

    def prepare(self, i: int, traced: bool):
        slot = i % len(self.commands)
        if slot == 0:
            self.order = list(range(len(self.commands)))
            self.rng.shuffle(self.order)
        return self.commands[self.order[slot]]

    def _argv(self, item) -> list[str]:
        command, case, mode, as_json = item
        if command == "validate":
            return ["validate"] + [f"fixtures/{c}.json" for c in FIXTURES]
        argv = [command, f"fixtures/{case}.json", "--mode", mode]
        if command == "compare":
            argv += ["--pt-risk-attr", "5"]
        return argv + (["--json"] if as_json else [])

    def _spawn(self, args: list[str]):
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        return done.returncode, done.stdout

    def run(self, item):
        return self._spawn(["-m", "ladderchoice.cli", *self._argv(item)])

    def traced(self, item, tracer: Tracer, root: int):
        main, result = tracer.call("cli.main", root, self.run, item)
        start, _ = tracer.call("cli.import", main, self._spawn, ["-c", "import ladderchoice.cli"])
        tracer.call("cli.interpreter", start, self._spawn, ["-c", "pass"])
        if item[0] == "compare":
            tracer.call("baselines.compare_theories", main, self._compare)
        return result

    def _compare(self):
        return self.engine.compare_theories(self.tasks["case2"], pt_risk_attr=5)

    def check(self, item, result) -> bool:
        code, stdout = result
        command, case, mode, as_json = item
        if command == "validate":
            return code == 0 and stdout.splitlines() == [f"fixtures/{c}.json: ok" for c in FIXTURES]
        verdict, chosen = self.expected[(case, mode)]
        if command == "compare":
            return code == 0 and f"lt: {chosen or _COMPARE_STATUS[verdict]}" in stdout.splitlines()
        if code != _EXIT[verdict]:
            return False
        if as_json:
            try:
                doc = json.loads(stdout)
            except ValueError:
                return False
            return (doc.get("verdict"), doc.get("chosen")) == (verdict, chosen)
        lines = stdout.splitlines()
        return bool(lines) and lines[-1] == (f"Chosen: {chosen}" if verdict == "Chosen" else verdict)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {
    "small-stream": SmallStream,
    "large-scenarios": LargeScenarios,
    "regroup": Regroup,
    "cli-fixtures": CliFixtures,
}


def setup_times(workload: Workload) -> tuple[list[float], Gauge]:
    """Set-up times of fresh interpreters, each importing the engine and setting up once.

    A bare interpreter start is read before each probe and after the last;
    the times come back unscaled, with that gauge.
    """
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    argv += ["--cli"] * workload.setup_cli + [str(path) for path in workload.setup_files]
    gauge = Gauge.start()
    times = []
    for _ in range(workload.setup_probes):
        gauge.read()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.splitlines()[-1]))
    gauge.read()
    return times, gauge


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def measure(workload: Workload, seconds: float, tracer: Optional[Tracer] = None, gauge: Optional[Gauge] = None):
    """Closed loop until the plain operations add up to ``seconds``, ending on a whole cycle.

    Untraced, the loop also runs on until it has the workload's ``min_ops``
    operations.  It stops early only if the wall clock passes three times
    ``seconds`` plus 30 s.  With a gauge, the reference work is read after
    every ``EVERY_S`` of timed work and after the last operation, each
    reading weighted by the timed work since the one before.

    With a tracer, each operation also runs with spans, alternating which
    variant goes first.  Returns the plain latencies, the traced total, and
    the attempted and failed counts over both variants.
    """
    latencies: list[float] = []
    timed = traced_total = 0.0
    attempted = failed = 0
    budget_end = perf_counter() + 3 * seconds + 30
    i = 0
    min_ops = workload.min_ops if tracer is None else 0
    read_at = 0.0
    while (timed < seconds or i < min_ops or i % workload.cycle) and perf_counter() < budget_end:
        item = workload.prepare(i, tracer is not None)
        variants = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for with_spans in variants:
            start = perf_counter()
            root = tracer.open("op") if with_spans else -1
            try:
                result = workload.traced(item, tracer, root) if with_spans else workload.run(item)
            except Exception as exc:  # an unexpected error is a failed operation, not a crashed run
                result = exc
            finally:
                if with_spans:
                    tracer.close(root)
            elapsed = perf_counter() - start
            if with_spans:
                traced_total += elapsed
            else:
                latencies.append(elapsed)
                timed += elapsed
            attempted += 1
            if isinstance(result, Exception) or not workload.check(item, result):
                failed += 1
        i += 1
        if gauge and timed - read_at >= EVERY_S:
            gauge.read(timed - read_at)
            read_at = timed
    if gauge and read_at < timed:
        gauge.read(timed - read_at)
    return latencies, traced_total, attempted, failed


def fixture_rows(engine) -> dict[str, tuple[float, str]]:
    """Median parse_scenario and decide_task times for each shipped fixture."""
    rows = {}
    for case in FIXTURES:
        text = fixture_path(case).read_text(encoding="utf-8")
        task = engine.parse_scenario(text)
        for name, fn, arg in (
            ("parse_scenario", engine.parse_scenario, text),
            ("decide_task", engine.decide_task, task),
        ):
            samples = []
            for _ in range(200):
                start = perf_counter()
                fn(arg)
                samples.append(perf_counter() - start)
            rows[f"fixtures.{case}.{name}.p50_us"] = (statistics.median(samples) * 1e6, "us")
    return rows


def provenance(name: str, seed: int, trace: bool, samples: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # stays so in a checkout without .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "samples": samples,
        "tail_percentile": TAIL_PERCENTILE[name],
    }


def emit(metrics: dict[str, tuple[float, str]], meta: dict, attempted: int, failed: int) -> None:
    """Print a readable summary, which always includes ``error_rate``, then the result line."""
    print("# " + json.dumps(meta))
    summary = {**metrics, "error_rate": (ratio(failed, attempted), "ratio")}
    for key, (value, unit) in summary.items():
        print(f"# {meta['workload']:<16} {key:<40} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(import_engine())
    workload.before_loop()

    if args.trace:
        tracer = Tracer()
        latencies, traced, attempted, failed = measure(workload, args.seconds / 2, tracer)
        plain = sum(latencies)
        self_times = tracer.self_times()
        metrics = layer_metrics(self_times, LAYERS)
        metrics.update(workload.counts.metrics())
        busy = sum(sum(self_times.get(layer, [])) for layer in LAYERS)
        metrics["trace.overhead_ratio"] = (ratio(traced, plain) - 1, "ratio")
        metrics["trace.self_sum_ratio"] = (ratio(busy, plain), "ratio")
        metrics["error_rate"] = (ratio(failed, attempted), "ratio")
        metrics.update(fixture_rows(workload.engine))
        meta = provenance(args.workload, args.seed, True, attempted)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", meta)
    else:
        gauge = Gauge.loop() if workload.in_process else Gauge.start()
        raw, _, attempted, failed = measure(workload, args.seconds, gauge=gauge)
        scale = gauge.scale()
        latencies = sorted(t * scale for t in raw)
        peak_rss_mb = workload.peak_rss_mb()
        setups, setup_gauge = setup_times(workload)
        tail = TAIL_PERCENTILE[args.workload]
        metrics = {
            "setup_s": (statistics.median(setups) * setup_gauge.scale(), "s"),
            "ops_per_s": (attempted / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        meta = provenance(args.workload, args.seed, False, attempted)
        meta["samples_above_tail"] = sum(1 for x in latencies if x > metrics["latency_tail_ms"][0] / 1e3)
        meta["percentiles_ms"] = {f"p{p:g}": percentile(latencies, p) * 1e3 for p in (75, 90, 99, 99.9)}
        raw.sort()
        meta["unscaled"] = {
            "reference_ms": gauge.typical_s() * 1e3,
            "readings": len(gauge.readings),
            "setup_reference_ms": setup_gauge.typical_s() * 1e3,
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, tail) * 1e3,
        }
    emit(metrics, meta, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
