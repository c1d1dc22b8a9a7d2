"""Repeat mode: run each workload many times and judge every metric's spread.

    python3 bench/repeat.py --runs 10 --first-seed 1
    python3 bench/repeat.py --runs 10 --first-seed 101 --against bench/out/repeat-1-10.json

Runs are interleaved (seed 1 of every workload, then seed 2, ...), so a slow
spell on the machine spreads over all workloads instead of sinking one.  For
each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is "steady", under
the bound "wide", else "over".  The raw results go to
``bench/out/repeat-<first seed>-<runs>.json``.  With ``--against`` an earlier
such file, each median is also compared with the earlier median, and
"regressed" marks a metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(config: dict, workload: str, seed: int) -> tuple[dict, float]:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(config["run_seconds"]), "--trace", "0"]
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0][2:])
    return result, wall


def spread_of(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def judge(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "wide" if spread < bound else "over"


def report(config: dict, results: dict[str, list[dict]], earlier: dict[str, list[dict]]) -> None:
    """Print median, quartiles and spread of every metric; with an earlier set, the change of the median."""
    metrics = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    print(f"{'workload':<16} {'metric':<40} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'raw':>7} {'bound':>5}  verdict")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = spread_of(values)
            bound = metrics[name].get("bound")
            line = f"{workload:<16} {name:<40} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f}"
            unscaled = [r["provenance"].get("unscaled", {}).get(name) for r in runs]
            line += f" {spread_of(unscaled):>7.3f}" if None not in unscaled else f" {'-':>7}"
            if bound is not None:
                line += f" {bound:>5.2f}  {judge(spread, bound)}"
                if workload in earlier:
                    before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                    worse = (median - before if metrics[name]["better"] == "lower" else before - median) / before
                    line += f"; vs earlier {before:.5g}: {worse:+.3f} worse, {'regressed' if worse > bound else 'ok'}"
            print(line)
        walls = [r["wall_s"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        label = "(wall s per run: median, max)"
        print(f"{workload:<16} {label:<40} {statistics.median(walls):>11.1f} {max(walls):>11.1f}")
        print(f"{workload:<16} {'(failed operations over all runs)':<40} {failed:>11}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", help="an earlier repeat result file whose medians this set must not be worse than")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in config["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.runs):
        for workload in workloads:
            seed = args.first_seed + k
            result, wall = run_once(config, workload, seed)
            result["seed"], result["wall_s"] = seed, wall
            results[workload].append(result)
            failed = f"failed {result['failed']}/{result['attempted']}"
            print(f"{workload} seed {seed}: {wall:.1f} s, {failed}", file=sys.stderr)

    out = BENCH / "out" / f"repeat-{args.first_seed}-{args.runs}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else {}
    report(config, results, earlier)
    return 0


if __name__ == "__main__":
    sys.exit(main())
