"""Time one engine function on one workload's seeded inputs, in two checkouts, in alternating fresh processes.

    python tools/ab.py PARENT CHANGE --workload regroup --function ladder._front

Each checkout is the root of a source tree.  A round starts one fresh
interpreter per checkout, in alternating order (the parent first in odd
rounds, the change first in even ones).  The interpreter imports that
checkout's engine through its own ``bench/run.py``, sets up the workload for
``--seed``, and runs one cycle of its operations while it records the
arguments of every call to ``--function`` (``module.name`` in the
``ladderchoice`` package).  It then replays those calls five times, after
one pass that warms the caches, and reports its fastest pass.  A list
argument is copied before each call, since a callee may sort it in place,
and the copies are timed too.  The tool prints each round's pair, then the
minimum and median per call of each side, and how many rounds the change won.

Use it where a whole benchmark run is too coarse to show one function, and
where in-process timings swing between back-to-back runs: only rounds that
alternate in fresh processes compare like with like.  Both checkouts should
hold the same ``bench/``, so that both record the same inputs.  The
``cli-fixtures`` workload runs its operations in child processes and has no
calls to record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PASSES = 5


def record(workload, module, name: str) -> list[tuple]:
    """Each call to ``module.name`` over one cycle of the workload's operations: its arguments, and what it raised.

    Every ``ladderchoice`` module that holds the function, and the
    benchmark's engine namespace, get the recorder in its place, so calls
    from within the package are seen too.  A call that raises (a parser
    refusing a scenario) is recorded with the exception's type, else None.
    """
    function = getattr(module, name)
    calls = []

    def recorder(*args):
        copied = tuple(list(a) if isinstance(a, list) else a for a in args)
        try:
            result = function(*args)
        except Exception as exc:
            calls.append((copied, type(exc)))
            raise
        calls.append((copied, None))
        return result

    owners = [m for key, m in sys.modules.items() if key.startswith("ladderchoice")] + [workload.engine]
    holders = [(owner, key) for owner in owners for key, value in vars(owner).items() if value is function]
    for owner, key in holders:
        setattr(owner, key, recorder)
    try:
        ops = max(workload.cycle, 2 * len(getattr(workload, "pool", ())))  # a stream's pool, in both modes
        for i in range(ops):
            workload.run(workload.prepare(i, False))
    finally:
        for owner, key in holders:
            setattr(owner, key, function)
    return calls


def replay(function, calls: list[tuple]) -> float:
    """Seconds to make every recorded call once, copying each list argument first."""
    start = perf_counter()
    for args, raised in calls:
        args = [list(a) if isinstance(a, list) else a for a in args]
        if raised is None:
            function(*args)
        else:
            try:
                function(*args)
            except raised:
                pass
    return perf_counter() - start


def worker(checkout: Path, workload_name: str, target: str, seed: int) -> None:
    """Run in a fresh interpreter: record, replay, and print one JSON line."""
    sys.path.insert(0, str(checkout / "bench"))
    run = importlib.import_module("run")
    if workload_name not in run.WORKLOADS or not run.WORKLOADS[workload_name].in_process:
        raise SystemExit(f"error: {workload_name!r} is not a workload that runs in this process")
    workload = run.WORKLOADS[workload_name](seed)
    workload.setup(run.import_engine())
    workload.before_loop()
    module_name, _, name = target.rpartition(".")
    module = importlib.import_module(f"ladderchoice.{module_name}")
    if not callable(getattr(module, name, None)):
        raise SystemExit(f"error: {checkout} has no function ladderchoice.{target}")
    calls = record(workload, module, name)
    if not calls:
        raise SystemExit(f"error: one cycle of {workload_name} makes no call to {target}")
    function = getattr(module, name)
    replay(function, calls)
    best = min(replay(function, calls) for _ in range(PASSES))
    print(json.dumps({"calls": len(calls), "us_per_call": best / len(calls) * 1e6}))


def spawn(checkout: Path, args: argparse.Namespace) -> dict:
    argv = [sys.executable, __file__, "--worker", str(checkout), "--workload", args.workload]
    argv += ["--function", args.function, "--seed", str(args.seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: the worker for {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="the parent's checkout, then the change's")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--function", required=True, help="module.name in ladderchoice, e.g. ladder.lsp")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker.resolve(), args.workload, args.function, args.seed)
        return 0
    if len(args.checkouts) != 2 or args.rounds < 1:
        parser.error("give two checkouts and at least one round")
    sides = [path.resolve() for path in args.checkouts]
    times: list[list[float]] = [[], []]
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        got = {side: spawn(sides[side], args) for side in order}
        if got[0]["calls"] != got[1]["calls"]:
            raise SystemExit(f"error: the two sides recorded {got[0]['calls']} and {got[1]['calls']} calls")
        for side in (0, 1):
            times[side].append(got[side]["us_per_call"])
        print(f"round {r + 1} ({'parent' if order[0] == 0 else 'change'} first): "
              f"{times[0][-1]:.1f} -> {times[1][-1]:.1f} us per call over {got[0]['calls']} calls", flush=True)
    for label, side in (("parent", 0), ("change", 1)):
        print(f"{label}: min {min(times[side]):.1f} us, median {statistics.median(times[side]):.1f} us  ({sides[side]})")
    wins = sum(b < a for a, b in zip(*times))
    change = statistics.median(times[1]) / statistics.median(times[0]) - 1
    print(f"change faster in {wins} of {args.rounds} rounds; median {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
