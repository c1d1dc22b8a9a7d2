"""Command-line front end.

Commands: ``decide`` (sift + ladder search with a full trace), ``compare``
(run the ladder engine against the baseline choosers), ``validate`` (check
scenario files), ``batch`` (sweep generated tasks against the brute-force
reference).

Exit codes: 0 a plan was chosen / all files valid / sweep agreed;
1 usage, parse or validation error; 2 abstain; 3 repartition or no unique
choice; 4 engine/reference disagreement in ``batch``.

``compare`` and ``batch`` import what only they need (the baseline choosers,
the naive reference) when they run, so ``decide`` and ``validate`` start
without them.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .ladder import DominanceMode, decide_task
from .model import DecisionTask, Verdict
from .scenario import ScenarioError, decision_text, decision_to_json, parse_scenario, violation_category

TYPE_CHECKING = False  # read by name by type checkers; nothing at run time imports typing
if TYPE_CHECKING:
    from typing import NoReturn

_VERDICT_EXIT = {
    Verdict.CHOSEN: 0,
    Verdict.ABSTAIN: 2,
    Verdict.REPARTITION: 3,
    Verdict.NO_UNIQUE_CHOICE: 3,
}


def _load(path: str) -> DecisionTask:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError("syntax", f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_scenario(text)


def cmd_decide(path: str, mode: DominanceMode, as_json: bool) -> int:
    task = _load(path)
    sifted, outcome = decide_task(task, mode)
    if as_json:
        print(json.dumps(decision_to_json(task, sifted, outcome), indent=2, ensure_ascii=False))
    else:
        print(decision_text(sifted, outcome))
    return _VERDICT_EXIT[outcome.verdict]


def cmd_compare(
    path: str,
    theories: list[str] | None,
    pt_risk_attr: int | None,
    it_profit_attr: int | None,
    it_budget: int,
    mode: DominanceMode,
) -> int:
    """Print one row per theory; ``theories`` None runs every one of ``baselines.THEORIES``."""
    from .baselines import THEORIES, compare_theories

    if theories is None:
        theories = list(THEORIES)
    if "pt" in theories and pt_risk_attr is None:
        print("error: pt requested without --pt-risk-attr", file=sys.stderr)
        return 1
    task = _load(path)
    try:
        rows = compare_theories(
            task,
            theories=theories,
            pt_risk_attr=pt_risk_attr,
            it_profit_attr=it_profit_attr,
            it_budget=it_budget,
            mode=mode,
        )
    except ValueError as exc:  # a theory list or designation the task cannot serve
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        print(f"{row.theory}: {row.chosen if row.status == 'chosen' else row.status}")
    return 0


def cmd_validate(paths: list[str]) -> int:
    ok = True
    for path in paths:
        try:
            _load(path)
        except FileNotFoundError:
            print(f"{path}: error: file not found", file=sys.stderr)
            ok = False
        except OSError as exc:
            print(f"{path}: error: cannot read file: {exc.strerror}", file=sys.stderr)
            ok = False
        except ScenarioError as exc:
            ok = False
            if exc.violations:
                for violation in exc.violations:
                    print(f"{path}: {violation_category(violation)}: {violation}", file=sys.stderr)
            else:
                print(f"{path}: {exc}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 0 if ok else 1


def _engine_verdict(task: DecisionTask, mode: DominanceMode) -> tuple[str, str | None]:
    _, outcome = decide_task(task, mode)
    return (outcome.verdict.value, outcome.chosen)


def run_batch(
    seed: int,
    count: int,
    mode: DominanceMode = DominanceMode.GLOBAL,
    engine: Callable[[DecisionTask, DominanceMode], tuple[str, str | None]] = _engine_verdict,
) -> tuple[int, str]:
    """Sweep generated tasks through the engine and the naive reference.

    Returns (exit code, report).  ``mode`` may also be a mode's value.  The
    ``engine`` hook exists so the harness itself can be checked: swapping in
    a broken engine must be caught.
    """
    mode = DominanceMode(mode)
    import random

    from .oracle import brute_force_lt, random_task

    agreements = 0
    for index in range(count):
        task_seed = seed + index
        dims = random.Random(task_seed ^ 0x5EED)
        task = random_task(
            task_seed,
            n_alternatives=dims.randint(1, 6),
            n_attributes=dims.randint(1, 5),
            n_levels=dims.randint(1, 3),
        )
        got = engine(task, mode)
        expected = brute_force_lt(task, mode.value)
        if got != expected:
            return (4, f"disagreement at seed {task_seed}: engine={got} reference={expected}")
        agreements += 1
    return (0, f"{agreements}/{count} agree")


def cmd_batch(seed: int, count: int, mode: DominanceMode) -> int:
    code, report = run_batch(seed, count, mode)
    print(report)
    return code


class _UsageError(Exception):
    """A malformed command line, reported by :func:`main` with exit code 1 (argparse's 2 means abstain here)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _count(text: str) -> int:
    """A non-negative integer option value."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _path(text: str) -> str:
    """A non-empty path argument."""
    if text:
        return text
    raise argparse.ArgumentTypeError("expected a file path, got ''")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ladderchoice", description="Threshold-sift and ladder-search decision engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="evaluate a scenario file and print the trace")
    decide.add_argument("path", type=_path)
    decide.add_argument("--mode", choices=[m.value for m in DominanceMode], default="global")
    decide.add_argument("--json", action="store_true", dest="as_json")

    compare = sub.add_parser("compare", help="run the engine and baseline choosers side by side")
    compare.add_argument("path", type=_path)
    compare.add_argument("--theories", default=None)  # None: every theory
    compare.add_argument("--pt-risk-attr", type=int, default=None)
    compare.add_argument("--it-profit-attr", type=int, default=None)
    compare.add_argument("--it-budget", type=_count, default=0)
    compare.add_argument("--mode", choices=[m.value for m in DominanceMode], default="global")

    validate = sub.add_parser("validate", help="parse and validate scenario files")
    validate.add_argument("paths", nargs="+", type=_path)

    batch = sub.add_parser("batch", help="sweep generated tasks against the naive reference")
    batch.add_argument("--seed", type=int, default=1)
    batch.add_argument("--count", type=_count, default=1000)
    batch.add_argument("--mode", choices=[m.value for m in DominanceMode], default="global")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        if args.command == "decide":
            return cmd_decide(args.path, DominanceMode(args.mode), args.as_json)
        if args.command == "compare":
            theories = None if args.theories is None else [t.strip() for t in args.theories.split(",") if t.strip()]
            return cmd_compare(
                args.path, theories, args.pt_risk_attr, args.it_profit_attr, args.it_budget, DominanceMode(args.mode)
            )
        if args.command == "validate":
            return cmd_validate(args.paths)
        return cmd_batch(args.seed, args.count, DominanceMode(args.mode))
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
