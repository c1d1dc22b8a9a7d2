"""What importing the package does: the records carry no generated code, and no module loads that is not needed.

Every ``ladderchoice`` command starts a fresh interpreter, so the import is
paid on each call.  The record classes' methods are written in ``model.py``;
a method that ``dataclasses`` writes and compiles has ``"<string>"`` as its
file name.  A record class becomes a dataclass only when its metadata is
first read, so neither the import nor any command loads ``dataclasses``, or
``inspect``, which ``dataclasses`` imports.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import ladderchoice
from ladderchoice import model

SRC = Path(ladderchoice.__file__).resolve().parents[1]
REPO = SRC.parent

RECORDS = [cls for cls in vars(model).values() if isinstance(cls, type) and dataclasses.is_dataclass(cls)]


def functions(cls: type):
    """Each function defined on ``cls`` or a base other than ``object``, unwrapped, under its qualified name."""
    for owner in cls.__mro__[:-1]:
        for name, member in vars(owner).items():
            for part in (member, *(getattr(member, attr, None) for attr in ("__func__", "fget", "fset", "fdel", "func"))):
                if inspect.isfunction(part):
                    yield f"{owner.__qualname__}.{name}", inspect.unwrap(part)


def test_no_record_method_is_generated_at_import():
    assert len(RECORDS) == 11, RECORDS
    generated = sorted(
        {name for cls in RECORDS for name, function in functions(cls) if function.__code__.co_filename == "<string>"}
    )
    assert generated == [], generated


def loaded(code: str, modules: list[str]) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``, which prints with ``report(step)``.

    Each ``report(step)`` prints ``[step, loaded]`` as one JSON line, and the list holds each line.
    """
    report = f"def report(step): print(json.dumps([step, [name for name in {modules!r} if name in sys.modules]]))\n"
    prelude = f"import json, sys; sys.path.insert(0, {str(SRC)!r})\n"
    run = subprocess.run([sys.executable, "-c", prelude + report + code], capture_output=True, text=True, cwd=REPO)
    assert run.returncode == 0, run.stderr
    return [json.loads(line) for line in run.stdout.splitlines()]


def test_importing_the_package_leaves_the_optional_modules_unloaded():
    optional = ["argparse", "ladderchoice.baselines", "ladderchoice.cli", "ladderchoice.oracle"]
    assert loaded("import ladderchoice; report('import')", optional) == [["import", []]]


def test_importing_the_package_or_the_cli_loads_neither_dataclasses_nor_inspect():
    for module in ("ladderchoice", "ladderchoice.cli"):
        assert loaded(f"import {module}; report({module!r})", ["dataclasses", "inspect"]) == [[module, []]]


def test_no_command_loads_dataclasses_or_inspect():
    commands = [
        ["decide", "fixtures/case1.json"],
        ["decide", "fixtures/case2.json", "--json"],
        ["validate", *sorted(str(path.relative_to(REPO)) for path in (REPO / "tests" / "data").glob("*.json"))],
        ["compare", "fixtures/case2.json", "--pt-risk-attr", "5", "--it-profit-attr", "1"],
        ["batch", "--count", "5"],
    ]
    # each command's output goes to a buffer, and its step is its name and exit code; every
    # interpreter loads io before it runs any code
    code = (
        "import io; from ladderchoice import cli\n"
        f"for command in {commands!r}:\n"
        "    sys.stdout = io.StringIO(); exit_code = cli.main(command); sys.stdout = sys.__stdout__\n"
        "    report(f'{command[0]} {exit_code}')\n"
    )
    steps = loaded(code, ["dataclasses", "inspect"])
    assert steps == [[step, []] for step in ["decide 0", "decide 0", "validate 1", "compare 0", "batch 0"]], steps
