"""What importing the package does: the records carry no generated code, and no module loads that is not needed.

Every ``ladderchoice`` command starts a fresh interpreter, so the import is
paid on each call.  The record classes are dataclasses whose methods are
written in ``model.py``; a method that ``dataclasses`` writes and compiles
at import has ``"<string>"`` as its file name.
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


def test_importing_the_package_leaves_the_optional_modules_unloaded():
    optional = ["argparse", "ladderchoice.baselines", "ladderchoice.cli", "ladderchoice.oracle"]
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import ladderchoice; "
        f"print(json.dumps([name for name in {optional!r} if name in sys.modules]))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []
