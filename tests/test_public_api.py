"""The exported names and the README's Library section agree, its example runs, and the benchmark finds its names."""

from __future__ import annotations

import re
import subprocess
import sys

import ladderchoice

from conftest import REPO

README = (REPO / "README.md").read_text(encoding="utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_resolves():
    for name in ladderchoice.__all__:
        assert getattr(ladderchoice, name) is not None, name


def test_readme_lists_exactly_the_exported_names():
    bullets = [line for line in LIBRARY.splitlines() if line.startswith("- ")]
    listed = [name for line in bullets for name in re.findall(r"`(\w+)`", line)]
    assert sorted(listed) == sorted(ladderchoice.__all__)


def test_readme_example_prints_what_it_promises(monkeypatch, capsys):
    (snippet,) = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)
    promised = [line.split("# ", 1)[1] for line in snippet.splitlines() if line.startswith("print(")]
    monkeypatch.chdir(REPO)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == promised


def test_the_benchmark_finds_every_engine_name_it_reads():
    # bench/run.py reads the engine through import_engine(), in a fresh interpreter with
    # bench/ on its path; a deleted or renamed name would fail every benchmark run
    code = "import sys; sys.path.insert(0, 'bench'); import run; run.import_engine()"
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
