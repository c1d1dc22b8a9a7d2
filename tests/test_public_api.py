"""The exported names and the README's Library section agree, and its example runs."""

from __future__ import annotations

import re

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
