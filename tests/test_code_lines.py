"""The code-line counter of ``tools/code_lines.py`` on a module of known shape."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment alone
import math  # a comment after code


class Shape:
    """Class docstring."""

    sides = 4

    def area(self):
        """Method docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        return (math.pi
                * 2)
'''


def test_only_lines_that_hold_code_count(tmp_path):
    path = tmp_path / "shape.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import, class, sides, def, the two lines of text, the two lines of return
    assert code_lines.code_lines(path) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("# nothing\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     2  a.py", "     0  b.py", "     2  total"]
