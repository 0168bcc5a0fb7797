"""`tools/src_lines.py` counts code lines outside docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

import pytest

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is no docstring
    counts on both lines"""

    def f(self):
        """Function docstring."""
        return math.pi


def g():
    "one-line docstring"
    s = "not a docstring"
    return s
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("_tools_src_lines", SRC_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_fixed_snippet(src_lines):
    # import, class, x (two lines), def f, return, def g, s =, return
    assert src_lines.code_lines(SNIPPET) == 9


def test_prints_each_module_and_the_total(src_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9 pkg/a.py", "     1 pkg/b.py", "    10 total", ""]
