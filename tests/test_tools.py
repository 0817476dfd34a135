"""The scripts under tools/, run on small inputs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves a code line


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            len(s))


class C:
    """Class
    docstring."""

    y = os.sep
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, def, the two lines of s, the two of return, class, y
    assert code_lines.code_lines(SAMPLE) == 8


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 b.py", "     8 pkg/a.py", "     9 total"]
