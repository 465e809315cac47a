"""``tools/src_lines.py``: the two line counts of a source tree."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts as code


def f(x):
    """One-line docstring."""
    # a comment line
    text = """a string that is
    not a docstring"""
    return (x,
            text)
'''


def test_counts_every_line_and_the_code_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # code: the import, the def, the string's two lines, the return's two
    assert proc.stdout == ("src lines: 13 total, 6 without docstrings, "
                           "comments and blank lines\n")
