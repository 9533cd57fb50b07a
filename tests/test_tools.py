"""The line-count tool, tools/src_lines.py, on a module with known counts."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# code 6, docstring 6, comment 2, blank 8 (the blank docstring lines included)
MODULE = '''"""Module docstring,

on three lines."""
# a comment

import math


class Box:
    """One line."""

    # an indented comment
    size = 2


def area(r):
    """A docstring with a blank line

    # and a hash line that is still docstring.
    """
    note = """not a docstring"""
    return math.pi * r * r
'''


def test_src_lines_counts_each_kind(tmp_path):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    rows = {line.split()[0]: [int(n) for n in line.split()[1:]] for line in out[1:]}
    assert list(rows) == ["a.py", "b.py", "total"]
    assert rows["a.py"] == [1, 0, 1, 1, 3]
    assert rows["b.py"] == [6, 6, 2, 8, 22]
    assert rows["total"] == [7, 6, 3, 9, 25]
