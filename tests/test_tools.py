"""The line-count tool, tools/src_lines.py, on a module with known counts, and
the CLI wall-time tool, tools/cli_wall.py, on one pair of runs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"
CLI_WALL = ROOT / "tools" / "cli_wall.py"

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


def test_src_lines_against_a_revision(tmp_path):
    # a throwaway repository: a.py committed, then edited, and b.py added
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "top.py").write_text("y = 2\n")  # outside the counted directory

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "first")
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text(MODULE)
    out = subprocess.run([sys.executable, str(TOOL), str(pkg), "--against", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    titles = [i for i, line in enumerate(out) if line in ("at HEAD", "working tree", "difference")]
    assert [out[i] for i in titles] == ["at HEAD", "working tree", "difference"] and titles[0] == 0
    tables = [{line.split()[0]: [int(n) for n in line.split()[1:]] for line in out[i + 2:j]}
              for i, j in zip(titles, titles[1:] + [len(out)])]
    assert tables[0] == {"a.py": [1, 0, 1, 1, 3], "total": [1, 0, 1, 1, 3]}
    assert tables[1] == {"a.py": [2, 0, 0, 0, 2], "b.py": [6, 6, 2, 8, 22],
                         "total": [8, 6, 2, 8, 24]}
    assert tables[2] == {"a.py": [1, 0, -1, -1, -1], "b.py": [6, 6, 2, 8, 22],
                         "total": [7, 6, 1, 7, 21]}
    assert "+6" in out[-2]  # differences carry their sign


@pytest.mark.skipif(subprocess.run(["git", "rev-parse", "--verify", "-q", "HEAD"], cwd=ROOT,
                                   capture_output=True).returncode != 0,
                    reason="not a git checkout with a commit")
def test_cli_wall_against_head():
    out = subprocess.run([sys.executable, str(CLI_WALL), "--against", "HEAD", "--pairs", "1",
                          "--", "kernel"], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0].split() == ["side", "median", "q1", "q3", "wins"]
    rows = {line[:16].strip(): [float(n) for n in line[16:].split()] for line in out[1:3]}
    assert list(rows) == ["HEAD", "working tree"]
    for median, q1, q3, _ in rows.values():
        assert 0.0 < q1 == median == q3  # one run a side
    assert rows["HEAD"][3] + rows["working tree"][3] == 1.0
    digests = [line.split()[-1] for line in out if line.startswith("sha256 kernel.json ")]
    assert len(digests) == 3 and digests[0] == digests[1] and len(digests[0]) == 64
    assert digests[2] == "equal"
