"""Count code, docstring, comment and blank lines in each file of a package.

Usage: python tools/src_lines.py [DIRECTORY] [--against REV]
       (default DIRECTORY: src/polaronlab)

Each line of a .py file falls in exactly one class, tried in this order:
- blank: whitespace only, also inside a docstring;
- docstring: a line of the first string statement of a module, class or
  function;
- comment: the first non-space character is '#';
- code: every other line.
One row per file, then the total.  With --against REV, three such tables:
the files of DIRECTORY at git revision REV (read with git show), in the
working tree, and the difference, a file missing on one side counting zero.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count_lines(source: str) -> dict:
    """{kind: number of lines} of one module's source, by the rule above."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            kind = "blank"
        elif number in docstring:
            kind = "docstring"
        elif line.lstrip().startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def _row(name: str, counts: dict, sign: str = "") -> str:
    return (f"{name:<16}{counts['code']:>{sign}7}{counts['docstring']:>{sign}7}"
            f"{counts['comment']:>{sign}9}{counts['blank']:>{sign}7}"
            f"{sum(counts.values()):>{sign}7}")


def _table(tables: dict, sign: str = "") -> None:
    """Print {file name: counts} sorted by name, then the total."""
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}{'code':>7}{'doc':>7}{'comment':>9}{'blank':>7}{'lines':>7}")
    for name in sorted(tables):
        for kind in KINDS:
            total[kind] += tables[name][kind]
        print(_row(name, tables[name], sign))
    print(_row("total", total, sign))


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout


def _at_revision(root: Path, rev: str) -> dict:
    """{file name: counts} of the .py files directly in root at git revision rev."""
    prefix = _git(root, "rev-parse", "--show-prefix").strip()
    names = _git(root, "ls-tree", "--name-only", rev, "--", ".").split()
    return {Path(name).name: count_lines(_git(root, "show", f"{rev}:{prefix}{Path(name).name}"))
            for name in names if name.endswith(".py")}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of each kind per file.")
    parser.add_argument("directory", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "polaronlab")
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv[1:])
    tree = {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in args.directory.glob("*.py")}
    if args.against is None:
        _table(tree)
        return 0
    before = _at_revision(args.directory, args.against)
    zero = dict.fromkeys(KINDS, 0)
    for title, tables, sign in (
            (f"at {args.against}", before, ""), ("working tree", tree, ""),
            ("difference", {name: {kind: tree.get(name, zero)[kind] - before.get(name, zero)[kind]
                                   for kind in KINDS} for name in before.keys() | tree.keys()},
             "+")):
        print(title)
        _table(tables, sign)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
