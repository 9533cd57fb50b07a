"""Count code, docstring, comment and blank lines in each file of a package.

Usage: python tools/src_lines.py [DIRECTORY]   (default: src/polaronlab)

Each line of a .py file falls in exactly one class, tried in this order:
- blank: whitespace only, also inside a docstring;
- docstring: a line of the first string statement of a module, class or
  function;
- comment: the first non-space character is '#';
- code: every other line.
One row per file, then the total.
"""

import ast
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


def _row(name: str, counts: dict) -> str:
    return (f"{name:<16}{counts['code']:>7}{counts['docstring']:>7}{counts['comment']:>9}"
            f"{counts['blank']:>7}{sum(counts.values()):>7}")


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "polaronlab"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}{'code':>7}{'doc':>7}{'comment':>9}{'blank':>7}{'lines':>7}")
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(_row(path.name, counts))
    print(_row("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
