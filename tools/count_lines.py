"""Count the lines of Python modules, split into code, docstring, comment
and blank lines.

A line is a docstring line when it lies within the first-statement string
literal of a module, class or function (found with `ast`); otherwise a
comment line when it starts with `#` after indentation, a blank line when
it holds only whitespace, and a code line else.  The four parts add up to
the file's line count.

Usage: python3 tools/count_lines.py [path ...]   (default: src/tki)
"""

from __future__ import annotations

import ast
import pathlib
import sys

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """Lines of one module's source by kind (keys `KINDS`)."""
    doc = _docstring_lines(ast.parse(text))
    out = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if i in doc:
            out["docstring"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        elif not stripped:
            out["blank"] += 1
        else:
            out["code"] += 1
    return out


def _modules(paths):
    for p in map(pathlib.Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/tki"]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in _modules(paths):
        parts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += parts[k]
        print(f"{str(path):<32}{sum(parts.values()):>7}"
              + "".join(f"{parts[k]:>11}" for k in KINDS))
    print(f"{'total':<32}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
