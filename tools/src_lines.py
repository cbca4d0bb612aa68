"""Split the lines of each ``src/qmimo`` module into docstring, comment, blank and code.

Usage: ``python3 tools/src_lines.py [package_dir]`` (default: the
repository's ``src/qmimo``). Standard library only; it parses the sources
with ``ast`` and imports nothing from the package.

A line is *docstring* if it lies inside a module, class or function
docstring (blank lines inside one included), *comment* if it holds only a
``#`` comment, *blank* if empty, and *code* otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")


def split(source: str) -> dict[str, int]:
    """Line counts of one module's source, by kind."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in doc:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "qmimo"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = split(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
