"""Count the code lines of conlab's modules.

A code line is a line that holds a token other than a comment or a line
break, read with ``tokenize``; the lines of a docstring (the leading string
of a module, class or function) do not count, and a token that spans lines
counts each of them. For every module of a tree it prints that count and the
length of the module's ``__all__`` ("-" where there is none), then the
totals.

Usage::

    python3 tools/codelines.py               # src/conlab of this repository
    python3 tools/codelines.py path/to/tree  # the *.py files of another tree
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conlab"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def exported(source: str) -> int | None:
    """The length of the module's ``__all__`` list, or None without one."""
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return len(node.value.elts)
    return None


def report(tree: Path) -> str:
    rows = []
    for path in sorted(Path(tree).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, code_lines(source), exported(source)))
    width = max([len("total")] + [len(name) for name, _, _ in rows])
    lines = [f"{'module':<{width}}  {'code':>5}  {'__all__':>7}"]
    for name, code, names in rows:
        shown = "-" if names is None else names
        lines.append(f"{name:<{width}}  {code:>5}  {shown:>7}")
    total_names = sum(names or 0 for _, _, names in rows)
    lines.append(f"{'total':<{width}}  {sum(c for _, c, _ in rows):>5}  {total_names:>7}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=SRC, type=Path)
    args = parser.parse_args(argv)
    print(report(args.tree))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
