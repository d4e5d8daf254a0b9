"""gramcalc's own source as syntax trees, for the tests that keep one path to each job.

Those tests read source only through this module: ``tree`` parses a
module or file, ``name`` reads the name a node refers to, and ``walk``
visits every node with its parent and scope.  A guard takes the part of
the scope it needs: the whole dotted path, its first part (the top-level
class or function) or its last part (the innermost one).

``code_lines`` counts a file's code lines, the size that the project's
notes quote.  Run as a script, ``python3 tests/source_tree.py`` prints
them for each module of ``src/gramcalc`` and ``tests/``, with totals.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize
from types import ModuleType
from typing import Iterator

# Tokens that hold no code of their own.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def tree(source: ModuleType | pathlib.Path) -> ast.Module:
    """The syntax tree of a module's source file, or of the file at a path."""
    path = pathlib.Path(getattr(source, "__file__", source))
    return ast.parse(path.read_text(encoding="utf-8"))


def name(node: ast.AST) -> str | None:
    """The name a Name node reads or an Attribute node looks up, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def walk(root: ast.AST, scope: str = "") -> Iterator[tuple[ast.AST, ast.AST, str]]:
    """(node, parent, scope) of each node below root, in source order.

    scope is the dotted path of the classes and functions that enclose the
    node, such as ``"_Suite.cop_tables"``; it is ``""`` at module level.  A
    class or function definition is itself in the enclosing scope, and
    everything in it is in its own.
    """
    for child in ast.iter_child_nodes(root):
        yield child, root, scope
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from walk(child, inner)


def code_lines(path: pathlib.Path) -> int:
    """Lines of the file at path that are not blank, comment or docstring lines.

    A docstring is the string that opens a module, class or function; a
    line counts when some token other than a comment starts or runs on it.
    """
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent
    for folder in (root / "src" / "gramcalc", root / "tests"):
        total = 0
        for path in sorted(folder.glob("*.py")):
            lines = code_lines(path)
            total += lines
            print(f"{lines:6,}  {path.relative_to(root)}")
        print(f"{total:6,}  {folder.relative_to(root)}/ in all")
