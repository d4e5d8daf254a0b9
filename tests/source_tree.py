"""gramcalc's own source as syntax trees, for the tests that keep one path to each job.

Those tests read source only through this module: ``tree`` parses a
module or file, ``name`` reads the name a node refers to, and ``walk``
visits every node with its parent and scope.  A guard takes the part of
the scope it needs: the whole dotted path, its first part (the top-level
class or function) or its last part (the innermost one).
"""

from __future__ import annotations

import ast
import pathlib
from types import ModuleType
from typing import Iterator


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
