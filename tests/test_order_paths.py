"""Print order and the derive letter check each live in one place, read off the source.

Every polynomial lists its terms in print order, and ``poly._Packing.unpack``
is the one code that sorts terms, by packed key.  A second sort, such as a
key function over exponent vectors, would be a second definition of the
order that agrees with the slot layout on every output test until one of
them changes.  Likewise ``grammar._Packing`` refuses an unknown letter at
every depth, so the CLI keeps no copy of that check to drift from it.
"""

import ast
import pathlib

from gramcalc import cli, poly

# Where poly.py sorts, and what: letter pairs of one monomial, letter
# names, and in unpack the packed keys of the terms.
POLY_SORTS = {"mono_from_exps", "Polynomial.letters", "_Packing.__init__", "_Packing.unpack"}


def _tree(module) -> ast.Module:
    return ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))


def _sort_calls() -> list[tuple[str | None, ast.Call]]:
    """(enclosing Class.function, call) of each sorted(...) or .sort(...) in poly.py."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, child.name if scope is None else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Name) and child.func.id == "sorted")
                or (isinstance(child.func, ast.Attribute) and child.func.attr == "sort")
            ):
                found.append((scope, child))
            visit(child, scope)

    visit(_tree(poly), None)
    return found


def test_only_unpack_sorts_terms():
    calls = _sort_calls()
    assert {scope for scope, _ in calls} == POLY_SORTS
    assert [scope for scope, call in calls if call.keywords] == []


def test_cli_keeps_no_letter_check():
    names = set()
    for node in ast.walk(_tree(cli)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "UnknownLetter" not in names
