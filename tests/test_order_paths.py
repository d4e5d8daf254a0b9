"""Print order and the derive letter check each live in one place, read off the source.

Every polynomial lists its terms in print order, and ``poly._Packing.unpack``
is the one code that sorts terms, by packed key.  A second sort, such as a
key function over exponent vectors, would be a second definition of the
order that agrees with the slot layout on every output test until one of
them changes.  Likewise ``grammar._Packing`` refuses an unknown letter at
every depth, so the CLI keeps no copy of that check to drift from it.
"""

import ast

from gramcalc import cli, poly
from source_tree import name, tree, walk

# Where poly.py sorts, and what: letter pairs of one monomial, letter
# names, and in unpack the packed keys of the terms.
POLY_SORTS = {"mono_from_exps", "Polynomial.letters", "_Packing.__init__", "_Packing.unpack"}


def _sort_calls() -> list[tuple[str, ast.Call]]:
    """(enclosing Class.function, call) of each call of sorted or .sort in poly.py."""
    return [
        (scope, node)
        for node, _, scope in walk(tree(poly))
        if isinstance(node, ast.Call) and name(node.func) in {"sorted", "sort"}
    ]


def test_only_unpack_sorts_terms():
    calls = _sort_calls()
    assert {scope for scope, _ in calls} == POLY_SORTS
    assert [scope for scope, call in calls if call.keywords] == []


def test_cli_keeps_no_letter_check():
    names = {
        node.name if isinstance(node, ast.alias) else name(node) for node, _, _ in walk(tree(cli))
    }
    assert "UnknownLetter" not in names
