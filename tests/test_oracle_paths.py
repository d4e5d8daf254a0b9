"""The oracles do each job one way, read off their source.

The shared subset memo has one fill path, ``_tally``; a second one could
store sets in another order or skip the key store without failing a
count test.  The opener census never lists cops: it counts set
partitions by their minima and tallies opener orderings, so a census
that fell back to building cops would be the brute force it replaces
and would still pass every count test at default caps.
"""

import ast
import pathlib

from gramcalc import oracles

LISTINGS = {"_set_partitions", "enumerate_cops", "permutations"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _functions() -> dict[str, ast.FunctionDef]:
    source = pathlib.Path(oracles.__file__).read_text(encoding="utf-8")
    return {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }


def _names(fn: ast.FunctionDef) -> set[str]:
    return {name for node in ast.walk(fn) if (name := _name(node)) is not None}


def test_subset_memo_is_used_only_by_tally():
    users = {name for name, fn in _functions().items() if "_subset_memo" in _names(fn)}
    calls = [
        fn.name
        for fn in _functions().values()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _name(node.func) == "_subset_memo"
    ]
    assert users == {"_tally"}
    assert calls == ["_tally"]


def test_census_never_lists_cops():
    # Everything cop_stat_table reaches through the module's own
    # functions, itself included, must stay clear of the listings.
    functions = _functions()
    reached, todo = set(), ["cop_stat_table"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_names(functions[name]) & functions.keys())
    assert {"_minima_walk", "_tally"} <= reached
    for name in reached:
        assert not _names(functions[name]) & LISTINGS, name
