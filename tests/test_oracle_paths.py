"""The oracles do each job one way, read off their source.

The shared subset memo has one fill path, ``_tally``; a second one could
store sets in another order or skip the key store without failing a
count test.  The opener census never lists cops: it counts set
partitions by their minima and tallies opener orderings, so a census
that fell back to building cops would be the brute force it replaces
and would still pass every count test at default caps.  The cop listing
is built in canonical order by its own recursion, with no sort and no
arrangement of blocks: a listing that sorted afterwards would keep its
bytes and pass every order test while doing the work twice.
"""

import ast

from gramcalc import oracles
from source_tree import name, tree, walk

# The cop listing's functions, and the enumerator of arrangements.
COP_LISTING = {"enumerate_cops", "_cop_listing", "_blocks"}
LISTINGS = COP_LISTING | {"permutations"}


def _names() -> dict[str, set[str]]:
    """Top-level class or function of oracles.py ('' for module level) -> the names used in it."""
    found: dict[str, set[str]] = {}
    for node, _, scope in walk(tree(oracles)):
        used = found.setdefault(scope.partition(".")[0], set())
        if name(node) is not None:
            used.add(name(node))
    return found


def test_subset_memo_is_used_only_by_tally():
    users = {function for function, used in _names().items() if "_subset_memo" in used}
    calls = [
        scope.partition(".")[0]
        for node, _, scope in walk(tree(oracles))
        if isinstance(node, ast.Call) and name(node.func) == "_subset_memo"
    ]
    assert users == {"_tally"}
    assert calls == ["_tally"]


def test_census_never_lists_cops():
    # Everything cop_stat_table reaches through the module's own
    # functions, itself included, must stay clear of the listings.
    names = _names()
    reached, todo = set(), ["cop_stat_table"]
    while todo:
        function = todo.pop()
        if function not in reached:
            reached.add(function)
            todo.extend(names[function] & names.keys())
    assert {"_minima_walk", "_tally"} <= reached
    for function in reached:
        assert not names[function] & LISTINGS, function


def test_cop_listing_neither_sorts_nor_arranges():
    names = _names()
    for function in COP_LISTING:
        assert not names[function] & {"sort", "sorted", "permutations"}, function
