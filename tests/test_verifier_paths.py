"""The verifier does each job one way, read off its source.

``run_suite`` alone builds the run object, ``_Suite``, and hands it to a
suite body that takes nothing else, so the depth, grammar and cap rules
of a run are written once.  Every suite derives through the run object,
reaches the permutation oracles only through ``_Suite.oracle_product``,
and reaches the opener census only through the one ``cop_stat_table``
call inside ``_Suite``.  The verifier reads no cap itself: a ``caps``
value is only passed on or asked to ``check``, so each oracle's own cap
check decides every cut.  A second path beside any of these doors, or a
cap rule copied into the verifier, would drift from the oracle's check
without failing any report test at default caps.
"""

import ast
import inspect

import pytest

from gramcalc import verifier
from gramcalc.dsl import builtin_grammar
from gramcalc.verifier import run_suite
from source_tree import name, tree, walk

PERMUTATION_ORACLES = {"left_peak_counts", "las_counts"}


def _uses() -> list[tuple[str, str, ast.AST, ast.AST]]:
    """(name, top-level class or function, node, parent) of each name or attribute in verifier.py."""
    return [
        (name(node), scope.partition(".")[0], node, parent)
        for node, parent, scope in walk(tree(verifier))
        if name(node) is not None
    ]


def test_derive_levels_is_called_only_by_the_run_object():
    calls = [
        owner
        for used, owner, node, parent in _uses()
        if used == "derive_levels" and isinstance(parent, ast.Call) and parent.func is node
    ]
    assert calls and set(calls) == {"_Suite"}


def test_permutation_oracles_are_only_passed_to_oracle_product():
    stray, passed = [], set()
    for used, _, node, parent in _uses():
        if used not in PERMUTATION_ORACLES:
            continue
        if (
            isinstance(parent, ast.Call)
            and name(parent.func) == "oracle_product"
            and node in parent.args
        ):
            passed.add(used)
        else:
            stray.append((used, node.lineno))
    assert stray == []
    assert passed == PERMUTATION_ORACLES


def test_census_has_one_call_site_inside_the_run_object():
    uses = [
        (owner, isinstance(parent, ast.Call) and parent.func is node)
        for used, owner, node, parent in _uses()
        if used == "cop_stat_table"
    ]
    assert uses == [("_Suite", True)]


def test_no_cap_field_is_read():
    read = {
        (parent.attr, node.lineno)
        for used, _, node, parent in _uses()
        if used == "caps" and isinstance(parent, ast.Attribute) and parent.value is node
    }
    assert read and {attr for attr, _ in read} == {"check"}, sorted(read)


def test_run_suite_alone_builds_the_run_object():
    builds = [
        scope
        for node, parent, scope in walk(tree(verifier))
        if isinstance(node, ast.Call) and name(node.func) == "_Suite"
    ]
    assert builds == ["run_suite"]
    for body in verifier._SUITES.values():
        assert len(inspect.signature(body).parameters) == 1, body.__name__


def test_golden_refuses_an_override_before_the_verify_cap():
    with pytest.raises(ValueError, match="the golden suite always uses the builtin grammars"):
        run_suite("golden", nmax=11, grammar=builtin_grammar("g1"))
