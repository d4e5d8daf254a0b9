"""The verifier does each job one way, read off its source.

Every suite derives through the run object, ``_Suite``, reaches the
permutation oracles only through ``_Suite.oracle_product``, and reaches
the opener census only through the one ``cop_stat_table`` call inside
``_Suite``.  The verifier reads no cap itself: a ``caps`` value is only
passed on or asked to ``check``, so each oracle's own cap check decides
every cut.  A second path beside either door, or a cap rule copied into
the verifier, would drift from the oracle's check without failing any
report test at default caps.
"""

import ast
import pathlib

from gramcalc import verifier

PERMUTATION_ORACLES = {"left_peak_counts", "las_counts"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _uses() -> list[tuple[str, str | None, ast.AST, ast.AST]]:
    """(name, enclosing class, node, parent) of each name or attribute in verifier.py."""
    found = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = _name(child)
            if name is not None:
                found.append((name, cls, child, node))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    source = pathlib.Path(verifier.__file__).read_text(encoding="utf-8")
    visit(ast.parse(source), None)
    return found


def test_derive_levels_is_called_only_by_the_run_object():
    calls = [
        cls
        for name, cls, node, parent in _uses()
        if name == "derive_levels" and isinstance(parent, ast.Call) and parent.func is node
    ]
    assert calls and set(calls) == {"_Suite"}


def test_permutation_oracles_are_only_passed_to_oracle_product():
    stray, passed = [], set()
    for name, _, node, parent in _uses():
        if name not in PERMUTATION_ORACLES:
            continue
        if (
            isinstance(parent, ast.Call)
            and _name(parent.func) == "oracle_product"
            and node in parent.args
        ):
            passed.add(name)
        else:
            stray.append((name, node.lineno))
    assert stray == []
    assert passed == PERMUTATION_ORACLES


def test_census_has_one_call_site_inside_the_run_object():
    uses = [
        (cls, isinstance(parent, ast.Call) and parent.func is node)
        for name, cls, node, parent in _uses()
        if name == "cop_stat_table"
    ]
    assert uses == [("_Suite", True)]


def test_no_cap_field_is_read():
    read = {
        (parent.attr, node.lineno)
        for name, _, node, parent in _uses()
        if name == "caps" and isinstance(parent, ast.Attribute) and parent.value is node
    }
    assert read and {attr for attr, _ in read} == {"check"}, sorted(read)
