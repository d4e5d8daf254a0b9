"""The exact-integers contract: int() only reads digit strings already checked."""

import ast
import pathlib

import gramcalc

# Each of these reads a string it has first checked to be ASCII digits.
CHECKED_DIGIT_READERS = {
    ("dsl", "_tokenize"),
    ("triangles", "build_table"),
    ("config", "_parse_value"),
}


def int_calls(path: pathlib.Path) -> list[tuple[str, str | None, int]]:
    """(module, innermost enclosing function, line) of each int(...) call in path."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "int"
            ):
                found.append((path.stem, function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_int_is_called_only_on_checked_digits():
    # Any other int() would turn a float, a bool or a string into an int
    # behind the back of poly._exact, the one gate for exact integers.
    package = pathlib.Path(gramcalc.__file__).parent
    calls = [call for path in sorted(package.glob("*.py")) for call in int_calls(path)]
    assert [call for call in calls if call[:2] not in CHECKED_DIGIT_READERS] == []
    assert {call[:2] for call in calls} == CHECKED_DIGIT_READERS
