"""The exact-integers contract: one reader turns text into ints, after checking it."""

import argparse
import ast
import pathlib
import sys

import pytest

import gramcalc
from gramcalc import cli, config, triangles
from gramcalc.dsl import parse_polynomial
from gramcalc.errors import GramcalcError, ParseError, UnknownTriangle
from source_tree import name, tree, walk

# The one function that calls int(): it first checks its text is ASCII digits.
CHECKED_DIGIT_READERS = {("errors", "_read_int")}
# The gate for exact integers and the reader of integers from text.
GATE = ("_exact", "_read_int")


def int_calls(path: pathlib.Path) -> list[tuple[str, str, int]]:
    """(module, innermost enclosing class or function, line) of each int(...) call in path."""
    return [
        (path.stem, scope.rpartition(".")[2], node.lineno)
        for node, _, scope in walk(tree(path))
        if isinstance(node, ast.Call) and name(node.func) == "int"
    ]


def test_int_is_called_only_on_checked_digits():
    # Any other int() would turn a float, a bool or a string into an int
    # behind the back of errors._exact, the one gate for exact integers.
    package = pathlib.Path(gramcalc.__file__).parent
    calls = [call for path in sorted(package.glob("*.py")) for call in int_calls(path)]
    assert [call for call in calls if call[:2] not in CHECKED_DIGIT_READERS] == []
    assert {call[:2] for call in calls} == CHECKED_DIGIT_READERS


def test_the_gate_is_defined_once_and_imported_from_errors():
    # A copy of the gate left in another module, or a caller still reaching
    # it as poly._exact, would make a second gate that could drift.
    package = pathlib.Path(gramcalc.__file__).parent
    defined, elsewhere = [], []
    for path in sorted(package.glob("*.py")):
        for node, _, _ in walk(tree(path)):
            if isinstance(node, ast.FunctionDef) and node.name in GATE:
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Attribute) and node.attr in GATE:
                elsewhere.append((path.stem, name(node.value), node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module != "errors":
                imported = [a.name for a in node.names if a.name in GATE]
                elsewhere += [(path.stem, node.module, node.lineno)] if imported else []
    assert sorted(defined) == [("errors", "_exact"), ("errors", "_read_int")]
    assert elsewhere == []


def test_no_cli_flag_reads_an_int_itself():
    # argparse's type=int reads '٣', '1_0' and '+3' as ints, past the reader.
    parsers, actions = [cli.build_parser()], []
    while parsers:
        for action in parsers.pop()._actions:
            actions.append(action)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert [a.dest for a in actions if a.type is int] == []


def _library_readers(tmp_path):
    """Name -> (read one text, the exception type, the message before the shared wording)."""
    path = tmp_path / "caps.cfg"

    def caps_file(text):
        path.write_text(f"derive = {text}\n", encoding="utf-8")
        config.load_caps(str(path), environ={})

    return {
        "rule text": (
            lambda text: parse_polynomial("x +\n x^" + text),
            ParseError,
            "line 2, column 4: integer",
        ),
        "caps file": (caps_file, GramcalcError, f"{path}:1: cap 'derive'"),
        "caps env": (
            lambda text: config.load_caps(None, environ={"GRAMCALC_CAP_DERIVE": text}),
            GramcalcError,
            "GRAMCALC_CAP_DERIVE: cap 'derive'",
        ),
        "whitney": (
            lambda text: triangles.build_table("whitney:" + text, 1),
            UnknownTriangle,
            "whitney order",
        ),
    }


PAST_LIMIT = None  # stands for a digit string one longer than the interpreter reads


@pytest.mark.parametrize(
    "reader, text",
    [(reader, PAST_LIMIT) for reader in ("rule text", "caps file", "caps env", "whitney")]
    # The DSL tokenizer ends an integer at its first non-ASCII digit, so
    # rule text never hands these to the reader.
    + [
        (reader, text)
        for reader in ("caps file", "caps env", "whitney")
        for text in ("١٢", "1_0", "+3")
    ],
)
def test_every_library_reader_words_a_bad_integer_alike(tmp_path, reader, text):
    read, error, head = _library_readers(tmp_path)[reader]
    if text is PAST_LIMIT:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        text = "9" * (limit + 1)
        wording = f"of {limit + 1} digits is too long to read; PYTHONINTMAXSTRDIGITS=0 lifts the limit"
    else:
        wording = f"needs a nonnegative integer, got {text!r}"
    with pytest.raises(error) as info:
        read(text)
    assert type(info.value) is error
    assert str(info.value) == f"{head} {wording}"
