"""Rule DSL parsing, rendering, and the builtin grammar table."""

import pytest
from hypothesis import given, strategies as st

from gramcalc.dsl import (
    BUILTIN_SOURCES,
    MAX_NESTING,
    builtin_grammar,
    builtin_names,
    parse_grammar,
    parse_polynomial,
)
from gramcalc.errors import DuplicateRule, ParseError
from gramcalc.grammar import Grammar
from gramcalc.poly import Polynomial

x = Polynomial.letter("x")
y = Polynomial.letter("y")


def test_expression_basics():
    assert parse_polynomial("x + 3*x*y + x*y^2 + x^2*y") == (
        x + 3 * x * y + x * y**2 + x**2 * y
    )
    assert parse_polynomial("2^3") == Polynomial.constant(8)
    assert parse_polynomial("-x + 2") == 2 - x
    assert parse_polynomial("(x + y)^2") == x**2 + 2 * x * y + y**2
    assert parse_polynomial("x - (y - 2)") == x - y + 2
    assert parse_polynomial("a_1 * B2").letters() == ("B2", "a_1")


def test_caret_binds_tighter_than_star():
    assert parse_polynomial("2*x^3") == 2 * x**3


def test_whitespace_and_newlines():
    assert parse_polynomial(" x\n + \n y ") == x + y


@pytest.mark.parametrize(
    "src, line, col, fragment",
    [
        ("x^0", 1, 3, "exponent must be a positive integer"),
        ("x^-1", 1, 3, "expected an integer"),
        ("x y", 1, 3, "unexpected 'y'"),
        ("x @", 1, 3, "unexpected character '@'"),
        ("", 1, 1, "unexpected end of input"),
        ("x^2^3", 1, 4, "unexpected '^'"),
        ("(x + y", 1, 7, "expected ')'"),
    ],
)
def test_expression_errors(src, line, col, fragment):
    with pytest.raises(ParseError) as info:
        parse_polynomial(src)
    assert info.value.line == line
    assert info.value.col == col
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "src, col, char",
    [
        ("2\u00b2", 2, "\u00b2"),  # superscript two
        ("x^\u00b2", 3, "\u00b2"),
        ("\u0663*x", 1, "\u0663"),  # Arabic-Indic three
        ("x*\uff13", 3, "\uff13"),  # fullwidth three
        ("x + x*y\u00b2", 8, "\u00b2"),
    ],
)
def test_non_ascii_digits_are_parse_errors(src, col, char):
    with pytest.raises(ParseError) as info:
        parse_polynomial(src)
    assert (info.value.line, info.value.col) == (1, col)
    assert f"unexpected character {char!r}" in str(info.value)


def test_rule_must_start_with_a_letter():
    with pytest.raises(ParseError) as info:
        parse_grammar("1 -> x")
    assert str(info.value) == "line 1, column 1: unexpected '1' (expected a letter)"


def test_identifiers_follow_python_rules():
    # A Unicode digit may continue a letter's name but never starts a number.
    expected = Polynomial.letter("x\u0663") + 2 * Polynomial.letter("x1")
    assert parse_polynomial("x\u0663 + 2*x1") == expected


def test_error_position_spans_lines():
    with pytest.raises(ParseError) as info:
        parse_grammar("x -> x;\ny -> )")
    assert (info.value.line, info.value.col) == (2, 6)


def test_trailing_semicolon():
    assert parse_grammar("x -> x;") == parse_grammar("x -> x")


def test_const_statement():
    g = parse_grammar("const a, b; x -> a*x + b")
    assert g.constants == {"a", "b"}
    assert g.letters == ("a", "b", "x")


@pytest.mark.parametrize(
    "src",
    [
        "x -> x; x -> 2*x",
        "const x; x -> x",
        "x -> x; const x",
        "const a, a; x -> x",
    ],
)
def test_duplicate_declarations(src):
    with pytest.raises(DuplicateRule) as info:
        parse_grammar(src)
    assert info.value.letter in {"x", "a"}


def test_duplicate_reports_position():
    with pytest.raises(DuplicateRule) as info:
        parse_grammar("x -> x; x -> 2*x")
    assert "line 1, column 9" in str(info.value)


def test_builtin_names_order():
    assert builtin_names() == ("g1", "g2", "g3", "g4", "g5", "gB", "g6")


def test_builtin_letters():
    assert builtin_grammar("g1").letters == ("x", "y")
    assert builtin_grammar("g3").letters == ("w", "x", "y")
    assert builtin_grammar("g6").letters == ("x", "y", "z")


def test_builtin_g6_expands_products():
    rules = builtin_grammar("g6").rules
    z = Polynomial.letter("z")
    assert rules["x"] == x * y + x * z


def test_builtin_unknown():
    with pytest.raises(ValueError):
        builtin_grammar("g99")


def test_builtin_round_trips():
    for name in builtin_names():
        g = builtin_grammar(name)
        assert parse_grammar(g.to_dsl()) == g
        assert parse_grammar(BUILTIN_SOURCES[name]) == g


_letters = ("a", "b", "c", "d")


def _build_poly(terms):
    total = Polynomial.zero()
    for coeff, mono in terms:
        term = Polynomial.constant(coeff)
        for letter in mono:
            term = term * Polynomial.letter(letter)
        total = total + term
    return total


_rule_polys = st.lists(
    st.tuples(
        st.integers(min_value=-9, max_value=9).filter(bool),
        st.lists(st.sampled_from(_letters), max_size=3),
    ),
    max_size=4,
).map(_build_poly)


@given(st.sets(st.sampled_from(_letters), min_size=1), _rule_polys)
def test_grammar_round_trip(ruled, rhs):
    constants = [l for l in _letters if l not in ruled]
    g = Grammar({l: rhs for l in ruled}, constants=constants)
    assert parse_grammar(g.to_dsl()) == g


def test_nesting_at_the_limit_parses():
    src = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(src) == x
    assert parse_grammar(f"x -> {src}") == parse_grammar("x -> x")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 5000])
def test_nesting_past_the_limit_is_a_parse_error(depth):
    src = "(" * depth + "x" + ")" * depth
    with pytest.raises(ParseError) as info:
        parse_polynomial(src)
    assert (info.value.line, info.value.col) == (1, MAX_NESTING + 1)
    assert f"nested deeper than {MAX_NESTING}" in str(info.value)


def test_nesting_error_reports_rule_position():
    src = "y -> y;\nx -> x + " + "(" * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as info:
        parse_grammar(src)
    assert (info.value.line, info.value.col) == (2, 10 + MAX_NESTING)


def test_nesting_depth_resets_between_groups():
    group = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(" + ".join([group] * 3)) == 3 * x
