"""Rule DSL parsing, rendering, and the builtin grammar table."""

import sys

import pytest
from hypothesis import given, strategies as st

from gramcalc import poly
from gramcalc.dsl import (
    BUILTIN_SOURCES,
    MAX_NESTING,
    builtin_grammar,
    builtin_names,
    parse_grammar,
    parse_polynomial,
)
from gramcalc.errors import DuplicateRule, GramcalcError, ParseError
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


def test_a_printed_level_parses_back_in_print_order():
    level = builtin_grammar("g1").derive_n(x, 12)
    back = parse_polynomial(str(level))
    assert back == level
    assert list(back.terms().items()) == list(level.terms().items())


def test_a_sum_of_terms_is_ordered_once(monkeypatch):
    # A k-term sum is one pack/unpack round trip, not k growing ones.
    calls = []
    unpack = poly._Packing.unpack
    monkeypatch.setattr(poly._Packing, "unpack", lambda *a: calls.append(1) or unpack(*a))
    letters = [f"a{i}" for i in range(40)]
    p = parse_polynomial(" - ".join(reversed(letters)))
    assert len(calls) == 1
    assert p.letters() == tuple(sorted(letters))
    assert p.coeff_sum() == 1 - 39


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


_DEEP = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)


@pytest.mark.parametrize(
    "parse, src, text",
    [
        (
            parse_polynomial,
            "x y",
            "line 1, column 3: unexpected 'y' (expected '+' or '-' or '*' or end of input)",
        ),
        (parse_polynomial, "x\r\n\t+ @", "line 2, column 4: unexpected character '@'"),
        (
            parse_grammar,
            "const a,\n a",
            "conflicting declarations for letter 'a': redeclared at line 2, column 2",
        ),
        (
            parse_grammar,
            "x -> x;\n\tx -> 2*x",
            "conflicting declarations for letter 'x': redeclared at line 2, column 2",
        ),
        (
            parse_grammar,
            "x ->\n",
            "line 2, column 1: unexpected end of input"
            " (expected an integer or a letter or '(')",
        ),
        (parse_grammar, "x -> x y", "line 1, column 8: unexpected 'y' (expected ';')"),
        (parse_grammar, "x x", "line 1, column 3: unexpected 'x' (expected '->')"),
        (
            parse_polynomial,
            "(x + y",
            "line 1, column 7: unexpected end of input (expected ')')",
        ),
        (
            parse_polynomial,
            "x + \n " + _DEEP,
            f"line 2, column {MAX_NESTING + 2}: parentheses nested deeper than {MAX_NESTING}",
        ),
        (parse_polynomial, "x^0", "line 1, column 3: exponent must be a positive integer"),
        (
            parse_polynomial,
            "x 007",
            "line 1, column 3: unexpected '007' (expected '+' or '-' or '*' or end of input)",
        ),
    ],
)
def test_error_text(parse, src, text):
    # Each error site's whole message: position, wording and expected kinds.
    with pytest.raises(GramcalcError) as info:
        parse(src)
    assert str(info.value) == text


def test_integer_past_the_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    with pytest.raises(ParseError) as info:
        parse_polynomial("x +\n x^" + "9" * (limit + 1))
    assert str(info.value) == (
        f"line 2, column 4: integer of {limit + 1} digits is too long to read;"
        " PYTHONINTMAXSTRDIGITS=0 lifts the limit"
    )


_SOURCE_PIECES = ("x", "y1", "+", "*", "(", ")", "2", " ", "\t", "\n", "\r\n",
                  "\u00e9", "\u00df", "\u0663", "\u00b2", "@")


@given(st.lists(st.sampled_from(_SOURCE_PIECES), max_size=12).map("".join))
def test_unexpected_character_position_indexes_the_character(src):
    for parse in (parse_polynomial, parse_grammar):
        try:
            parse(src)
        except ParseError as exc:
            if "unexpected character" in str(exc):
                char = src.split("\n")[exc.line - 1][exc.col - 1]
                assert str(exc).endswith(f"unexpected character {char!r}")
        except GramcalcError:
            pass


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


def test_const_is_not_a_ruled_letter():
    with pytest.raises(ValueError, match="reserves 'const'"):
        Grammar({"const": 2})


def test_constant_named_const_round_trips():
    c = Polynomial.letter("const")
    g = Grammar({"x": c * x}, constants=["const", "a"])
    assert g.to_dsl() == "const a, const; x -> const*x"
    assert parse_grammar(g.to_dsl()) == g


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
