"""Formal derivative engine and index-map extraction."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gramcalc.dsl import builtin_grammar, builtin_names, parse_grammar, parse_polynomial
from gramcalc.errors import DuplicateRule, PatternViolation, UnknownLetter
from gramcalc.grammar import Grammar, IndexMap, extract_coeffs
from gramcalc.poly import Polynomial
from gramcalc.triangles import eulerian, stirling2

from reference import assert_same_terms, reference_derive, reference_levels

x = Polynomial.letter("x")
y = Polynomial.letter("y")


def test_single_step():
    g = parse_grammar("x -> x + x*y; y -> y + x*y")
    assert g.derive(x) == x + x * y
    assert g.derive(x * y) == 2 * x * y + x * y**2 + x**2 * y
    assert g.derive(Polynomial.constant(5)) == 0


def test_constants_pass_through():
    g = parse_grammar("const c; x -> c*x")
    c = Polynomial.letter("c")
    assert g.derive(x) == c * x
    assert g.derive_n(x, 3) == c**3 * x
    assert g.derive(c**4) == 0


def test_unknown_letter_rejected():
    with pytest.raises(UnknownLetter):
        parse_grammar("x -> x + y")
    g = parse_grammar("x -> 2*x")
    with pytest.raises(UnknownLetter):
        g.derive(x + y)


def test_duplicate_and_conflicting_declarations():
    with pytest.raises(DuplicateRule):
        Grammar({"x": x}, constants={"x"})


def test_depth_validation():
    g = parse_grammar("x -> x")
    with pytest.raises(ValueError):
        g.derive_n(x, -1)
    for depth in (True, 2.5):
        with pytest.raises(ValueError, match="derivative depth must be an int"):
            g.derive_n(x, depth)
    with pytest.raises(ValueError, match="derivative depth must be an int"):
        g.derive_levels(x, 1.0)
    assert [str(p) for p in g.derive_levels(x, 2)] == ["x", "x", "x"]


def test_stirling_generating_grammar():
    # with x -> x*y and y -> y, level n holds x times the Stirling row
    g = parse_grammar("x -> x*y; y -> y")
    p = g.derive_n(x, 4)
    for k in range(1, 5):
        assert p.coefficient({"x": 1, "y": k}) == stirling2(4, k)
    assert p.coefficient({"x": 1}) == 0


def test_eulerian_generating_grammar():
    # with x -> x*y and y -> x*y, level n spreads the Eulerian row over
    # monomials x^k y^(n-k+1)
    g = parse_grammar("x -> x*y; y -> x*y")
    p = g.derive_n(x, 4)
    for k in range(1, 5):
        assert p.coefficient({"x": k, "y": 4 - k + 1}) == eulerian(4, k)


def test_index_map_identity():
    imap = IndexMap.identity()
    grid = extract_coeffs(parse_polynomial("x + 3*x*y + x*y^2 + x^2*y"), imap)
    assert grid == {(1, 0): 1, (1, 1): 3, (1, 2): 1, (2, 1): 1}


def test_index_map_fixed_letter():
    imap = IndexMap.identity(fixed={"w": 1})
    grid = extract_coeffs(parse_polynomial("w + 3*w*x + w*x*y"), imap)
    assert grid == {(0, 0): 1, (1, 0): 3, (1, 1): 1}
    with pytest.raises(PatternViolation):
        imap.indices((("x", 1),))
    with pytest.raises(PatternViolation):
        imap.indices((("w", 2),))


def test_index_map_affine_rows():
    imap = IndexMap({"x": (1, 2, 0), "y": (0, 0, 2)})
    assert imap.indices((("x", 3), ("y", 2))) == (1, 1)
    assert imap.indices((("x", 1),)) == (0, 0)
    with pytest.raises(PatternViolation):
        imap.indices((("x", 2),))
    with pytest.raises(PatternViolation):
        imap.indices((("x", 3), ("y", 1)))
    shifted = IndexMap({"x": (2, 1, 0), "y": (0, 0, 1)})
    with pytest.raises(PatternViolation, match=r"indices \(-1, 1\) are out of range$"):
        shifted.indices((("x", 1), ("y", 1)))


def test_index_map_needs_independent_rows():
    with pytest.raises(ValueError):
        IndexMap({"x": (0, 1, 1), "y": (0, 2, 2)})


@pytest.mark.parametrize(
    "make",
    [
        lambda: IndexMap({"x": (0, 1.5, 0), "y": (0, 0, True)}),
        lambda: IndexMap({"x": (0, 1, 0), "y": (0, 0, 1.0)}),
        lambda: IndexMap({"x": ("0", 1, 0), "y": (0, 0, 1)}),
        lambda: IndexMap.identity(fixed={"w": 1.5}),
        lambda: IndexMap.identity(fixed={"w": True}),
    ],
    ids=["float-and-bool", "integral-float", "str", "fixed-float", "fixed-bool"],
)
def test_index_map_rejects_non_integers(make):
    with pytest.raises(ValueError, match="index map entry of .* must be an int"):
        make()


@pytest.mark.parametrize("row", [(0, 1, 0, 5), (0, 1), 5], ids=["long", "short", "int"])
def test_index_map_rejects_rows_of_the_wrong_length(row):
    with pytest.raises(ValueError, match=r"row of 'x' must be \(base, ci, cj\)"):
        IndexMap({"x": row, "y": (0, 0, 1)})


def test_extract_rejects_stray_letters():
    with pytest.raises(PatternViolation):
        extract_coeffs(parse_polynomial("x*z"), IndexMap.identity())


_g = parse_grammar("x -> x + x*y; y -> y + x^2")

_polys = st.lists(
    st.tuples(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=4,
).map(
    lambda terms: sum(
        (c * x**i * y**j for c, i, j in terms), Polynomial.zero()
    )
)


@given(_polys, _polys)
def test_leibniz(p, q):
    assert _g.derive(p * q) == _g.derive(p) * q + p * _g.derive(q)


@given(_polys, _polys, st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9))
def test_linearity(p, q, a, b):
    assert _g.derive(a * p + b * q) == a * _g.derive(p) + b * _g.derive(q)


@given(_polys)
def test_power_rule(p):
    assert _g.derive(p**3) == 3 * p**2 * _g.derive(p)


def _sum_of_terms(terms) -> Polynomial:
    return Polynomial.from_terms((Counter(letters), coeff) for coeff, letters in terms)


def _terms_over(letters, degrees):
    return st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            degrees.flatmap(
                lambda d: st.lists(st.sampled_from(letters), min_size=d, max_size=d)
            ),
        ),
        max_size=4,
    ).map(_sum_of_terms)


@st.composite
def _grammar_and_start(draw):
    """A random grammar with constant letters, and a start polynomial.

    Rule terms have degree 0, 1 or 3 and coefficients of either sign, so
    terms cancel and come back.  The start may use the undeclared letter
    q, which only derive_n(p, 0) accepts.
    """
    known = draw(st.lists(st.sampled_from("abxy"), min_size=1, unique=True))
    ruled = draw(st.lists(st.sampled_from(known), unique=True))
    rule_terms = _terms_over(known, st.sampled_from((0, 1, 3)))
    rules = {letter: draw(rule_terms) for letter in ruled}
    grammar = Grammar(rules, constants=[l for l in known if l not in rules])
    start = draw(_terms_over(known + ["q"], st.integers(min_value=0, max_value=3)))
    return grammar, start


@given(_grammar_and_start(), st.integers(min_value=0, max_value=4))
def test_packed_kernel_matches_reference(case, n):
    grammar, p = case
    try:
        expected = reference_levels(grammar, p, n)
    except UnknownLetter as exc:
        for call in (grammar.derive_n, grammar.derive_levels):
            with pytest.raises(UnknownLetter) as caught:
                call(p, n)
            assert str(caught.value) == str(exc)
        return
    levels = grammar.derive_levels(p, n)
    assert len(levels) == n + 1
    for actual, want in zip(levels, expected):
        assert_same_terms(actual, want)
    assert_same_terms(grammar.derive_n(p, n), expected[-1])
    if n:
        assert_same_terms(grammar.derive(p), expected[1])


# bound = p.degree() + n * max(0, largest rule-term degree - 1), the
# degree bound whose bit length sets the slot width.
@pytest.mark.parametrize(
    "src, start, n, bound",
    [
        ("x -> y; const y", "x^5", 5, 5),
        ("x -> y; const y", "x^7", 7, 7),  # y^7 fills its 3-bit slot
        ("x -> x^3", "x", 3, 7),
    ],
)
def test_exponent_reaches_the_width_bound(src, start, n, bound):
    g = parse_grammar(src)
    p = parse_polynomial(start)
    expected = reference_levels(g, p, n)
    assert max(e for mono in expected[-1].terms() for _, e in mono) == bound
    for actual, want in zip(g.derive_levels(p, n), expected):
        assert_same_terms(actual, want)
    assert_same_terms(g.derive_n(p, n), expected[-1])


def test_cancelled_term_is_reinserted_last():
    # c cancels (a then b), then d brings it back after x's y: the
    # kernel deletes on zero, so c comes out last, as in the reference.
    g = parse_grammar("const c, y; a -> c; b -> -c; d -> c; x -> y")
    p = Polynomial.from_terms([({"a": 1}, 1), ({"b": 1}, 1), ({"x": 1}, 1), ({"d": 1}, 1)])
    assert list(g.derive(p).terms()) == [(("y", 1),), (("c", 1),)]
    assert_same_terms(g.derive_n(p, 1), reference_derive(g, p))


def test_zero_polynomial_derives_to_zero():
    g = parse_grammar("x -> x*y; y -> y")
    zero = Polynomial.zero()
    assert g.derive_n(zero, 3) == 0
    assert g.derive_levels(zero, 2) == [zero, zero, zero]


def test_depth_zero_accepts_an_unknown_letter():
    g = parse_grammar("x -> x*y; y -> y")
    q = Polynomial.letter("q")
    assert g.derive_n(q, 0) is q
    assert g.derive_levels(q, 0) == [q]
    with pytest.raises(UnknownLetter, match="'q'"):
        g.derive_n(x + q, 1)


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_match_reference_at_depth_30(name):
    g = builtin_grammar(name)
    assert_same_terms(g.derive_n(x, 30), reference_levels(g, x, 30)[-1])
