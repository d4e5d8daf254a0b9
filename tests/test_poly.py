"""Canonical polynomial arithmetic and rendering."""

import math
import operator

import pytest
from hypothesis import example, given, strategies as st

from gramcalc import poly
from gramcalc.dsl import parse_polynomial
from gramcalc.poly import CONST_MONO, Polynomial, mono_degree, mono_from_exps

from reference import (
    assert_same_terms,
    mono_mul,
    print_order,
    reference_mul,
    reference_pow,
    reference_text,
)

x = Polynomial.letter("x")
y = Polynomial.letter("y")


def test_monomial_helpers():
    m = mono_from_exps({"y": 2, "x": 1})
    assert m == (("x", 1), ("y", 2))
    assert mono_degree(m) == 3
    assert mono_from_exps({"x": 0}) == CONST_MONO
    assert mono_mul(m, (("y", 1),)) == (("x", 1), ("y", 3))
    with pytest.raises(ValueError):
        mono_from_exps({"x": -1})
    with pytest.raises(ValueError):
        mono_from_exps({"not a letter!": 1})


def test_zero_and_constants():
    assert Polynomial.zero() == 0
    assert not Polynomial.zero()
    assert Polynomial.constant(5) == 5
    assert Polynomial.one() == 1
    assert x - x == 0
    assert len(x - x) == 0
    assert str(Polynomial.zero()) == "0"


def test_canonical_merging():
    p = Polynomial({(("x", 1),): 2, (): 3})
    q = Polynomial.term(2, x=1) + 3
    assert p == q
    assert (p - q) == 0
    # zero coefficients never stored
    assert len(Polynomial({(("x", 1),): 0})) == 0


def test_arithmetic():
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert p.coefficient({"x": 1, "y": 1}) == 2
    assert p.degree() == 2
    assert (p * 0) == 0
    assert 1 + x - 1 == x
    assert -(x - y) == y - x
    assert 2 * x == x + x
    assert x**0 == 1
    with pytest.raises(ValueError):
        x ** (-1)


def test_big_coefficients_exact():
    p = (x + 1) ** 40
    for k in (0, 7, 20, 40):
        assert p.coefficient({"x": k}) == math.comb(40, k)
    assert p.coeff_sum() == 2**40


def test_term_order_is_exponent_lex():
    p = x + x * y + x * x
    assert [m for m, _ in p.sorted_terms()] == [
        (("x", 1),),
        (("x", 1), ("y", 1)),
        (("x", 2),),
    ]
    assert str(p) == "x + x*y + x^2"


def test_rendering():
    p = x + 3 * x * y + x * y**2 + x**2 * y
    assert str(p) == "x + 3*x*y + x*y^2 + x^2*y"
    assert p.compact() == "x + 3xy + xy^2 + x^2y"
    assert str(y - x) == "y - x"
    assert str(-x - 2) == "-2 - x"
    assert str(Polynomial.constant(-7)) == "-7"
    assert (x * y**3).compact() == "xy^3"


def test_coefficient_lookup_forms():
    p = 3 * x**2 * y + 5
    assert p.coefficient({"x": 2, "y": 1}) == 3
    assert p.coefficient((("x", 2), ("y", 1))) == 3
    assert p.coefficient({}) == 5
    assert p.coefficient({"x": 9}) == 0


def test_json_round_trip():
    p = 7 * x**3 * y - 2 * y + 11
    obj = p.to_json_obj()
    assert all(isinstance(entry["coeff"], str) for entry in obj)
    assert obj == [
        {"exponents": {}, "coeff": "11"},
        {"exponents": {"y": 1}, "coeff": "-2"},
        {"exponents": {"x": 3, "y": 1}, "coeff": "7"},
    ]
    assert Polynomial.zero().to_json_obj() == []


def test_unhashable():
    with pytest.raises(TypeError):
        hash(x + y)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"])
def test_arithmetic_with_a_str_is_refused(op):
    with pytest.raises(TypeError):
        op(x + y, "x")
    with pytest.raises(TypeError):
        op("x", x + y)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
def test_non_int_coefficients_rejected(bad):
    with pytest.raises(ValueError):
        Polynomial({(("x", 1),): bad})
    with pytest.raises(ValueError):
        Polynomial.from_terms([({"x": 1}, bad)])
    with pytest.raises(ValueError):
        Polynomial.term(bad, x=1)
    with pytest.raises(ValueError):
        Polynomial.constant(bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
def test_non_int_exponents_rejected(bad):
    with pytest.raises(ValueError):
        mono_from_exps({"x": bad})
    with pytest.raises(ValueError):
        Polynomial({(("x", bad),): 1})
    with pytest.raises(ValueError):
        Polynomial.from_terms([({"x": bad}, 1)])
    with pytest.raises(ValueError):
        Polynomial.term(1, x=bad)
    with pytest.raises(ValueError):
        Polynomial.term(0, x=bad)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "op",
    [
        lambda p, b: p + b,
        lambda p, b: b + p,
        lambda p, b: p - b,
        lambda p, b: b - p,
        lambda p, b: p * b,
        lambda p, b: b * p,
        lambda p, b: p**b,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul", "pow"],
)
def test_bool_operands_rejected(op, flag):
    with pytest.raises(ValueError):
        op(x, flag)


def test_compare_with_bool_is_false_not_an_error():
    one = Polynomial.one()
    assert (one == True) is False  # noqa: E712
    assert (Polynomial.zero() == False) is False  # noqa: E712
    assert one != True  # noqa: E712
    assert one == 1


def test_constructor_matches_from_terms():
    terms = {(("y", 2), ("x", 1)): 3, (("x", 1), ("y", 2)): -1, (): 4, (("x", 0),): 1}
    assert Polynomial(terms) == Polynomial.from_terms((dict(m), c) for m, c in terms.items())
    assert Polynomial(terms) == Polynomial.term(2, x=1, y=2) + 5


@st.composite
def _polys(draw, letters="wxyz"):
    """Up to five terms over a random subset of letters, exponents 0..6.

    Coefficients of either sign and repeated monomials make terms cancel;
    the empty sum is the zero polynomial and a term with no letters is a
    constant.
    """
    subset = draw(st.lists(st.sampled_from(letters), unique=True))
    term = st.tuples(
        st.dictionaries(st.sampled_from(subset), st.integers(0, 6)) if subset else st.just({}),
        st.integers(-3, 3),
    )
    return Polynomial.from_terms(draw(st.lists(term, max_size=5)))


@example(Polynomial.zero())
@example(Polynomial.constant(-7))
@example(parse_polynomial("-3*x*y + 2 - y^2"))
@example(parse_polynomial("-x^3 + 4*x - 1"))
@example(parse_polynomial("y - x + x*y + x^2 - 5*x^2*y"))
@given(_polys())
def test_pieces_are_the_text(p):
    pieces = list(p.pieces())
    assert "".join(pieces) == str(p) == reference_text(p)
    assert "".join(p.pieces(explicit_mul=False)) == p.compact() == reference_text(p, False)
    # One piece per run of terms with the same first (letter, exponent) pair.
    firsts = [mono[:1] for mono, _ in p.sorted_terms()]
    runs = sum(1 for i, first in enumerate(firsts) if i == 0 or first != firsts[i - 1])
    assert len(pieces) == max(runs, 1)
    assert all(pieces)


@given(_polys(), _polys(), _polys("ab"))
def test_product_matches_tuple_reference(p, q, r):
    # r shares no letter with p or q.
    for a, b in ((p, q), (q, p), (p, r)):
        assert_same_terms(a * b, reference_mul(a, b))


@given(_polys(), _polys(), _polys("ab"))
def test_products_are_in_print_order(p, q, r):
    for product in (p * q, p * r, q * q):
        assert list(product.terms().items()) == print_order(product)


@given(_polys(), _polys(), st.integers(-3, 3), st.integers(0, 3), st.data())
def test_every_result_is_in_print_order(p, q, k, e, data):
    # The checked constructors read p's terms in a shuffled order.
    shuffled = data.draw(st.permutations(list(p.terms().items())))
    text = " + ".join(f"({Polynomial._raw({m: c})})" for m, c in shuffled) or "0"
    built = [
        parse_polynomial(text),
        Polynomial.from_terms((dict(m), c) for m, c in shuffled),
        Polynomial(dict(shuffled)),
    ]
    assert built == [p, p, p]
    results = [*built, p + q, p + k, k + p, p - q, p - k, k - p, -p, k * p, p * k, p * q, p**e]
    results.append(Polynomial.sum_of([q, p, -q, p]))
    assert results[-1] == p + p
    for result in results:
        assert list(result.terms().items()) == print_order(result)


@given(_polys(), st.integers(0, 5))
def test_power_matches_tuple_reference(p, e):
    assert_same_terms(p**e, reference_pow(p, e))


@pytest.mark.parametrize(
    "p, q",
    [
        # Degrees 3 + 4 give a 3-bit slot, and x^7 = 0b111 fills x's.
        (x**3 + y, x**4 + y),
        (x**3 - 2 * y, x**4 + 3 * y - 1),
        # Degrees 4 + 4 give a 4-bit slot, and y^8 reaches its top bit.
        (x + y**4, y**4 - x),
    ],
)
def test_exponent_reaches_the_slot_width(p, q):
    top = p.degree() + q.degree()
    assert max(e for mono in (p * q).terms() for _, e in mono) == top
    assert_same_terms(p * q, reference_mul(p, q))


def test_power_fills_the_slot_width():
    # The last product of (x + y)^7 has bound 3 + 4, so x^7 fills a 3-bit slot.
    p = (x + y) ** 7
    assert p.coefficient({"x": 7}) == 1
    assert_same_terms(p, reference_pow(x + y, 7))


def _count_calls(monkeypatch, name) -> list:
    """Record each call of ``poly._Packing.<name>`` by its arguments."""
    calls = []
    method = getattr(poly._Packing, name)

    def counting(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(poly._Packing, name, counting)
    return calls


@pytest.mark.parametrize("base", [x + 1, x, -3 * x * y**2, Polynomial.constant(-2)], ids=str)
@pytest.mark.parametrize("e", [1, 2, 3, 5, 8, 13, 16, 40])
def test_power_stops_squaring_after_the_top_bit(monkeypatch, base, e):
    expected = Polynomial.one()
    for _ in range(e):
        expected = expected * base
    calls = _count_calls(monkeypatch, "product")
    assert base**e == expected
    # One square per bit below the top one, one product per set bit.
    assert len(calls) == e.bit_length() - 1 + bin(e).count("1")


def test_power_unpacks_once(monkeypatch):
    base = x + y + 1
    calls = _count_calls(monkeypatch, "unpack")
    assert (base**13).coefficient({"x": 4, "y": 4}) == math.comb(13, 4) * math.comb(9, 4)
    assert len(calls) == 1


def test_power_zero_makes_no_product(monkeypatch):
    calls = _count_calls(monkeypatch, "product")
    assert (x + y) ** 0 == 1
    assert calls == []


@given(
    st.dictionaries(st.sampled_from("wxyz"), st.integers(0, 6)),
    st.integers(-5, 5).filter(bool),
    st.integers(0, 12),
)
def test_single_term_power_matches_repeated_products(exps, coeff, e):
    # No letters is the constant term; a negative coefficient flips sign
    # with the exponent's parity.
    p = Polynomial.from_terms([(exps, coeff)])
    expected = Polynomial.one()
    for _ in range(e):
        expected = expected * p
    assert_same_terms(p**e, expected)


def test_four_letter_power():
    w, z = Polynomial.letter("w"), Polynomial.letter("z")
    p = (x + y + z + w) ** 40
    assert len(p) == math.comb(43, 3) == 12341
    assert p.coeff_sum() == 4**40
