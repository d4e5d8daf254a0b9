"""Canonical polynomial arithmetic and rendering."""

import math

import pytest

from gramcalc.poly import CONST_MONO, Polynomial, mono_degree, mono_from_exps, mono_mul

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
    assert Polynomial.from_json_obj(obj) == p
    assert Polynomial.from_json_obj([]) == 0


def test_unhashable():
    with pytest.raises(TypeError):
        hash(x + y)


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
