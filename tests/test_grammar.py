"""Formal derivative engine and index-map extraction."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from gramcalc.dsl import builtin_grammar, builtin_names, parse_grammar, parse_polynomial
from gramcalc.errors import DuplicateRule, PatternViolation, UnknownLetter
from gramcalc.grammar import Grammar, _Packing
from gramcalc.indexmap import IndexMap, extract_coeffs
from gramcalc.poly import Polynomial, mono_text
from gramcalc.triangles import eulerian, stirling2

from kernel_timings import SEEDS
from reference import (
    assert_same_terms,
    print_order,
    reference_derive,
    reference_levels,
    scatter_levels,
)

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


def test_letters_must_be_identifiers():
    with pytest.raises(ValueError, match="ruled letter must be an identifier, got '1x'"):
        Grammar({"1x": 1})
    with pytest.raises(ValueError, match="constant letter must be an identifier, got 'a b'"):
        Grammar({}, constants=["a b"])


def test_a_grammar_equals_no_other_type():
    g = parse_grammar("x -> x")
    assert g == parse_grammar("x -> x")
    assert (g == 1) is False
    assert g != "x -> x"


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
    # A fixed y replaces y's j row, so nothing reads j.
    with pytest.raises(ValueError, match="does not determine"):
        IndexMap.identity(fixed={"y": 0})


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


def _terms_over(letters, degrees, min_size=0):
    return st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            degrees.flatmap(
                lambda d: st.lists(st.sampled_from(letters), min_size=d, max_size=d)
            ),
        ),
        min_size=min_size,
        max_size=4,
    ).map(_sum_of_terms)


@st.composite
def _grammar_and_start(draw):
    """A random grammar with constant letters, and a start polynomial.

    Rule terms have degree 0, 1 or 3 and coefficients of either sign, so
    terms cancel and come back.  The start may use the undeclared letter
    q, which every depth refuses.
    """
    known = draw(st.lists(st.sampled_from("abxy"), min_size=1, unique=True))
    ruled = draw(st.lists(st.sampled_from(known), unique=True))
    rule_terms = _terms_over(known, st.sampled_from((0, 1, 3)))
    rules = {letter: draw(rule_terms) for letter in ruled}
    grammar = Grammar(rules, constants=[l for l in known if l not in rules])
    start = draw(_terms_over(known + ["q"], st.integers(min_value=0, max_value=3)))
    return grammar, start


@st.composite
def _euler_and_start(draw):
    """A grammar that splits as D = c*E + H, and a start polynomial.

    Every rule l -> ... holds c*l, c in +-1..+-3, and raising terms whose
    ruled letters have degree 1 + r, r in {-1, 1, 2}, with coefficients of
    either sign and powers of the constant letter a.  The start mixes
    ruled degrees 0..3.
    """
    c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    r = draw(st.sampled_from((-1, 1, 2)))
    ruled = draw(st.lists(st.sampled_from("bxy"), min_size=1, unique=True))
    raising = st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.lists(st.sampled_from(ruled), min_size=1 + r, max_size=1 + r),
            st.integers(min_value=0, max_value=2),
        ).map(lambda t: (t[0], t[1] + ["a"] * t[2])),
        max_size=3,
    ).map(_sum_of_terms)
    rules = {l: c * Polynomial.letter(l) + draw(raising) for l in ruled}
    grammar = Grammar(rules, constants=["a"])
    assert grammar._euler_split()[0] == c
    start = draw(_terms_over(ruled + ["a"], st.integers(min_value=0, max_value=3), min_size=2))
    return grammar, start


# Rule terms x (of x) and -y (of y) share key delta 0 with opposite signs,
# as 2*x and -3*y do in _MIXED, so each delta-0 entry skips the terms
# without its letter, and a key that several entries reach can sum to zero.
_FOLD = "x -> x + x*y; y -> -y + x*y"
_MIXED = "x -> 2*x + x*y; y -> -3*y + x*y"


# Beyond the strategy's reach: Grammar({}) has no letters and no entries;
# a rule of 0 and a constant rule give entries whose terms lose a letter.
# In _FOLD the first entry, x's delta 0, meets the x-free term y with a
# zero multiplier, and x*y sums to zero at delta 0.  x -> 1 moves the term
# y to below index 0 of its target diagonal, with multiplier 0.  From
# a + x + y at depth 1 the slots are one bit wide, and x -> y and y -> 1
# move a key by the same packed delta, though they move x by -1 and 0:
# folded together, y's 1 would land on another row than a's 1.
@given(st.one_of(_grammar_and_start(), _euler_and_start()), st.integers(min_value=0, max_value=4))
@example((Grammar({}), parse_polynomial("4")), 3)
@example((parse_grammar("const a; x -> 0"), parse_polynomial("3*a*x^2 + a - x")), 3)
@example((parse_grammar("x -> 5"), parse_polynomial("x^3 + 2*x - 7")), 3)
@example((parse_grammar(_FOLD), parse_polynomial("x*y + y")), 3)
@example((parse_grammar("x -> 1 + y; y -> x"), x + y), 3)
@example((parse_grammar("a -> 1; x -> y; y -> 1"), parse_polynomial("a + x + y")), 1)
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
    packing = _Packing(grammar, p, n)
    runs = packing.runs(p)
    for want in expected[1:]:
        runs = packing.step(runs)
        cells = [c for values in runs.values() for c in values]
        assert 0 not in cells and all(runs.values())
        assert len(cells) == len(want)
    levels = grammar.derive_levels(p, n)
    assert len(levels) == n + 1
    assert levels[0] is p
    for actual, want in zip(levels[1:], expected[1:]):
        assert_same_terms(actual, want)
    if n:
        assert_same_terms(grammar.derive_n(p, n), expected[-1])
        assert_same_terms(grammar.derive(p), expected[1])
    else:
        assert grammar.derive_n(p, 0) is p


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


def _row_key(packing: _Packing, mono) -> int:
    """The row key of a cell, built from its monomial: M's exponent above its
    class mod the stride moved into L's slot, for the two lowest letters."""
    *_, m, low = sorted(packing._shifts)
    exps = dict(mono)
    residue = exps.get(m, 0) % packing._stride
    exps[m], exps[low] = residue, exps.get(low, 0) + exps.get(m, 0) - residue
    return packing.pack_mono(tuple((l, e) for l, e in exps.items() if e))


# A row key moves M's exponent (here b's) into L's slot (c's), so that
# field holds e_b + e_c, the one field the layout adds to the exponents.
# From c at depth 6 the degree bound 1 + 6 * (2 - 1) = 7 fills the 3-bit
# slots, and deepest a-free terms such as b^3*c^4 put that bound in c's
# field of their row key.  Rule coefficients go into each run's multipliers,
# never into a slot, so c = 2 needs no wider slot.
@pytest.mark.parametrize("c", [1, 2])
def test_entry_field_sum_reaches_the_degree_bound(c):
    g = parse_grammar(
        f"a -> {c}*a*b + {c}*a*c; b -> {c}*b*a + {c}*b*c; c -> {c}*c*a + {c}*c*b"
    )
    start = Polynomial.letter("c")
    expected = reference_levels(g, start, 6)
    for actual, want in zip(g.derive_levels(start, 6)[1:], expected[1:]):
        assert_same_terms(actual, want)
    packing = _Packing(g, start, 6)
    mask, pitch = packing._mask, packing._pitch
    assert mask == 7
    assert pitch == packing.pack_mono((("b", 1),)) - packing.pack_mono((("c", 1),))
    rows = {_row_key(packing, mono): mono for mono in expected[-1].terms()}
    assert max(row >> packing._shifts["c"] & mask for row in rows) == mask
    runs = packing.runs(start)
    for _ in range(6):
        runs = packing.step(runs)
    for key, values in runs.items():
        first = packing.unpack({key: 1}).sorted_terms()[0][0]
        row = _row_key(packing, first)
        cells = packing.unpack(packing.put({}, {key: values}, 1)).terms()
        assert [_row_key(packing, mono) for mono in cells] == [row] * len(values)
    assert len(runs) == len(rows)


def test_rule_coefficients_leave_the_slot_width_alone():
    small = parse_grammar("x -> x*y; y -> y")
    large = Grammar({"x": 10**40 * x * y, "y": -7 * y})
    packings = [_Packing(g, x, 6) for g in (small, large)]
    for attr in ("_mask", "_pitch", "_stride"):
        assert getattr(packings[0], attr) == getattr(packings[1], attr)
    # Same row deltas and index shifts: coefficients only scale multipliers.
    assert [e[:2] for e in packings[0]._entries] == [e[:2] for e in packings[1]._entries]
    for g in (small, large):
        expected = reference_levels(g, x, 6)
        for actual, want in zip(g.derive_levels(x, 6)[1:], expected[1:]):
            assert_same_terms(actual, want)


def test_cancelled_term_comes_back_in_print_order():
    # c cancels (a then b), then d brings it back; the level lists y
    # before c, as print order puts exponent vector (c, y) = (0, 1) first.
    g = parse_grammar("const c, y; a -> c; b -> -c; d -> c; x -> y")
    p = Polynomial.from_terms([({"a": 1}, 1), ({"b": 1}, 1), ({"x": 1}, 1), ({"d": 1}, 1)])
    assert list(g.derive(p).terms()) == [(("y", 1),), (("c", 1),)]
    assert_same_terms(g.derive_n(p, 1), reference_derive(g, p))


def test_folded_deltas_skip_a_zero_multiplier():
    # x*y reaches delta 0 with +1 from x and -1 from y, and the two cancel.
    g = parse_grammar(_FOLD)
    assert list(g.derive(x * y).terms()) == [(("x", 1), ("y", 2)), (("x", 2), ("y", 1))]


# From each start, some step of both grammars sums a key to zero and then
# adds to it again from a later entry, before the step purges its zeros.
@pytest.mark.parametrize("src", [_FOLD, _MIXED], ids=["unit", "mixed"])
@pytest.mark.parametrize("start", ["x", "x*y + x - y", "x - x*y^2"])
def test_folded_deltas_cancel_like_the_reference(src, start):
    g = parse_grammar(src)
    p = parse_polynomial(start)
    expected = reference_levels(g, p, 12)
    levels = g.derive_levels(p, 12)
    assert levels[0] is p
    for actual, want in zip(levels[1:], expected[1:]):
        assert_same_terms(actual, want)
    assert_same_terms(g.derive_n(p, 12), expected[-1])


def test_zero_polynomial_derives_to_zero():
    g = parse_grammar("x -> x*y; y -> y")
    zero = Polynomial.zero()
    assert g.derive_n(zero, 3) == 0
    assert g.derive_levels(zero, 2) == [zero, zero, zero]


def test_depth_zero_refuses_an_unknown_letter():
    g = parse_grammar("x -> x*y; y -> y")
    q = Polynomial.letter("q")
    for call in (g.derive_n, g.derive_levels):
        for p, n in ((q, 0), (x + q, 0), (x + q, 1)):
            with pytest.raises(UnknownLetter, match="'q'"):
                call(p, n)
    assert g.derive_n(x, 0) is x
    assert g.derive_levels(x, 0)[0] is x


@pytest.mark.parametrize("name", builtin_names())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_builtins_match_reference_from_mixed_starts(name, data):
    g = builtin_grammar(name)
    p = data.draw(_terms_over(list(g.letters), st.integers(min_value=0, max_value=3)))
    n = data.draw(st.integers(min_value=8, max_value=12))
    expected = reference_levels(g, p, n)
    for actual, want in zip(g.derive_levels(p, n)[1:], expected[1:]):
        assert_same_terms(actual, want)
    assert_same_terms(g.derive_n(p, n), expected[-1])


@given(_grammar_and_start(), st.integers(min_value=0, max_value=4))
def test_derive_levels_are_in_print_order(case, n):
    grammar, p = case
    try:
        levels = grammar.derive_levels(p, n)
    except UnknownLetter:
        return
    for level in levels + [grammar.derive_n(p, n)]:
        assert list(level.terms().items()) == print_order(level)


def test_extract_names_the_first_bad_monomial_in_print_order():
    # Every monomial of g6's D^3(x) carrying z breaks an x, y index map;
    # the error names the first of them in print order.
    level = builtin_grammar("g6").derive_n(x, 3)
    bad = [m for m, _ in print_order(level) if dict(m).get("z")]
    assert len(bad) > 1
    with pytest.raises(PatternViolation) as caught:
        extract_coeffs(level, IndexMap.identity())
    assert caught.value.monomial == mono_text(bad[0])


@pytest.mark.parametrize("name", builtin_names())
def test_builtins_match_reference_at_depth_30(name):
    g = builtin_grammar(name)
    assert_same_terms(g.derive_n(x, 30), reference_levels(g, x, 30)[-1])


_CYCLE = "a -> a + a*b; b -> b + b*c; c -> c + c*d; d -> d + d*a"


@st.composite
def _mixed_and_start(draw):
    return parse_grammar(_MIXED), draw(_terms_over(["x", "y"], st.integers(0, 3)))


# Near misses of the Euler split: a rule term that keeps the degree
# (x -> y), two raises (x*y and x*y^2), a constant letter in the term
# that keeps it (q*x), and only terms that keep it (r = 0, so H's levels
# would share terms).  They must step D itself.
_NEAR_MISSES = (
    "x -> x + y; y -> y + x*y",
    "x -> x + x*y + x*y^2; y -> y + x*y",
    "const q; x -> q*x + x*y; y -> y + x*y",
    "x -> x + y; y -> y + x",
)


# The examples leave the builtins' dense simplices: one term per diagonal,
# letters that vanish and come back, one letter with gaps between its
# exponents, four letters whose diagonals hold a few cells each, and a
# constant letter.  Then the near misses of the Euler split, and two
# grammars that split at its edges: x -> 2*x has no raising term, so H is
# empty, and x -> x + 1 lowers the degree (r = -1), so its H-levels end.
# A level of more than 500 terms ends the comparison.
@settings(deadline=None)
@given(
    st.one_of(_grammar_and_start(), _mixed_and_start(), _euler_and_start()),
    st.integers(20, 40),
)
@example((parse_grammar("x -> x^4*y; y -> x*y^3"), x), 40)
@example((parse_grammar("x -> 1 + y; y -> x"), x + y), 40)
@example((parse_grammar("x -> x^10"), x + x**3), 30)
@example((parse_grammar(_CYCLE), parse_polynomial("a + b*d")), 20)
@example((parse_grammar("const c; x -> c*x + x*y; y -> -c*y + x*y"), x + y), 40)
@example((parse_grammar(_NEAR_MISSES[0]), parse_polynomial("x + y^2")), 20)
@example((parse_grammar(_NEAR_MISSES[1]), parse_polynomial("x + y^2")), 20)
@example((parse_grammar(_NEAR_MISSES[2]), parse_polynomial("q*x + y^2")), 20)
@example((parse_grammar(_NEAR_MISSES[3]), x), 20)
@example((parse_grammar("x -> 2*x; y -> 2*y"), parse_polynomial("x*y + 1")), 40)
@example((parse_grammar("x -> x + 1; y -> y + 1"), parse_polynomial("x^3*y^2 + x")), 40)
def test_runs_match_the_scatter_reference(case, n):
    grammar, p = case
    try:
        expected = scatter_levels(grammar, p, n, most=500)
    except UnknownLetter as exc:
        with pytest.raises(UnknownLetter) as caught:
            grammar.derive_levels(p, n)
        assert str(caught.value) == str(exc)
        return
    levels = grammar.derive_levels(p, len(expected) - 1)
    for actual, want in zip(levels[1:], expected[1:]):
        assert list(actual.terms().items()) == list(want.terms().items())
    last = grammar.derive_n(p, len(expected) - 1)
    assert list(last.terms().items()) == list(expected[-1].terms().items())


def _diagonals(level: Polynomial, letters, g: int) -> set:
    """Each term's diagonal: its other exponents, the sum of the two lowest
    letters' exponents, and the class of the second lowest's mod g."""
    *rest, m, low = letters
    out = set()
    for mono in level.terms():
        exps = dict(mono)
        e_m, e_low = exps.get(m, 0), exps.get(low, 0)
        out.add((tuple(exps.get(l, 0) for l in rest), e_m + e_low, e_m % g))
    return out


# Every builtin level from these starts fills simplices, so the stride
# leaves no gap on a diagonal: the step stores each term once and each
# diagonal as one run.  With the stride lost (g = 1 where it is 2), or
# diagonals cut short, the runs outnumber the diagonals.
@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name, seeds in SEEDS.items() for seed in seeds]
    # A start mixing classes mod the stride keeps them on separate
    # diagonals, and w's rule, which x never reaches, leaves g3's stride 2.
    + [("g5", "x + x^2"), ("g2", "1 + x"), ("g3", "x")],
)
def test_builtin_levels_are_dense_runs(name, seed):
    g = builtin_grammar(name)
    p = parse_polynomial(seed)
    levels = g.derive_levels(p, 30)
    packing = _Packing(g, p, 30)
    runs = packing.runs(p)
    for level in levels[1:]:
        runs = packing.step(runs)
        assert sum(map(len, runs.values())) == len(level)
        assert len(runs) == len(_diagonals(level, g.letters, packing._stride))


# x never moves in the Stirling grammar, so its diagonals run along y alone:
# each level x*(y + ... + y^n) is one run.
def test_runs_follow_the_lowest_letter_when_the_other_never_moves():
    g = parse_grammar("x -> x*y; y -> y")
    packing = _Packing(g, x, 10)
    runs = packing.runs(x)
    for _ in range(10):
        runs = packing.step(runs)
        assert len(runs) == 1


# D = c*E + H (grammar docstring): g1..g5 derive by stepping H alone and
# weighting its levels; grammars with no such split step D itself.
@pytest.mark.parametrize(
    "src, split",
    [(builtin_grammar(name).to_dsl(), (1, 1)) for name in ("g1", "g2", "g3", "g4")]
    + [(builtin_grammar("g5").to_dsl(), (1, 2))]
    + [(builtin_grammar(name).to_dsl(), (0, 0)) for name in ("g6", "gB")]
    + [(src, (0, 0)) for src in _NEAR_MISSES],
)
def test_euler_split_of_the_rules(src, split):
    assert parse_grammar(src)._euler_split()[:2] == split


def test_g1_steps_only_its_raising_rules(monkeypatch):
    g = builtin_grammar("g1")
    cells = []
    step = _Packing.step

    def counted(packing, runs):
        out = step(packing, runs)
        cells.append(sum(map(len, out.values())))
        return out

    monkeypatch.setattr(_Packing, "step", counted)
    level = g.derive_n(x, 100)
    assert len(cells) == 100 and sum(cells) == 5_050
    monkeypatch.undo()
    levels = g.derive_levels(x, 100)
    assert levels[-1] == level
    assert sum(map(len, levels[1:])) == 171_800
