"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line that survives output capture.

Criteria C1 through C7 drive the identity suites at full depth, C8 and
C9 cross-check enumeration censuses against triangle rows, and C10 runs
seeded randomized property checks plus a mutation-detection probe.
"""

import contextlib
import math
import random

import pytest

from gramcalc.dsl import builtin_grammar, parse_grammar, parse_polynomial
from gramcalc.oracles import (
    LEFT_PEAKS,
    RIGHT_VALLEYS,
    enumerate_matchings,
    enumerate_permutations,
    enumerate_signed,
    left_peak_counts,
    u_table,
)
from gramcalc.poly import Polynomial
from gramcalc.triangles import (
    eulerian,
    factorial,
    matching_count,
    stirling2,
    type_b_eulerian,
)
from gramcalc.verifier import run_suite

from reference import reference_des_b, reference_descents, reference_odd_smaller_count, scan

TRIALS = 1000


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def runner(tag, label):
        outcome = "FAIL"
        try:
            yield
            outcome = "PASS"
        finally:
            with capsys.disabled():
                print(f"ACCEPTANCE {tag} {label}: {outcome}")

    return runner


def _assert_suite(report):
    assert report.passed, f"{report.summary()}; first: {report.first_failure}"
    assert report.checks_run > 0


def test_c1_expansion_snapshots(criterion):
    with criterion("C1", "small expansion snapshots"):
        report = run_suite("golden", 3)
        _assert_suite(report)
        assert report.checks_run == 16
        p = builtin_grammar("g1").derive_n(parse_polynomial("x"), 3)
        assert p.coefficient({"x": 1, "y": 1}) == 7
        assert p.coefficient({"x": 2, "y": 1}) == 6
        assert p.coefficient({"x": 2, "y": 2}) == 4
        assert p.coefficient({"x": 3, "y": 1}) == 1


def test_c2_descent_identities(criterion):
    with criterion("C2", "descent transport, product form, partition census"):
        _assert_suite(run_suite("T1", 8))


def test_c3_valley_identities(criterion):
    with criterion("C3", "valley parity identities and table product"):
        _assert_suite(run_suite("T2", 8))
        u = u_table(8)
        for (n, k, l), value in u.items():
            assert value == stirling2(n, k) * left_peak_counts(k - 1).get(l, 0)
        # the same product with the peak row taken at k instead of k-1
        # already fails at (3, 3, 1)
        assert u[(3, 3, 1)] == 1
        assert stirling2(3, 3) * left_peak_counts(3)[1] == 5


def test_c4_alternating_length_identities(criterion):
    with criterion("C4", "alternating-length product and census"):
        _assert_suite(run_suite("T3", 8))


def test_c5_prefix_marked_identities(criterion):
    with criterion("C5", "prefix-marked partition product and row sums"):
        _assert_suite(run_suite("T4", 8))
        doubled = [
            sum(
                2**k * factorial(k) * stirling2(n + 1, k + 1)
                for k in range(n + 1)
            )
            for n in range(4)
        ]
        assert doubled[2] == 15
        assert doubled[3] == 111


def test_c6_parity_split_identities(criterion):
    with criterion("C6", "parity-split closed forms and diagonal collapse"):
        _assert_suite(run_suite("T5", 7))


def test_c7_three_letter_slices(criterion):
    with criterion("C7", "three-letter slice identities"):
        _assert_suite(run_suite("T6", 7))


def test_c8_row_sums_agree(criterion):
    with criterion("C8", "row sums agree across grammars"):
        x = parse_polynomial("x")
        w = parse_polynomial("w")
        a = builtin_grammar("g1").derive_levels(x, 8)
        b = builtin_grammar("g2").derive_levels(x, 8)
        t = builtin_grammar("g3").derive_levels(w, 8)
        for n in range(1, 9):
            expected = sum(
                factorial(k) * stirling2(n + 1, k + 1) for k in range(n + 1)
            )
            assert a[n].coeff_sum() == expected
            assert b[n].coeff_sum() == expected
            assert t[n].coeff_sum() == expected


def test_c9_distributions_match_triangles(criterion):
    with criterion("C9", "statistic distributions match triangles"):
        for n in range(1, 9):
            counts = {}
            for perm in enumerate_permutations(n):
                d = reference_descents(perm)
                counts[d] = counts.get(d, 0) + 1
            for d, c in counts.items():
                assert c == eulerian(n, d + 1)
            assert sum(counts.values()) == math.factorial(n)
        for n in range(1, 6):
            counts = {}
            for pi in enumerate_signed(n):
                k = reference_des_b(pi)
                counts[k] = counts.get(k, 0) + 1
            for k in range(n + 1):
                assert counts.get(k, 0) == type_b_eulerian(n, k)
        assert [type_b_eulerian(3, k) for k in range(4)] == [1, 23, 23, 1]
        for n in range(1, 8):
            counts = {}
            for matching in enumerate_matchings(n):
                k = reference_odd_smaller_count(matching)
                counts[k] = counts.get(k, 0) + 1
            for k in range(n + 1):
                assert counts.get(k, 0) == matching_count(n, k)
        assert [matching_count(2, k) for k in range(3)] == [0, 2, 1]


def _random_poly(rng):
    p = Polynomial.zero()
    for _ in range(rng.randrange(5)):
        p = p + Polynomial.term(
            rng.randint(-5, 5),
            x=rng.randrange(4),
            y=rng.randrange(4),
            c=rng.randrange(2),
        )
    return p


def test_c10_randomized_properties_and_mutation(criterion):
    with criterion("C10", "randomized properties and mutation detection"):
        rng = random.Random(20260823)
        g = parse_grammar("const c; x -> x + c*x*y; y -> y + x*y")
        for _ in range(TRIALS):
            p = _random_poly(rng)
            q = _random_poly(rng)
            assert g.derive(p * q) == g.derive(p) * q + p * g.derive(q)
            s, t = rng.randint(-9, 9), rng.randint(-9, 9)
            assert g.derive(s * p + t * q) == s * g.derive(p) + t * g.derive(q)

        for _ in range(TRIALS):
            n = rng.randint(1, 10)
            w = rng.sample(range(1, 50), n)
            assert scan(LEFT_PEAKS, w) == scan(RIGHT_VALLEYS, w)

        # inserting a new maximum into a min-first list at a noninitial
        # position never lowers the valley count; exactly 2l+1 of the k
        # insert positions keep it and the other k-(2l+1) raise it by one
        for _ in range(TRIALS):
            k = rng.randint(1, 8)
            values = rng.sample(range(1, 99), k)
            rest = [v for v in values if v != min(values)]
            rng.shuffle(rest)
            w = [min(values)] + rest
            l = scan(RIGHT_VALLEYS, w)
            deltas = []
            for t in range(1, k + 1):
                w2 = w[:t] + [99] + w[t:]
                deltas.append(scan(RIGHT_VALLEYS, w2) - l)
            assert set(deltas) <= {0, 1}
            assert deltas.count(0) == 2 * l + 1
            assert deltas.count(1) == k - (2 * l + 1)

        mutant = parse_grammar("x -> x + 2*x*y; y -> y + x*y")
        report = run_suite("T1", nmax=3, grammar=mutant)
        assert not report.passed
        first = report.first_failure
        assert first.identity == "transport_recurrence"
        assert first.indices == (1, 1, 1)
