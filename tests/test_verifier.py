"""Identity suite runner: reports, notes, overrides, failure localization."""

import re

import pytest

from gramcalc import verifier
from gramcalc.config import Caps
from gramcalc.dsl import builtin_grammar, parse_grammar
from gramcalc.errors import BoundExceeded
from gramcalc.verifier import (
    SUITE_NAMES,
    run_all,
    run_suite,
    suite_golden,
)


def test_suite_names():
    assert SUITE_NAMES == ("T1", "T2", "T3", "T4", "T5", "T6", "golden")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_small(name):
    report = run_suite(name, nmax=3)
    assert report.passed, report.first_failure
    assert report.status == "pass"
    assert report.checks_run > 0
    assert report.nmax == 3


def test_run_all_order_and_status():
    reports = run_all(nmax=2)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)


def test_golden_check_counts():
    assert suite_golden(3).checks_run == 16
    assert suite_golden(2).checks_run == 12
    assert suite_golden(0).checks_run == 0
    assert suite_golden(3).passed


def test_summary_format():
    report = run_suite("golden", nmax=3)
    assert report.summary() == "golden: pass (16 checks, 0 failures, nmax=3)"


def test_determinism():
    a = run_suite("T2", nmax=3)
    b = run_suite("T2", nmax=3)
    assert a.to_json_obj() == b.to_json_obj()


def test_mutated_grammar_fails_localized():
    mutant = parse_grammar("x -> x + 2*x*y; y -> y + x*y")
    report = run_suite("T1", nmax=2, grammar=mutant)
    assert not report.passed
    first = report.first_failure
    assert first.identity == "transport_recurrence"
    assert first.indices == (1, 1, 1)
    assert (first.expected, first.actual) == ("1", "2")
    assert report.notes[0] == "grammar override: x -> x + 2*x*y; y -> y + x*y"


@pytest.mark.parametrize(
    "suite, table, identity",
    [
        ("T1", "_T1_TRANSPORT", "transport_recurrence"),
        ("T2", "_T2_TRANSPORT", "transport_recurrence"),
        ("T3", "_T3_TRANSPORT", "transport_recurrence"),
        ("T4", "_T4_TRANSPORT", "transport_recurrence"),
        ("T5", "_T5_EVEN_TRANSPORT", "even_transport_recurrence"),
        ("T5", "_T5_ODD_TRANSPORT", "odd_transport_recurrence"),
    ],
    ids=["T1", "T2", "T3", "T4", "T5-even", "T5-odd"],
)
def test_transport_tables_are_live(monkeypatch, suite, table, identity):
    # A suite that kept an inline recurrence beside its table would pass.
    shifts = getattr(verifier, table)
    c, ci, cj = shifts[0, 0]
    monkeypatch.setitem(shifts, (0, 0), (c + 1, ci, cj))
    report = run_suite(suite, nmax=2)
    assert {f.identity for f in report.failures} == {identity}


def test_run_suite_errors():
    with pytest.raises(ValueError):
        run_suite("T9")
    with pytest.raises(ValueError):
        run_suite("golden", grammar=builtin_grammar("g1"))
    with pytest.raises(ValueError):
        run_suite("T1", nmax=-1)
    for nmax in (True, 2.5):
        with pytest.raises(ValueError, match="nmax must be an int"):
            run_suite("T1", nmax=nmax)
    with pytest.raises(BoundExceeded):
        run_suite("T1", nmax=11)


def test_census_capping_note_only_when_needed():
    assert run_suite("T1", nmax=3).notes == []
    deep = run_suite("T1", nmax=8)
    assert deep.passed
    assert deep.checks_run == 2631
    assert any("stop at n=7" in note for note in deep.notes)


def test_raised_cops_cap_reaches_the_census():
    report = run_suite("T1", 8, caps=Caps(cops=9))
    assert report.passed
    assert report.checks_run == 2752
    assert report.notes == []


def test_valley_product_shift_note():
    report = run_suite("T2", nmax=3)
    note = report.notes[-1]
    assert note.startswith("informational:")
    assert "10/13 nonzero cells" in note
    assert "(n,k,l)=(3, 3, 1): table=1, shifted product=5" in note


def test_boundary_notes_report_full_match():
    report = run_suite("T5", nmax=3)
    boundary = [n for n in report.notes if "boundary cells" in n]
    assert len(boundary) == 2
    for note in boundary:
        m = re.search(r"(\d+)/(\d+) boundary cells", note)
        assert m is not None
        assert m.group(1) == m.group(2)
        assert "first mismatch" not in note


def test_t5_override_scope_is_noted():
    report = run_suite("T5", nmax=2, grammar=builtin_grammar("g5"))
    assert report.passed
    assert "diagonal checks keep the builtin" in report.notes[0]


def test_checks_scale_with_nmax():
    small = run_suite("T4", nmax=2)
    big = run_suite("T4", nmax=4)
    assert big.checks_run > small.checks_run
