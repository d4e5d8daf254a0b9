"""Identity suite runner: reports, notes, overrides, failure localization."""

import random
import re
from itertools import product

import pytest

from gramcalc import dsl, oracles, verifier
from gramcalc.config import Caps
from gramcalc.dsl import builtin_grammar, parse_grammar, parse_polynomial
from gramcalc.errors import BoundExceeded
from gramcalc.indexmap import extract_coeffs
from gramcalc.verifier import SUITE_NAMES, run_all, run_suite
from reference import reference_transport


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
    assert run_suite("golden", 3).checks_run == 16
    assert run_suite("golden", 2).checks_run == 12
    assert run_suite("golden", 0).checks_run == 0
    assert run_suite("golden", 3).passed


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


# (suite, index of the seed in its _SEEDS row, identity its transport table feeds)
TRANSPORT_TABLES = [
    ("T1", 0, "transport_recurrence"),
    ("T2", 0, "transport_recurrence"),
    ("T3", 0, "transport_recurrence"),
    ("T4", 0, "transport_recurrence"),
    ("T5", 0, "even_transport_recurrence"),
    ("T5", 1, "odd_transport_recurrence"),
]


@pytest.mark.parametrize(
    "suite, seed, identity",
    TRANSPORT_TABLES,
    ids=["T1", "T2", "T3", "T4", "T5-even", "T5-odd"],
)
def test_transport_tables_are_live(monkeypatch, suite, seed, identity):
    # A suite that kept an inline recurrence beside its table would pass.
    shifts = verifier._SEEDS[suite].seeds[seed].transport
    c, ci, cj = shifts[0, 0]
    monkeypatch.setitem(shifts, (0, 0), (c + 1, ci, cj))
    report = run_suite(suite, nmax=2)
    assert {f.identity for f in report.failures} == {identity}


@pytest.mark.parametrize(
    "suite, seed",
    [(suite, seed) for suite, seed, _ in TRANSPORT_TABLES],
    ids=["T1", "T2", "T3", "T4", "T5-even", "T5-odd"],
)
def test_transport_matches_the_per_cell_reference(suite, seed):
    row = verifier._SEEDS[suite]
    start, imap, table, _ = row.seeds[seed]
    side = row.nmax + 2
    levels = builtin_grammar(row.builtin).derive_levels(parse_polynomial(start), row.nmax)
    grids = [extract_coeffs(p, imap) for p in levels]
    # Sparse grids with cells beyond the box, as a mutant grammar's levels have.
    rng = random.Random(f"{suite}-{seed}")
    for _ in range(20):
        grid = {
            (rng.randrange(side + 4), rng.randrange(side + 4)): rng.randint(-9, 9)
            for _ in range(rng.randrange(12))
        }
        grid[side + 1 + rng.randrange(3), rng.randrange(side + 4)] = rng.randint(1, 9)
        grids.append(grid)
    box = set(product(range(side + 1), repeat=2))
    for prev in grids:
        moved = verifier._transport(table, prev)
        reached = {(a - di, b - dj) for a, b in prev for di, dj in table}
        for i, j in box | reached | set(moved):
            assert moved.get((i, j), 0) == reference_transport(table, prev, i, j), (prev, i, j)


def test_each_builtin_is_parsed_once_per_process(monkeypatch):
    parsed, parse = [], dsl.parse_grammar
    monkeypatch.setattr(dsl, "parse_grammar", lambda src: parsed.append(src) or parse(src))
    builtin_grammar.cache_clear()
    run_all()
    # g1..g6 and gB, each once, though golden and T5 ask again.
    assert sorted(parsed) == sorted(dsl.BUILTIN_SOURCES.values())
    assert builtin_grammar("g1") is builtin_grammar("g1")
    with pytest.raises(ValueError, match="unknown builtin grammar 'nope'"):
        builtin_grammar("nope")
    with pytest.raises(ValueError, match="unknown builtin grammar 'nope'"):
        builtin_grammar("nope")
    assert len(parsed) == 7


def test_seed_table_matches_the_suites():
    seeds = verifier._SEEDS
    assert list(seeds) == list(verifier._SUITES)
    # The liveness test above mutates every seed that holds a table.
    tables = [
        (suite, k)
        for suite, row in seeds.items()
        for k, seed in enumerate(row.seeds)
        if seed.transport is not None
    ]
    assert tables == [(suite, k) for suite, k, _ in TRANSPORT_TABLES]
    # Golden runs one check per snapshot text of the T1..T5 seeds.
    texts = [text for row in seeds.values() for seed in row.seeds for text in seed.golden]
    assert run_suite("golden").checks_run == len(texts) == 16


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
    # The note names the size the census refused, not the run's depth plus one.
    deeper = run_suite("T1", nmax=10)
    assert deeper.notes == [
        "opener-descent census checks stop at n=7: enumerating cyclically ordered"
        " partitions of [9] exceeds the cops cap"
    ]


def test_raised_cops_cap_reaches_the_census():
    report = run_suite("T1", 8, caps=Caps(cops=9))
    assert report.passed
    assert report.checks_run == 2752
    assert report.notes == []


def test_zero_cops_cap_stops_every_census_at_n_0():
    # Each census refuses the first size it asks for, [2] or [1], so no level is checked.
    cut = ": enumerating cyclically ordered partitions of [{}] exceeds the cops cap"
    t1 = run_suite("T1", 2, caps=Caps(cops=0))
    assert t1.notes == ["opener-descent census checks stop at n=0" + cut.format(2)]
    t2 = run_suite("T2", 2, caps=Caps(cops=0))
    assert t2.notes[:2] == [
        "opener-valley census checks stop at n=0" + cut.format(2),
        "valley table enumeration checks stop at n=0" + cut.format(1),
    ]
    assert t2.notes[2].startswith("informational:")
    # At nmax 0 the descent census has no level to check, so nothing is cut.
    assert run_suite("T1", 0, caps=Caps(cops=0)).notes == []


def test_the_oracles_own_cap_checks_decide_every_cut(monkeypatch):
    census, las = oracles.cop_stat_table, oracles.las_counts

    def refusing(real, kind, cap):
        def oracle(n, *args):
            if n > cap:
                raise BoundExceeded(kind, n, cap, "raised by the test")
            return real(n, *args)

        return oracle

    expected = {
        name: run_suite(name, 6, caps=Caps(cops=4, permutations=5)).to_json_obj()
        for name in ("T1", "T3")
    }
    monkeypatch.setattr(oracles, "cop_stat_table", refusing(census, "cops", 4))
    monkeypatch.setattr(oracles, "las_counts", refusing(las, "permutations", 5))
    for name, report in expected.items():
        assert run_suite(name, 6).to_json_obj() == report
    assert any("stop at n=3" in note for note in expected["T1"]["notes"])
    assert any("above the permutations cap" in note for note in expected["T3"]["notes"])


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
