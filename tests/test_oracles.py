"""List statistics, brute-force enumerators, and the count tables."""

import ast
import gc
import itertools
import json
import math
import pathlib
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gramcalc import oracles
from gramcalc.cli import main
from gramcalc.config import Caps
from gramcalc.errors import BoundExceeded
from gramcalc.oracles import (
    COPS_JSON,
    COPS_TEXT,
    DESCENTS,
    LAS,
    LEFT_PEAKS,
    RIGHT_VALLEYS,
    cop_stat_table,
    enumerate_cops,
    enumerate_matchings,
    enumerate_permutations,
    enumerate_signed,
    las_counts,
    left_peak_counts,
    u_table,
)
from gramcalc.triangles import stirling2

from reference import (
    openers,
    reference_census,
    reference_cops,
    reference_des_b,
    reference_descents,
    reference_las,
    reference_left_peaks,
    reference_listing,
    reference_matchings,
    reference_odd_smaller_count,
    reference_perm_counts,
    reference_right_valleys,
    reference_tally,
    scan,
    set_partitions,
)
from source_tree import tree, walk


# ---------------------------------------------------------------------------
# Differential tests of the fast paths against the references in
# reference.py, read straight off the definitions.

STAT_REFERENCES = {
    "descents": (DESCENTS, reference_descents),
    "left_peaks": (LEFT_PEAKS, reference_left_peaks),
    "right_valleys": (RIGHT_VALLEYS, reference_right_valleys),
    "las": (LAS, reference_las),
}


def assert_statistics_match_references(w):
    for name, (stat, reference) in STAT_REFERENCES.items():
        if w or stat is not LAS:
            assert scan(stat, w) == reference(w), (name, w)


def test_statistics_match_references_on_permutations():
    for n in range(9):
        for w in itertools.permutations(range(1, n + 1)):
            assert_statistics_match_references(w)


def test_statistics_match_references_on_small_alphabet():
    # every list over {0..3} up to length 6, so ties and a 0 entry are covered
    for length in range(7):
        for w in itertools.product(range(4), repeat=length):
            assert_statistics_match_references(w)


@given(st.lists(st.integers(min_value=-5, max_value=5), max_size=12))
def test_statistics_match_references_with_repeats_and_negatives(w):
    assert_statistics_match_references(w)


def test_enumerate_matchings_matches_reference_order():
    for n in range(7):
        assert list(enumerate_matchings(n)) == list(reference_matchings(n))


@pytest.mark.parametrize("stat", tuple(oracles._STATS))
def test_cop_stat_table_matches_cop_tally(stat):
    fn = STAT_REFERENCES[stat][1]
    for n in range(1, 9):
        tally = {}
        for cop in reference_cops(n):
            key = (len(cop), fn(openers(cop)))
            tally[key] = tally.get(key, 0) + 1
        assert cop_stat_table(n, stat) == tally


@pytest.mark.parametrize("stat", tuple(oracles._STATS))
def test_census_matches_reference_census(stat):
    for n in range(1, 9):
        assert cop_stat_table(n, stat) == reference_census(n, oracles._STATS[stat]), n


@pytest.mark.parametrize("name", ["descents", "left_peaks", "right_valleys", "las"])
def test_tally_matches_reference_perm_counts(name):
    stat = STAT_REFERENCES[name][0]
    for n in range(10):
        tally = oracles._tally(stat, (), tuple(range(1, n + 1)))
        assert dict(tally) == reference_perm_counts(n, stat), n


def test_minima_walk_matches_set_partitions():
    for n in range(1, 10):
        by_minima = Counter(tuple(block[0] for block in blocks) for blocks in set_partitions(n))
        assert dict(oracles._minima_walk(n)) == by_minima, n


def clear_tally_caches():
    for cached in (oracles._subset_memo, oracles._tally):
        cached.cache_clear()


def test_tally_memo_ignores_request_order():
    # A large set first leaves every subset in the shared memo, which the
    # smaller requests then read back; the census at n = 8 goes first too.
    clear_tally_caches()
    for n in (9, *range(9)):
        assert left_peak_counts(n) == reference_perm_counts(n, LEFT_PEAKS), n
    for n in (8, *range(2, 8)):
        for name, stat in oracles._STATS.items():
            assert cop_stat_table(n, name) == reference_census(n, stat), n


@pytest.mark.parametrize("name", ["DESCENTS", "LEFT_PEAKS", "RIGHT_VALLEYS", "LAS"])
@pytest.mark.parametrize("head", [(), (1,), (4, 2)])
def test_tally_of_values_with_gaps_matches_reference(name, head):
    stat = getattr(oracles, name)
    clear_tally_caches()
    for values in ((3, 5, 8, 9), (9, 3), (6,), (5, 9, 3, 8, 10, 7)):
        assert dict(oracles._tally(stat, head, values)) == reference_tally(stat, head, values)


@pytest.mark.parametrize("values", [(2, 2), (1, 3, 1), (0, 1), (-1,), (1, 2, -2)])
def test_tally_refuses_repeated_or_non_positive_values(values):
    with pytest.raises(ValueError, match="distinct positive"):
        oracles._tally(oracles.LAS, (), values)


def test_rows_beyond_the_default_cap():
    # Rows 10 and 11 fill the memo deeper than any default-cap call; the
    # expected counts come from the per-request layered walk.
    caps = Caps(permutations=11)
    clear_tally_caches()
    rows = {n: (left_peak_counts(n, caps), las_counts(n, caps)) for n in (11, 10)}
    assert rows[10] == (
        {0: 1, 1: 14757, 2: 540242, 3: 1949762, 4: 1073517, 5: 50521},
        {1: 1, 2: 511, 3: 14246, 4: 114266, 5: 425976, 6: 878856, 7: 1070906,
         8: 770246, 9: 303271, 10: 50521},
    )
    assert rows[11] == (
        {0: 1, 1: 44281, 2: 2819266, 3: 16889786, 4: 17460701, 5: 2702765},
        {1: 1, 2: 1023, 3: 43258, 4: 475398, 5: 2343868, 6: 6384708, 7: 10505078,
         8: 10748298, 9: 6712403, 10: 2348973, 11: 353792},
    )
    for n, row in rows.items():
        for counts in row:
            assert sum(counts.values()) == math.factorial(n), n


def test_tally_depth_does_not_grow_with_the_set():
    # The least recursion limit under which a fresh memo fills for one
    # value must do for eleven; a fill that recursed once per value would
    # need ten more frames.
    caps = Caps(permutations=11)

    def fills(n, limit):
        clear_tally_caches()
        old = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(limit)
            left_peak_counts(n, caps)
            return True
        except RecursionError:
            return False
        finally:
            sys.setrecursionlimit(old)

    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    least = next(limit for limit in itertools.count(depth) if fills(1, limit))
    assert fills(11, least)


def test_statistics_on_reference_list():
    w = (6, 4, 7, 1, 3, 2, 5, 8)
    assert scan(DESCENTS, w) == 3
    assert scan(LEFT_PEAKS, w) == 3
    assert scan(RIGHT_VALLEYS, w) == 3
    assert scan(LAS, w) == 7


def test_statistic_small_cases():
    assert scan(DESCENTS, ()) == 0
    assert scan(LEFT_PEAKS, (1,)) == 0
    assert scan(RIGHT_VALLEYS, (1,)) == 0
    assert scan(LAS, (1,)) == 1
    assert scan(LAS, (1, 2)) == 1
    assert scan(LAS, (2, 1)) == 2
    assert scan(LAS, (2, 1, 3)) == 3
    assert scan(LAS, (1, 2, 3)) == 1


def test_leading_entry_can_be_left_peak():
    # the 0 sentinel makes a large first entry a peak but never a valley
    assert scan(LEFT_PEAKS, (3, 1, 2)) == 1
    assert scan(RIGHT_VALLEYS, (3, 1, 2)) == 1


def test_final_entry_can_be_right_valley():
    # the +infinity sentinel past the end
    assert scan(RIGHT_VALLEYS, (2, 1)) == 1
    assert scan(LEFT_PEAKS, (2, 1)) == 1


def test_left_peaks_equal_right_valleys_exhaustively():
    for n in range(7):
        for w in itertools.permutations(range(1, n + 1)):
            assert scan(LEFT_PEAKS, w) == scan(RIGHT_VALLEYS, w)


def test_las_brute_force_cross_check():
    def alternates(seq):
        for i in range(len(seq) - 1):
            if i % 2 == 0 and not seq[i] > seq[i + 1]:
                return False
            if i % 2 == 1 and not seq[i] < seq[i + 1]:
                return False
        return True

    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            best = max(
                len(sub)
                for r in range(1, n + 1)
                for sub in itertools.combinations(w, r)
                if alternates(sub)
            )
            assert scan(LAS, w) == best


def test_openers():
    assert openers(((1, 2), (4,), (3, 5))) == (1, 4, 3)
    assert openers(((1,),)) == (1,)


def test_des_b():
    assert reference_des_b((1, 2, 3)) == 0
    assert reference_des_b((-1,)) == 1
    assert reference_des_b((-2, 1)) == 1
    assert reference_des_b((2, -1, -3)) == 2


def test_odd_smaller_count():
    assert reference_odd_smaller_count(((1, 4), (2, 3))) == 1
    assert reference_odd_smaller_count(((1, 2), (3, 4))) == 2
    assert reference_odd_smaller_count(()) == 0


def test_enumerate_permutations():
    perms = list(enumerate_permutations(3))
    assert perms[0] == (1, 2, 3)
    assert perms == sorted(perms)
    assert len(perms) == 6


def test_enumerate_signed():
    signed = list(enumerate_signed(2))
    assert signed[:4] == [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    assert len(signed) == len(set(signed)) == 8


def test_enumerate_matchings():
    assert list(enumerate_matchings(2)) == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]
    assert len(list(enumerate_matchings(3))) == 15
    for matching in enumerate_matchings(3):
        flat = [v for pair in matching for v in pair]
        assert sorted(flat) == list(range(1, 7))
        assert all(a < b for a, b in matching)


def listing(*args):
    """The whole text of ``enumerate_cops(*args)``: its pieces joined."""
    return "".join(enumerate_cops(*args))


def test_enumerate_cops_golden_order():
    assert listing(3) == "(1,2,3)\n(1)(2,3)\n(1,2)(3)\n(1,3)(2)\n(1)(2)(3)\n(1)(3)(2)"
    assert listing(2, Caps(), COPS_JSON) == (
        "    [\n      [\n        1,\n        2\n      ]\n    ],\n"
        "    [\n      [\n        1\n      ],\n      [\n        2\n      ]\n    ]"
    )


@pytest.mark.parametrize("form", ["text", "json"])
def test_enumerate_cops_matches_reference_order(form):
    pieces = {"text": COPS_TEXT, "json": COPS_JSON}[form]
    for n in range(1, 9):
        assert listing(n, Caps(), pieces) == reference_listing(reference_cops(n), form), n


def parse_cop_line(line):
    """The block tuples of one text line of the listing, such as "(1,3)(2)"."""
    return tuple(tuple(map(int, block.split(","))) for block in line[1:-1].split(")("))


def test_cop_canonical_form():
    for cop in map(parse_cop_line, listing(5).split("\n")):
        assert cop[0][0] == 1
        for block in cop:
            assert list(block) == sorted(block)
        flat = sorted(v for block in cop for v in block)
        assert flat == list(range(1, 6))


def test_cop_census():
    # k-block count is stirling2(n, k) * (k-1)!
    for n in range(1, 9):
        by_blocks = Counter(map(len, reference_cops(n)))
        for k in range(1, n + 1):
            assert by_blocks.get(k, 0) == stirling2(n, k) * math.factorial(k - 1)
    assert len(listing(8).split("\n")) == 94586


def test_cop_listing_of_nine_has_every_cop_once():
    # (k-1)! S(9, k) cops have k blocks, S from its own recurrence.  The
    # lines of each block count are read as one run, one run at a time, so
    # only the largest run (332,640 lines) is held as separate strings.
    stirling = {(0, 0): 1}
    for n in range(1, 10):
        for k in range(1, n + 1):
            stirling[n, k] = k * stirling.get((n - 1, k), 0) + stirling.get((n - 1, k - 1), 0)
    text = listing(9, Caps(cops=9))
    lines = (match.group() for match in re.finditer(".+", text))
    runs = [(k, len(set(run))) for k, run in itertools.groupby(lines, lambda line: line.count("("))]
    assert runs == [(k, math.factorial(k - 1) * stirling[9, k]) for k in range(1, 10)]
    assert sum(count for _, count in runs) == text.count("\n") + 1 == 1091670


def test_cop_stat_tables_small():
    assert cop_stat_table(3, "descents") == {(1, 0): 1, (2, 0): 3, (3, 0): 1, (3, 1): 1}
    assert cop_stat_table(3, "right_valleys") == {
        (1, 0): 1,
        (2, 0): 3,
        (3, 0): 1,
        (3, 1): 1,
    }
    assert cop_stat_table(3, "las") == {(1, 1): 1, (2, 1): 3, (3, 1): 1, (3, 2): 1}


def test_tables_return_the_callers_own_dict():
    # A caller that edits its table must not change what the next call sees.
    calls = [
        lambda: cop_stat_table(6, "las"),
        lambda: left_peak_counts(6),
        lambda: las_counts(6),
    ]
    for call in calls:
        first = call()
        expected = dict(first)
        first.clear()
        first[99] = 1
        assert call() == expected
    assert listing(6) == listing(6) == reference_listing(reference_cops(6), "text")


def test_enumerate_cops_refuses_when_called():
    # The cap is checked before the generator is returned, so the refusal
    # needs no iteration and comes before any piece is made.
    with pytest.raises(BoundExceeded):
        enumerate_cops(9)


@pytest.mark.parametrize("form", [COPS_TEXT, COPS_JSON], ids=["text", "json"])
def test_finished_listing_leaves_no_garbage(form):
    # A listing read to its end frees its memo and block texts at once,
    # not at the cyclic collector's next run.
    gc.disable()
    try:
        gc.collect()
        for _ in enumerate_cops(6, Caps(), form):
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cop_stat_table_unknown():
    with pytest.raises(ValueError):
        cop_stat_table(3, "peaks")


def test_caps_guard_enumeration():
    with pytest.raises(BoundExceeded):
        list(enumerate_permutations(10))
    with pytest.raises(BoundExceeded):
        list(enumerate_cops(9))
    with pytest.raises(BoundExceeded):
        list(enumerate_signed(6))
    with pytest.raises(BoundExceeded):
        list(enumerate_matchings(8))
    with pytest.raises(BoundExceeded):
        cop_stat_table(9, "las")


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_cops(0),
        lambda: enumerate_cops(-1),
        lambda: cop_stat_table(0, "las"),
        lambda: cop_stat_table(-1, "descents"),
        lambda: enumerate_permutations(-2),
        lambda: enumerate_signed(-1),
        lambda: enumerate_matchings(-1),
        lambda: left_peak_counts(-1),
        lambda: las_counts(-1),
        lambda: enumerate_cops(2.5),
        lambda: cop_stat_table(2.5, "las"),
        lambda: enumerate_permutations(2.5),
        lambda: enumerate_matchings(True),
        lambda: u_table(2.5),
    ],
    ids=[
        "enumerate_cops-0",
        "enumerate_cops-neg",
        "cop_stat_table-0",
        "cop_stat_table-neg",
        "enumerate_permutations",
        "enumerate_signed",
        "enumerate_matchings",
        "left_peak_counts",
        "las_counts",
        "enumerate_cops-float",
        "cop_stat_table-float",
        "enumerate_permutations-float",
        "enumerate_matchings-bool",
        "u_table-float",
    ],
)
def test_bad_sizes_raise_value_error(call):
    with pytest.raises(ValueError, match="size must be (nonnegative|at least 1|an int)"):
        call()


def test_size_zero_is_valid_below_cops():
    assert list(enumerate_permutations(0)) == [()]
    assert list(enumerate_signed(0)) == [()]
    assert list(enumerate_matchings(0)) == [()]
    assert left_peak_counts(0) == {0: 1}


def test_raised_cap_allows_more():
    count = sum(1 for _ in enumerate_matchings(8, Caps(matchings=8)))
    assert count == math.factorial(16) // (2**8 * math.factorial(8))


def test_u_table_small():
    assert u_table(1) == {(1, 1, 0): 1}
    assert u_table(3) == {
        (1, 1, 0): 1,
        (2, 1, 0): 1,
        (2, 2, 0): 1,
        (3, 1, 0): 1,
        (3, 2, 0): 3,
        (3, 3, 0): 1,
        (3, 3, 1): 1,
    }
    with pytest.raises(ValueError):
        u_table(0)


def test_u_table_matches_cop_valley_census():
    u = u_table(7)
    census = {}
    for n in range(1, 8):
        for (k, l), count in cop_stat_table(n, "right_valleys").items():
            census[(n, k, l)] = count
    assert u == census


def test_u_table_product_form():
    # u[n, k, l] = stirling2(n, k) * (permutations of [k-1] with l left peaks);
    # note the k-1, not k: using left_peak_counts(k) instead already fails at
    # u[3, 3, 1] = 1 versus stirling2(3, 3) * left_peak_counts(3)[1] = 5
    u = u_table(6)
    for (n, k, l), value in u.items():
        assert value == stirling2(n, k) * left_peak_counts(k - 1).get(l, 0)
    assert u[(3, 3, 1)] == 1
    assert stirling2(3, 3) * left_peak_counts(3)[1] == 5


def test_peak_and_las_distributions():
    assert left_peak_counts(0) == {0: 1}
    assert left_peak_counts(3) == {0: 1, 1: 5}
    assert las_counts(0) == {0: 1}
    assert las_counts(3) == {1: 1, 2: 3, 3: 2}
    for n in range(1, 8):
        assert sum(left_peak_counts(n).values()) == math.factorial(n)
        assert sum(las_counts(n).values()) == math.factorial(n)


def test_distribution_tables(capsys):
    rows = {}
    for name in ("left_peak", "las"):
        assert main(["triangle", name, "--nmax", "3", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        rows[name] = [(row["k_start"], row["values"]) for row in table["rows"]]
    assert rows["left_peak"] == [(0, [1]), (0, [1]), (0, [1, 1]), (0, [1, 5])]
    assert rows["las"] == [(0, [1]), (1, [1]), (1, [1, 1]), (1, [1, 3, 2])]


def package_imports(path: pathlib.Path) -> set[str]:
    """The gramcalc modules that the source file at path imports."""
    found = set()
    for node, _, _ in walk(tree(path)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "gramcalc":
                    continue
                parts = parts[1:]
            found.update(parts[:1] if parts and parts[0] else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("gramcalc.")
            )
    return found


def test_oracles_import_no_identity_layer():
    # Oracles stay independent of the identities they check, so they may
    # not import the triangles, the grammar or the verifier, nor the
    # polynomial layer that ``cops`` and ``stats`` never run.
    imported = package_imports(pathlib.Path(oracles.__file__))
    assert imported == {"config", "errors"}
