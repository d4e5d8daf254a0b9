"""Identity suites cross-checking derivative expansions against
triangles and enumeration oracles.

Each suite iterates one grammar's derivative to a depth nmax, reads the
coefficient arrays off the expansions, and checks every claimed identity
cell by cell over a box slightly larger than the expansion's support, so
vanishing outside the support is verified rather than assumed.  Results
come back as a CheckReport; nothing is printed here.

Every suite is a plain function that writes its identities inline and
leaves the shared control flow to one run object, ``_Suite``.  The one
exception is the transport recurrence from level n-1 to level n: each is
a fixed table of shifts with coefficients affine in (i, j), evaluated by
``_transport`` once per level, which pushes every stored cell of level
n-1 through the shifts into a dict of the cells they reach; the suite
then only compares cells.  The run object checks the depth against the
verify cap, picks the builtin or the override grammar and notes an
override, derives the coefficient grids, loops over levels while
checking that each grid stays inside the box, and counts checks.  A
grid, like a transported level, is a plain dict of the cells it stores,
so a suite reads every cell with ``.get((i, j), 0)``.  The run object is
also the one door to the oracles, and it never reads a cap itself: each
oracle checks its own cap, and the run object turns the oracle's
``BoundExceeded`` into a cut.  The opener censuses run level by level
until the census first refuses a size, which ends them with a note
naming the refusing cap.  A refused permutation tally skips its product
and only raises one cut flag; each suite flushes it with its own note
where its product checks end.  Informational match ratios are built by
one function over collected (where, expected, actual) cells.

Suite names follow the short labels used by the command line tool: T1
through T6 for the six grammar studies, plus "golden" for byte-exact
snapshots of small expansions.  All seven are bodies in one ``_SUITES``
table: each takes the run object and returns its report.  ``run_suite``
is the one door to a suite and the one place that builds a run object,
from (nmax, grammar, caps); golden, whose row names no builtin, refuses
a grammar override there.  What each suite derives is data, in one
``_SEEDS`` table beside ``_SUITES``: the builtin grammar, the default
nmax, and for each seed its start, index map, transport table and golden
snapshot texts.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from typing import NamedTuple

from . import oracles
from .config import Caps
from .dsl import builtin_grammar, parse_polynomial
from .errors import BoundExceeded, PatternViolation, _exact
from .grammar import Grammar
from .indexmap import IndexMap, extract_coeffs
from .poly import Polynomial, mono_degree
from .triangles import (
    binomial,
    eulerian,
    factorial,
    matching_count,
    stirling2,
    type_b_eulerian,
    whitney,
)

class Failure(NamedTuple):
    """One identity cell whose two sides disagreed."""

    identity: str
    indices: tuple
    expected: str
    actual: str

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "expected": self.expected,
            "actual": self.actual,
        }


class CheckReport:
    """One suite's result, filled in by its run: checks counted, failures and notes."""

    def __init__(self, suite: str, nmax: int) -> None:
        self.suite = suite
        self.nmax = nmax
        self.checks_run = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def first_failure(self) -> Failure | None:
        return self.failures[0] if self.failures else None

    def summary(self) -> str:
        return (
            f"{self.suite}: {self.status}"
            f" ({self.checks_run} checks, {len(self.failures)} failures, nmax={self.nmax})"
        )

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "nmax": self.nmax,
            "status": self.status,
            "checks_run": self.checks_run,
            "failures": [f.to_json_obj() for f in self.failures],
            "notes": list(self.notes),
        }


class _Suite:
    """One suite run: its depth, grammar, seeds and report, and the loops all suites share.

    ``run_suite`` alone builds one and hands it to the suite's body.  The
    suite's row of ``_SEEDS`` gives its builtin grammar, default depth
    and seeds.  ``grammar`` overrides the builtin; the override is noted,
    with the row's ``scope`` appended to the note.  A row with no builtin
    (golden, which derives every builtin) refuses an override before any
    other argument is checked.  Every census comes from ``cop_tables`` and
    every permutation tally from ``oracle_product``; the oracles' own cap
    checks decide where both stop.
    """

    def __init__(self, name: str, nmax: int | None, caps: Caps, grammar: Grammar | None):
        row = _SEEDS[name]
        if grammar is not None and row.builtin is None:
            raise ValueError(f"the {name} suite always uses the builtin grammars")
        nmax = row.nmax if nmax is None else _exact(nmax, "nmax", 0)
        caps.check("verify", nmax)
        self.nmax = nmax
        self.side = nmax + 2
        self.caps = caps
        self.report = CheckReport(suite=name, nmax=nmax)
        self.cut = False
        if grammar is not None:
            self.note(f"grammar override: {grammar.to_dsl()}{row.scope}")
        elif row.builtin is not None:
            grammar = builtin_grammar(row.builtin)
        self.grammar = grammar
        self.seeds = row.seeds

    def check(self, identity: str, indices: tuple, expected, actual) -> None:
        """Count one check; an expected value of None means a cap skipped it."""
        if expected is None:
            return
        self.report.checks_run += 1
        if expected != actual:
            self.report.failures.append(
                Failure(identity, tuple(indices), str(expected), str(actual))
            )

    def note(self, text: str) -> None:
        self.report.notes.append(text)

    def derive(self, start: str, grammar: Grammar | None = None) -> list[Polynomial]:
        grammar = self.grammar if grammar is None else grammar
        return grammar.derive_levels(parse_polynomial(start), self.nmax)

    def grids(self, grammar: Grammar | None = None) -> list[list[dict]]:
        """Each seed's coefficient arrays of levels 0..nmax, as ``extract_coeffs`` dicts.

        A dict stores only nonzero cells, so a suite reads a cell with
        ``.get((i, j), 0)``.
        """
        derived = [(seed.imap, self.derive(seed.start, grammar)) for seed in self.seeds]
        return [[extract_coeffs(p, imap) for p in levels] for imap, levels in derived]

    def box(self, grid: dict, n: int) -> None:
        stray = sorted(key for key in grid if key[0] > self.side or key[1] > self.side)
        self.check("indices_within_box", (n,), [], stray)

    def levels(self, *grids: list[dict]):
        """Levels 1..nmax, each after checking that every grid stays in the box."""
        for n in range(1, self.nmax + 1):
            for grid in grids:
                self.box(grid[n], n)
            yield n

    def cells(self):
        """Every (i, j) of the box, row by row."""
        return product(range(self.side + 1), repeat=2)

    def cop_tables(self, what: str, stat: str, offset: int):
        """(n, census of [n + offset] by stat) for n = 1 .. nmax + 1 - offset.

        Stops at the first size the census refuses, noting the cut.
        """
        for n in range(1, self.nmax + 2 - offset):
            try:
                table = oracles.cop_stat_table(n + offset, stat, self.caps)
            except BoundExceeded as exc:
                self.note(
                    f"{what} checks stop at n={n - 1}: enumerating cyclically ordered"
                    f" partitions of [{exc.n}] exceeds the {exc.kind} cap"
                )
                return
            yield n, table

    def census(self, what: str, identity: str, stat: str, grids: list, key) -> None:
        """Check grid cells against the census of [n + 1] by opener statistic.

        ``key(i, j)`` gives the (blocks, value) cell of the census, or None
        for a grid cell that the identity leaves out.
        """
        for n, table in self.cop_tables(what, stat, 1):
            for i, j in self.cells():
                cell = key(i, j)
                if cell is not None:
                    self.check(identity, (n, i, j), table.get(cell, 0), grids[n].get((i, j), 0))

    def oracle_product(self, s: int, oracle, size: int, key: int) -> int | None:
        """s times oracle(size)[key], or None if the oracle refuses size, flagged as a cut."""
        if not s:
            return 0
        try:
            return s * oracle(size, self.caps).get(key, 0)
        except BoundExceeded:
            self.cut = True
            return None

    def note_cut(self, text: str) -> None:
        """Note text if an oracle product was cut since the last such note."""
        if self.cut:
            self.note(text)
            self.cut = False


def _match_note(cells: list, text: str, mismatch: str) -> str:
    """text with the match ratio of (where, expected, actual) cells, then the first mismatch."""
    misses = [cell for cell in cells if cell[1] != cell[2]]
    text = text.format(f"{len(cells) - len(misses)}/{len(cells)}")
    return text + mismatch.format(*misses[0]) if misses else text


def _cop_count(nn: int) -> int:
    """Number of cyclically ordered partitions of an nn element set."""
    return sum(factorial(m - 1) * stirling2(nn, m) for m in range(1, nn + 1))


def _transport(table: dict, prev: dict) -> dict:
    """The cells a seed's transport table gives from the previous level's cells.

    Each stored cell (a, b) of prev, stray cells beyond the box included,
    sends (c + ci*i + cj*j) times its value to (i, j) = (a - di, b - dj)
    through each shift (di, dj).  Cells that nothing reaches are absent.
    """
    out: dict[tuple[int, int], int] = {}
    for (di, dj), (c, ci, cj) in table.items():
        for (a, b), v in prev.items():
            i, j = a - di, b - dj
            out[i, j] = out.get((i, j), 0) + (c + ci * i + cj * j) * v
    return out


def suite_t1(run: _Suite) -> CheckReport:
    """Grammar x -> x + x*y, y -> y + x*y, expanded from x.

    Checks the coefficient transport recurrence, the Stirling times
    Eulerian closed form, the census of cyclically ordered partitions by
    opener descents, and the row sum against the partition count.
    """
    (grids,) = run.grids()
    for n in run.levels(grids):
        cur, moved = grids[n], _transport(run.seeds[0].transport, grids[n - 1])
        for i, j in run.cells():
            actual = cur.get((i, j), 0)
            run.check("transport_recurrence", (n, i, j), moved.get((i, j), 0), actual)
            if i >= 1 and j >= 1:
                s = stirling2(n + 1, i + j)
                run.check(
                    "stirling_eulerian_product",
                    (n, i, j),
                    s * eulerian(i + j - 1, i) if s else 0,
                    actual,
                )
        run.check("cop_count_row_sum", (n,), _cop_count(n + 1), sum(cur.values()))
    run.census(
        "opener-descent census",
        "opener_descent_census",
        "descents",
        grids,
        lambda i, j: (i + j, i - 1),
    )
    return run.report


def suite_t2(run: _Suite) -> CheckReport:
    """Grammar x -> x + x*y, y -> y + x^2, expanded from x.

    Only odd powers of x appear.  Checks the transport recurrence, the
    Stirling times left-peak closed form, agreement with the valley
    recurrence table and with valley counts over partition openers, and
    the row sum.  The valley table itself is validated both against its
    product form and against the opener census by right valleys.
    """
    (grids,) = run.grids()
    u = oracles.u_table(run.nmax + 1)
    for n in run.levels(grids):
        cur, moved = grids[n], _transport(run.seeds[0].transport, grids[n - 1])
        for i, j in run.cells():
            actual = cur.get((i, j), 0)
            if i % 2 == 0:
                run.check("even_x_power_vanishes", (n, i, j), 0, actual)
            run.check("transport_recurrence", (n, i, j), moved.get((i, j), 0), actual)
            if i % 2 == 1:
                run.check(
                    "stirling_left_peak_product",
                    (n, i, j),
                    run.oracle_product(
                        stirling2(n + 1, i + j), oracles.left_peak_counts, i + j - 1, (i - 1) // 2
                    ),
                    actual,
                )
                run.check(
                    "valley_table_agreement",
                    (n, i, j),
                    u.get((n + 1, i + j, (i - 1) // 2), 0),
                    actual,
                )
        run.check("cop_count_row_sum", (n,), _cop_count(n + 1), sum(cur.values()))
    run.census(
        "opener-valley census",
        "opener_valley_census",
        "right_valleys",
        grids,
        lambda i, j: (i + j, (i - 1) // 2) if i % 2 else None,
    )
    # The valley table feeding the agreement check, validated on its own.
    for n in range(1, run.nmax + 2):
        for k in range(1, n + 1):
            for l in range((k - 1) // 2 + 1):
                run.check(
                    "valley_table_product",
                    (n, k, l),
                    run.oracle_product(stirling2(n, k), oracles.left_peak_counts, k - 1, l),
                    u.get((n, k, l), 0),
                )
    run.note_cut("left-peak product checks above the permutations cap were skipped")
    for n, table in run.cop_tables("valley table enumeration", "right_valleys", 0):
        for k in range(1, n + 1):
            for l in range((k - 1) // 2 + 1):
                run.check(
                    "valley_table_census", (n, k, l), table.get((k, l), 0), u.get((n, k, l), 0)
                )
    # The same product with the left-peak row taken one size up fails;
    # recorded here so the shift in the asserted form stays visible.
    shifted = []
    for (n, k, l), value in sorted(u.items()):
        product_k = run.oracle_product(stirling2(n, k), oracles.left_peak_counts, k, l)
        if product_k is not None:
            shifted.append(((n, k, l), value, product_k))
    run.note(
        _match_note(
            shifted,
            "informational: with the left-peak row taken at k instead of k-1 the"
            " valley product matches {} nonzero cells",
            "; first mismatch at (n,k,l)={}: table={}, shifted product={}",
        )
    )
    return run.report


def suite_t3(run: _Suite) -> CheckReport:
    """Grammar w -> w + w*x, x -> x + x*y, y -> y + x^2, expanded from w.

    Every term carries a single factor of w; indices are read off the x
    and y exponents.  Checks the constant term, the four-term transport
    recurrence, the Stirling times alternating-length closed form, the
    census of partition openers by longest alternating subsequence, and
    the row sum.
    """
    (grids,) = run.grids()
    for n in run.levels(grids):
        cur, moved = grids[n], _transport(run.seeds[0].transport, grids[n - 1])
        run.check("constant_term_one", (n,), 1, cur.get((0, 0), 0))
        for j in range(1, run.side + 1):
            run.check("pure_y_vanishes", (n, 0, j), 0, cur.get((0, j), 0))
        for i, j in run.cells():
            actual = cur.get((i, j), 0)
            run.check("transport_recurrence", (n, i, j), moved.get((i, j), 0), actual)
            run.check(
                "stirling_las_product",
                (n, i, j),
                run.oracle_product(stirling2(n + 1, i + j + 1), oracles.las_counts, i + j, i),
                actual,
            )
        run.check("cop_count_row_sum", (n,), _cop_count(n + 1), sum(cur.values()))
    run.note_cut("alternating-length product checks above the permutations cap were skipped")
    run.census(
        "opener alternating-length census",
        "opener_las_census",
        "las",
        grids,
        lambda i, j: (i + j + 1, i) if i or j else None,
    )
    return run.report


def suite_t4(run: _Suite) -> CheckReport:
    """Grammar x -> x + x^2 + x*y, y -> y + y^2 + x*y, expanded from x.

    Checks the transport recurrence, the factorial times Stirling times
    binomial closed form, and the row sum against the count of ordered
    set partitions with a marked prefix.
    """
    (grids,) = run.grids()
    for n in run.levels(grids):
        cur, moved = grids[n], _transport(run.seeds[0].transport, grids[n - 1])
        for i, j in run.cells():
            actual = cur.get((i, j), 0)
            run.check("transport_recurrence", (n, i, j), moved.get((i, j), 0), actual)
            s = stirling2(n + 1, i + j)
            run.check(
                "factorial_stirling_binomial_product",
                (n, i, j),
                factorial(i + j - 1) * s * binomial(i + j - 1, j) if s else 0,
                actual,
            )
        run.check(
            "doubled_cop_row_sum",
            (n,),
            sum(2**k * factorial(k) * stirling2(n + 1, k + 1) for k in range(n + 1)),
            sum(cur.values()),
        )
    return run.report


def suite_t5(run: _Suite) -> CheckReport:
    """Grammars x -> x + x*y^2, y -> y + x^2*y and x -> x*y^2, y -> x^2*y.

    The first is expanded from both x and x*y, with indices read off the
    exponent patterns x^(2i+1) y^(2j) and x^(2i+1) y^(2j+1).  Checks the
    two transport recurrences and the closed forms built from the
    Whitney, perfect matching, Stirling, and signed descent triangles.
    The second grammar collapses onto single diagonals given by the
    matching and signed descent triangles, checked over the full box.
    """
    e, f = run.grids()
    e_boundary, f_boundary = [], []
    for n in run.levels(e, f):
        even = _transport(run.seeds[0].transport, e[n - 1])
        odd = _transport(run.seeds[1].transport, f[n - 1])
        for i, j in run.cells():
            ea, fa = e[n].get((i, j), 0), f[n].get((i, j), 0)
            run.check("even_transport_recurrence", (n, i, j), even.get((i, j), 0), ea)
            run.check("odd_transport_recurrence", (n, i, j), odd.get((i, j), 0), fa)
            w = whitney(2, n, i + j)
            e_expected = w * matching_count(i + j, j) if w else 0
            s = stirling2(n + 1, i + j + 1)
            f_expected = 2 ** (n - i - j) * s * type_b_eulerian(i + j, j) if s else 0
            if i >= 1 and j >= 1:
                run.check("whitney_matching_product", (n, i, j), e_expected, ea)
                run.check("scaled_stirling_signed_product", (n, i, j), f_expected, fa)
            else:
                e_boundary.append(((n, i, j), e_expected, ea))
                f_boundary.append(((n, i, j), f_expected, fa))
    for cells, label in (
        (e_boundary, "the Whitney times matching product"),
        (f_boundary, "the scaled Stirling times signed descent product"),
    ):
        text = (
            f"informational: {label} also matches at {{}} boundary cells"
            " (i=0 or j=0), outside its asserted range"
        )
        run.note(_match_note(cells, text, "; first mismatch at {}: expected {}, got {}"))
    px, pxy = run.grids(builtin_grammar("gB"))
    for n in run.levels(px, pxy):
        for i, j in run.cells():
            run.check(
                "matching_diagonal_pattern",
                (n, i, j),
                matching_count(n, j) if i + j == n else 0,
                px[n].get((i, j), 0),
            )
            run.check(
                "signed_diagonal_pattern",
                (n, i, j),
                type_b_eulerian(n, j) if i + j == n else 0,
                pxy[n].get((i, j), 0),
            )
    return run.report


def suite_t6(run: _Suite) -> CheckReport:
    """Grammar x -> x*(y+z), y -> y*(z+x), z -> z*(x+y), expanded from x.

    Expansions stay homogeneous of degree n+1, so the z exponent is
    eliminated and indices are read off x and y.  Both closing slices of
    the box agree with an Eulerian row, and the x-linear slice agrees
    with the next Eulerian row.
    """
    levels = run.derive(run.seeds[0].start)
    for n in range(1, run.nmax + 1):
        p = levels[n]
        degrees = sorted({mono_degree(m) for m in p.terms()})
        run.check("homogeneous_degree", (n,), [n + 1], degrees)
        if degrees != [n + 1]:
            continue
        imap = IndexMap({"x": (0, 1, 0), "y": (0, 0, 1), "z": (n + 1, -1, -1)})
        try:
            cur = extract_coeffs(p, imap)
        except PatternViolation as exc:
            run.check("index_pattern", (n,), "all monomials fit x^i y^j z^(n+1-i-j)", str(exc))
            continue
        run.box(cur, n)
        for i in range(run.side + 1):
            run.check("pure_z_slice_eulerian", (n, i), eulerian(n, i), cur.get((i, 0), 0))
            no_z = cur.get((i, n + 1 - i), 0)
            run.check("no_z_slice_eulerian", (n, i), eulerian(n, i), no_z)
        for j in range(run.side + 1):
            run.check("x_linear_slice_eulerian", (n, j), eulerian(n + 1, j + 1), cur.get((1, j), 0))
    return run.report


def suite_golden(run: _Suite) -> CheckReport:
    """Byte-exact snapshots of small expansions of the builtin grammars."""
    golden = [(row.builtin, seed) for row in _SEEDS.values() for seed in row.seeds if seed.golden]
    for name, seed in golden:
        levels = run.derive(seed.start, builtin_grammar(name))
        for n, expected in enumerate(seed.golden[: run.nmax], start=1):
            run.check("expansion_text", (name, seed.start, n), expected, levels[n].compact())
    return run.report


# A seed is a start that a suite derives its builtin from: the index map
# that reads each level's (i, j) array, the transport table from level n-1
# to level n, and the texts of levels 1, 2, 3 that golden checks byte for
# byte.  In a transport table, cell (i, j) of level n is the sum, over the
# shifts (di, dj), of (c + ci*i + cj*j) times cell (i + di, j + dj) of
# level n - 1: the paper's recurrences, fixed data that an override grammar
# never changes, so a mutated grammar fails them.  T6's map depends on the
# level, so its seed has neither map nor table; golden derives the T1..T5
# seeds and has none of its own.
_Seed = namedtuple("_Seed", "start imap transport golden", defaults=(None, None, ()))
_Row = namedtuple("_Row", "builtin nmax seeds scope", defaults=("",))

_SEEDS = {
    "T1": _Row("g1", 8, [_Seed("x", IndexMap.identity(),
        {(0, 0): (0, 1, 1), (0, -1): (0, 1, 0), (-1, 0): (0, 0, 1)}, (
        "x + xy",
        "x + 3xy + xy^2 + x^2y",
        "x + 7xy + 6xy^2 + xy^3 + 6x^2y + 4x^2y^2 + x^3y"))]),
    "T2": _Row("g2", 8, [_Seed("x", IndexMap.identity(),
        {(0, 0): (0, 1, 1), (0, -1): (0, 1, 0), (-2, 1): (1, 0, 1)}, (
        "x + xy",
        "x + 3xy + xy^2 + x^3",
        "x + 7xy + 6xy^2 + xy^3 + 6x^3 + 5x^3y"))]),
    "T3": _Row("g3", 8, [_Seed("w", IndexMap.identity(fixed={"w": 1}),
        {(0, 0): (1, 1, 1), (-1, 0): (1, 0, 0), (0, -1): (0, 1, 0), (-2, 1): (1, 0, 1)}, (
        "w + wx",
        "w + 3wx + wxy + wx^2",
        "w + 7wx + 6wxy + wxy^2 + 6wx^2 + 3wx^2y + 2wx^3"))]),
    "T4": _Row("g4", 8, [_Seed("x", IndexMap.identity(),
        {(0, 0): (0, 1, 1), (-1, 0): (-1, 1, 1), (0, -1): (-1, 1, 1)}, (
        "x + xy + x^2",
        "x + 3xy + 2xy^2 + 3x^2 + 4x^2y + 2x^3",
        "x + 7xy + 12xy^2 + 6xy^3 + 7x^2 + 24x^2y + 18x^2y^2 + 12x^3 + 18x^3y + 6x^4"))]),
    "T5": _Row("g5", 7, [
        _Seed("x", IndexMap({"x": (1, 2, 0), "y": (0, 0, 2)}),
            {(0, 0): (1, 2, 2), (0, -1): (1, 2, 0), (-1, 0): (0, 0, 2)}, (
            "x + xy^2",
            "x + 4xy^2 + xy^4 + 2x^3y^2")),
        _Seed("x*y", IndexMap({"x": (1, 2, 0), "y": (1, 0, 2)}),
            {(0, 0): (2, 2, 2), (0, -1): (1, 2, 0), (-1, 0): (1, 0, 2)}, (
            "2xy + xy^3 + x^3y",
            "4xy + 6xy^3 + xy^5 + 6x^3y + 6x^3y^3 + x^5y")),
    ], " (applies to the first grammar; diagonal checks keep the builtin)"),
    "T6": _Row("g6", 7, [_Seed("x")]),
    "golden": _Row(None, 3, []),
}

_SUITES = {
    "T1": suite_t1,
    "T2": suite_t2,
    "T3": suite_t3,
    "T4": suite_t4,
    "T5": suite_t5,
    "T6": suite_t6,
    "golden": suite_golden,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Run one suite by name; grammar overrides apply only to T1..T6."""
    body = _SUITES.get(name)
    if body is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return body(_Suite(name, nmax, caps, grammar))


def run_all(nmax: int | None = None, caps: Caps = Caps()) -> list[CheckReport]:
    """Run every suite in order with a shared nmax override."""
    return [run_suite(name, nmax, caps=caps) for name in SUITE_NAMES]
