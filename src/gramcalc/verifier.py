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
``_transport``.  The run object checks the depth against the verify cap,
picks the builtin or the override grammar and notes an override, derives
the coefficient grids, loops over levels while checking that each grid
stays inside the box, counts checks, runs the opener censuses up to the
cops cap, and skips oracle products above the permutations cap, noting
each kind of skip.

Suite names follow the short labels used by the command line tool: T1
through T6 for the six grammar studies, plus "golden" for byte-exact
snapshots of small expansions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from . import oracles
from .config import Caps
from .dsl import builtin_grammar, parse_polynomial
from .errors import PatternViolation
from .grammar import Grammar, IndexMap, extract_coeffs
from .poly import Polynomial, _exact, mono_degree
from .triangles import (
    binomial,
    eulerian,
    factorial,
    matching_count,
    stirling2,
    type_b_eulerian,
    whitney,
)

_DEFAULT_NMAX = {"T1": 8, "T2": 8, "T3": 8, "T4": 8, "T5": 7, "T6": 7, "golden": 3}

SUITE_NAMES = ("T1", "T2", "T3", "T4", "T5", "T6", "golden")


@dataclass(frozen=True)
class Failure:
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


@dataclass
class CheckReport:
    suite: str
    nmax: int
    checks_run: int = 0
    failures: list[Failure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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
    """One suite run: its depth, grammar and report, and the loops all suites share.

    ``grammar`` overrides the builtin grammar named ``builtin``; the
    override is noted, with ``scope`` appended to the note.
    """

    def __init__(
        self,
        name: str,
        nmax: int | None,
        caps: Caps,
        grammar: Grammar | None = None,
        builtin: str | None = None,
        scope: str = "",
    ):
        nmax = _DEFAULT_NMAX[name] if nmax is None else _exact(nmax, "nmax", 0)
        caps.check("verify", nmax)
        self.nmax = nmax
        self.side = nmax + 2
        self.caps = caps
        self.report = CheckReport(suite=name, nmax=nmax)
        self.skipped: set[str] = set()
        if grammar is not None:
            self.note(f"grammar override: {grammar.to_dsl()}{scope}")
        elif builtin is not None:
            grammar = builtin_grammar(builtin)
        self.grammar = grammar

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

    def grids(self, start: str, imap: IndexMap, grammar: Grammar | None = None) -> list[Counter]:
        """Coefficient arrays of levels 0..nmax; absent cells read as 0."""
        return [Counter(extract_coeffs(p, imap)) for p in self.derive(start, grammar)]

    def box(self, grid: dict, n: int) -> None:
        stray = sorted(key for key in grid if key[0] > self.side or key[1] > self.side)
        self.check("indices_within_box", (n,), [], stray)

    def levels(self, *grids: list[Counter]):
        """Levels 1..nmax, each after checking that every grid stays in the box."""
        for n in range(1, self.nmax + 1):
            for grid in grids:
                self.box(grid[n], n)
            yield n

    def cells(self):
        """Every (i, j) of the box, row by row."""
        return product(range(self.side + 1), repeat=2)

    def cop_levels(self, what: str, offset: int) -> range:
        """Levels n whose census of [n + offset] fits the cops cap, noting a cut."""
        last = self.nmax + 1 - offset
        top = min(last, self.caps.cops - offset)
        if top < last:
            self.note(
                f"{what} checks stop at n={top}: enumerating"
                f" cyclically ordered partitions of [{self.nmax + 1}] exceeds the cops cap"
            )
        return range(1, top + 1)

    def census(self, what: str, identity: str, stat: str, grids: list, key) -> None:
        """Check grid cells against the census of [n + 1] by opener statistic.

        ``key(i, j)`` gives the (blocks, value) cell of the census, or None
        for a grid cell that the identity leaves out.
        """
        for n in self.cop_levels(what, 1):
            table = oracles.cop_stat_table(n + 1, stat, self.caps)
            for i, j in self.cells():
                cell = key(i, j)
                if cell is not None:
                    self.check(identity, (n, i, j), table.get(cell, 0), grids[n][i, j])

    def perm_row(self, oracle, size: int, skip_note: str) -> dict | None:
        """oracle(size), or None above the permutations cap; the skip is kept."""
        if size > self.caps.permutations:
            self.skipped.add(skip_note)
            return None
        return oracle(size, self.caps)

    def oracle_product(self, s: int, oracle, size: int, key: int, skip_note: str) -> int | None:
        """s times oracle(size)[key], or None when the oracle is skipped."""
        if not s:
            return 0
        row = self.perm_row(oracle, size, skip_note)
        return None if row is None else s * row.get(key, 0)

    def note_skipped(self, skip_note: str) -> None:
        if skip_note in self.skipped:
            self.note(skip_note)


class _Tally:
    """Match counter for cells that are reported but not asserted."""

    def __init__(self):
        self.seen = 0
        self.matched = 0
        self.first = None

    def add(self, where: tuple, expected: int, actual: int) -> None:
        self.seen += 1
        if expected == actual:
            self.matched += 1
        elif self.first is None:
            self.first = (where, expected, actual)

    def note(self, text: str, mismatch: str) -> str:
        """text with the match ratio filled in, then the first mismatch, if any."""
        text = text.format(f"{self.matched}/{self.seen}")
        return text if self.first is None else text + mismatch.format(*self.first)


def _boundary_note(tally: _Tally, label: str) -> str:
    return tally.note(
        f"informational: {label} also matches at {{}} boundary cells"
        " (i=0 or j=0), outside its asserted range",
        "; first mismatch at {}: expected {}, got {}",
    )


def _cop_count(nn: int) -> int:
    """Number of cyclically ordered partitions of an nn element set."""
    return sum(factorial(m - 1) * stirling2(nn, m) for m in range(1, nn + 1))


# Transport recurrences: cell (i, j) of level n is the sum, over the shifts
# (di, dj) of a table, of (c + ci*i + cj*j) times cell (i + di, j + dj) of
# level n - 1.  These are the paper's recurrences, fixed data that an
# override grammar never changes, so a mutated grammar fails them.
_T1_TRANSPORT = {(0, 0): (0, 1, 1), (0, -1): (0, 1, 0), (-1, 0): (0, 0, 1)}
_T2_TRANSPORT = {(0, 0): (0, 1, 1), (0, -1): (0, 1, 0), (-2, 1): (1, 0, 1)}
_T3_TRANSPORT = {(0, 0): (1, 1, 1), (-1, 0): (1, 0, 0), (0, -1): (0, 1, 0), (-2, 1): (1, 0, 1)}
_T4_TRANSPORT = {(0, 0): (0, 1, 1), (-1, 0): (-1, 1, 1), (0, -1): (-1, 1, 1)}
_T5_EVEN_TRANSPORT = {(0, 0): (1, 2, 2), (0, -1): (1, 2, 0), (-1, 0): (0, 0, 2)}
_T5_ODD_TRANSPORT = {(0, 0): (2, 2, 2), (0, -1): (1, 2, 0), (-1, 0): (1, 0, 2)}


def _transport(table: dict, prev: Counter, i: int, j: int) -> int:
    """The value a transport table gives cell (i, j) from the previous level."""
    return sum(
        (c + ci * i + cj * j) * prev[i + di, j + dj] for (di, dj), (c, ci, cj) in table.items()
    )


_PEAKS_SKIPPED = "left-peak product checks above the permutations cap were skipped"
_LAS_SKIPPED = "alternating-length product checks above the permutations cap were skipped"


def suite_t1(
    nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Grammar x -> x + x*y, y -> y + x*y, expanded from x.

    Checks the coefficient transport recurrence, the Stirling times
    Eulerian closed form, the census of cyclically ordered partitions by
    opener descents, and the row sum against the partition count.
    """
    run = _Suite("T1", nmax, caps, grammar, "g1")
    grids = run.grids("x", IndexMap.identity())
    for n in run.levels(grids):
        cur, prev = grids[n], grids[n - 1]
        for i, j in run.cells():
            actual = cur[i, j]
            expected = _transport(_T1_TRANSPORT, prev, i, j)
            run.check("transport_recurrence", (n, i, j), expected, actual)
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


def suite_t2(
    nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Grammar x -> x + x*y, y -> y + x^2, expanded from x.

    Only odd powers of x appear.  Checks the transport recurrence, the
    Stirling times left-peak closed form, agreement with the valley
    recurrence table and with valley counts over partition openers, and
    the row sum.  The valley table itself is validated both against its
    product form and against brute enumeration.
    """
    run = _Suite("T2", nmax, caps, grammar, "g2")
    grids = run.grids("x", IndexMap.identity())
    u = oracles.u_table(run.nmax + 1)
    for n in run.levels(grids):
        cur, prev = grids[n], grids[n - 1]
        for i, j in run.cells():
            actual = cur[i, j]
            if i % 2 == 0:
                run.check("even_x_power_vanishes", (n, i, j), 0, actual)
            expected = _transport(_T2_TRANSPORT, prev, i, j)
            run.check("transport_recurrence", (n, i, j), expected, actual)
            if i % 2 == 1:
                run.check(
                    "stirling_left_peak_product",
                    (n, i, j),
                    run.oracle_product(
                        stirling2(n + 1, i + j),
                        oracles.left_peak_counts,
                        i + j - 1,
                        (i - 1) // 2,
                        _PEAKS_SKIPPED,
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
            peaks = run.perm_row(oracles.left_peak_counts, k - 1, _PEAKS_SKIPPED)
            if peaks is None:
                continue
            for l in range((k - 1) // 2 + 1):
                run.check(
                    "valley_table_product",
                    (n, k, l),
                    stirling2(n, k) * peaks.get(l, 0),
                    u.get((n, k, l), 0),
                )
    run.note_skipped(_PEAKS_SKIPPED)
    for n in run.cop_levels("valley table enumeration", 0):
        table = oracles.cop_stat_table(n, "right_valleys", run.caps)
        for k in range(1, n + 1):
            for l in range((k - 1) // 2 + 1):
                run.check(
                    "valley_table_census", (n, k, l), table.get((k, l), 0), u.get((n, k, l), 0)
                )
    # The same product with the left-peak row taken one size up fails;
    # recorded here so the shift in the asserted form stays visible.
    shifted = _Tally()
    for (n, k, l), value in sorted(u.items()):
        if k <= run.caps.permutations:
            product_k = stirling2(n, k) * oracles.left_peak_counts(k, run.caps).get(l, 0)
            shifted.add((n, k, l), value, product_k)
    run.note(
        shifted.note(
            "informational: with the left-peak row taken at k instead of k-1 the"
            " valley product matches {} nonzero cells",
            "; first mismatch at (n,k,l)={}: table={}, shifted product={}",
        )
    )
    return run.report


def suite_t3(
    nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Grammar w -> w + w*x, x -> x + x*y, y -> y + x^2, expanded from w.

    Every term carries a single factor of w; indices are read off the x
    and y exponents.  Checks the constant term, the four-term transport
    recurrence, the Stirling times alternating-length closed form, the
    census of partition openers by longest alternating subsequence, and
    the row sum.
    """
    run = _Suite("T3", nmax, caps, grammar, "g3")
    grids = run.grids("w", IndexMap.identity(fixed={"w": 1}))
    for n in run.levels(grids):
        cur, prev = grids[n], grids[n - 1]
        run.check("constant_term_one", (n,), 1, cur[0, 0])
        for j in range(1, run.side + 1):
            run.check("pure_y_vanishes", (n, 0, j), 0, cur[0, j])
        for i, j in run.cells():
            actual = cur[i, j]
            expected = _transport(_T3_TRANSPORT, prev, i, j)
            run.check("transport_recurrence", (n, i, j), expected, actual)
            run.check(
                "stirling_las_product",
                (n, i, j),
                run.oracle_product(
                    stirling2(n + 1, i + j + 1), oracles.las_counts, i + j, i, _LAS_SKIPPED
                ),
                actual,
            )
        run.check("cop_count_row_sum", (n,), _cop_count(n + 1), sum(cur.values()))
    run.note_skipped(_LAS_SKIPPED)
    run.census(
        "opener alternating-length census",
        "opener_las_census",
        "las",
        grids,
        lambda i, j: (i + j + 1, i) if i or j else None,
    )
    return run.report


def suite_t4(
    nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Grammar x -> x + x^2 + x*y, y -> y + y^2 + x*y, expanded from x.

    Checks the transport recurrence, the factorial times Stirling times
    binomial closed form, and the row sum against the count of ordered
    set partitions with a marked prefix.
    """
    run = _Suite("T4", nmax, caps, grammar, "g4")
    grids = run.grids("x", IndexMap.identity())
    for n in run.levels(grids):
        cur, prev = grids[n], grids[n - 1]
        for i, j in run.cells():
            actual = cur[i, j]
            expected = _transport(_T4_TRANSPORT, prev, i, j)
            run.check("transport_recurrence", (n, i, j), expected, actual)
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


_EVEN_MAP = IndexMap({"x": (1, 2, 0), "y": (0, 0, 2)})
_ODD_MAP = IndexMap({"x": (1, 2, 0), "y": (1, 0, 2)})


def suite_t5(
    nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Grammars x -> x + x*y^2, y -> y + x^2*y and x -> x*y^2, y -> x^2*y.

    The first is expanded from both x and x*y, with indices read off the
    exponent patterns x^(2i+1) y^(2j) and x^(2i+1) y^(2j+1).  Checks the
    two transport recurrences and the closed forms built from the
    Whitney, perfect matching, Stirling, and signed descent triangles.
    The second grammar collapses onto single diagonals given by the
    matching and signed descent triangles, checked over the full box.
    """
    scope = " (applies to the first grammar; diagonal checks keep the builtin)"
    run = _Suite("T5", nmax, caps, grammar, "g5", scope)
    e = run.grids("x", _EVEN_MAP)
    f = run.grids("x*y", _ODD_MAP)
    e_boundary = _Tally()
    f_boundary = _Tally()
    for n in run.levels(e, f):
        for i, j in run.cells():
            ea, fa = e[n][i, j], f[n][i, j]
            even = _transport(_T5_EVEN_TRANSPORT, e[n - 1], i, j)
            run.check("even_transport_recurrence", (n, i, j), even, ea)
            odd = _transport(_T5_ODD_TRANSPORT, f[n - 1], i, j)
            run.check("odd_transport_recurrence", (n, i, j), odd, fa)
            w = whitney(2, n, i + j)
            e_expected = w * matching_count(i + j, j) if w else 0
            s = stirling2(n + 1, i + j + 1)
            f_expected = 2 ** (n - i - j) * s * type_b_eulerian(i + j, j) if s else 0
            if i >= 1 and j >= 1:
                run.check("whitney_matching_product", (n, i, j), e_expected, ea)
                run.check("scaled_stirling_signed_product", (n, i, j), f_expected, fa)
            else:
                e_boundary.add((n, i, j), e_expected, ea)
                f_boundary.add((n, i, j), f_expected, fa)
    run.note(_boundary_note(e_boundary, "the Whitney times matching product"))
    run.note(_boundary_note(f_boundary, "the scaled Stirling times signed descent product"))
    gb = builtin_grammar("gB")
    px = run.grids("x", _EVEN_MAP, gb)
    pxy = run.grids("x*y", _ODD_MAP, gb)
    for n in run.levels(px, pxy):
        for i, j in run.cells():
            run.check(
                "matching_diagonal_pattern",
                (n, i, j),
                matching_count(n, j) if i + j == n else 0,
                px[n][i, j],
            )
            run.check(
                "signed_diagonal_pattern",
                (n, i, j),
                type_b_eulerian(n, j) if i + j == n else 0,
                pxy[n][i, j],
            )
    return run.report


def suite_t6(
    nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Grammar x -> x*(y+z), y -> y*(z+x), z -> z*(x+y), expanded from x.

    Expansions stay homogeneous of degree n+1, so the z exponent is
    eliminated and indices are read off x and y.  Both closing slices of
    the box agree with an Eulerian row, and the x-linear slice agrees
    with the next Eulerian row.
    """
    run = _Suite("T6", nmax, caps, grammar, "g6")
    levels = run.derive("x")
    for n in range(1, run.nmax + 1):
        p = levels[n]
        degrees = sorted({mono_degree(m) for m in p.terms()})
        run.check("homogeneous_degree", (n,), [n + 1], degrees)
        if degrees != [n + 1]:
            continue
        imap = IndexMap({"x": (0, 1, 0), "y": (0, 0, 1), "z": (n + 1, -1, -1)})
        try:
            cur = Counter(extract_coeffs(p, imap))
        except PatternViolation as exc:
            run.check("index_pattern", (n,), "all monomials fit x^i y^j z^(n+1-i-j)", str(exc))
            continue
        run.box(cur, n)
        for i in range(run.side + 1):
            run.check("pure_z_slice_eulerian", (n, i), eulerian(n, i), cur[i, 0])
            run.check("no_z_slice_eulerian", (n, i), eulerian(n, i), cur[i, n + 1 - i])
        for j in range(run.side + 1):
            run.check("x_linear_slice_eulerian", (n, j), eulerian(n + 1, j + 1), cur[1, j])
    return run.report


_GOLDEN: tuple[tuple[str, str, int, str], ...] = (
    ("g1", "x", 1, "x + xy"),
    ("g1", "x", 2, "x + 3xy + xy^2 + x^2y"),
    ("g1", "x", 3, "x + 7xy + 6xy^2 + xy^3 + 6x^2y + 4x^2y^2 + x^3y"),
    ("g2", "x", 1, "x + xy"),
    ("g2", "x", 2, "x + 3xy + xy^2 + x^3"),
    ("g2", "x", 3, "x + 7xy + 6xy^2 + xy^3 + 6x^3 + 5x^3y"),
    ("g3", "w", 1, "w + wx"),
    ("g3", "w", 2, "w + 3wx + wxy + wx^2"),
    ("g3", "w", 3, "w + 7wx + 6wxy + wxy^2 + 6wx^2 + 3wx^2y + 2wx^3"),
    ("g4", "x", 1, "x + xy + x^2"),
    ("g4", "x", 2, "x + 3xy + 2xy^2 + 3x^2 + 4x^2y + 2x^3"),
    (
        "g4",
        "x",
        3,
        "x + 7xy + 12xy^2 + 6xy^3 + 7x^2 + 24x^2y + 18x^2y^2 + 12x^3 + 18x^3y + 6x^4",
    ),
    ("g5", "x", 1, "x + xy^2"),
    ("g5", "x", 2, "x + 4xy^2 + xy^4 + 2x^3y^2"),
    ("g5", "x*y", 1, "2xy + xy^3 + x^3y"),
    ("g5", "x*y", 2, "4xy + 6xy^3 + xy^5 + 6x^3y + 6x^3y^3 + x^5y"),
)


def suite_golden(nmax: int | None = None, caps: Caps = Caps()) -> CheckReport:
    """Byte-exact snapshots of small expansions of the builtin grammars."""
    run = _Suite("golden", nmax, caps)
    cache: dict[tuple[str, str], list[Polynomial]] = {}
    depth = min(run.nmax, max(entry[2] for entry in _GOLDEN))
    for name, start, n, expected in _GOLDEN:
        if n > run.nmax:
            continue
        key = (name, start)
        if key not in cache:
            cache[key] = builtin_grammar(name).derive_levels(parse_polynomial(start), depth)
        run.check("expansion_text", (name, start, n), expected, cache[key][n].compact())
    return run.report


_SUITES = {
    "T1": suite_t1,
    "T2": suite_t2,
    "T3": suite_t3,
    "T4": suite_t4,
    "T5": suite_t5,
    "T6": suite_t6,
}


def run_suite(
    name: str, nmax: int | None = None, grammar: Grammar | None = None, caps: Caps = Caps()
) -> CheckReport:
    """Run one suite by name; grammar overrides apply only to T1..T6."""
    if name == "golden":
        if grammar is not None:
            raise ValueError("the golden suite always uses the builtin grammars")
        return suite_golden(nmax, caps)
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return fn(nmax, grammar, caps)


def run_all(nmax: int | None = None, caps: Caps = Caps()) -> list[CheckReport]:
    """Run every suite in order with a shared nmax override."""
    return [run_suite(name, nmax, caps=caps) for name in SUITE_NAMES]
