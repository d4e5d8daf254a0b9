"""Classical integer triangles computed by row recurrences.

All values are exact integers built by dynamic programming over whole
rows: each triangle grows its rows in a loop and keeps them.
Out-of-support lookups return 0 instead of raising, which keeps
bounding-box scans in the verification suites simple.  A finished
``TriangleTable`` holds, for each row, its first k and its dense values;
``make_table`` builds one from any row function, and ``build_table``
builds the named recurrence triangles with it.

Conventions:

* ``stirling2(n, k)``: set partitions of [n] into k blocks.
* ``eulerian(n, k)``: permutations of [n] with exactly k-1 descents, so
  the support of row n is 1..n and row 0 is empty.
* ``type_b_eulerian(n, k)``: signed permutations of [n] with k type-B
  descents (descents of 0, pi(1), ..., pi(n)).
* ``matching_count(n, k)``: perfect matchings of [2n] with k pairs whose
  smaller entry is odd.
* ``whitney(m, n, k)``: Whitney numbers of the second kind for the rank-n
  Dowling lattice of order m, by their row recurrence.  The explicit
  binomial-Stirling sum is the test-only reference they are checked
  against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import UnknownTriangle, _exact, _read_int


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside 0 <= k <= n."""
    n, k = _exact(n, "binomial n"), _exact(k, "binomial k")
    return math.comb(n, k) if 0 <= k <= n else 0


def factorial(n: int) -> int:
    return math.factorial(_exact(n, "factorial argument", 0))


class _Rows:
    """Rows of T(n, k) = a(n, k) T(n-1, k) + b(n, k) T(n-1, k-1), k = kmin..n.

    Starts from the given first rows; a request past the last kept row
    builds the missing rows in a loop and keeps them, so no row costs a
    recursion.  Cells outside a row read as 0.
    """

    __slots__ = ("_kmin", "_a", "_b", "_rows")

    def __init__(self, kmin: int, a, b, *first: tuple[int, ...]):
        self._kmin, self._a, self._b, self._rows = kmin, a, b, list(first)

    def row(self, n: int) -> tuple[int, ...]:
        """Row n over k = kmin..n."""
        return self._row(_exact(n, "row index", 0))

    def at(self, n: int, k: int) -> int:
        """T(n, k), 0 outside kmin <= k <= n."""
        n, k = _exact(n, "row index"), _exact(k, "column index")
        if not self._kmin <= k <= n:
            return 0
        return self._row(n)[k - self._kmin]

    def _row(self, n: int) -> tuple[int, ...]:
        """Row n of a checked n >= 0, building the rows up to it first."""
        rows, kmin, a, b = self._rows, self._kmin, self._a, self._b
        while len(rows) <= n:
            m, prev = len(rows), (0, *rows[-1], 0)
            rows.append(
                tuple(
                    a(m, k) * prev[k - kmin + 1] + b(m, k) * prev[k - kmin]
                    for k in range(kmin, m + 1)
                )
            )
        return rows[n]


_STIRLING = _Rows(0, lambda n, k: k, lambda n, k: 1, (1,))
# Row 0 is empty, so row 1 is given too.
_EULERIAN = _Rows(1, lambda n, k: k, lambda n, k: n - k + 1, (), (1,))
_TYPE_B = _Rows(0, lambda n, k: 2 * k + 1, lambda n, k: 2 * n - 2 * k + 1, (1,))
_MATCHING = _Rows(0, lambda n, k: 2 * k, lambda n, k: 2 * n - 2 * k + 1, (1,))
_WHITNEY: dict[int, _Rows] = {}


def stirling2(n: int, k: int) -> int:
    return _STIRLING.at(n, k)


def eulerian(n: int, k: int) -> int:
    return _EULERIAN.at(n, k)


def type_b_eulerian(n: int, k: int) -> int:
    return _TYPE_B.at(n, k)


def matching_count(n: int, k: int) -> int:
    return _MATCHING.at(n, k)


def _whitney_rows(m: int) -> _Rows:
    """The rows of W_m(n, k) = W_m(n-1, k-1) + (1 + m*k) W_m(n-1, k)."""
    _exact(m, "Whitney order", 1)
    if m not in _WHITNEY:
        _WHITNEY[m] = _Rows(0, lambda n, k: 1 + m * k, lambda n, k: 1, (1,))
    return _WHITNEY[m]


def whitney(m: int, n: int, k: int) -> int:
    """Whitney number of the second kind W_m(n, k), 0 outside 0 <= k <= n."""
    return _whitney_rows(m).at(n, k)


class TriangleTable(NamedTuple):
    """A finished triangle: row n is ``by_row[n]``, a pair (first k, values).

    The values are dense over the row's k-range, in-support zeros
    included; an empty row starts at k = 0.  Cells outside a row read as 0.
    """

    name: str
    by_row: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def max_n(self) -> int:
        return len(self.by_row) - 1

    def entry(self, n: int, k: int) -> int:
        if not 0 <= n <= self.max_n:
            return 0
        k_start, values = self.by_row[n]
        return values[k - k_start] if 0 <= k - k_start < len(values) else 0

    def row(self, n: int) -> list[int]:
        return list(self.by_row[n][1]) if 0 <= n <= self.max_n else []

    def rows(self) -> list[list[int]]:
        return [list(values) for _, values in self.by_row]

    def iter_cells(self):
        """Yield (n, k, value) over each row's k-range, zeros included."""
        for n, (k_start, values) in enumerate(self.by_row):
            for k, value in enumerate(values, k_start):
                yield n, k, value

    def to_json_obj(self) -> dict:
        rows = [
            {"n": n, "k_start": k_start, "values": list(values)}
            for n, (k_start, values) in enumerate(self.by_row)
        ]
        return {"name": self.name, "max_n": self.max_n, "rows": rows}


def make_table(name: str, max_n: int, row_of) -> TriangleTable:
    """The table of rows 0..max_n, where row_of(n) gives row n as (first k, values)."""
    rows = map(row_of, range(_exact(max_n, "max_n", 0) + 1))
    return TriangleTable(name, tuple((k if values else 0, tuple(values)) for k, values in rows))


# Recurrence-driven triangles by name.
_TABLES = {
    "stirling2": _STIRLING,
    "eulerian": _EULERIAN,
    "type_b_eulerian": _TYPE_B,
    "matching": _MATCHING,
}


def triangle_names() -> tuple[str, ...]:
    return (*_TABLES, "whitney:<m>")


def build_table(name: str, max_n: int) -> TriangleTable:
    """Build one of the recurrence-driven triangles up to row max_n.

    Recognized names: stirling2, eulerian, type_b_eulerian, matching, and
    whitney:m for a positive integer m written in ASCII digits.
    """
    if name.startswith("whitney:"):
        try:
            m = _read_int(name.split(":", 1)[1], "whitney order", 1)
        except ValueError as exc:
            raise UnknownTriangle(str(exc)) from None
        rows = _whitney_rows(m)
    elif name in _TABLES:
        rows = _TABLES[name]
    else:
        raise UnknownTriangle(
            f"unknown triangle {name!r}; recurrence tables: "
            + ", ".join(triangle_names())
        )
    return make_table(name, max_n, lambda n: (rows._kmin, rows.row(n)))
