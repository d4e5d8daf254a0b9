"""Classical integer triangles computed by row recurrences.

All values are exact integers built by dynamic programming over whole
rows, cached per table.  Out-of-support lookups return 0 instead of
raising, which keeps bounding-box scans in the verification suites
simple.

Conventions:

* ``stirling2(n, k)``: set partitions of [n] into k blocks.
* ``eulerian(n, k)``: permutations of [n] with exactly k-1 descents, so
  the support of row n is 1..n and row 0 is empty.
* ``type_b_eulerian(n, k)``: signed permutations of [n] with k type-B
  descents (descents of 0, pi(1), ..., pi(n)).
* ``matching_count(n, k)``: perfect matchings of [2n] with k pairs whose
  smaller entry is odd.
* ``whitney(m, n, k)``: Whitney numbers of the second kind for the rank-n
  Dowling lattice of order m, computed independently by an explicit
  binomial-Stirling sum and by a row recurrence; the two paths are
  compared on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import InternalMismatch, UnknownTriangle


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    return math.factorial(n)


def _two_term(row, n: int, kmin: int, a, b) -> tuple[int, ...]:
    """Row n, k = kmin..n, of T(n, k) = a(k) T(n-1, k) + b(k) T(n-1, k-1).

    ``row(n - 1)`` must hold row n-1 over k = kmin..n-1; cells outside a
    row read as 0.
    """
    prev = (0, *row(n - 1), 0)
    return tuple(
        a(k) * prev[k - kmin + 1] + b(k) * prev[k - kmin] for k in range(kmin, n + 1)
    )


@lru_cache(maxsize=None)
def stirling_row(n: int) -> tuple[int, ...]:
    """Row n of the second-kind Stirling triangle, k = 0..n."""
    if n == 0:
        return (1,)
    return _two_term(stirling_row, n, 0, lambda k: k, lambda k: 1)


def stirling2(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return stirling_row(n)[k]


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """Row n of the Eulerian triangle, k = 1..n; row 0 is empty."""
    if n == 0:
        return ()
    if n == 1:
        return (1,)
    return _two_term(eulerian_row, n, 1, lambda k: k, lambda k: n - k + 1)


def eulerian(n: int, k: int) -> int:
    if n < 1 or k < 1 or k > n:
        return 0
    return eulerian_row(n)[k - 1]


@lru_cache(maxsize=None)
def type_b_row(n: int) -> tuple[int, ...]:
    """Row n of the type-B Eulerian triangle, k = 0..n."""
    if n == 0:
        return (1,)
    return _two_term(type_b_row, n, 0, lambda k: 2 * k + 1, lambda k: 2 * n - 2 * k + 1)


def type_b_eulerian(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return type_b_row(n)[k]


@lru_cache(maxsize=None)
def matching_row(n: int) -> tuple[int, ...]:
    """Row n of the odd-opener matching triangle, k = 0..n."""
    if n == 0:
        return (1,)
    return _two_term(matching_row, n, 0, lambda k: 2 * k, lambda k: 2 * n - 2 * k + 1)


def matching_count(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return matching_row(n)[k]


@lru_cache(maxsize=None)
def _whitney_row(m: int, n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    return _two_term(lambda r: _whitney_row(m, r), n, 0, lambda k: 1 + m * k, lambda k: 1)


def _whitney_sum(m: int, n: int, k: int) -> int:
    return sum(
        binomial(n, i) * m ** (i - k) * stirling2(i, k) for i in range(k, n + 1)
    )


def whitney(m: int, n: int, k: int) -> int:
    """Whitney number of the second kind W_m(n, k), 0 outside 0 <= k <= n.

    Computed by the explicit binomial-Stirling sum and, independently, by
    the row recurrence W_m(n, k) = W_m(n-1, k-1) + (1 + m*k) W_m(n-1, k);
    a disagreement raises InternalMismatch.
    """
    if m < 1:
        raise ValueError(f"Whitney order must be a positive integer, got {m}")
    if n < 0 or k < 0 or k > n:
        return 0
    by_sum = _whitney_sum(m, n, k)
    by_recurrence = _whitney_row(m, n)[k]
    if by_sum != by_recurrence:
        raise InternalMismatch(
            f"whitney({m}, {n}, {k}): sum path {by_sum} != recurrence path {by_recurrence}"
        )
    return by_sum


@dataclass
class TriangleTable:
    """A finished triangle: sparse nonzero entries plus per-row support.

    ``entries`` never stores a value outside the declared support of a
    row; in-support zeros are recoverable through ``row`` and
    ``iter_cells``, which fill the declared k-range.
    """

    name: str
    max_n: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    row_bounds: dict[int, tuple[int, int]] = field(default_factory=dict)

    def entry(self, n: int, k: int) -> int:
        return self.entries.get((n, k), 0)

    def row(self, n: int) -> list[int]:
        bounds = self.row_bounds.get(n)
        if bounds is None:
            return []
        kmin, kmax = bounds
        return [self.entries.get((n, k), 0) for k in range(kmin, kmax + 1)]

    def rows(self) -> list[list[int]]:
        return [self.row(n) for n in range(self.max_n + 1)]

    def iter_cells(self):
        """Yield (n, k, value) over the declared support, zeros included."""
        for n in range(self.max_n + 1):
            bounds = self.row_bounds.get(n)
            if bounds is None:
                continue
            kmin, kmax = bounds
            for k in range(kmin, kmax + 1):
                yield n, k, self.entries.get((n, k), 0)

    def to_json_obj(self) -> dict:
        rows = []
        for n in range(self.max_n + 1):
            bounds = self.row_bounds.get(n)
            rows.append(
                {
                    "n": n,
                    "k_start": bounds[0] if bounds else 0,
                    "values": self.row(n),
                }
            )
        return {"name": self.name, "max_n": self.max_n, "rows": rows}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TriangleTable":
        table = cls(name=obj["name"], max_n=int(obj["max_n"]))
        for row in obj["rows"]:
            n = int(row["n"])
            values = [int(v) for v in row["values"]]
            if not values:
                continue
            k0 = int(row["k_start"])
            table.row_bounds[n] = (k0, k0 + len(values) - 1)
            for offset, value in enumerate(values):
                if value:
                    table.entries[(n, k0 + offset)] = value
        return table


def _fill(table: TriangleTable, n: int, kmin: int, kmax: int, value_at) -> None:
    if kmax < kmin:
        return
    table.row_bounds[n] = (kmin, kmax)
    for k in range(kmin, kmax + 1):
        value = value_at(k)
        if value:
            table.entries[(n, k)] = value


# Recurrence-driven triangles by name: the first k of each row, and the lookup.
_TABLES = {
    "stirling2": (0, stirling2),
    "eulerian": (1, eulerian),
    "type_b_eulerian": (0, type_b_eulerian),
    "matching": (0, matching_count),
}


def triangle_names() -> tuple[str, ...]:
    return (*_TABLES, "whitney:<m>")


def build_table(name: str, max_n: int) -> TriangleTable:
    """Build one of the recurrence-driven triangles up to row max_n.

    Recognized names: stirling2, eulerian, type_b_eulerian, matching, and
    whitney:m for a positive integer m.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if name.startswith("whitney:"):
        raw = name.split(":", 1)[1]
        if not raw.isdigit() or int(raw) < 1:
            raise UnknownTriangle(f"whitney order must be a positive integer, got {raw!r}")
        kmin, lookup = 0, partial(whitney, int(raw))
    elif name in _TABLES:
        kmin, lookup = _TABLES[name]
    else:
        raise UnknownTriangle(
            f"unknown triangle {name!r}; recurrence tables: "
            + ", ".join(triangle_names())
        )
    table = TriangleTable(name=name, max_n=max_n)
    for n in range(max_n + 1):
        _fill(table, n, kmin, n, partial(lookup, n))
    return table
