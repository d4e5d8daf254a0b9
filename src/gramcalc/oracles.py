"""Brute-force enumeration oracles and the list statistics they count.

Everything here is deliberately direct: objects are enumerated one by
one in a fixed deterministic order and statistics are computed from
their definitions, so these counts can sit on the independent side of a
cross-check against recurrences and closed forms.

Statistic conventions on a list w of distinct integers, 1-based:

* descent: position i with w_i > w_{i+1}.
* left peak: index i in [1, n-1] with w_{i-1} < w_i > w_{i+1}, reading
  w_0 = 0; the final entry is never a left peak.
* right valley: entry w_i, i in [2, n], with w_{i-1} > w_i < w_{i+1},
  reading w_{n+1} = +infinity; the final entry can be a right valley.
* las: length of the longest alternating subsequence whose comparisons
  run descent, ascent, descent, ...; a single entry has las 1, the empty
  list is an error.

Each statistic is one pass over the list.  las is the greedy count of
Stanley ("Longest alternating subsequences of permutations", Michigan
Math. J. 57, 2008): reading left to right, every strict comparison
between neighbours that turns the way the subsequence needs next adds one
entry, so las is linear where the textbook dynamic programme is quadratic.

A cyclically ordered partition of [n] is kept in canonical form: a tuple
of blocks, each block increasing, the block containing 1 first.  The
openers of such a partition are the block minima in block order.  The
opener census streams over the set partitions of [n] and, for each, over
the orderings of its non-first blocks: a cyclically ordered partition is
exactly one such pair, so each is visited once and none is kept.  Only
``enumerate_cops`` builds the full list, because its canonical order is
part of the CLI output: it files each cop under its block count, sorts
each group in plain tuple order and joins the groups by ascending count.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, Sequence

from .config import Caps
from .errors import EmptyList
from .poly import _exact

Cop = tuple[tuple[int, ...], ...]
Matching = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Statistics.


def descents(w: Sequence[int]) -> int:
    count = 0
    prev = -math.inf
    for x in w:
        if prev > x:
            count += 1
        prev = x
    return count


def left_peaks(w: Sequence[int]) -> int:
    """Count left peaks, with a 0 sentinel before the first entry."""
    count = 0
    a = b = 0  # the first triple reads 0 < 0 and never counts
    for c in w:
        if a < b > c:
            count += 1
        a, b = b, c
    return count


def right_valleys(w: Sequence[int]) -> int:
    """Count right valleys, with a +infinity sentinel after the last entry."""
    count = 0
    a = b = -math.inf  # so the first entry is never a right valley
    for c in w:
        if a > b < c:
            count += 1
        a, b = b, c
    return count + (a > b)


def las(w: Sequence[int]) -> int:
    """Longest alternating subsequence length (first comparison a descent).

    Greedy and linear: the length grows by one at each neighbour pair
    whose strict comparison goes the way the subsequence must turn next,
    a descent after an odd length and an ascent after an even one.
    """
    if not w:
        raise EmptyList("las is undefined on an empty list")
    length = 1
    prev = w[0]
    for x in w:
        if (x < prev) if length % 2 else (x > prev):
            length += 1
        prev = x
    return length


def openers(cop: Cop) -> tuple[int, ...]:
    """Block minima of a canonical cyclically ordered partition, in order."""
    return tuple(block[0] for block in cop)


def des_b(pi: Sequence[int]) -> int:
    """Type-B descents of a signed permutation, including the 0 sentinel."""
    return descents((0, *pi))


def odd_smaller_count(matching: Matching) -> int:
    """Pairs of a perfect matching whose smaller entry is odd."""
    return sum(1 for pair in matching if min(pair) % 2 == 1)


# ---------------------------------------------------------------------------
# Enumeration.


def enumerate_permutations(n: int, caps: Caps = Caps()) -> Iterator[tuple[int, ...]]:
    """Permutations of [n] in lexicographic order."""
    caps.check("permutations", n)
    return itertools.permutations(range(1, n + 1))


def enumerate_signed(n: int, caps: Caps = Caps()) -> Iterator[tuple[int, ...]]:
    """Signed permutations of [n]: every permutation under every sign vector."""
    caps.check("signed", n)

    def gen() -> Iterator[tuple[int, ...]]:
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                yield tuple(s * v for s, v in zip(signs, perm))

    return gen()


def enumerate_matchings(n: int, caps: Caps = Caps()) -> Iterator[Matching]:
    """Perfect matchings of [2n], pairs listed smallest-first.

    Order: the smallest unmatched entry takes its partners in increasing
    order, and the last pair formed varies fastest.
    """
    caps.check("matchings", n)

    def gen() -> Iterator[Matching]:
        if n == 0:
            yield ()
            return
        pairs: list = [None] * n
        # A frame is the entries still unmatched and the index, among them,
        # of the partner to try next for the first; the top frame is deepest.
        frames = [(tuple(range(1, 2 * n + 1)), 1)]
        while frames:
            elems, idx = frames.pop()
            if idx + 1 < len(elems):
                frames.append((elems, idx + 1))
            pairs[n - len(elems) // 2] = (elems[0], elems[idx])
            if len(elems) == 2:
                yield tuple(pairs)
            else:
                frames.append((elems[1:idx] + elems[idx + 1 :], 1))

    return gen()


def _set_partitions(n: int) -> Iterator[Cop]:
    """Partitions of [n] as canonical block tuples, blocks ordered by minimum.

    Yielded one at a time: element i joins each open block in turn, then
    opens a block of its own.
    """
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[Cop]:
        if i > n:
            yield tuple(map(tuple, blocks))
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(1)


@lru_cache(maxsize=None)
def _cops(n: int) -> tuple[Cop, ...]:
    """All cops of [n] in canonical order.

    Sorting each block-count group by the tuple order and joining the
    groups by ascending count gives the order of a sort keyed on
    ``(len(cop), cop)``, without building a key for every cop.
    """
    groups: list[list[Cop]] = [[] for _ in range(n + 1)]
    for blocks in _set_partitions(n):
        first, rest = blocks[0], blocks[1:]
        group = groups[len(blocks)]
        for arrangement in itertools.permutations(rest):
            group.append((first,) + arrangement)
    for group in groups:
        group.sort()
    return tuple(itertools.chain.from_iterable(groups))


def enumerate_cops(n: int, caps: Caps = Caps()) -> Iterator[Cop]:
    """Cyclically ordered partitions of [n] in canonical form.

    Order: by block count, then lexicographically on the block tuples.
    """
    caps.check("cops", n, 1)
    return iter(_cops(n))


# ---------------------------------------------------------------------------
# Count tables.

_STATS = {"descents": descents, "right_valleys": right_valleys, "las": las}


def stat_names() -> tuple[str, ...]:
    return tuple(_STATS)


@lru_cache(maxsize=None)
def _cop_stat_items(n: int, stat: str) -> tuple[tuple[tuple[int, int], int], ...]:
    fn = _STATS[stat]
    counts: dict[tuple[int, int], int] = {}
    for blocks in _set_partitions(n):
        k = len(blocks)
        # The openers of every cop on these blocks: 1, then the other
        # block minima in each of their orders.
        for rest in itertools.permutations([block[0] for block in blocks[1:]]):
            key = (k, fn((1,) + rest))
            counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def cop_stat_table(n: int, stat: str, caps: Caps = Caps()) -> dict[tuple[int, int], int]:
    """Counts of cyclically ordered partitions of [n] by (blocks, statistic).

    The statistic is applied to the opener list; recognized names are
    descents, right_valleys, and las.
    """
    if stat not in _STATS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {', '.join(_STATS)}")
    caps.check("cops", n, 1)
    return dict(_cop_stat_items(n, stat))


def u_table(nmax: int) -> dict[tuple[int, int, int], int]:
    """Valley-count table built purely from its three-term recurrence.

    u[n, k, l] counts cyclically ordered partitions of [n] with k blocks
    and l right valleys in the opener list, seeded by u[1, 1, 0] = 1 and
    grown level by level; no enumeration is involved, which makes this
    the recurrence side of a cross-check against enumerate_cops.
    """
    _exact(nmax, "u_table size", 1)
    u: dict[tuple[int, int, int], int] = {(1, 1, 0): 1}
    for n in range(2, nmax + 1):
        for k in range(1, n + 1):
            for l in range((k - 1) // 2 + 1):
                value = (
                    k * u.get((n - 1, k, l), 0)
                    + (2 * l + 1) * u.get((n - 1, k - 1, l), 0)
                    + (k - 2 * l) * u.get((n - 1, k - 1, l - 1), 0)
                )
                if value:
                    u[(n, k, l)] = value
    return u


@lru_cache(maxsize=None)
def _perm_stat_items(n: int, stat: str) -> tuple[tuple[int, int], ...]:
    fn = _STATS[stat] if stat != "left_peaks" else left_peaks
    counts = Counter(map(fn, itertools.permutations(range(1, n + 1))))
    return tuple(sorted(counts.items()))


def left_peak_counts(n: int, caps: Caps = Caps()) -> dict[int, int]:
    """Distribution of left peaks over all permutations of [n], by count."""
    caps.check("permutations", n)
    return dict(_perm_stat_items(n, "left_peaks"))


def las_counts(n: int, caps: Caps = Caps()) -> dict[int, int]:
    """Distribution of las over all permutations of [n], by length.

    The empty permutation is assigned las 0 by convention so that the
    ``triangle las`` table has a row 0.
    """
    caps.check("permutations", n)
    if n == 0:
        return {0: 1}
    return dict(_perm_stat_items(n, "las"))

