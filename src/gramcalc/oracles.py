"""Enumeration oracles and the list statistics they count.

Everything here is read off the definitions of the objects and of the
statistics, never off the recurrences or closed forms that the verifier
checks them against, so these counts sit on the independent side of
each cross-check.  The one exception is ``u_table``, which is built
from its three-term recurrence and is the recurrence side of the
valley census check; it keeps its place and name here because the
benchmark's tracer (``perfbench/child.py``) wraps ``oracles.u_table``.

Statistic conventions on a list w of distinct integers, 1-based:

* descent: position i with w_i > w_{i+1}.
* left peak: index i in [1, n-1] with w_{i-1} < w_i > w_{i+1}, reading
  w_0 = 0; the final entry is never a left peak.
* right valley: entry w_i, i in [2, n], with w_{i-1} > w_i < w_{i+1},
  reading w_{n+1} = +infinity; the final entry can be a right valley.
* las: length of the longest alternating subsequence whose comparisons
  run descent, ascent, descent, ...; a single entry has las 1, the empty
  list is an error.

Each statistic is written once, as a ``Stat``: an initial state, a step
that reads one entry and returns the next state and what the entry adds,
and a final amount read off the last state.  ``scan`` runs it over one
list.  las is the greedy count of Stanley ("Longest alternating
subsequences of permutations", Michigan Math. J. 57, 2008): every strict
comparison between neighbours that turns the way the subsequence needs
next adds one entry, so its state is the previous entry and the parity.

The distributions are counted by the transfer-matrix method (Stanley,
Enumerative Combinatorics I, section 4.7).  For each statistic and head
list, one memo maps a set of values placed, as a mask in which bit x
stands for the value x itself, to the number of its orderings that reach
each (scan state, total so far).  The orderings of a set are those of
the set without x followed by x, for each x in it, so every ordering is
still scored by the statistic's own step, and orderings that reach the
same key are counted together.  An ordering of a set is a prefix of an
ordering of each of its supersets, so ``_tally`` requests share the
memo: every minima set of every census shares one walk, and so do the
rows 0..n of a permutation distribution.  The memo is keyed on the
values, never on how many there are.  Its walk over the subsets of N
values takes N 2^(N-1) steps times the (state, total) pairs a set can
reach, once per statistic and head, where brute force takes n n! steps
for each request.

A cyclically ordered partition (cop) of [n] is kept in canonical form: a
tuple of blocks, each block increasing, the block containing 1 first.
Its openers are the block minima in block order, so its opener list is 1
followed by an ordering of the other minima, and a cop is exactly a set
partition together with such an ordering.  The opener census counts the
set partitions of [n] by their set of minima M in one walk over the
elements, then joins each M with the tally of the orderings of M's own
values; it never reduces M to its size, which would make the census the
Stirling-times product that it is checked against.  Only
``enumerate_cops`` builds the cops themselves, because its canonical
order is part of the CLI output: on each call it files each cop under
its block count, sorts each group in plain tuple order and joins the
groups by ascending count.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .config import Caps
from .errors import EmptyList
from .poly import _exact

Cop = tuple[tuple[int, ...], ...]
Matching = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Statistics.


class Stat(NamedTuple):
    """A statistic as a one-pass scan over a list.

    ``step(state, x)`` returns the next state and the amount the entry x
    adds; ``final(state)`` is the amount added after the last entry.
    """

    init: object
    step: Callable[[object, int], tuple[object, int]]
    final: Callable[[object], int]


def _las_step(s: tuple[float, bool], x: int) -> tuple[tuple[float, bool], bool]:
    # s = (previous entry, length is odd); an odd length turns on a descent.
    turn = x < s[0] if s[1] else x > s[0]
    return (x, s[1] != turn), turn


# descents reads prev > x; left peaks keep (prev, prev rose) from a 0
# sentinel; right valleys keep (prev, prev fell) and count a final fall
# against the +infinity sentinel; las is 1 plus its greedy turns.
DESCENTS = Stat(-math.inf, lambda prev, x: (x, prev > x), lambda s: 0)
LEFT_PEAKS = Stat((0, False), lambda s, x: ((x, s[0] < x), s[1] and s[0] > x), lambda s: 0)
RIGHT_VALLEYS = Stat(
    (-math.inf, False), lambda s, x: ((x, s[0] > x), s[1] and s[0] < x), lambda s: s[1]
)
LAS = Stat((-math.inf, True), _las_step, lambda s: 1)


def _run(stat: Stat, w: Iterable[int]) -> tuple[object, int]:
    """The state after reading w from stat's initial state, and the sum added."""
    state, step, _ = stat
    total = 0
    for x in w:
        state, add = step(state, x)
        total += add
    return state, total


def scan(stat: Stat, w: Iterable[int]) -> int:
    """The value of stat on the list w, read left to right in one pass."""
    state, total = _run(stat, w)
    return total + stat.final(state)


def descents(w: Sequence[int]) -> int:
    return scan(DESCENTS, w)


def left_peaks(w: Sequence[int]) -> int:
    return scan(LEFT_PEAKS, w)


def right_valleys(w: Sequence[int]) -> int:
    return scan(RIGHT_VALLEYS, w)


def las(w: Sequence[int]) -> int:
    """Longest alternating subsequence length (first comparison a descent)."""
    if not w:
        raise EmptyList("las is undefined on an empty list")
    return scan(LAS, w)


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


def enumerate_cops(n: int, caps: Caps = Caps()) -> Iterator[Cop]:
    """Cyclically ordered partitions of [n] in canonical form.

    Order: by block count, then lexicographically on the block tuples.
    The cap is checked at the call, and the cops are built there too:
    each is filed under its block count, each group is sorted in plain
    tuple order, and the iterator joins the groups by ascending count,
    which is the order of a sort keyed on ``(len(cop), cop)`` without a
    key for every cop.
    """
    caps.check("cops", n, 1)
    groups: list[list[Cop]] = [[] for _ in range(n + 1)]
    for blocks in _set_partitions(n):
        first, rest = blocks[0], blocks[1:]
        group = groups[len(blocks)]
        for arrangement in itertools.permutations(rest):
            group.append((first,) + arrangement)
    for group in groups:
        group.sort()
    return itertools.chain.from_iterable(groups)


# ---------------------------------------------------------------------------
# Count tables.

_STATS = {"descents": DESCENTS, "right_valleys": RIGHT_VALLEYS, "las": LAS}


def stat_names() -> tuple[str, ...]:
    return tuple(_STATS)


@lru_cache(maxsize=None)
def _subset_memo(
    stat: Stat, head: tuple[int, ...]
) -> tuple[dict[int, dict[tuple[object, int], int]], dict]:
    """The shared memo of stat after head, and its store of distinct keys.

    The memo maps the set of values placed, a mask in which bit x stands
    for the value x, to the number of their orderings that reach each
    (scan state, total so far).  It starts with the empty set and grows
    as ``_tally`` adds sets.  The second dict stores each distinct
    (state, total) key once, so every set that reaches a key shares one
    object instead of holding a fresh tuple of its own.
    """
    return {0: {_run(stat, head): 1}}, {}


@lru_cache(maxsize=None)
def _tally(
    stat: Stat, head: tuple[int, ...], values: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """Distribution of stat over head followed by each ordering of values.

    values are distinct positive ints; a repeat or a value below 1
    raises ValueError.  Their orderings are read off the memo of (stat,
    head), which every request with that stat and head shares: an
    ordering of a set is a prefix of an ordering of each of its
    supersets, so a request counts only the subsets that no earlier one
    reached, and all requests together count the 2^N subsets of the N
    values they use once, instead of once per request.  One walk over
    the submasks of the request finds the sets not yet in the memo, and
    they are counted smallest first, so no recursion grows with the size
    of the set.  The orderings of a set end in each of its values x,
    after an ordering of the set without x, and every one of them is
    scored by stat's own step.
    """
    mask = 0
    for x in values:
        if x < 1 or mask >> x & 1:
            raise ValueError(f"tally values must be distinct positive ints, got {values!r}")
        mask |= 1 << x
    memo, keys = _subset_memo(stat, head)
    missing, used = [], mask
    while used:
        if used not in memo:
            missing.append(used)
        used = (used - 1) & mask
    step = stat.step
    for used in sorted(missing, key=int.bit_count):
        counts: dict[tuple[object, int], int] = {}
        rest = used
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            for (state, total), count in memo[used ^ bit].items():
                new, add = step(state, x)
                key = (new, total + add)
                key = keys.setdefault(key, key)
                counts[key] = counts.get(key, 0) + count
        memo[used] = counts
    by_value: dict[int, int] = {}
    for (state, total), count in memo[mask].items():
        value = total + stat.final(state)
        by_value[value] = by_value.get(value, 0) + count
    return tuple(sorted(by_value.items()))


def _minima_walk(n: int) -> dict[tuple[int, ...], int]:
    """Set partitions of [n], n >= 1, counted by their block minima.

    Element i = 2..n joins one of the blocks open so far, one per
    minimum, or opens a block of its own with minimum i.
    """
    layer = {(1,): 1}
    for i in range(2, n + 1):
        nxt = {}
        for minima, count in layer.items():
            nxt[minima] = count * len(minima)
            nxt[minima + (i,)] = count
        layer = nxt
    return layer


def cop_stat_table(n: int, stat: str, caps: Caps = Caps()) -> dict[tuple[int, int], int]:
    """Counts of cyclically ordered partitions of [n] by (blocks, statistic).

    The statistic is applied to the opener list; recognized names are
    descents, right_valleys, and las.  Each call walks the set partitions
    by their minima and joins each minima set with the tally of its
    opener orderings, so no cop is listed; the dict returned is the
    caller's own, with its keys in ascending order.
    """
    if stat not in _STATS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {', '.join(_STATS)}")
    caps.check("cops", n, 1)
    counts: dict[tuple[int, int], int] = {}
    for minima, partitions in _minima_walk(n).items():
        # The opener lists of the cops on these blocks: 1, then every
        # ordering of the other minima.
        for value, orders in _tally(_STATS[stat], (1,), minima[1:]):
            key = (len(minima), value)
            counts[key] = counts.get(key, 0) + partitions * orders
    return dict(sorted(counts.items()))


def u_table(nmax: int) -> dict[tuple[int, int, int], int]:
    """Valley-count table built purely from its three-term recurrence.

    u[n, k, l] counts cyclically ordered partitions of [n] with k blocks
    and l right valleys in the opener list, seeded by u[1, 1, 0] = 1 and
    grown level by level; no enumeration is involved, which makes this
    the recurrence side of a cross-check against the right-valley
    census of ``cop_stat_table``.
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


def left_peak_counts(n: int, caps: Caps = Caps()) -> dict[int, int]:
    """Distribution of left peaks over all permutations of [n], by count."""
    caps.check("permutations", n)
    return dict(_tally(LEFT_PEAKS, (), tuple(range(1, n + 1))))


def las_counts(n: int, caps: Caps = Caps()) -> dict[int, int]:
    """Distribution of las over all permutations of [n], by length.

    The empty permutation is assigned las 0 by convention so that the
    ``triangle las`` table has a row 0.
    """
    caps.check("permutations", n)
    if n == 0:
        return {0: 1}
    return dict(_tally(LAS, (), tuple(range(1, n + 1))))

