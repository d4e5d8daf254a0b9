"""Enumeration oracles and the distributions of list statistics they count.

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
  run descent, ascent, descent, ...; a single entry has las 1.  No table
  scores the empty list: ``las_counts`` gives the empty permutation las 0
  by convention.

Each statistic is written once, as a ``Stat``: an initial state, a step
that reads one entry and returns the next state and what the entry adds,
and a final amount read off the last state.  The tallies below run it
over every ordering of a set of values at once; no command scores a
single list.  las is the greedy count of Stanley ("Longest alternating
subsequences of permutations", Michigan Math. J. 57, 2008): every strict
comparison between neighbours that turns the way the subsequence needs
next adds one entry, so its state is the previous entry and the parity.

The distributions are counted by the transfer-matrix method (Stanley,
Enumerative Combinatorics I, section 4.7).  For each statistic and head
list, one memo maps a set of values placed, as a mask in which bit x
stands for the value x itself, to the number of its orderings that reach
each (scan state, total so far), a key that the memo numbers once.  The
orderings of a set are those of the set without x followed by x, for
each x in it, so every ordering is still scored by the statistic's own
step, and orderings that reach the same key are counted together.  The
step from a key on a value x is computed the first time some set needs
it and kept in the memo's move table, a list of key numbers per value;
every later set reads the move there.  An ordering of a set is a prefix
of an ordering of each of its supersets, so ``_tally`` requests share
the memo: every minima set of every census shares one walk, and so do
the rows 0..n of a permutation distribution.  The memo is keyed on the
values, never on how many there are.  Its walk over the subsets of N
values takes N 2^(N-1) table reads times the keys a set can reach, and
at most one step per key and value, once per statistic and head, where
brute force takes n n! steps for each request.

A cyclically ordered partition (cop) of [n] is kept in canonical form: a
tuple of blocks, each block increasing, the block containing 1 first.
Its openers are the block minima in block order, so its opener list is 1
followed by an ordering of the other minima, and a cop is exactly a set
partition together with such an ordering.  The opener census counts the
set partitions of [n] by their set of minima M in one walk over the
elements, then joins each M with the tally of the orderings of M's own
values; it never reduces M to its size, which would make the census the
Stirling-times product that it is checked against.  Only
``enumerate_cops`` lists the cops themselves, because its canonical
order is part of the CLI output, and it lists them as text, never as
tuples: its recursion yields them in canonical order with no sort, each
run of cops that share a tail is written once and given each of its
heads by one string replace, and the text comes out in pieces, one per
first block, or per first two blocks when the first is (1) alone, so no
caller needs the whole listing at once.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .config import Caps
from .errors import _exact

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


# The pieces of a cops listing: a block's opener, the separator between its
# entries and its closer; a cop's opener, the separator between its blocks
# and its closer; and the separator between cops.  COPS_JSON gives the bytes
# that json.dumps(indent=2) writes for the cops as lists of lists, nested in
# the CLI's {"cops": [...], "n": n} object.
COPS_TEXT = ("(", ",", ")", "", "", "", "\n")
COPS_JSON = ("      [\n        ", ",\n        ", "\n      ]", "    [\n", ",\n", "\n    ]", ",\n")


def _blocks(rest: tuple[int, ...], most: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """(block, what it leaves of rest) for each nonempty block of rest.

    Blocks have at most ``most`` entries and come in tuple order: each
    entry x of rest, then x followed by each block of the entries after x.
    """
    for i, x in enumerate(rest):
        yield (x,), rest[:i] + rest[i + 1 :]
        if most > 1:
            for block, others in _blocks(rest[i + 1 :], most - 1):
                yield (x, *block), rest[:i] + others


def _cop_listing(ground: tuple[int, ...], form: tuple[str, ...]) -> Iterator[str]:
    """The cops of the increasing tuple ground in canonical order, in pieces.

    ``parts(rest, j)`` is the text of every ordered partition of rest into
    j blocks in lexicographic order, each line after a NUL marker that no
    output contains: each block B of rest in tuple order, followed by the
    ordered partitions of what B leaves into j - 1 blocks.  Putting B's
    text in front of all those lines is one ``str.replace`` of the marker.
    A cop with k blocks is its first block, which holds the least element,
    then an ordered partition of the rest into k - 1 blocks.  The cops
    that share a first block are one piece, except when that block is
    (ground[0]) alone and k > 2: then each second block B gives one piece,
    the partitions of what B leaves into k - 2 blocks with both heads put
    in by one replace.  Half the cops open with (ground[0]), so one piece
    for all of them would be the largest text of the listing.  Each piece
    is yielded as soon as it is made; the pieces joined are the listing.

    Each distinct block is rendered once, and so is each (rest, j), but
    the memo keeps a text only while a later call can reuse it.  Let M be
    the missing elements, ground less rest.  M = {ground[0]} never reaches
    the memo: the split above asks for no such text at k > 2, and at k = 2
    it has j = 1, which returns first.  The text of (rest, j) is asked for
    once for each ordered partition of M into blocks whose first holds
    ground[0], at block count k = j + its number of blocks:

    * |M| = 2, M = {ground[0], a}: twice, first as the first block (k =
      j + 1), then as (ground[0]) and (a) at k = j + 2, the last time.
      The text is kept until that second call takes it out of the memo.
    * |M| >= 3: six times or more, spread over several block counts.
      The text is kept to the end.

    For [8] the largest piece is 43,200 characters of the 2,153,796 in
    text (381,600 of 18,191,958 in JSON), about 2%.  The peak is the
    memo, which holds at most about 431,000 characters in text (3.6
    million in JSON): about half are |M| = 2 texts waiting for their
    second call, and 40% are |M| = 3 texts.

    A listing read to its end frees the memo and the block-text cache at
    once.  One abandoned early, as when the reader closes the pipe, leaves
    them to the cyclic collector, since ``parts`` refers to itself.
    """
    block_open, entry_sep, block_close, cop_open, block_sep, cop_close, cop_sep = form
    text = lru_cache(maxsize=None)(
        lambda block: block_open + entry_sep.join(map(str, block)) + block_close
    )
    memo: dict[tuple[tuple[int, ...], int], str] = {}

    def parts(rest: tuple[int, ...], j: int) -> str:
        if j == 1:
            return "\0" + block_sep + text(rest) + cop_close
        missing = len(ground) - len(rest)
        found = memo.pop((rest, j), None) if missing == 2 else memo.get((rest, j))
        if found is None:
            found = "".join(
                parts(others, j - 1).replace("\0", "\0" + block_sep + text(block))
                for block, others in _blocks(rest, len(rest) - j + 1)
            )
            memo[rest, j] = found
        return found

    yield cop_open + text(ground) + cop_close
    for k in range(2, len(ground) + 1):
        for first, others in _blocks(ground, len(ground) - k + 1):
            if first[0] != ground[0]:
                break
            head = cop_sep + cop_open + text(first)
            if len(first) > 1 or k == 2:
                yield parts(others, k - 1).replace("\0", head)
            else:
                for block, rest in _blocks(others, len(others) - k + 2):
                    yield parts(rest, k - 2).replace("\0", head + block_sep + text(block))
    del parts


def enumerate_cops(
    n: int, caps: Caps = Caps(), form: tuple[str, ...] = COPS_TEXT
) -> Iterator[str]:
    """The cyclically ordered partitions of [n] in canonical form, as text pieces.

    Order: by block count, then lexicographically on the block tuples.
    Each cop is written with form's pieces, ``COPS_TEXT`` or ``COPS_JSON``,
    and the cops are joined by its separator, with nothing after the last.
    The cap is checked when this is called, before any piece is made.  A
    piece is the cops that share their first block, or their first two
    blocks when the first is (1) alone, about 2% of the listing for [8] at
    most; ``"".join`` of the pieces is the whole listing.
    """
    caps.check("cops", n, 1)
    return _cop_listing(tuple(range(1, n + 1)), form)


# ---------------------------------------------------------------------------
# Count tables.

_STATS = {"descents": DESCENTS, "right_valleys": RIGHT_VALLEYS, "las": LAS}


@lru_cache(maxsize=None)
def _subset_memo(
    stat: Stat, head: tuple[int, ...]
) -> tuple[dict[int, dict[int, int]], list[tuple[object, int]], dict, dict[int, list]]:
    """The shared memo of stat after head, its numbered keys and its moves.

    The memo maps the set of values placed, a mask in which bit x stands
    for the value x, to the number of their orderings that reach each key
    (scan state, total so far), by key number.  The list holds the keys
    in number order and the dict gives each key its number; the empty
    set reaches key 0, the scan of head.  The move table maps a value x
    to a list that holds, at each key number, the number of the key that
    stat's step reaches from it by reading x, or None until some set
    needs that move.  All four grow as ``_tally`` adds sets.
    """
    first = _run(stat, head)
    return {0: {0: 1}}, [first], {first: 0}, {}


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
    the submasks of the request finds the sets not yet in the memo, in
    decreasing order, and they are counted in the reverse order: every
    subset of a set is a smaller int, so no set is counted before its
    subsets, and no recursion grows with the size of the set.  The
    orderings of a set end in each of its values x, after an ordering
    of the set without x, and every one of them is scored by stat's own
    step: the first time a key number meets x, the step computes the
    move and the move table keeps it, so each (key, x) move is computed
    once however many sets make it.
    """
    mask = 0
    for x in values:
        if x < 1 or mask >> x & 1:
            raise ValueError(f"tally values must be distinct positive ints, got {values!r}")
        mask |= 1 << x
    memo, keys, numbers, moves = _subset_memo(stat, head)
    missing, used = [], mask
    while used:
        if used not in memo:
            missing.append(used)
        used = (used - 1) & mask
    for used in reversed(missing):
        counts: dict[int, int] = {}
        rest = used
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            # Every key read below is numbered already, so one extension
            # gives x's row a place for each of them.
            move = moves.setdefault(x, [])
            move += [None] * (len(keys) - len(move))
            for k, count in memo[used ^ bit].items():
                j = move[k]
                if j is None:
                    state, total = keys[k]
                    new, add = stat.step(state, x)
                    key = (new, total + add)
                    j = move[k] = numbers.setdefault(key, len(keys))
                    if j == len(keys):
                        keys.append(key)
                counts[j] = counts.get(j, 0) + count
        memo[used] = counts
    by_value: dict[int, int] = {}
    for k, count in memo[mask].items():
        state, total = keys[k]
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

