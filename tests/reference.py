"""Slow, direct references for the fast paths, for differential tests.

Polynomial multiplication and the derive kernel run on Kronecker-packed
int keys.  Their references merge sorted (letter, exponent) tuples
instead, and list terms in the order they are first reached; the
differential tests compare the fast path's exact term list with the
reference's terms in print order, since every polynomial lists its terms
in that order.  The derive kernel also keeps the step that its diagonal
runs replaced, ``ScatterPacking``: one dict update per term and entry over
the same packed keys, fast enough to check levels 20 to 40 deep, where
the tuple reference is too slow.  ``print_order`` computes that order
with its own sort key, not from the packed keys that ``poly`` sorts by, so
the order tests do not compare the code with itself.  ``reference_text`` writes each term afresh
in that order, for the tests of the text pieces.

The canonical cop order and the ``cops`` listing have references too:
the set partitions by recursion, every arrangement of the blocks after
the first, one key-sorted list, every block rendered afresh on every text
line, and ``json.dumps`` for the JSON form.

The Whitney numbers have the explicit binomial-Stirling sum, with the
Stirling numbers by inclusion-exclusion, so no row recurrence is used.

The verifier pushes a whole level through a seed's transport table at
once; ``reference_transport`` is the per-cell form it replaced, which
sums one cell of the next level over the table's shifts.

The list statistics, and the object statistics that the acceptance
checks count (a cop's openers, the type-B descents of a signed
permutation, the odd smaller entries of a matching), have references
read straight off their definitions, and the perfect matchings one by
tuple-slicing recursion.  ``gramcalc`` counts each ``Stat`` only over every ordering of
a set, by a prefix-state tally; ``scan`` runs one over a single list from
its own fields, and the distribution references score every permutation,
and every cop's opener list, one by one with it.
"""

import itertools
import json
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator

from gramcalc import poly
from gramcalc.errors import UnknownLetter
from gramcalc.grammar import Grammar
from gramcalc.oracles import Matching, Stat
from gramcalc.poly import Monomial, Polynomial, mono_degree

Cop = tuple[tuple[int, ...], ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two canonical monomials (merge sorted pair lists)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        la, ea = a[i]
        lb, eb = b[j]
        if la == lb:
            out.append((la, ea + eb))
            i += 1
            j += 1
        elif la < lb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _add_term(out: dict, key: Monomial, coeff: int) -> None:
    # Delete on zero, so no zero coefficient is stored.
    c = out.get(key, 0) + coeff
    if c:
        out[key] = c
    elif key in out:
        del out[key]


def reference_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out = {}
    for ma, ca in p.terms().items():
        for mb, cb in q.terms().items():
            _add_term(out, mono_mul(ma, mb), ca * cb)
    return Polynomial._raw(out)


def reference_pow(p: Polynomial, e: int) -> Polynomial:
    """Square and multiply from the low bit, as ``Polynomial.__pow__`` does."""
    result, base = Polynomial.one(), p
    while e:
        if e & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        e >>= 1
    return result


def reference_derive(grammar: Grammar, p: Polynomial) -> Polynomial:
    """Term-by-term derivative over tuple monomials."""
    rules = grammar.rules
    out = {}
    for mono, coeff in p.terms().items():
        for idx, (letter, exp) in enumerate(mono):
            rule = rules.get(letter)
            if rule is None:
                if letter in grammar.constants:
                    continue
                raise UnknownLetter(letter, "cannot derive")
            if exp == 1:
                reduced = mono[:idx] + mono[idx + 1 :]
            else:
                reduced = mono[:idx] + ((letter, exp - 1),) + mono[idx + 1 :]
            for rmono, rcoeff in rule.terms().items():
                _add_term(out, mono_mul(reduced, rmono), coeff * exp * rcoeff)
    return Polynomial._raw(out)


def reference_levels(grammar: Grammar, p: Polynomial, nmax: int) -> list[Polynomial]:
    """Levels 0..nmax; a letter of p that the grammar does not know is
    refused at every depth, 0 included, the alphabetically first named."""
    for letter in p.letters():
        if letter not in grammar.letters:
            raise UnknownLetter(letter, "cannot derive")
    levels = [p]
    for _ in range(nmax):
        levels.append(reference_derive(grammar, levels[-1]))
    return levels


class ScatterPacking(poly._Packing):
    """Packed keys for deriving p up to depth n, one term at a time.

    The degree bound is the kernel's.  The rule terms fold into entries by
    key delta and rule coefficient: a rule term ``c*m`` of letter L moves a
    term from key to key + delta, delta the key of m minus L's unit key,
    and adds coeff * e_L * c there.  An entry keeps that delta, c, and a
    weight word ``sum(1 << (top - shift_L))`` over the letters L whose rule
    reaches the delta with c, top the highest slot shift.  The field at top
    of key * weights is the sum of e_L over the entry's letters: distinct
    letters move distinct slots onto it, and the degree bound keeps that
    sum inside one slot.
    """

    __slots__ = ("_top", "_entries")

    def __init__(self, grammar: Grammar, p: Polynomial, n: int):
        rules = grammar.rules
        for letter in p.letters():
            if letter not in grammar.letters:
                raise UnknownLetter(letter, "cannot derive")
        growth = max(
            (mono_degree(m) - 1 for rhs in rules.values() for m in rhs.terms()), default=0
        )
        super().__init__(grammar.letters, p.degree() + n * max(0, growth))
        top = self._top = max(self._shifts.values(), default=0)
        folded: dict[tuple[int, int], int] = {}
        for letter, rhs in rules.items():
            shift = self._shifts[letter]
            for m, c in rhs.terms().items():
                entry = (self.pack_mono(m) - (1 << shift), c)
                folded[entry] = folded.get(entry, 0) + (1 << (top - shift))
        self._entries = [(delta, weights, c) for (delta, c), weights in folded.items()]

    def step(self, terms: dict[int, int]) -> dict[int, int]:
        """One derivative: each entry adds coeff * multiplier * c at key + delta.

        An entry moves every key by the same delta, so the first entry's
        targets are distinct and it fills the level in one comprehension;
        the later entries add to it, skipping a zero multiplier.  Zeros are
        removed once, at the end of the step.
        """
        if not self._entries:
            return {}
        top, mask = self._top, self._mask
        items = terms.items()
        (delta, weights, c), *rest = self._entries
        out = {key + delta: coeff * ((key * weights >> top & mask) * c) for key, coeff in items}
        get = out.get
        for delta, weights, c in rest:
            for key, coeff in items:
                m = key * weights >> top & mask
                if m:
                    k = key + delta
                    out[k] = get(k, 0) + coeff * (m * c)
        if 0 in out.values():
            out = {k: v for k, v in out.items() if v}
        return out


def scatter_levels(grammar: Grammar, p: Polynomial, nmax: int, most: int) -> list[Polynomial]:
    """Levels 0..nmax by ``ScatterPacking``, or up to the first of more than most terms."""
    packing = ScatterPacking(grammar, p, nmax)
    levels = [p]
    terms = packing.pack(p)
    while len(levels) <= nmax and len(levels[-1]) <= most:
        terms = packing.step(terms)
        levels.append(packing.unpack(terms))
    return levels


def print_order(p: Polynomial) -> list[tuple[Monomial, int]]:
    """p's terms by ascending exponent vector over its sorted letters."""
    axes = p.letters()

    def key(item: tuple[Monomial, int]) -> tuple[int, ...]:
        exps = dict(item[0])
        return tuple(exps.get(a, 0) for a in axes)

    return sorted(p.terms().items(), key=key)


def reference_text(p: Polynomial, explicit_mul: bool = True) -> str:
    """p as ``str(p)`` writes it (``p.compact()`` without explicit_mul), term by term."""
    sep = "*" if explicit_mul else ""
    out = ""
    for mono, coeff in print_order(p):
        factors = [l if e == 1 else f"{l}^{e}" for l, e in mono]
        if abs(coeff) != 1 or not mono:
            factors.insert(0, str(abs(coeff)))
        if out:
            out += " + " if coeff > 0 else " - "
        elif coeff < 0:
            out = "-"
        out += sep.join(factors)
    return out or "0"


def assert_same_terms(actual: Polynomial, expected: Polynomial) -> None:
    # Lists, not dicts: every polynomial holds its terms in print order,
    # and extract_coeffs reports the first bad monomial in term order, so
    # the order is part of the contract.
    assert list(actual.terms().items()) == print_order(expected)


def set_partitions(n: int) -> Iterator[Cop]:
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


def reference_cops(n: int) -> list[Cop]:
    """Cops of [n] sorted by one key, (block count, block tuples)."""
    cops = []
    for blocks in set_partitions(n):
        first, rest = blocks[0], blocks[1:]
        for arrangement in itertools.permutations(rest):
            cops.append((first,) + arrangement)
    cops.sort(key=lambda cop: (len(cop), cop))
    return cops


def reference_cop_line(cop: Cop) -> str:
    """One ``cops`` text line, each block rendered where it stands."""
    return "".join("(" + ",".join(str(e) for e in block) + ")" for block in cop)


def reference_listing(cops: list[Cop], form: str) -> str:
    """What ``enumerate_cops`` writes for cops in the "text" or "json" form.

    Text is the lines joined by newlines.  JSON is the part of
    ``json.dumps(indent=2)`` of ``{"cops": cops}`` between the array's
    brackets, cops and blocks written as lists.
    """
    if form == "text":
        return "\n".join(map(reference_cop_line, cops))
    text = json.dumps({"cops": [[list(block) for block in cop] for cop in cops]}, indent=2)
    head, tail = '{\n  "cops": [\n', "\n  ]\n}"
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head) : -len(tail)]


@lru_cache(maxsize=None)
def reference_stirling2(n: int, k: int) -> int:
    """S(n, k) by inclusion-exclusion: surjections of [n] onto k blocks, over k!."""
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    return total // math.factorial(k)


def reference_whitney(m: int, n: int, k: int) -> int:
    """W_m(n, k) as the sum over i of C(n, i) m^(i-k) S(i, k), 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    return sum(math.comb(n, i) * m ** (i - k) * reference_stirling2(i, k) for i in range(k, n + 1))


def scan(stat: Stat, w) -> int:
    """The value of stat on the list w, read left to right in one pass."""
    state, total = stat.init, 0
    for x in w:
        state, add = stat.step(state, x)
        total += add
    return total + stat.final(state)


def reference_perm_counts(n: int, stat: Stat) -> Counter:
    """Distribution of stat over the permutations of [n], one at a time."""
    return reference_tally(stat, (), tuple(range(1, n + 1)))


def reference_tally(stat: Stat, head: tuple[int, ...], values: tuple[int, ...]) -> Counter:
    """Distribution of stat over head followed by each ordering of values, one at a time."""
    return Counter(scan(stat, head + rest) for rest in itertools.permutations(values))


def reference_census(n: int, stat: Stat) -> dict[tuple[int, int], int]:
    """Cops of [n] by (blocks, stat of the opener list), one cop at a time."""
    counts: dict[tuple[int, int], int] = {}
    for blocks in set_partitions(n):
        k = len(blocks)
        # The openers of every cop on these blocks: 1, then the other
        # block minima in each of their orders.
        for rest in itertools.permutations([block[0] for block in blocks[1:]]):
            key = (k, scan(stat, (1,) + rest))
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_descents(w):
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def reference_des_b(pi):
    """Type-B descents of a signed permutation: the descents of 0, pi(1), ..., pi(n)."""
    return reference_descents((0, *pi))


def reference_odd_smaller_count(matching: Matching) -> int:
    """Pairs of a perfect matching whose smaller entry is odd."""
    return sum(1 for pair in matching if min(pair) % 2 == 1)


def openers(cop: Cop) -> tuple[int, ...]:
    """Block minima of a canonical cop, in block order."""
    return tuple(block[0] for block in cop)


def reference_left_peaks(w):
    count = 0
    for i in range(len(w) - 1):
        prev = w[i - 1] if i > 0 else 0
        if prev < w[i] > w[i + 1]:
            count += 1
    return count


def reference_right_valleys(w):
    count = 0
    n = len(w)
    for i in range(1, n):
        nxt = w[i + 1] if i + 1 < n else math.inf
        if w[i - 1] > w[i] < nxt:
            count += 1
    return count


def reference_las(w):
    """Quadratic DP over end positions: best odd and even lengths ending at each entry."""
    n = len(w)
    best_odd = [1] * n
    best_even = [0] * n
    for j in range(n):
        for i in range(j):
            if w[i] > w[j] and best_odd[i] + 1 > best_even[j]:
                best_even[j] = best_odd[i] + 1
            if w[i] < w[j] and best_even[i] + 1 > best_odd[j]:
                best_odd[j] = best_even[i] + 1
    return max(max(best_odd), max(best_even))


def reference_matchings(n):
    """Perfect matchings of [2n] by tuple-slicing recursion."""

    def gen(elems):
        if not elems:
            yield ()
            return
        first = elems[0]
        for idx in range(1, len(elems)):
            rest = elems[1:idx] + elems[idx + 1 :]
            for sub in gen(rest):
                yield ((first, elems[idx]),) + sub

    return gen(tuple(range(1, 2 * n + 1)))


def reference_transport(table: dict, prev: dict, i: int, j: int) -> int:
    """Cell (i, j) of the level a transport table gives from the previous level, prev."""
    total = 0
    for (di, dj), (c, ci, cj) in table.items():
        total += (c + ci * i + cj * j) * prev.get((i + di, j + dj), 0)
    return total
