"""Grammar-driven formal derivatives of exact polynomials.

A grammar assigns to each ruled letter a substitution polynomial.  The
induced derivative operator D is linear over the integers, satisfies the
Leibniz rule on products, and sends each ruled letter to its substitution
polynomial.  Letters without a rule must be declared constant explicitly
and derive to zero; any other unruled letter is an error, never silently
a constant.

Derive first factors out the grammar's Euler part.  Say every rule
``l -> ...`` holds the term c*l, with one integer c != 0 for all ruled
letters, and every other rule term raises the ruled degree (the sum of
the exponents of ruled letters; constants do not count) by one fixed
r != 0.  Then D = c*E + H, where E, the Euler operator, sends a term to
its ruled degree times itself, and H is the grammar of the raising terms.
H sends a polynomial of ruled degree d into ruled degree d + r, so on
that degree E*H - H*E = r*H, and by induction on n, for a start p_d of
ruled degree d,

    D^n(p_d) = sum over k of sigma(n, k) * H^k(p_d),
    sigma(0, 0) = 1,
    sigma(m + 1, k) = c*(d + k*r)*sigma(m, k) + sigma(m, k - 1),

since D*H^k(p_d) = c*(d + k*r)*H^k(p_d) + H^(k+1)(p_d).  This is the
grading argument of Chen's grammar calculus (TCS 117, 1993): for g1 the
sigma are Stirling numbers and the H-levels Eulerian polynomials.  Each
H^k(p_d) lies in its own ruled degree d + k*r, so the weighted H-levels
of one start component never share a term, and a level is one packed
dict of them; components of different degree are summed with
``Polynomial.sum_of``.  g1..g4 split with (c, r) = (1, 1) and g5 with
(1, 2); for g1 from x at depth 100, H's levels hold 5,050 cells where
D's hold 171,800.  A grammar with no such split, as g6 and gB, takes
c = 0 and H = D: then sigma(n, k) = [k = n], the whole start is one
component, and the same loop steps D itself.  The sigma come from the
rules and the start's degrees alone.

Each H-level runs on the packed keys of ``poly._Packing``, which
``Polynomial`` multiplication shares; this module adds what is specific
to derive: the unknown-letter check, the degree bound for a depth, the
row layout, the rule terms folded into entries, and the step.

A level is stored as runs along diagonals.  M and L are the two lowest
slots, and a diagonal steps by S = g*(unit_M - unit_L): g more of M, g
less of L.  The stride g is the gcd of the moves in M of the rule terms
that can apply, those of the letters reachable from the start, so no
step changes a term's M exponent mod g, and a diagonal holds the cells
of one such class s.  A level maps
the key of each run's first cell to the coefficients of consecutive
cells of one diagonal, cell t at key first + t*S.  A diagonal's row key
is its cell with M exponent s, the rest of M's exponent moved into L's
slot, which the degree bound already fits.  Where M never moves, or the
grammar has one letter, the diagonals run along L alone, S = g*unit_L.

The rule terms fold into one entry per delta, the change a rule term
makes to the exponents, with the rule coefficient of each letter whose
rule makes that change.  An entry sends a whole run into one target
diagonal with one index shift, and its multiplier along the run is an
arithmetic progression: alpha, the sum of coefficient times exponent over
its letters at the run's first cell, and step beta = g*(c_M - c_L).  A
run's contribution is one ``map(mul, values, count(alpha, beta))`` and
adding it to its target is one slice assignment of ``map(add, ...)``.  So
the work of a step is cells x entries multiplies and adds, done in C, the
quantity a cap on a step's work would bound, plus a fixed amount of
Python per (run, entry) pair, which dominates when runs are short.  Each
step gathers whole diagonals and stores them as runs split at zeros, so
no level stores a zero; on the builtin grammars, whose levels fill
simplices with no gaps, that is one run per diagonal.  The unknown-letter
check runs at every depth, 0 included, and every level lists its terms in
print order, as every polynomial does.
"""

from __future__ import annotations

from itertools import count, groupby, repeat
from math import gcd
from operator import add, mul
from typing import Iterable, Mapping

from . import poly
from .errors import DuplicateRule, UnknownLetter, _exact
from .poly import Polynomial, mono_degree


class Grammar:
    """A finite set of substitution rules plus declared constant letters."""

    __slots__ = ("_rules", "_constants", "_split")

    def __init__(
        self,
        rules: Mapping[str, Polynomial | int],
        constants: Iterable[str] = (),
    ):
        normalized: dict[str, Polynomial] = {}
        for letter, rhs in rules.items():
            if not isinstance(letter, str) or not letter.isidentifier():
                raise ValueError(f"ruled letter must be an identifier, got {letter!r}")
            # to_dsl would write "const -> ...", which parses as a const statement.
            if letter == "const":
                raise ValueError(
                    "the rule DSL reserves 'const'; it cannot be a ruled letter"
                )
            normalized[letter] = (
                rhs if isinstance(rhs, Polynomial) else Polynomial.constant(rhs)
            )
        consts = set()
        for letter in constants:
            if not isinstance(letter, str) or not letter.isidentifier():
                raise ValueError(f"constant letter must be an identifier, got {letter!r}")
            if letter in normalized:
                raise DuplicateRule(letter, "declared constant but also ruled")
            consts.add(letter)
        known = set(normalized) | consts
        for letter, rhs in normalized.items():
            for used in rhs.letters():
                if used not in known:
                    raise UnknownLetter(
                        used,
                        f"in the rule for {letter!r}; rule it or declare it constant",
                    )
        self._rules = normalized
        self._constants = frozenset(consts)
        self._split: tuple[int, int, Grammar] | None = None

    @property
    def rules(self) -> dict[str, Polynomial]:
        return dict(self._rules)

    @property
    def constants(self) -> frozenset[str]:
        return self._constants

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._rules) | self._constants))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return self._rules == other._rules and self._constants == other._constants

    __hash__ = None

    def to_dsl(self) -> str:
        """Render the grammar as rule DSL text that parses back equal."""
        parts = []
        if self._constants:
            parts.append("const " + ", ".join(sorted(self._constants)))
        for letter in sorted(self._rules):
            parts.append(f"{letter} -> {self._rules[letter]}")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"Grammar({self.to_dsl()!r})"

    def derive(self, p: Polynomial) -> Polynomial:
        """One application of the formal derivative."""
        return self.derive_n(p, 1)

    def derive_n(self, p: Polynomial, n: int) -> Polynomial:
        """n-fold derivative, keeping only the final level.

        Where every rule l -> ... holds c*l for one c != 0 and every other
        rule term raises the ruled degree by one r != 0, D = c*E + H with E
        the Euler operator, and E*H - H*E = r*H on each ruled degree.  So
        the start is cut into parts p_d of ruled degree d, only H is
        stepped, and each H-level H^k(p_d) is weighted by sigma(n, k) as it
        is made: sigma(0, 0) = 1, sigma(m + 1, k) = c*(d + k*r)*sigma(m, k)
        + sigma(m, k - 1).  With no such split c = 0 and H = D, so
        sigma(n, k) = [k = n] and the same loop steps D itself n times.
        The module docstring has the proof.
        """
        return self._levels(p, _exact(n, "derivative depth", 0), n)[-1]

    def derive_levels(self, p: Polynomial, nmax: int) -> list[Polynomial]:
        """All levels 0..nmax of the iterated derivative; level 0 is p itself.

        Level m is the sum over start parts p_d of sigma(m, k)*H^k(p_d),
        k <= m, as in ``derive_n``; each H-level is made once and weighted
        into every level still to come, and a level is unpacked as soon as
        its last H-level is in.  With no Euler split (c = 0) level m is
        H^m = D^m, as the plain loop makes it.  A letter of p with no rule
        and no const declaration raises UnknownLetter at every depth, 0
        included.
        """
        return self._levels(p, _exact(nmax, "derivative depth", 0), 0)

    def _euler_split(self) -> tuple[int, int, Grammar]:
        """(c, r, H) with D = c*E + H, or (0, 0, self) where the rules do not split.

        Where no rule term raises the degree, H has no terms and r is 1.
        """
        if self._split is None:
            rules = self._rules
            own, raises, rest = set(), set(), {}
            for letter, rhs in rules.items():
                terms = dict(rhs._terms)
                own.add(terms.pop(((letter, 1),), 0))
                raises.update(sum(e for l, e in m if l in rules) - 1 for m in terms)
                rest[letter] = Polynomial._raw(terms)
            if len(own) == 1 and len(raises) <= 1 and 0 not in own | raises:
                self._split = own.pop(), raises.pop() if raises else 1, Grammar(rest, self._constants)
            else:
                self._split = 0, 0, self
        return self._split

    def _levels(self, p: Polynomial, n: int, first: int) -> list[Polynomial]:
        """Levels first..n of the iterated derivative of p; level 0 is p itself."""
        rules = self._rules
        for letter in p.letters():
            if letter not in rules and letter not in self._constants:
                raise UnknownLetter(letter, "cannot derive")
        c, r, h = self._euler_split()
        parts: dict[int, dict] = {}
        for mono, coeff in p._terms.items():
            d = sum(e for l, e in mono if l in rules) if c else 0
            parts.setdefault(d, {})[mono] = coeff
        first, levels = max(first, 1), [] if first else [p]
        made: dict[int, list[Polynomial]] = {m: [] for m in range(first, n + 1)}
        for d, terms in parts.items():
            part = Polynomial._raw(terms)
            packing = _Packing(h, part, n)
            runs = packing.runs(part)
            # Each level still to come: its sigma row and its packed sum.
            sums = {m: (row, {}) for m, row in _sigma(c, r, d, first, n).items()}
            for k in range(n + 1):
                if k:
                    runs = packing.step(runs)
                for row, cells in sums.values():
                    if row[k]:
                        packing.put(cells, runs, row[k])
                if k in sums:
                    made[k].append(packing.unpack(sums.pop(k)[1]))
        levels += (ps[0] if len(ps) == 1 else Polynomial.sum_of(ps) for ps in made.values())
        return levels


def _sigma(c: int, r: int, d: int, first: int, n: int) -> dict[int, list[int]]:
    """Row m of sigma(m, k), k = 0..m, for m = first..n, where p_d has ruled degree d.

    With c = 0 the recurrence only shifts a row, so row m is [k = m].
    """
    if not c:
        return {m: [0] * m + [1] for m in range(first, n + 1)}
    scale = [c * (d + k * r) for k in range(n + 1)]
    rows, row = {}, [1]
    for m in range(n + 1):
        if m:
            row = list(map(add, map(mul, scale, [*row, 0]), [0, *row]))
        if m >= first:
            rows[m] = row
    return rows


class _Packing(poly._Packing):
    """Packed keys and diagonal runs for deriving p up to depth n.

    The slots are the grammar's letters, and the degree bound is proven: a
    step raises a term's total degree by at most the largest rule-term
    degree minus one, so no term of levels 0..n has total degree above
    ``p.degree() + n * max(0, that degree - 1)``.

    ``_slot`` is M's shift, ``_stride`` g and ``_pitch`` S, the key
    distance between neighbouring cells.  An entry is (row delta, index
    shift, ``[(slot shift, rule coefficient)]``, beta): a run whose first
    cell has index i on its diagonal (M exponent s + i*g, s < g) adds to the
    diagonal at its row key plus the row delta, from index i plus the index
    shift.  Where a cell's multiplier is nonzero, some letter of the entry
    has a positive exponent, so its target is a term's key; a zero
    multiplier may point anywhere, even before index 0.  So a step skips a
    run whose multipliers are all zero, and the zeros that other such
    cells add are dropped by the split.
    """

    __slots__ = ("_entries", "_slot", "_stride", "_pitch")

    def __init__(self, grammar: Grammar, p: Polynomial, n: int):
        rules = grammar._rules
        growth = max(
            (mono_degree(m) - 1 for rhs in rules.values() for m in rhs._terms),
            default=0,
        )
        letters = grammar.letters
        super().__init__(letters, p.degree() + n * max(0, growth))
        shifts = self._shifts
        # Only the rules of letters that can occur from p ever apply, and an
        # unused rule's moves would only shrink the stride: from x, g3's
        # w -> w + w*x would make it 1 where no step changes x's parity.
        reached, todo = set(), {l for l in p.letters() if l in rules}
        while todo:
            reached |= todo
            todo = {l for r in todo for m in rules[r]._terms for l, _ in m if l in rules} - reached
        # Entries by delta, the change a rule term makes to the exponents,
        # with the rule coefficient of each letter whose rule makes it.  The
        # packed delta alone is not a key, since an entry needs its move in
        # M: with one-bit slots, x -> y and y -> 1 both move a key by
        # unit_y - unit_x = -unit_y, but move x by -1 and 0.
        folded: dict[frozenset, tuple[dict[str, int], dict[str, int]]] = {}
        for letter, rhs in rules.items():
            if letter not in reached:
                continue
            for mono, c in rhs._terms.items():
                moves = dict(mono)
                moves[letter] = moves.get(letter, 0) - 1
                if not moves[letter]:
                    del moves[letter]
                folded.setdefault(frozenset(moves.items()), (moves, {}))[1][letter] = c

        def stride(m: str | None) -> int:
            return gcd(*(moves.get(m, 0) for moves, _ in folded.values()))

        m = partner = None
        if len(letters) > 1 and stride(letters[-2]):
            m, partner = letters[-2:]
        elif letters:
            m = letters[-1]
        g = self._stride = stride(m) or 1
        unit = {letter: 1 << shift for letter, shift in shifts.items()}
        pitch = self._pitch = g * (unit.get(m, 0) - unit.get(partner, 0))
        self._slot = shifts.get(m, 0)
        self._entries = [
            (
                sum(e << shifts[l] for l, e in moves.items()) - moves.get(m, 0) // g * pitch,
                moves.get(m, 0) // g,
                [(shifts[l], c) for l, c in coeffs.items()],
                g * (coeffs.get(m, 0) - coeffs.get(partner, 0)),
            )
            for moves, coeffs in folded.values()
        ]

    def runs(self, p: Polynomial) -> dict[int, list[int]]:
        """Level 0: each term of p as a run of one cell."""
        return {key: [coeff] for key, coeff in self.pack(p).items()}

    def put(self, terms: dict[int, int], runs: dict[int, list[int]], w: int) -> dict[int, int]:
        """Store each cell of runs, times w, in terms by its key; return terms.

        The keys must be new to terms, as an H-level's are to its
        component's other levels.
        """
        pitch = self._pitch
        for key, values in runs.items():
            cells = values if w == 1 else map(mul, values, repeat(w))
            terms.update(zip(range(key, key + len(values) * pitch, pitch), cells))
        return terms

    def step(self, runs: dict[int, list[int]]) -> dict[int, list[int]]:
        """One derivative: every entry adds each run's contribution to its target.

        Targets are whole diagonals, ``{row key: [first index, values]}``,
        grown with zeros at either end as contributions arrive; the level
        returned splits each at its zeros.
        """
        entries = self._entries
        slot, mask, g, pitch = self._slot, self._mask, self._stride, self._pitch
        rows: dict[int, list] = {}
        get = rows.get
        for key, values in runs.items():
            i = (key >> slot & mask) // g
            row = key - i * pitch
            for delta, k, coeffs, beta in entries:
                alpha = 0
                for shift, c in coeffs:
                    alpha += c * (key >> shift & mask)
                if not (alpha or beta):
                    continue
                a = i + k
                contrib = map(mul, values, count(alpha, beta))
                target = get(row + delta)
                if target is None:
                    rows[row + delta] = [a, list(contrib)]
                    continue
                first, cells = target
                if a < first:
                    cells[:0] = repeat(0, first - a)
                    target[0] = first = a
                lo = a - first
                hi = lo + len(values)
                if hi > len(cells):
                    cells += repeat(0, hi - len(cells))
                cells[lo:hi] = map(add, cells[lo:hi], contrib)
        out: dict[int, list[int]] = {}
        for row, (first, cells) in rows.items():
            if all(cells):
                out[row + first * pitch] = cells
                continue
            for nonzero, run in groupby(cells, bool):
                run = list(run)
                if nonzero:
                    out[row + first * pitch] = run
                first += len(run)
        return out
