"""Grammar-driven formal derivatives of exact polynomials.

A grammar assigns to each ruled letter a substitution polynomial.  The
induced derivative operator D is linear over the integers, satisfies the
Leibniz rule on products, and sends each ruled letter to its substitution
polynomial.  Letters without a rule must be declared constant explicitly
and derive to zero; any other unruled letter is an error, never silently
a constant.

Derive runs on the packed keys of ``poly._Packing``, which ``Polynomial``
multiplication shares; this module adds what is specific to derive: the
unknown-letter check, the degree bound for a depth, the row layout, the
rule terms folded into entries, and the step.

A level is stored as runs along diagonals.  M and L are the two lowest
slots, and a diagonal steps by S = g*(unit_M - unit_L): g more of M, g
less of L.  The stride g is the gcd of the moves in M of the rule terms
that can apply, those of the letters reachable from the start, so no
step changes a term's M exponent mod g, and a diagonal holds the cells
of one such class r.  A level maps
the key of each run's first cell to the coefficients of consecutive
cells of one diagonal, cell t at key first + t*S.  A diagonal's row key
is its cell with M exponent r, the rest of M's exponent moved into L's
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

    __slots__ = ("_rules", "_constants")

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
        """n-fold derivative, keeping only the final level."""
        packing = _Packing(self, p, _exact(n, "derivative depth", 0))
        if not n:
            return p
        runs = packing.runs(p)
        for _ in range(n):
            runs = packing.step(runs)
        return packing.polynomial(runs)

    def derive_levels(self, p: Polynomial, nmax: int) -> list[Polynomial]:
        """All levels 0..nmax of the iterated derivative; level 0 is p itself.

        A letter of p with no rule and no const declaration raises
        UnknownLetter at every depth, 0 included.
        """
        packing = _Packing(self, p, _exact(nmax, "derivative depth", 0))
        levels = [p]
        runs = packing.runs(p)
        for _ in range(nmax):
            runs = packing.step(runs)
            levels.append(packing.polynomial(runs))
        return levels


class _Packing(poly._Packing):
    """Packed keys and diagonal runs for deriving p up to depth n.

    The slots are the grammar's letters, and the degree bound is proven: a
    step raises a term's total degree by at most the largest rule-term
    degree minus one, so no term of levels 0..n has total degree above
    ``p.degree() + n * max(0, that degree - 1)``.

    ``_slot`` is M's shift, ``_stride`` g and ``_pitch`` S, the key
    distance between neighbouring cells.  An entry is (row delta, index
    shift, ``[(slot shift, rule coefficient)]``, beta): a run whose first
    cell has index i on its diagonal (M exponent r + i*g, r < g) adds to the
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
        for letter in p.letters():
            if letter not in rules and letter not in grammar._constants:
                raise UnknownLetter(letter, "cannot derive")
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

    def polynomial(self, runs: dict[int, list[int]]) -> Polynomial:
        """The polynomial whose terms are the cells of runs."""
        pitch = self._pitch
        terms: dict[int, int] = {}
        for key, values in runs.items():
            terms.update(zip(range(key, key + len(values) * pitch, pitch), values))
        return self.unpack(terms)

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
