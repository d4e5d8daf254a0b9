"""Grammar-driven formal derivatives of exact polynomials.

A grammar assigns to each ruled letter a substitution polynomial.  The
induced derivative operator D is linear over the integers, satisfies the
Leibniz rule on products, and sends each ruled letter to its substitution
polynomial.  Letters without a rule must be declared constant explicitly
and derive to zero; any other unruled letter is an error, never silently
a constant.

This module also provides affine index maps for reading a two-parameter
coefficient array out of an expansion whose monomials follow a fixed
exponent pattern, such as ``x^(2i+1) y^(2j)``.

Derive runs on the packed-key layout of ``poly._Packing``, which
``Polynomial`` multiplication shares; this module adds only what is
specific to derive: the unknown-letter check, the degree bound for a
depth, the rule terms folded into entries and the step.  An entry is a
key delta, a rule coefficient and a weight word with one bit per letter
whose rule reaches that delta with that coefficient; a step reads each
term's multiplier for an entry as one field of key * weights, a sum of
exponents of distinct letters that the degree bound keeps inside one
slot.  The first entry of a step moves every term to a distinct key, so
it builds the level in one pass with no lookups; the others add to it,
and the zeros left by a zero multiplier or by cancelling terms are
removed once per level.  The unknown-letter check runs at every depth,
0 included, and every level lists its terms in print order, as every
polynomial does.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import poly
from .errors import DuplicateRule, PatternViolation, UnknownLetter, _exact
from .poly import Monomial, Polynomial, mono_degree, mono_text


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
        terms = packing.pack(p)
        for _ in range(n):
            terms = packing.step(terms)
        return packing.unpack(terms)

    def derive_levels(self, p: Polynomial, nmax: int) -> list[Polynomial]:
        """All levels 0..nmax of the iterated derivative; level 0 is p itself.

        A letter of p with no rule and no const declaration raises
        UnknownLetter at every depth, 0 included.
        """
        packing = _Packing(self, p, _exact(nmax, "derivative depth", 0))
        levels = [p]
        terms = packing.pack(p)
        for _ in range(nmax):
            terms = packing.step(terms)
            levels.append(packing.unpack(terms))
        return levels


class _Packing(poly._Packing):
    """Packed keys for deriving p up to depth n with a grammar's rules.

    The slots are the grammar's letters, and the degree bound is proven: a
    step raises a term's total degree by at most the largest rule-term
    degree minus one, so no term of levels 0..n has total degree above
    ``p.degree() + n * max(0, that degree - 1)``.

    The rule terms of all ruled letters are folded into entries by key
    delta and rule coefficient: a rule term ``c*m`` of letter L moves a
    term from key to key + delta, where delta is the key of m minus L's
    unit key, and adds coeff * e_L * c there.  An entry keeps that delta,
    the coefficient c, and a weight word ``sum(1 << (top - shift_L))``
    over the letters L whose rule reaches the delta with c, where top is
    the highest slot shift (0 with no letters).  ``key * weights`` adds
    one copy of the key per letter L, moved up by top - shift_L; distinct
    letters move distinct slots onto each field, so every field sums the
    exponents of distinct letters and holds at most the term's total
    degree, which the degree bound fits in one slot.  No field carries
    into the next, and the field at top is exactly the multiplier, the
    sum of e_L over the entry's letters, read with one multiply, shift
    and mask.  Rule coefficients stay out of the weight word, where they
    would need slots that grow with them; a step multiplies each
    multiplier by its entry's c instead, so a delta that letters reach
    with k distinct coefficients costs k passes over the terms.  A level
    may hold a zero coefficient only inside ``step``, which removes them
    all before it returns, so no level ever stores one.
    """

    __slots__ = ("_top", "_entries")

    def __init__(self, grammar: Grammar, p: Polynomial, n: int):
        rules = grammar._rules
        for letter in p.letters():
            if letter not in rules and letter not in grammar._constants:
                raise UnknownLetter(letter, "cannot derive")
        growth = max(
            (mono_degree(m) - 1 for rhs in rules.values() for m in rhs._terms),
            default=0,
        )
        super().__init__(grammar.letters, p.degree() + n * max(0, growth))
        top = self._top = max(self._shifts.values(), default=0)
        folded: dict[tuple[int, int], int] = {}
        for letter, rhs in rules.items():
            shift = self._shifts[letter]
            for m, c in rhs._terms.items():
                entry = (self.pack_mono(m) - (1 << shift), c)
                folded[entry] = folded.get(entry, 0) + (1 << (top - shift))
        self._entries = [(delta, weights, c) for (delta, c), weights in folded.items()]

    def step(self, terms: dict[int, int]) -> dict[int, int]:
        """One derivative: each entry adds coeff * multiplier * c at key + delta.

        An entry moves every key by the same delta, so the first entry's
        targets are distinct and it fills the level in one comprehension;
        the later entries add to it, skipping a zero multiplier.  Zeros,
        from a zero multiplier of the first entry or from terms that
        cancel, are removed once, at the end of the step.
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


def _affine_text(base: int, ci: int, cj: int) -> str:
    out = ""
    for coef, sym in ((ci, "i"), (cj, "j")):
        if coef == 0:
            continue
        mag = sym if abs(coef) == 1 else f"{abs(coef)}{sym}"
        if not out:
            out = mag if coef > 0 else "-" + mag
        else:
            out += ("+" if coef > 0 else "-") + mag
    if not out:
        return str(base)
    if base:
        out += ("+" if base > 0 else "-") + str(abs(base))
    return out


class IndexMap:
    """Affine correspondence between monomial exponents and (i, j) indices.

    Each mapped letter's exponent must equal ``base + ci*i + cj*j`` for
    nonnegative integers i and j, and no other letter may occur.  Some
    pair of letters must have linearly independent (ci, cj) rows so the
    indices are pinned uniquely; otherwise construction fails.  Every
    row must be three ints ``(base, ci, cj)``, no bools; anything else
    raises ValueError.
    """

    __slots__ = ("_spec", "_solver")

    def __init__(self, spec: Mapping[str, tuple[int, int, int]]):
        self._spec = {}
        for letter, row in sorted(spec.items()):
            try:
                base, ci, cj = row
            except (TypeError, ValueError):
                raise ValueError(
                    f"index map row of {letter!r} must be (base, ci, cj), got {row!r}"
                ) from None
            self._spec[letter] = tuple(
                _exact(v, f"index map entry of {letter!r}") for v in (base, ci, cj)
            )
        letters = list(self._spec)
        solver = None
        for a in range(len(letters)):
            for b in range(a + 1, len(letters)):
                _, ia, ja = self._spec[letters[a]]
                _, ib, jb = self._spec[letters[b]]
                if ia * jb - ja * ib != 0:
                    solver = (letters[a], letters[b])
                    break
            if solver:
                break
        if solver is None:
            raise ValueError("index map does not determine (i, j) uniquely")
        self._solver = solver

    @classmethod
    def identity(
        cls,
        i_letter: str = "x",
        j_letter: str = "y",
        fixed: Mapping[str, int] | None = None,
    ) -> "IndexMap":
        """Map reading i and j straight off two letters' exponents.

        ``fixed`` adds letters whose exponent must equal a constant, such
        as a prefactor letter required at exponent 1.
        """
        spec: dict[str, tuple[int, int, int]] = {
            i_letter: (0, 1, 0),
            j_letter: (0, 0, 1),
        }
        for letter, exp in (fixed or {}).items():
            spec[letter] = (exp, 0, 0)
        return cls(spec)

    def describe(self) -> str:
        return ", ".join(
            f"{letter}={_affine_text(*row)}" for letter, row in self._spec.items()
        )

    def __repr__(self) -> str:
        return f"IndexMap({self.describe()})"

    def indices(self, mono: Monomial) -> tuple[int, int]:
        """Array indices (i, j) of a monomial, or PatternViolation."""
        exps = dict(mono)
        for letter in exps:
            if letter not in self._spec:
                self._fail(mono, f"unexpected letter {letter!r}")
        la, lb = self._solver
        ba, ia, ja = self._spec[la]
        bb, ib, jb = self._spec[lb]
        ra = exps.get(la, 0) - ba
        rb = exps.get(lb, 0) - bb
        det = ia * jb - ja * ib
        inum = ra * jb - rb * ja
        jnum = ia * rb - ib * ra
        if inum % det or jnum % det:
            self._fail(mono, "exponents do not land on integer indices")
        i, j = inum // det, jnum // det
        if i < 0 or j < 0:
            self._fail(mono, f"indices ({i}, {j}) are out of range")
        for letter, (base, ci, cj) in self._spec.items():
            if exps.get(letter, 0) != base + ci * i + cj * j:
                self._fail(mono, f"exponent of {letter!r} breaks the pattern")
        return i, j

    def _fail(self, mono: Monomial, reason: str):
        raise PatternViolation(mono_text(mono), self.describe(), reason)


def extract_coeffs(p: Polynomial, index_map: IndexMap) -> dict[tuple[int, int], int]:
    """Read a sparse (i, j) coefficient array out of an expansion.

    Every monomial of p must fit the index map's exponent pattern;
    violations raise instead of being dropped, naming the first offending
    monomial in print order.  No zero entries are stored.
    """
    out: dict[tuple[int, int], int] = {}
    for mono, coeff in p.terms().items():
        out[index_map.indices(mono)] = coeff
    return out
