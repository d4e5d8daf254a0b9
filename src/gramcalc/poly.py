"""Exact multivariate polynomial arithmetic over named letters.

Letters are nonempty identifier strings treated as independent commuting
indeterminates.  A monomial is a sorted tuple of ``(letter, exponent)``
pairs with every exponent positive; the empty tuple is the constant
monomial 1.  A polynomial maps monomials to nonzero arbitrary-precision
integer coefficients, so every value is canonical by construction: no
zero coefficients, no zero exponents, no floating point anywhere.

Printed terms follow one deterministic order: sort letters by name, read
each monomial as an exponent vector over those letters, and list terms in
ascending lexicographic order of that vector.  ``str(p)`` writes explicit
``*`` between factors and round-trips through the rule DSL, while
``p.compact()`` juxtaposes letters (``3xy^2``).  Both join ``p.pieces()``,
one piece per run of terms with the same first (letter, exponent) pair,
so a long polynomial can be written without being held as one string.

Products run on packed keys (``_Packing``): each letter's exponent sits
in a fixed bit slot of one int, so multiplying two monomials is one
integer add.  The alphabetically first letter owns the highest slot, so
ascending key order is the print order.  ``_Packing.product`` is the one
pairwise multiply: ``*`` packs both sides, calls it and unpacks, and
``**`` packs its base once, squares and multiplies packed terms, and
unpacks once at the end.  Every polynomial lists its terms in print
order: ``_Packing.unpack`` is the one place terms are sorted, and
products, ``from_terms`` and sums all finish through it.  A sum of many
parts, such as a parsed expression, is one ``sum_of`` call, so its terms
are ordered once.  The derive kernel in ``grammar`` builds on the same
class.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Mapping

from .errors import _exact

Monomial = tuple[tuple[str, int], ...]

CONST_MONO: Monomial = ()


def mono_from_exps(exps: Mapping[str, int]) -> Monomial:
    """Build a canonical monomial from a letter-to-exponent mapping.

    Zero exponents are dropped; negative or non-int exponents and
    non-identifier letter names are rejected.
    """
    items = []
    for letter, exp in exps.items():
        if not isinstance(letter, str) or not letter.isidentifier():
            raise ValueError(f"letter must be an identifier string, got {letter!r}")
        if _exact(exp, f"exponent of {letter!r}", 0):
            items.append((letter, exp))
    items.sort()
    return tuple(items)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_text(m: Monomial, explicit_mul: bool = False) -> str:
    """Render a monomial without its coefficient; the constant is '1'."""
    if not m:
        return "1"
    sep = "*" if explicit_mul else ""
    return sep.join(l if e == 1 else f"{l}^{e}" for l, e in m)


def _term_text(coeff: int, m: Monomial, explicit_mul: bool) -> str:
    if not m:
        return str(coeff)
    body = mono_text(m, explicit_mul)
    return body if coeff == 1 else f"{coeff}{'*' if explicit_mul else ''}{body}"


class _Packing:
    """Kronecker-packed exponent vectors over a fixed set of letters.

    Each letter owns a slot of ``width`` bits in one int key, where width
    is the bit length of a degree bound; the alphabetically first letter
    owns the highest slot and the last the lowest.  No exponent of a term
    within that bound exceeds it, so no slot ever carries into the next
    and the key of a product of such terms is the sum of their keys;
    Python ints never wrap, so keys stay exact with no overflow check.
    Keys map one to one onto monomials, and comparing two keys compares
    the exponent vectors over the sorted letters lexicographically, so
    ``unpack`` lists terms in print order by sorting their keys.
    """

    __slots__ = ("_shifts", "_mask", "_pairs")

    def __init__(self, letters: Iterable[str], degree: int):
        width = max(1, degree).bit_length()
        letters = sorted(letters)
        self._shifts = {l: (len(letters) - 1 - i) * width for i, l in enumerate(letters)}
        self._mask = (1 << width) - 1
        self._pairs: dict[int, tuple[str, int]] = {}

    def pack_mono(self, mono: Monomial) -> int:
        return sum(exp << self._shifts[letter] for letter, exp in mono)

    def pack(self, p: "Polynomial") -> dict[int, int]:
        return {self.pack_mono(mono): coeff for mono, coeff in p._terms.items()}

    @staticmethod
    def product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        """Product of two packed term dicts: keys add, coefficients multiply."""
        right = b.items()
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in right:
                key = ka + kb
                c = get(key, 0) + ca * cb
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return out

    def unpack(self, terms: dict[int, int]) -> "Polynomial":
        # A slot's nonzero field, key & (mask << shift), names one (letter,
        # exponent) pair; _pairs makes each pair once per packing, and the
        # monomials that hold it share it.
        pairs, mask = self._pairs, self._mask
        slots = [(mask << shift, shift, letter) for letter, shift in self._shifts.items()]
        out: dict[Monomial, int] = {}
        for key in sorted(terms):
            mono = []
            for field, shift, letter in slots:
                if f := key & field:
                    pair = pairs.get(f)
                    if pair is None:
                        pair = pairs[f] = (letter, f >> shift)
                    mono.append(pair)
            out[tuple(mono)] = terms[key]
        return Polynomial._raw(out)


class Polynomial:
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        pairs = ((dict(mono), coeff) for mono, coeff in (terms or {}).items())
        self._terms = Polynomial.from_terms(pairs)._terms

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Polynomial":
        # Trusted fast path: terms must already be canonical, zero-free and
        # in print order.
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def _summed(cls, pairs: Iterable[tuple[Monomial, int]]) -> "Polynomial":
        """Sum of canonical (monomial, coefficient) pairs, put in print order once.

        The terms go through the ``_Packing`` pack/``unpack`` round trip,
        so ``unpack`` is the one place they are sorted.
        """
        acc: dict[Monomial, int] = {}
        for mono, coeff in pairs:
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        p = cls._raw(acc)
        packing = _Packing(p.letters(), p.degree())
        return packing.unpack(packing.pack(p))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        c = _exact(c, "coefficient")
        return cls._raw({CONST_MONO: c} if c else {})

    @classmethod
    def letter(cls, name: str) -> "Polynomial":
        return cls._raw({mono_from_exps({name: 1}): 1})

    @classmethod
    def term(cls, coeff: int, **exps: int) -> "Polynomial":
        """Single-term polynomial, e.g. ``Polynomial.term(3, x=1, y=2)``."""
        return cls.from_terms(((exps, coeff),))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Mapping[str, int], int]]) -> "Polynomial":
        """Sum of (exponents, coefficient) terms, canonicalised; the one checked path."""
        return Polynomial._summed(
            (mono_from_exps(exps), _exact(coeff, "coefficient")) for exps, coeff in terms
        )

    @classmethod
    def sum_of(cls, parts: Iterable["Polynomial"]) -> "Polynomial":
        """Sum of polynomials, ordered once however many there are."""
        return Polynomial._summed(item for part in parts for item in part._terms.items())

    def terms(self) -> dict[Monomial, int]:
        """Copy of the underlying monomial-to-coefficient map."""
        return dict(self._terms)

    def letters(self) -> tuple[str, ...]:
        """All letters occurring in the polynomial, sorted by name."""
        seen: set[str] = set()
        for mono in self._terms:
            for letter, _ in mono:
                seen.add(letter)
        return tuple(sorted(seen))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """The (monomial, coefficient) terms as a list, in print order."""
        return list(self._terms.items())

    def coefficient(self, exps: Mapping[str, int] | Monomial) -> int:
        """Coefficient of the given monomial, 0 when absent."""
        return self._terms.get(mono_from_exps(dict(exps)), 0)

    def coeff_sum(self) -> int:
        """Sum of all coefficients (the value at every letter set to 1)."""
        return sum(self._terms.values())

    def degree(self) -> int:
        """Largest total degree of a term; the zero polynomial has degree 0."""
        return max((mono_degree(m) for m in self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum_of((self, other))

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if not _exact(other, "multiplier"):
                return Polynomial.zero()
            return Polynomial._raw({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        packing = _Packing({*self.letters(), *other.letters()}, self.degree() + other.degree())
        return packing.unpack(_Packing.product(packing.pack(self), packing.pack(other)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        # Square-and-multiply on one packing: no power up to e has a term of
        # degree above self.degree() * e, and the terms are ordered once.
        e = _exact(exponent, "polynomial exponent", 0)
        packing = _Packing(self.letters(), self.degree() * e)
        result, base = {0: 1}, packing.pack(self)
        while e:
            if e & 1:
                result = _Packing.product(result, base)
            e >>= 1
            if e:
                base = _Packing.product(base, base)
        return packing.unpack(result)

    def pieces(self, explicit_mul: bool = True) -> Iterator[str]:
        """The text of ``str(p)``, or of ``p.compact()`` without explicit_mul,
        one piece per run of terms that share their first (letter, exponent) pair."""
        signs = ("-", "")  # by coeff > 0; the first term has no spaces around its sign
        for _, run in groupby(self._terms.items(), lambda term: term[0][:1]):
            text = []
            for mono, coeff in run:
                text.append(signs[coeff > 0] + _term_text(abs(coeff), mono, explicit_mul))
                signs = (" - ", " + ")
            yield "".join(text)
        if not self._terms:
            yield "0"

    def __str__(self) -> str:
        return "".join(self.pieces())

    def compact(self) -> str:
        """Display form with juxtaposed letters, e.g. ``x + 3xy + xy^2``."""
        return "".join(self.pieces(explicit_mul=False))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    def to_json_obj(self) -> list[dict]:
        """JSON-ready list of terms; coefficients as decimal strings."""
        return [{"exponents": dict(mono), "coeff": str(c)} for mono, c in self._terms.items()]
