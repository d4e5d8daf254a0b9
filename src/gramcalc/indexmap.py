"""Affine index maps: reading a two-parameter coefficient array out of an
expansion whose monomials follow a fixed exponent pattern, such as
``x^(2i+1) y^(2j)``.

Only the verify suites read arrays this way, so ``derive`` never loads
this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping

from .errors import PatternViolation, _exact
from .poly import Monomial, Polynomial, mono_text


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
        # The first pair of rows, in letter order, whose (ci, cj) parts are
        # independent solves for (i, j).
        for a, b in combinations(self._spec.items(), 2):
            (_, ia, ja), (_, ib, jb) = a[1], b[1]
            if ia * jb != ja * ib:
                self._solver = a, b
                break
        else:
            raise ValueError("index map does not determine (i, j) uniquely")

    @classmethod
    def identity(cls, fixed: Mapping[str, int] | None = None) -> "IndexMap":
        """Map reading i off x's exponent and j off y's.

        ``fixed`` adds letters whose exponent must equal a constant, such
        as a prefactor letter required at exponent 1; a fixed x or y
        replaces its index row.
        """
        spec = {"x": (0, 1, 0), "y": (0, 0, 1)}
        spec.update((letter, (exp, 0, 0)) for letter, exp in (fixed or {}).items())
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
        (la, (ba, ia, ja)), (lb, (bb, ib, jb)) = self._solver
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
