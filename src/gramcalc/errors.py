"""Exception types shared across the package, and the exact-int gate.

``_exact`` is the one gate for exact sizes, depths, caps and exponents,
and ``_read_int`` the one reader of integers from text.  They live in
this leaf module, which every command loads, so a command that checks a
size need not load the polynomial layer.
"""

from __future__ import annotations


class GramcalcError(Exception):
    """Base class for all package-specific errors."""


class UnknownLetter(GramcalcError):
    """A letter is neither ruled by the grammar nor declared constant."""

    def __init__(self, letter: str, context: str = ""):
        self.letter = letter
        msg = f"unknown letter {letter!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class PatternViolation(GramcalcError):
    """A monomial does not fit the exponent pattern of an index map."""

    def __init__(self, monomial: str, pattern: str, reason: str):
        self.monomial = monomial
        self.pattern = pattern
        self.reason = reason
        super().__init__(
            f"monomial {monomial} does not match pattern [{pattern}]: {reason}"
        )


class ParseError(GramcalcError):
    """Rule DSL syntax error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        text = f"line {line}, column {col}: {message}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(text)


class DuplicateRule(GramcalcError):
    """The same letter is ruled or declared constant more than once."""

    def __init__(self, letter: str, detail: str = ""):
        self.letter = letter
        msg = f"conflicting declarations for letter {letter!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BoundExceeded(GramcalcError):
    """A brute-force enumeration was requested beyond its configured cap."""

    def __init__(self, kind: str, n: int, cap: int, hint: str):
        self.kind = kind
        self.n = n
        self.cap = cap
        super().__init__(f"{kind} size {n} exceeds the configured cap {cap}; {hint}")


class UnknownTriangle(GramcalcError):
    """A triangle name not recognized by the table builder."""


def _exact(value: object, what: str, least: int | None = None) -> int:
    """value itself when it is an int of at least ``least`` (no bound if None).

    The one gate for exact sizes, depths, caps and exponents: floats,
    bools and every other non-int, and ints below ``least``, raise
    ValueError.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return value


def _read_int(text: str, what: str, least: int = 0) -> int:
    """The int written in text, checked by ``_exact`` against least.

    The one reader of integers from text: rule literals, caps, Whitney
    orders and the CLI size flags.  Only ASCII digits are read, so a sign,
    an underscore or another script's digits raise ValueError, as does a
    digit string past the interpreter's int-to-str limit.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} needs a nonnegative integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:  # longer than the interpreter's int-to-str limit
        raise ValueError(
            f"{what} of {len(text)} digits is too long to read;"
            " PYTHONINTMAXSTRDIGITS=0 lifts the limit"
        ) from None
    return _exact(value, what, least)
