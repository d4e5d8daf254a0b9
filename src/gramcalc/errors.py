"""Exception types shared across the package."""

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


class EmptyList(GramcalcError):
    """A statistic that needs at least one entry was applied to an empty list."""


class UnknownTriangle(GramcalcError):
    """A triangle name not recognized by the table builder."""
