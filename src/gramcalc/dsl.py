"""Text format for grammars and polynomial expressions.

Grammar:

    source  := stmt (';' stmt)* [';']
    stmt    := 'const' IDENT (',' IDENT)* | IDENT '->' expr
    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' INT]
    atom    := INT | IDENT | '(' expr ')'

An INT is a run of ASCII digits 0-9 and an IDENT is a Python
identifier, ending at the first character that cannot continue one; any
other character is a syntax error.  Multiplication is always explicit
and '^' takes a positive integer exponent.  Parentheses nest at most
``MAX_NESTING`` deep.  Whitespace, including newlines, only separates
tokens.  The word ``const`` is
reserved and declares letters whose derivative is zero.  Syntax errors
carry a 1-based line and column plus the set of token kinds that would
have been accepted.

The whole source is tokenized before parsing, so a bad character is
reported before any syntax error.  A punctuation token's kind is its own
text (``'+'``, ``'->'``, ``'('``, ...); only ``int``, ``ident`` and
``eof`` are named.  A token keeps just its source offset, and an error
derives its line and column from that offset when it is raised.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .errors import DuplicateRule, ParseError, _read_int
from .grammar import Grammar
from .poly import Polynomial


class Token(NamedTuple):
    kind: str  # "int", "ident", "eof", or the punctuation's own text
    value: object
    pos: int  # offset into the source


# INT is ASCII digits only; other Unicode digits are not integers here.
_DIGITS = frozenset("0123456789")

_DISPLAY = {"int": "an integer", "ident": "a letter", "eof": "end of input"}


def _where(src: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset pos in src."""
    return src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)


def _digits_end(src: str, i: int) -> int:
    """Offset just past the run of ASCII digits starting at offset i."""
    while i < len(src) and src[i] in _DIGITS:
        i += 1
    return i


def _tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if src.startswith("->", i):
            kind, value, j = "->", "->", i + 2
        elif ch in "+-*^();,":
            kind, value = ch, ch
        elif ch in _DIGITS:
            kind, j = "int", _digits_end(src, i)
            try:
                value = _read_int(src[i:j], "integer")
            except ValueError as exc:  # past the interpreter's int-to-str limit
                raise ParseError(str(exc), *_where(src, i)) from None
        elif ch.isidentifier():
            while j < n and ("_" + src[j]).isidentifier():
                j += 1
            kind, value = "ident", src[i:j]
        else:
            raise ParseError(f"unexpected character {ch!r}", *_where(src, i))
        tokens.append(Token(kind, value, i))
        i = j
    tokens.append(Token("eof", None, n))
    return tokens


# Deepest parenthesis nesting the recursive descent parser accepts; deeper
# input raises ParseError well before the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok, (kind,))
        return self.advance()

    def fail(self, tok: Token, expected: tuple[str, ...]):
        if tok.kind == "eof":
            shown = "end of input"
        elif tok.kind == "int":  # its source text, which keeps any leading zeros
            shown = repr(self.src[tok.pos : _digits_end(self.src, tok.pos)])
        else:
            shown = repr(tok.value)
        raise ParseError(
            f"unexpected {shown}",
            *_where(self.src, tok.pos),
            tuple(_DISPLAY.get(k, f"'{k}'") for k in expected),
        )

    # Expression grammar.

    def expr(self) -> Polynomial:
        # One sum of all the terms, so the result is put in print order once.
        parts = [-self.term() if self.accept("-") else self.term()]
        while True:
            if self.accept("+"):
                parts.append(self.term())
            elif self.accept("-"):
                parts.append(-self.term())
            else:
                return Polynomial.sum_of(parts)

    def term(self) -> Polynomial:
        p = self.factor()
        while self.accept("*"):
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.accept("^"):
            tok = self.expect("int")
            if tok.value < 1:
                raise ParseError(
                    "exponent must be a positive integer", *_where(self.src, tok.pos)
                )
            return base ** tok.value
        return base

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "int":
            return Polynomial.constant(tok.value)
        if tok.kind == "ident":
            return Polynomial.letter(tok.value)
        if tok.kind != "(":
            self.fail(tok, ("int", "ident", "("))
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING}",
                *_where(self.src, tok.pos),
            )
        self.depth += 1
        p = self.expr()
        self.expect(")")
        self.depth -= 1
        return p

    # Statement grammar.

    def grammar(self) -> Grammar:
        rules: dict[str, Polynomial] = {}
        constants: list[str] = []

        def declare(tok: Token) -> None:
            if tok.value in rules or tok.value in constants:
                line, col = _where(self.src, tok.pos)
                raise DuplicateRule(
                    tok.value, f"redeclared at line {line}, column {col}"
                )

        while self.peek().kind != "eof":
            tok = self.expect("ident")
            if tok.value == "const":
                while True:
                    name = self.expect("ident")
                    declare(name)
                    constants.append(name.value)
                    if not self.accept(","):
                        break
            else:
                self.expect("->")
                rhs = self.expr()
                declare(tok)  # after the right-hand side, whose errors come first
                rules[tok.value] = rhs
            if self.peek().kind != "eof":
                self.expect(";")
        return Grammar(rules, constants)


def parse_polynomial(src: str) -> Polynomial:
    """Parse a single polynomial expression."""
    parser = _Parser(src)
    p = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(tok, ("+", "-", "*", "eof"))
    return p


def parse_grammar(src: str) -> Grammar:
    """Parse rule DSL text into a validated grammar."""
    return _Parser(src).grammar()


# Built-in grammars, keyed by their CLI names.  g1..g5 drive the main
# two-letter coefficient arrays, gB is the unmixed matching/type-B pair,
# and g6 is the symmetric three-letter cycle.
BUILTIN_SOURCES: dict[str, str] = {
    "g1": "x -> x + x*y; y -> y + x*y",
    "g2": "x -> x + x*y; y -> y + x^2",
    "g3": "w -> w + w*x; x -> x + x*y; y -> y + x^2",
    "g4": "x -> x + x^2 + x*y; y -> y + y^2 + x*y",
    "g5": "x -> x + x*y^2; y -> y + x^2*y",
    "gB": "x -> x*y^2; y -> x^2*y",
    "g6": "x -> x*(y + z); y -> y*(z + x); z -> z*(x + y)",
}


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTIN_SOURCES)


# Each builtin is parsed once per process: a Grammar has no mutators, so
# every caller can share the one value.  A refused name raises and is not
# cached.
@cache
def builtin_grammar(name: str) -> Grammar:
    try:
        src = BUILTIN_SOURCES[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin grammar {name!r}; choose from {', '.join(BUILTIN_SOURCES)}"
        ) from None
    return parse_grammar(src)
