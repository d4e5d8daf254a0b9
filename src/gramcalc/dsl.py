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
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DuplicateRule, ParseError
from .grammar import Grammar
from .poly import Polynomial


class Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


_PUNCT = {
    "+": "plus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    ";": "semi",
    ",": "comma",
}

# INT is ASCII digits only; other Unicode digits are not integers here.
_DIGITS = frozenset("0123456789")

_DISPLAY = {
    "plus": "'+'",
    "minus": "'-'",
    "star": "'*'",
    "caret": "'^'",
    "lparen": "'('",
    "rparen": "')'",
    "semi": "';'",
    "comma": "','",
    "arrow": "'->'",
    "int": "an integer",
    "ident": "a letter",
    "eof": "end of input",
}


def _tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch == "-":
            if i + 1 < n and src[i + 1] == ">":
                tokens.append(Token("arrow", "->", line, start_col))
                i += 2
                col += 2
            else:
                tokens.append(Token("minus", "-", line, start_col))
                i += 1
                col += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", int(src[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isidentifier():
            j = i + 1
            while j < n and ("_" + src[j]).isidentifier():
                j += 1
            tokens.append(Token("ident", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", None, line, col))
    return tokens


# Deepest parenthesis nesting the recursive descent parser accepts; deeper
# input raises ParseError well before the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
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
        shown = "end of input" if tok.kind == "eof" else repr(str(tok.value))
        raise ParseError(
            f"unexpected {shown}",
            tok.line,
            tok.col,
            tuple(_DISPLAY[k] for k in expected),
        )

    # Expression grammar.

    def expr(self) -> Polynomial:
        negate = self.accept("minus") is not None
        p = self.term()
        if negate:
            p = -p
        while True:
            if self.accept("plus"):
                p = p + self.term()
            elif self.accept("minus"):
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.accept("star"):
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.accept("caret"):
            tok = self.expect("int")
            if tok.value < 1:
                raise ParseError(
                    "exponent must be a positive integer", tok.line, tok.col
                )
            return base ** tok.value
        return base

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Polynomial.constant(tok.value)
        if tok.kind == "ident":
            self.advance()
            return Polynomial.letter(tok.value)
        if tok.kind == "lparen":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col
                )
            self.advance()
            self.depth += 1
            p = self.expr()
            self.expect("rparen")
            self.depth -= 1
            return p
        self.fail(tok, ("int", "ident", "lparen"))

    # Statement grammar.

    def grammar(self) -> Grammar:
        rules: dict[str, Polynomial] = {}
        constants: list[str] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                self.fail(tok, ("ident",))
            if tok.value == "const":
                self.advance()
                while True:
                    name = self.expect("ident")
                    if name.value in constants or name.value in rules:
                        raise DuplicateRule(
                            name.value,
                            f"redeclared at line {name.line}, column {name.col}",
                        )
                    constants.append(name.value)
                    if not self.accept("comma"):
                        break
            else:
                self.advance()
                self.expect("arrow")
                rhs = self.expr()
                if tok.value in rules or tok.value in constants:
                    raise DuplicateRule(
                        tok.value,
                        f"redeclared at line {tok.line}, column {tok.col}",
                    )
                rules[tok.value] = rhs
            if self.peek().kind == "eof":
                break
            self.expect("semi")
        return Grammar(rules, constants)


def parse_polynomial(src: str) -> Polynomial:
    """Parse a single polynomial expression."""
    parser = _Parser(src)
    p = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(tok, ("plus", "minus", "star", "eof"))
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


def builtin_grammar(name: str) -> Grammar:
    try:
        src = BUILTIN_SOURCES[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin grammar {name!r}; choose from {', '.join(BUILTIN_SOURCES)}"
        ) from None
    return parse_grammar(src)
