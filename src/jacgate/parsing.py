"""Parsing and printing of polynomial expressions and map files.

Grammar (explicit ``*`` for products, ``^`` for powers, no juxtaposition):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' NAT)?
    base   := RATIONAL | IDENT | '(' expr ')' | '-' factor

Rational literals ``p/q`` are single tokens; general division is rejected.

The parser expands each expression as it reads it, into a dict of terms.
A literal or a variable is its one-term dict; a product with a one-term
operand shifts the other operand's keys and scales its coefficients, in
that operand's order; and a run of sums adds into one running dict, whose
zero sums are dropped at its end.  ``Polynomial.__pow__`` builds a power of
one term directly; only powers of several terms, and products of two sums
of several terms, go through ``Polynomial`` products.

Every piece carries bounds on its degree, term count and coefficient bits
taken from the syntax alone, never from the expanded terms: a sum of t_a
and t_b terms has at most t_a + t_b, a product at most t_a * t_b, and a
k-th power of t terms at most C(t+k-1, k).  A literal p/q counts the bits
of p and q, a variable none, a sum the larger of its operands' bits plus
one, a product their total, a k-th power k times its base's.  Each
operator checks the bounds of its result against ``MAX_DEGREE``,
``MAX_TERMS`` and ``MAX_BITS`` before computing it, whichever way it
computes it, so input like x^100000000, a long run of (x+y+z+1)^9 -
(x+y+z+1)^9 that cancels to 0, a product of thousands of constants or
((2^32)^32)^32 fails at once.

Map file format (UTF-8 text, ``#`` starts a comment):

    vars: x, y
    f1 = x^3 + y^3 + x
    f2 = y
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .errors import ParseError
from .poly import Polynomial, PolyMap

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    rf"(?P<number>\d+(?:/\d*)?)|(?P<ident>{_IDENT_RE.pattern})|(?P<op>[-+*^()])"
    r"|(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<other>.)"
)

# Caps on one expression; tested and benchmarked maps stay far below them.
MAX_DEGREE = 32
MAX_TERMS = 1000
MAX_BITS = 4096


@dataclass(frozen=True)
class MapFile:
    """Parsed map file: variable names, expression strings and their lines, optional name."""

    vars: tuple[str, ...]
    polys: tuple[str, ...]
    lines: tuple[int, ...]
    name: str | None = None


# -- tokenizer ---------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # 'number', 'ident', 'op', 'end'
    text: str
    line: int
    column: int


def _tokenize(src: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    line_start = 0
    for match in _TOKEN_RE.finditer(src):
        kind, text = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "other" and text == "/":
            raise ParseError(
                "division is only allowed inside rational literals like 1/2", line, column
            )
        elif kind == "other":
            raise ParseError(f"unexpected character {text!r}", line, column)
        elif text.endswith("/"):
            raise ParseError("expected digits after '/' in rational literal", line, column)
        elif kind != "space":
            tokens.append(_Token(kind, text, line, column))
    tokens.append(_Token("end", "", line, len(src) - line_start + 1))
    return tokens


# -- recursive descent -------------------------------------------------

# What each parse method returns: (terms, degree bound, term bound, bits bound),
# the terms a dict of non-zero Fraction coefficients that no other piece shares.
_Piece = tuple[dict[tuple[int, ...], Fraction], int, int, int]
_ONE = Fraction(1)


def _capped(op: _Token, degree: int, terms: int, bits: int) -> tuple[int, int, int]:
    if degree > MAX_DEGREE:
        raise ParseError(f"expression degree exceeds the cap {MAX_DEGREE}", op.line, op.column)
    if terms > MAX_TERMS:
        raise ParseError(
            f"expression may expand to more than {MAX_TERMS} terms", op.line, op.column
        )
    if bits > MAX_BITS:
        raise ParseError(
            f"expression coefficients may exceed {MAX_BITS} bits", op.line, op.column
        )
    return degree, terms, bits


class _Parser:
    def __init__(self, tokens: list[_Token], names: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.n = len(names)
        self.index_of = {name: i for i, name in enumerate(names)}
        self.units = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse_expr(self) -> _Piece:
        p, degree, terms, bits = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance()
            q, q_degree, q_terms, q_bits = self.parse_term()
            degree, terms, bits = _capped(
                op, max(degree, q_degree), terms + q_terms, max(bits, q_bits) + 1
            )
            minus = op.text == "-"
            for exponent, c in q.items():
                if minus:
                    c = -c
                p[exponent] = p[exponent] + c if exponent in p else c
        return {k: c for k, c in p.items() if c}, degree, terms, bits

    def parse_term(self) -> _Piece:
        p, degree, terms, bits = self.parse_factor()
        while self.peek().text == "*":
            op = self.advance()
            q, q_degree, q_terms, q_bits = self.parse_factor()
            degree, terms, bits = _capped(op, degree + q_degree, terms * q_terms, bits + q_bits)
            if len(p) == 1:
                p, q = q, p
            if len(q) == 1:
                # shift p's keys by the one term's exponent, in p's order
                ((shift, factor),) = q.items()
                p = {tuple(map(add, key, shift)): c * factor for key, c in p.items()}
            else:
                p = (Polynomial._trusted(self.n, p) * Polynomial._trusted(self.n, q)).terms
        return p, degree, terms, bits

    def parse_factor(self) -> _Piece:
        p, degree, terms, bits = self.parse_base()
        if self.peek().text != "^":
            return p, degree, terms, bits
        caret = self.advance()
        token = self.peek()
        if token.text == "-":
            raise ParseError("negative exponent is not allowed", token.line, token.column)
        if token.kind != "number":
            raise ParseError("expected a natural number after '^'", caret.line, caret.column)
        if "/" in token.text:
            raise ParseError("fractional exponent is not allowed", token.line, token.column)
        self.advance()
        k = int(token.text)
        if k > MAX_DEGREE:
            raise ParseError(f"exponent {k} exceeds the cap {MAX_DEGREE}", token.line, token.column)
        degree, terms, bits = _capped(caret, degree * k, math.comb(terms + k - 1, k), k * bits)
        return (Polynomial._trusted(self.n, p) ** k).terms, degree, terms, bits

    def parse_base(self) -> _Piece:
        token = self.advance()
        if token.kind == "number":
            numerator, _, denominator = token.text.partition("/")
            if denominator and int(denominator) == 0:
                raise ParseError("zero denominator", token.line, token.column)
            value = Fraction(int(numerator), int(denominator or 1))
            bits = value.numerator.bit_length() + value.denominator.bit_length()
            return ({(0,) * self.n: value} if value else {}), 0, 1, bits
        if token.kind == "ident":
            if token.text not in self.index_of:
                raise ParseError(f"unknown variable {token.text!r}", token.line, token.column)
            return {self.units[self.index_of[token.text]]: _ONE}, 1, 1, 0
        if token.text == "(":
            piece = self.parse_expr()
            closing = self.advance()
            if closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.column)
            return piece
        if token.text == "-":
            p, degree, terms, bits = self.parse_factor()
            return {exponent: -c for exponent, c in p.items()}, degree, terms, bits
        raise ParseError(
            f"unexpected {'end of input' if token.kind == 'end' else token.text!r}",
            token.line,
            token.column,
        )


def parse_expr(src: str, names: Sequence[str], line: int = 1) -> Polynomial:
    """Parse one expression into a fully expanded polynomial over ``names``."""
    names = list(names)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name")
    parser = _Parser(_tokenize(src, line), names)
    try:
        terms, *_ = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression is too long or nested too deeply", line) from None
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.line, trailing.column)
    return Polynomial._trusted(parser.n, terms)


# -- map files ----------------------------------------------------------

def parse_map_source(src: str) -> MapFile:
    """Split a map file into its raw header and expression strings."""
    variables: list[str] | None = None
    name: str | None = None
    exprs: list[tuple[str, int]] = []
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if variables is not None:
                raise ParseError("duplicate vars: line", lineno)
            variables = [part.strip() for part in line[len("vars:"):].split(",")]
            if any(not part for part in variables):
                raise ParseError("empty variable name in vars: line", lineno)
            for part in variables:
                if not _IDENT_RE.fullmatch(part):
                    raise ParseError(f"invalid variable name {part!r}", lineno)
            if len(set(variables)) != len(variables):
                raise ParseError("duplicate variable name", lineno)
            continue
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
            continue
        if "=" not in line:
            raise ParseError("expected 'lhs = expression'", lineno)
        _, expr = line.split("=", 1)
        exprs.append((expr.strip(), lineno))
    if variables is None:
        raise ParseError("missing vars: line")
    if not exprs:
        raise ParseError("no polynomial lines found")
    polys, lines = zip(*exprs)
    return MapFile(vars=tuple(variables), polys=polys, lines=lines, name=name)


def parse_poly_file(src: str) -> tuple[list[Polynomial], tuple[str, ...], str | None]:
    """Parse a file of polynomials sharing one variable list (not necessarily square)."""
    mapfile = parse_map_source(src)
    polys = [parse_expr(e, mapfile.vars, line=k) for e, k in zip(mapfile.polys, mapfile.lines)]
    return polys, mapfile.vars, mapfile.name


def parse_map_file(src: str) -> tuple[PolyMap, tuple[str, ...]]:
    """Parse a square map file into a PolyMap plus its variable names."""
    polys, names, _ = parse_poly_file(src)
    if len(polys) != len(names):
        raise ParseError(f"non-square map: {len(names)} variables but {len(polys)} polynomials")
    return PolyMap(polys), names


# -- printing -----------------------------------------------------------

def default_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _format_monomial(exponent: tuple[int, ...], names: Sequence[str]) -> str:
    pieces = []
    for name, k in zip(names, exponent):
        if k == 1:
            pieces.append(name)
        elif k > 1:
            pieces.append(f"{name}^{k}")
    return "*".join(pieces)


def _format_coefficient(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def print_poly(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Deterministic canonical rendering; ``parse_expr(print_poly(p)) == p``."""
    if names is None:
        names = default_names(p.n)
    if len(names) != p.n:
        raise ValueError(f"{len(names)} names for a polynomial in {p.n} variables")
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for exponent, coefficient in p.sorted_terms():
        monomial = _format_monomial(exponent, names)
        magnitude = abs(coefficient)
        if not monomial:
            body = _format_coefficient(magnitude)
        elif magnitude == 1:
            body = monomial
        else:
            body = f"{_format_coefficient(magnitude)}*{monomial}"
        if not chunks:
            chunks.append(body if coefficient > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coefficient > 0 else f"- {body}")
    return " ".join(chunks)
