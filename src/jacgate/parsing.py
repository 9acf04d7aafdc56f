"""Parsing and printing of polynomial expressions and map files.

Grammar (explicit ``*`` for products, ``^`` for powers, no juxtaposition):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' NAT)?
    base   := RATIONAL | IDENT | '(' expr ')' | '-' factor

Rational literals ``p/q`` are single tokens; general division is rejected.

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
from typing import Sequence

from .errors import ParseError
from .poly import Polynomial, PolyMap

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Caps on one expression, checked before anything is expanded, so that input
# like x^100000000 fails at once; tested and benchmarked maps stay far below.
MAX_DEGREE = 32
MAX_TERMS = 1000


# -- expression AST ----------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    child: "Node"
    exponent: int


Node = Lit | Var | Add | Sub | Neg | Mul | Pow


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


def _tokenize(src: str, line_offset: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line = line_offset
    column = 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        start_col = column
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            text = src[i:j]
            # rational literal p/q is one token: the '/' must be glued to digits
            if j < len(src) and src[j] == "/":
                k = j + 1
                while k < len(src) and src[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("expected digits after '/' in rational literal", line, column)
                text = src[i:k]
                j = k
            column += j - i
            tokens.append(_Token("number", text, line, start_col))
            i = j
            continue
        if ch.isalpha():
            match = _IDENT_RE.match(src, i)
            assert match is not None
            text = match.group(0)
            column += len(text)
            tokens.append(_Token("ident", text, line, start_col))
            i = match.end()
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            column += 1
            continue
        if ch == "/":
            raise ParseError(
                "division is only allowed inside rational literals like 1/2", line, column
            )
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


# -- recursive descent -------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ParseError(f"expected {text!r}", token.line, token.column)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        base = self.parse_base()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            token = self.peek()
            if token.kind == "op" and token.text == "-":
                raise ParseError("negative exponent is not allowed", token.line, token.column)
            if token.kind != "number":
                raise ParseError("expected a natural number after '^'", caret.line, caret.column)
            if "/" in token.text:
                raise ParseError("fractional exponent is not allowed", token.line, token.column)
            self.advance()
            exponent = int(token.text)
            if exponent > MAX_DEGREE:
                raise ParseError(
                    f"exponent {exponent} exceeds the cap {MAX_DEGREE}", token.line, token.column
                )
            return Pow(base, exponent)
        return base

    def parse_base(self) -> Node:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            if "/" in token.text:
                numerator, denominator = token.text.split("/")
                if int(denominator) == 0:
                    raise ParseError("zero denominator", token.line, token.column)
                return Lit(Fraction(int(numerator), int(denominator)))
            return Lit(Fraction(int(token.text)))
        if token.kind == "ident":
            self.advance()
            return Var(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        raise ParseError(
            f"unexpected {'end of input' if token.kind == 'end' else token.text!r}",
            token.line,
            token.column,
        )


def _expansion_bound(node: Node, line: int) -> tuple[int, int]:
    """Upper bounds on the degree and the term count of ``node`` once expanded.

    A k-th power of a t-term polynomial has at most C(t+k-1, k) terms and a
    product at most t_a * t_b; exceeding a cap raises ParseError.
    """
    if isinstance(node, Lit):
        return 0, 1
    if isinstance(node, Var):
        return 1, 1
    if isinstance(node, Neg):
        return _expansion_bound(node.child, line)
    if isinstance(node, Pow):
        d, t = _expansion_bound(node.child, line)
        k = node.exponent
        degree, terms = d * k, math.comb(t + k - 1, k)
    else:
        da, ta = _expansion_bound(node.left, line)
        db, tb = _expansion_bound(node.right, line)
        if isinstance(node, Mul):
            degree, terms = da + db, ta * tb
        else:
            degree, terms = max(da, db), ta + tb
    if degree > MAX_DEGREE:
        raise ParseError(f"expression degree exceeds the cap {MAX_DEGREE}", line)
    if terms > MAX_TERMS:
        raise ParseError(f"expression may expand to more than {MAX_TERMS} terms", line)
    return degree, terms


def _fold(node: Node, n: int, index_of: dict[str, int], line: int) -> Polynomial:
    if isinstance(node, Lit):
        return Polynomial.constant(n, node.value)
    if isinstance(node, Var):
        if node.name not in index_of:
            raise ParseError(f"unknown variable {node.name!r}", line, 0)
        return Polynomial.variable(n, index_of[node.name])
    if isinstance(node, Add):
        return _fold(node.left, n, index_of, line) + _fold(node.right, n, index_of, line)
    if isinstance(node, Sub):
        return _fold(node.left, n, index_of, line) - _fold(node.right, n, index_of, line)
    if isinstance(node, Neg):
        return -_fold(node.child, n, index_of, line)
    if isinstance(node, Mul):
        return _fold(node.left, n, index_of, line) * _fold(node.right, n, index_of, line)
    if isinstance(node, Pow):
        return _fold(node.child, n, index_of, line) ** node.exponent
    raise TypeError(f"unknown node {node!r}")


def parse_expr(src: str, names: Sequence[str], line: int = 1) -> Polynomial:
    """Parse one expression into a fully expanded polynomial over ``names``."""
    names = list(names)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name")
    tokens = _tokenize(src, line_offset=line)
    parser = _Parser(tokens)
    try:
        node = parser.parse_expr()
        trailing = parser.peek()
        if trailing.kind != "end":
            raise ParseError(f"unexpected {trailing.text!r}", trailing.line, trailing.column)
        _expansion_bound(node, line)
        index_of = {name: i for i, name in enumerate(names)}
        return _fold(node, len(names), index_of, line)
    except RecursionError:
        raise ParseError("expression is too long or nested too deeply", line) from None


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
