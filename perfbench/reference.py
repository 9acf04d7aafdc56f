"""Exact reference algebra that checks jacgate's outputs without using jacgate.

Polynomials are dicts from exponent tuples to ``Fraction`` (or ``int``)
coefficients. Printed polynomials and map files are evaluated by Python's
own exact arithmetic: integer literals become ``Fraction`` and ``^`` becomes
``**``, so a check never goes through jacgate's parser or evaluator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Sequence

Exponent = tuple[int, ...]
Poly = dict  # Exponent -> coefficient

_TOKEN = re.compile(r"\^(\d+)|(\d+)")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# -- map files and printed polynomials ------------------------------------

def read_map(text: str) -> tuple[tuple[str, ...], list[str], dict[str, str]]:
    """Split a map file into variable names, right-hand sides and ``# key: value`` notes."""
    names: tuple[str, ...] = ()
    exprs: list[str] = []
    notes: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep and _NAME.fullmatch(key.strip()):
                notes[key.strip()] = value.strip()
            continue
        if not line:
            continue
        if line.startswith("vars:"):
            names = tuple(part.strip() for part in line[5:].split(","))
        else:
            exprs.append(line.split("=", 1)[1].strip())
    return names, exprs, notes


def compile_expr(expr: str, names: Sequence[str]) -> Callable[[Sequence[Fraction]], Fraction]:
    """An exact evaluator for one polynomial expression in the map-file grammar."""
    for name in _NAME.findall(expr):
        if name not in names:
            raise ValueError(f"unknown name {name!r} in {expr!r}")
    source = _TOKEN.sub(lambda m: f"**{m[1]}" if m[1] else f"F({m[2]})", expr.strip())
    code = compile(source, "<expr>", "eval")

    def evaluate(point: Sequence[Fraction]) -> Fraction:
        scope = dict(zip(names, (Fraction(v) for v in point)))
        scope["F"] = Fraction
        return Fraction(eval(code, {"__builtins__": {}}, scope))

    return evaluate


def map_evaluator(text: str) -> Callable[[Sequence[Fraction]], tuple[Fraction, ...]]:
    names, exprs, _ = read_map(text)
    parts = [compile_expr(e, names) for e in exprs]
    return lambda point: tuple(p(point) for p in parts)


def parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part.strip()) for part in text.split(","))


# -- dict polynomials -------------------------------------------------------

def monomials(n: int, degree: int) -> list[Exponent]:
    """All exponents of total degree exactly ``degree``, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exponent = [0] * n
        for i in combo:
            exponent[i] += 1
        out.append(tuple(exponent))
    return out


def add(a: Poly, b: Poly, scale=1) -> Poly:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + scale * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def power(p: Poly, k: int, n: int) -> Poly:
    out: Poly = {(0,) * n: 1}
    for _ in range(k):
        out = mul(out, p)
    return out


def partial(p: Poly, j: int) -> Poly:
    out: Poly = {}
    for k, c in p.items():
        if k[j]:
            e = list(k)
            e[j] -= 1
            out[tuple(e)] = c * k[j]
    return out


def evaluate(p: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for k, c in p.items():
        term = Fraction(c)
        for x, e in zip(point, k):
            if e:
                term *= x**e
        total += term
    return total


def parts_by_weight(p: Poly, s: Sequence[int]) -> dict[int, Poly]:
    """Terms grouped by weighted degree ``<s, exponent>``."""
    out: dict[int, Poly] = {}
    for k, c in p.items():
        out.setdefault(sum(a * b for a, b in zip(s, k)), {})[k] = c
    return out


def canonical_weight(s: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*s)
    return tuple(v // g for v in s)


def h_norm(components: Sequence[Poly]) -> Poly:
    """H = ||F||^2 / 2."""
    total: Poly = {}
    for f in components:
        total = add(total, mul(f, f))
    return {k: Fraction(c, 2) for k, c in total.items()}


def field_top(h: Poly, s: Sequence[int], n: int) -> tuple[list[int], list[Poly]]:
    """Per variable j: the highest weighted degree of H whose part depends on x_j,
    and the negated derivative of that part."""
    parts = parts_by_weight(h, s)
    degrees, field = [], []
    for j in range(n):
        best = None
        for degree in sorted(parts):
            d = partial(parts[degree], j)
            if d:
                best = (degree, d)
        if best is None:
            raise ValueError(f"dead direction {j}")
        degrees.append(best[0])
        field.append({k: -c for k, c in best[1].items()})
    return degrees, field


def blocks(degrees: Sequence[int], s: Sequence[int]) -> dict:
    """Block structure of the field degrees: sizes, degrees, m and derived weights."""
    perm = sorted(range(len(degrees)), key=lambda j: -degrees[j])
    sizes: list[int] = []
    block_degrees: list[int] = []
    for j in perm:
        if block_degrees and block_degrees[-1] == degrees[j]:
            sizes[-1] += 1
        else:
            block_degrees.append(degrees[j])
            sizes.append(1)
    m = math.prod(block_degrees)
    tilde = tuple(m // degrees[j] * s[j] for j in range(len(degrees)))
    return {"r": len(sizes), "sizes": tuple(sizes), "degrees": tuple(block_degrees),
            "m": m, "tilde": tilde}


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination."""
    a = [list(row) for row in matrix]
    size = len(a)
    sign, result = 1, Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        result *= a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    return sign * result


def format_poly(p: Poly, names: Sequence[str]) -> str:
    """Render a dict polynomial in the map-file grammar, terms in sorted order."""
    chunks = []
    for k in sorted(p, key=lambda e: (-sum(e), tuple(-v for v in e))):
        c = Fraction(p[k])
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, k) if e)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else f"{mag}")
        chunks.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(chunks) or "+ 0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def format_map(components: Sequence[Poly], names: Sequence[str], notes: Sequence[str] = ()) -> str:
    lines = [f"# {note}" for note in notes]
    lines.append("vars: " + ", ".join(names))
    lines += [f"f{i + 1} = {format_poly(p, names)}" for i, p in enumerate(components)]
    return "\n".join(lines) + "\n"
