"""Weighted-degree algebra: quasi-homogeneous decomposition, higher parts,
the descent field's block structure and the derived weights.

A weight vector assigns a positive integer to each variable; a polynomial
is quasi-homogeneous of weighted degree ``d`` when every term's weighted
exponent sum equals ``d``, equivalently when it obeys the scaling law
``p(lam^s * x) = lam^d * p(x)`` for all positive ``lam``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateDirectionError, DimensionMismatchError, ZeroPolynomialError
from .poly import Polynomial, PolyMap


@dataclass(frozen=True)
class Weight:
    """Positive integer weight exponents, stored gcd-canonicalized."""

    s: tuple[int, ...]

    def __init__(self, entries: Sequence[int]):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise ValueError("weight vector cannot be empty")
        if any(e < 1 for e in entries):
            raise ValueError(f"weight entries must be positive integers, got {entries}")
        g = math.gcd(*entries)
        object.__setattr__(self, "s", tuple(e // g for e in entries))

    @property
    def n(self) -> int:
        return len(self.s)

    def __iter__(self):
        return iter(self.s)

    def __getitem__(self, index: int) -> int:
        return self.s[index]

    def __repr__(self) -> str:
        return f"Weight({','.join(map(str, self.s))})"


@dataclass(frozen=True)
class QHDecomposition:
    """Sum of quasi-homogeneous parts, degrees strictly increasing."""

    weight: Weight
    parts: tuple[tuple[int, Polynomial], ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(degree for degree, _ in self.parts)

    @property
    def top(self) -> Polynomial:
        return self.parts[-1][1]


@dataclass(frozen=True)
class FieldHigherPart:
    """Higher part of a descent field, built per component from the potential.

    ``degrees[j]`` is the largest weighted degree whose part of the potential
    still depends on variable j; ``partials[j]`` is that part's derivative,
    and ``field`` assembles the negated partials into a map.
    """

    weight: Weight
    degrees: tuple[int, ...]
    partials: tuple[Polynomial, ...]
    field: PolyMap


@dataclass(frozen=True)
class BlockStructure:
    """Coordinates grouped by their field-degree, sorted descending.

    ``perm`` lists original coordinate indices so that degrees are
    non-increasing (stable under ties); ``sizes``/``degrees`` describe the
    groups; ``m`` is the product of the distinct degrees and
    ``raw_tilde`` the derived weight vector before gcd canonicalization,
    back in original coordinate order.
    """

    weight: Weight
    perm: tuple[int, ...]
    sizes: tuple[int, ...]
    degrees: tuple[int, ...]
    m: int
    raw_tilde: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.sizes)


def _require_nonzero(p: Polynomial, what: str = "polynomial") -> None:
    if p.is_zero:
        raise ZeroPolynomialError(f"weighted degree of the zero {what} is undefined")


def raw_weighted_degree(p: Polynomial, svec: Sequence[int]) -> int:
    """Max weighted exponent sum over stored terms, for a raw weight vector."""
    _require_nonzero(p)
    if len(svec) != p.n:
        raise DimensionMismatchError("weight length does not match variable count")
    return max(sum(s * k for s, k in zip(svec, exponent)) for exponent in p.terms)


def qh_decompose(p: Polynomial, w: Weight) -> QHDecomposition:
    """Group terms by weighted degree; the parts sum back to ``p`` exactly."""
    _require_nonzero(p)
    if w.n != p.n:
        raise DimensionMismatchError("weight length does not match variable count")
    buckets: dict[int, dict] = {}
    for exponent, coefficient in p.terms.items():
        degree = sum(s * k for s, k in zip(w.s, exponent))
        buckets.setdefault(degree, {})[exponent] = coefficient
    parts = tuple(
        (degree, Polynomial(p.n, terms)) for degree, terms in sorted(buckets.items())
    )
    return QHDecomposition(weight=w, parts=parts)


def higher_part(p: Polynomial, w: Weight) -> Polynomial:
    """The part of maximal weighted degree."""
    return qh_decompose(p, w).top


def higher_part_map(fmap: PolyMap, w: Weight) -> PolyMap:
    """Componentwise higher parts; a zero component is an error."""
    parts = []
    for i, component in enumerate(fmap.components):
        if component.is_zero:
            raise ZeroPolynomialError(
                f"component {i} of the map is identically zero", component=i
            )
        parts.append(higher_part(component, w))
    return PolyMap(parts)


def euler_check(p: Polynomial, w: Weight, degree: int) -> bool:
    """Exact generalized Euler identity: sum of s_i * x_i * dp/dx_i == degree * p.

    The left side multiplies each term by its weighted degree, and stored
    coefficients are non-zero, so the identity holds exactly when every
    term has weighted degree ``degree``.
    """
    if w.n != p.n:
        raise DimensionMismatchError("weight length does not match variable count")
    return all(sum(s * k for s, k in zip(w.s, exponent)) == degree for exponent in p.terms)


def higher_part_field(h: Polynomial, w: Weight) -> FieldHigherPart:
    """Higher part of the descent field of ``h``, assembled per component.

    For each variable j the relevant potential part is the highest-degree
    one that still depends on x_j; if no part does, the direction is dead
    and a DegenerateDirectionError is raised.
    """
    decomposition = qh_decompose(h, w)
    degrees: list[int] = []
    partials: list[Polynomial] = []
    for j in range(h.n):
        best: tuple[int, Polynomial] | None = None
        for degree, part in decomposition.parts:
            derivative = part.partial(j)
            if not derivative.is_zero:
                best = (degree, derivative)
        if best is None:
            raise DegenerateDirectionError(j)
        degrees.append(best[0])
        partials.append(best[1])
    field = PolyMap([-q for q in partials])
    return FieldHigherPart(weight=w, degrees=tuple(degrees), partials=tuple(partials), field=field)


def field_blocks(fhp: FieldHigherPart) -> BlockStructure:
    """The block structure of an already computed field higher part."""
    w = fhp.weight
    degrees = fhp.degrees
    n = len(degrees)
    # stable sort by descending degree
    perm = tuple(sorted(range(n), key=lambda j: -degrees[j]))
    sizes: list[int] = []
    block_degrees: list[int] = []
    for j in perm:
        d = degrees[j]
        if block_degrees and block_degrees[-1] == d:
            sizes[-1] += 1
        else:
            block_degrees.append(d)
            sizes.append(1)
    m = math.prod(block_degrees)
    raw_tilde = [0] * n
    start = 0
    for size, degree in zip(sizes, block_degrees):
        factor = m // degree
        for j in perm[start:start + size]:
            raw_tilde[j] = factor * w.s[j]
        start += size
    return BlockStructure(
        weight=w,
        perm=perm,
        sizes=tuple(sizes),
        degrees=tuple(block_degrees),
        m=m,
        raw_tilde=tuple(raw_tilde),
    )


def tilde_weights(bs: BlockStructure) -> Weight:
    """Derived weight vector, gcd-canonicalized, in original coordinate order.

    The raw (pre-canonical) vector and its target degree ``bs.m`` stay
    available on the block structure for degree bookkeeping.
    """
    return Weight(bs.raw_tilde)


def enumerate_weights(n: int, s_max: int) -> list[Weight]:
    """All canonical weights with entries in [1, s_max], ordered by (sum, lex)."""
    if s_max < 1:
        raise ValueError("s_max must be at least 1")
    entries = itertools.product(range(1, s_max + 1), repeat=n)
    out = [Weight(s) for s in entries if math.gcd(*s) == 1]
    out.sort(key=lambda w: (sum(w.s), w.s))
    return out
