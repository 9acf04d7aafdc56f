"""Weighted-degree algebra: quasi-homogeneous decomposition, higher parts,
and the descent field's higher part with its block structure and derived
weights.

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

MAX_WEIGHT_GRID = 4 ** 8  # candidate weights one search may enumerate: the default s_max at n = 8


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

    def __repr__(self) -> str:
        return f"Weight({','.join(map(str, self.s))})"


@dataclass(frozen=True)
class FieldHigherPart:
    """Higher part of a descent field, its block structure and derived weights.

    ``degrees[j]`` is the largest weighted degree whose part of the potential
    still depends on variable j, and component j of ``field`` is minus that
    part's derivative.  ``perm`` lists the coordinates so that degrees are
    non-increasing (stable under ties); ``sizes``/``block_degrees`` describe
    the runs of equal degree; ``m`` is the product of the distinct degrees
    and ``raw_tilde`` the derived weight vector before gcd canonicalization.
    """

    degrees: tuple[int, ...]
    field: PolyMap
    perm: tuple[int, ...]
    sizes: tuple[int, ...]
    block_degrees: tuple[int, ...]
    m: int
    raw_tilde: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def tilde(self) -> Weight:
        """Derived weight vector, gcd-canonicalized, in original coordinate order."""
        return Weight(self.raw_tilde)


def qh_decompose(p: Polynomial, w: Weight) -> tuple[tuple[int, Polynomial], ...]:
    """The ``(degree, part)`` pairs of ``p``, degrees strictly increasing; the
    parts sum back to ``p`` exactly, and ``p`` is quasi-homogeneous of degree
    ``d`` exactly when it has one part, of degree ``d``."""
    if p.is_zero:
        raise ZeroPolynomialError("weighted degree of the zero polynomial is undefined")
    if w.n != p.n:
        raise DimensionMismatchError("weight length does not match variable count")
    buckets: dict[int, dict] = {}
    for exponent, coefficient in p.terms.items():
        degree = sum(s * k for s, k in zip(w.s, exponent))
        buckets.setdefault(degree, {})[exponent] = coefficient
    # bucketed terms of a valid polynomial are valid
    return tuple(
        (degree, Polynomial._trusted(p.n, terms)) for degree, terms in sorted(buckets.items())
    )


def higher_part(p: Polynomial, w: Weight) -> Polynomial:
    """The part of maximal weighted degree."""
    return qh_decompose(p, w)[-1][1]


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


def higher_part_field(h: Polynomial, w: Weight) -> FieldHigherPart:
    """Higher part of the descent field of ``h``, with its blocks and ``s~``.

    For each variable j the relevant potential part is the highest-degree
    one that still depends on x_j; if no part does, the direction is dead
    and a DegenerateDirectionError is raised.  ``s~_j = (m / i_j) s_j``.
    """
    parts = qh_decompose(h, w)
    degrees: list[int] = []
    components: list[Polynomial] = []
    for j in range(h.n):
        top = next(((d, p) for d, p in reversed(parts) if any(k[j] for k in p.terms)), None)
        if top is None:
            raise DegenerateDirectionError(j)
        degrees.append(top[0])
        components.append(-top[1].partial(j))
    # stable sort by descending degree
    perm = tuple(sorted(range(h.n), key=lambda j: -degrees[j]))
    runs = [(d, len(list(run))) for d, run in itertools.groupby(degrees[j] for j in perm)]
    m = math.prod(d for d, _ in runs)
    return FieldHigherPart(
        degrees=tuple(degrees),
        field=PolyMap(components),
        perm=perm,
        sizes=tuple(size for _, size in runs),
        block_degrees=tuple(d for d, _ in runs),
        m=m,
        raw_tilde=tuple(m // d * s for d, s in zip(degrees, w.s)),
    )


def enumerate_weights(n: int, s_max: int) -> list[Weight]:
    """All canonical weights with entries in [1, s_max], ordered by (sum, lex)."""
    if s_max < 1:
        raise ValueError("s_max must be at least 1")
    if s_max ** n > MAX_WEIGHT_GRID:
        raise ValueError(f"{s_max}^{n} candidate weights exceed the cap {MAX_WEIGHT_GRID}")
    entries = itertools.product(range(1, s_max + 1), repeat=n)
    out = [Weight(s) for s in entries if math.gcd(*s) == 1]
    out.sort(key=lambda w: (sum(w.s), w.s))
    return out
