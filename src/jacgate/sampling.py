"""Reproducible low-discrepancy point sequences.

Additive Kronecker recurrence with the generalized golden ratio: for
dimension d, alpha_j = phi_d**-(j+1) mod 1 fills the unit cube evenly,
and an integer seed shifts the whole lattice deterministically.
"""

from __future__ import annotations

import math

# the witness search's probe points and Newton starts per probe
PROBES = 8
STARTS = 32


def _phi(d: int) -> float:
    x = 2.0
    for _ in range(30):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


def kronecker_unit(n: int, count: int, seed: int = 0) -> list[tuple[float, ...]]:
    """``count`` points in the half-open unit cube [0, 1)^n."""
    g = _phi(n)
    alpha = [(1.0 / g) ** (j + 1) % 1.0 for j in range(n)]
    base = [(0.5 + seed * 0.7548776662466927 * (j + 1)) % 1.0 for j in range(n)]
    return [
        tuple((base[j] + alpha[j] * (i + 1)) % 1.0 for j in range(n))
        for i in range(count)
    ]


def points_in_box(n: int, count: int, radius: float, seed: int = 0) -> list[tuple[float, ...]]:
    """Low-discrepancy points in the cube [-radius, radius]^n."""
    return [
        tuple(radius * (2.0 * u - 1.0) for u in point)
        for point in kronecker_unit(n, count, seed)
    ]


def points_on_sphere(n: int, count: int, seed: int = 0) -> list[tuple[float, ...]]:
    """Low-discrepancy directions normalized onto the unit sphere."""
    out: list[tuple[float, ...]] = []
    if count <= 0:
        return out
    raw = kronecker_unit(n, 3 * count + 8, seed)
    for point in raw:
        v = [2.0 * u - 1.0 for u in point]
        norm = math.sqrt(sum(c * c for c in v))
        if norm < 1e-6:
            continue
        out.append(tuple(c / norm for c in v))
        if len(out) == count:
            break
    return out
