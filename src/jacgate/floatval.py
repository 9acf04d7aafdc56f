"""Float-compiled polynomial systems, damped Gauss-Newton, rational snapping."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .poly import Polynomial


class FloatPoly:
    """A polynomial compiled to coefficient/exponent arrays for fast evaluation."""

    __slots__ = ("coeffs", "exps")

    def __init__(self, p: Polynomial):
        items = p.sorted_terms()
        self.coeffs = np.array([float(c) for _, c in items], dtype=np.float64)
        self.exps = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), p.n)

    def __call__(self, x: np.ndarray) -> float:
        if self.coeffs.size == 0:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.coeffs @ np.prod(x[np.newaxis, :] ** self.exps, axis=1))


class FloatSystem:
    """A system of polynomials with its Jacobian, compiled for floats."""

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("empty system")
        self.n = polys[0].n
        self.polys = [FloatPoly(p) for p in polys]
        self.jac_polys = [[FloatPoly(p.partial(j)) for j in range(self.n)] for p in polys]

    def residual(self, x: np.ndarray) -> np.ndarray:
        return np.array([p(x) for p in self.polys], dtype=np.float64)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.array(
            [[entry(x) for entry in row] for row in self.jac_polys], dtype=np.float64
        )


def gauss_newton(
    system: FloatSystem,
    x0: Sequence[float],
    tol: float = 1e-12,
    max_iter: int = 60,
    max_backtracks: int = 40,
) -> tuple[np.ndarray, float, bool]:
    """Damped Gauss-Newton on the least-squares residual.

    Returns (point, max-abs residual, converged).  The step is the
    least-squares solution of the linearized system, halved until the
    residual norm decreases; square systems get the plain Newton step.
    """
    x = np.array(x0, dtype=np.float64)
    r = system.residual(x)
    if not np.all(np.isfinite(r)):
        return x, math.inf, False
    norm = float(np.dot(r, r))
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            return x, float(np.max(np.abs(r))), True
        jac = system.jacobian(x)
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            return x, float(np.max(np.abs(r))), False
        if not np.all(np.isfinite(step)):
            return x, float(np.max(np.abs(r))), False
        lam = 1.0
        for _ in range(max_backtracks):
            candidate = x + lam * step
            rc = system.residual(candidate)
            nc = float(np.dot(rc, rc))
            if nc < norm:
                x, r, norm = candidate, rc, nc
                break
            lam *= 0.5
        else:
            break
    return x, float(np.max(np.abs(r))), bool(np.max(np.abs(r)) <= tol)


_SNAP_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 16, 100, 1000, 10**5, 10**7)


def snap_exact(
    point: Sequence[float], accept: Callable[[tuple[Fraction, ...]], bool]
) -> tuple[Fraction, ...] | None:
    """First rational snapping of a float point that ``accept`` confirms exactly.

    Snappings are tried smallest denominators first, each distinct one once;
    ``accept`` is the caller's exact test.  None when no snapping passes.
    """
    seen: set[tuple[Fraction, ...]] = set()
    for den in _SNAP_DENOMINATORS:
        snapped = tuple(Fraction(float(c)).limit_denominator(den) for c in point)
        if snapped not in seen:
            seen.add(snapped)
            if accept(snapped):
                return snapped
    return None
