"""Float-compiled polynomial systems, damped Gauss-Newton, rational snapping."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .poly import Polynomial


class FloatSystem:
    """Polynomials and their first partials compiled onto one exponent table.

    A call evaluates each distinct monomial it needs once, and each row sums
    its terms in ``sorted_terms`` order.  The polynomials' own monomials head the
    table, and ``residual`` evaluates only that prefix.  Overflow and invalid
    values are not silenced here: callers that can meet them enter
    ``np.errstate`` once around their work.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("empty system")
        self.n = polys[0].n
        column: dict[tuple[int, ...], int] = {}

        def compile_row(p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
            items = p.sorted_terms()
            cols = [column.setdefault(k, len(column)) for k, _ in items]
            return np.array([float(c) for _, c in items]), np.array(cols, dtype=np.intp)

        self._rows = [compile_row(p) for p in polys]
        self._residual_width = len(column)
        self._jac_rows = [compile_row(p.partial(j)) for p in polys for j in range(self.n)]
        # float exponents: the power runs in float64 either way, with no cast per call
        self._exps = np.array(list(column), dtype=np.float64).reshape(len(column), self.n)

    def _evaluate(self, rows: list, width: int, x: np.ndarray) -> np.ndarray:
        monomials = np.multiply.reduce(x ** self._exps[:width], axis=1)
        return np.array([c @ monomials[cols] for c, cols in rows], dtype=np.float64)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(self._rows, self._residual_width, x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(self._jac_rows, len(self._exps), x).reshape(-1, self.n)


MAX_ITER = 60        # Gauss-Newton steps
MAX_BACKTRACKS = 40  # halvings of one step before it is given up
RHO = 1e-10          # residual tolerance for zeros and witnesses


@np.errstate(over="ignore", invalid="ignore")
def gauss_newton(
    system: FloatSystem, x0: Sequence[float], tol: float = 1e-12
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
    for _ in range(MAX_ITER):
        if np.max(np.abs(r)) <= tol:
            break
        try:
            step, *_ = np.linalg.lstsq(system.jacobian(x), -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        for k in range(MAX_BACKTRACKS):
            candidate = x + 0.5**k * step
            rc = system.residual(candidate)
            nc = float(np.dot(rc, rc))
            if nc < norm:
                x, r, norm = candidate, rc, nc
                break
        else:
            break
    residual = float(np.max(np.abs(r)))
    return x, residual, residual <= tol


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
