"""Float-compiled polynomial systems, damped Gauss-Newton, rational snapping.

Everything here runs on plain Python floats.  Their products and sums give
inf and nan on overflow and invalid values and raise nothing, while ``**``
raises on overflow and division by zero raises: the compiled systems build
powers by products, and the solvers divide only by non-zero pivots and
singular values.  Sums run left to right in explicit loops, because the
built-in ``sum`` over floats rounds differently from Python 3.12 on.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Polynomial


class FloatSystem:
    """Polynomials and their first partials compiled to straight-line Python.

    ``residual(x)`` returns the values of the polynomials at the point ``x``
    as a tuple, ``jacobian(x)`` the rows of first partials as a tuple of
    tuples.  Each compiled function builds the powers it needs by repeated
    products, computes each distinct monomial once, and sums each row one
    term per statement in ``sorted_terms`` order.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("empty system")
        self.n = polys[0].n
        rows = [p.sorted_terms() for p in polys]
        partials = [p.partial(j).sorted_terms() for p in polys for j in range(self.n)]
        source = _source("residual", self.n, rows, 0)
        source += _source("jacobian", self.n, partials, self.n)
        namespace: dict = {}
        exec(compile(source, "<FloatSystem>", "exec"), namespace)
        self.residual = namespace["residual"]
        self.jacobian = namespace["jacobian"]


def _source(name: str, n: int, rows: list, width: int) -> str:
    """Python source of ``def name(x)``, which evaluates ``rows`` (each a list of
    (exponent, coefficient) terms) at x: a flat tuple when ``width`` is 0, else
    a tuple of tuples of ``width`` rows each."""
    lines = [f"def {name}(x):", f"    {''.join(f'x{j}, ' for j in range(n))}= x"]
    top = [max((k[j] for row in rows for k, _ in row), default=0) for j in range(n)]
    for j in range(n):
        for e in range(2, top[j] + 1):
            lines.append(f"    x{j}_{e} = {_power(j, e - 1)} * x{j}")
    monomials: dict[tuple[int, ...], str] = {}
    for row in rows:
        for k, _ in row:
            if k not in monomials:
                factors = [_power(j, e) for j, e in enumerate(k) if e]
                if len(factors) > 1:
                    monomials[k] = f"m{len(monomials)}"
                    lines.append(f"    {monomials[k]} = {' * '.join(factors)}")
                else:
                    monomials[k] = factors[0] if factors else ""
    # one statement per term: one sum expression nests a level per term, and
    # a few thousand terms exceed the compiler's recursion limit
    for i, row in enumerate(rows):
        lines.append(f"    r{i} = 0.0")
        for k, c in row:
            c = float(c)
            if not monomials[k]:
                lines.append(f"    r{i} += {c!r}")
            elif c in (1.0, -1.0):
                lines.append(f"    r{i} {'+' if c > 0 else '-'}= {monomials[k]}")
            else:
                lines.append(f"    r{i} += {c!r} * {monomials[k]}")
    names = [f"r{i}, " for i in range(len(rows))]
    if width:
        names = [f"({''.join(names[i:i + width])}), " for i in range(0, len(names), width)]
    lines.append(f"    return ({''.join(names)})")
    return "\n".join(lines) + "\n"


def _power(j: int, e: int) -> str:
    return f"x{j}" if e == 1 else f"x{j}_{e}"


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _norm(v: Sequence[float]) -> float:
    """Euclidean norm, summed left to right.  ``certify`` and ``dynamics``
    call it up to once per pair of Newton points; it stays private so that
    ``perfbench/tracing.py``, which wraps every public function, records no
    span for it."""
    return math.sqrt(_dot(v, v))


def max_abs(v: Sequence[float]) -> float:
    """The largest magnitude in ``v``, nan when any entry is nan."""
    out = 0.0
    for c in v:
        if not abs(c) <= out:  # larger, or nan
            out = abs(c)
            if out != out:
                break
    return out


def _eliminate(rows: list[list[float]]) -> int:
    """Gaussian elimination with partial pivoting, in place on the rows of a
    square matrix, each row possibly extended by a right-hand side.

    Returns the sign of the row permutation, or 0 when a pivot is exactly
    zero: the matrix is singular, and the rows are left half eliminated.
    """
    n = len(rows)
    sign = 1
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(rows[i][k]) > abs(rows[p][k]):
                p = i
        pivot_row = rows[p]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return 0
        if p != k:
            rows[p], rows[k] = rows[k], pivot_row
            sign = -sign
        for row in rows[k + 1:]:
            f = row[k] / pivot
            for j in range(k + 1, len(row)):
                row[j] -= f * pivot_row[j]
    return sign


def _back_substitute(rows: list[list[float]]) -> list[float]:
    """Solve an upper-triangular square system, each row extended by its
    right-hand side."""
    n = len(rows)
    s = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        acc = row[n]
        for j in range(k + 1, n):
            acc -= row[j] * s[j]
        s[k] = acc / row[k]
    return s


def determinant(matrix: Sequence[Sequence[float]]) -> float:
    """Determinant of a square matrix by partial-pivot elimination."""
    rows = [list(row) for row in matrix]
    det = float(_eliminate(rows))
    if det:
        for k, row in enumerate(rows):
            det *= row[k]
    return det


_EPS = sys.float_info.epsilon
_MAX_SWEEPS = 30  # Jacobi sweeps; the 4 x 3 hunts on tri3 take 2 to 5


def _svd_solve(a: Sequence[Sequence[float]], b: Sequence[float]) -> list[float] | None:
    """The minimum-norm least-squares solution of a s = b, with the rank
    cutoff of ``numpy.linalg.lstsq``: singular values at or below
    eps * max(m, n) times the largest count as zero.  None when none is left.

    One-sided Jacobi rotations orthogonalize the columns of the tall one of a
    and a^T, turning them into sigma_j u_j while the identity turns into V.
    Near a zero of high multiplicity the Jacobian is nearly rank-deficient,
    and the cutoff keeps the step from following its noise.
    """
    m, n = len(a), len(a[0])
    wide = m < n
    cols = [list(row) for row in a] if wide else [list(col) for col in zip(*a)]
    k = len(cols)
    vs = [[float(i == j) for i in range(k)] for j in range(k)]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                alpha, beta = _dot(cols[p], cols[p]), _dot(cols[q], cols[q])
                gamma = _dot(cols[p], cols[q])
                if not abs(gamma) > _EPS * math.sqrt(alpha * beta):
                    continue  # orthogonal to working precision
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                for u, w in ((cols[p], cols[q]), (vs[p], vs[q])):
                    for i, (ui, wi) in enumerate(zip(u, w)):
                        u[i], w[i] = c * ui - s * wi, s * ui + c * wi
        if not rotated:
            break
    sigma = [_norm(col) for col in cols]
    cutoff = _EPS * max(m, n) * max(sigma)
    x = [0.0] * n
    kept = False
    for col, v, sig in zip(cols, vs, sigma):
        if sig > cutoff:
            kept = True
            # tall: a = U S V^T and x += v_j (u_j . b) / sigma_j; wide: the
            # same for a^T = U S V^T, so x += u_j (v_j . b) / sigma_j
            onto, along = (v, col) if wide else (col, v)
            coeff = _dot(onto, b) / sig / sig
            for i in range(n):
                x[i] += coeff * along[i]
    return x if kept else None


def _least_squares(a: Sequence[Sequence[float]], b: Sequence[float]) -> list[float] | None:
    """The minimum-norm least-squares solution of a s = b: partial-pivot
    elimination when a is square and no pivot is exactly zero, else
    ``_svd_solve``.

    A 2 x 2 system, every planar Newton step, runs the elimination and the
    back substitution unrolled: the same pivot test, the same operations
    in the same order, so the same bits."""
    size = len(a)
    if size != len(a[0]):
        return _svd_solve(a, b)
    if size == 2:
        (a00, a01), (a10, a11) = a
        b0, b1 = b
        if abs(a10) > abs(a00):
            a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
        if a00 == 0.0:
            return _svd_solve(a, b)
        f = a10 / a00
        a11 -= f * a01
        b1 -= f * b0
        if a11 == 0.0:
            return _svd_solve(a, b)
        s1 = b1 / a11
        return [(b0 - a01 * s1) / a00, s1]
    rows = [list(row) + [v] for row, v in zip(a, b)]
    return _back_substitute(rows) if _eliminate(rows) else _svd_solve(a, b)


MAX_ITER = 60        # Gauss-Newton steps
MAX_BACKTRACKS = 40  # halvings of one step before it is given up


def gauss_newton(
    system: FloatSystem, x0: Sequence[float], tol: float = 1e-12
) -> tuple[tuple[float, ...], float, bool]:
    """Damped Gauss-Newton on the least-squares residual.

    Returns (point, max-abs residual, converged).  The step is the
    minimum-norm least-squares solution of the linearized system
    (``_least_squares``), halved until the residual norm decreases; square
    systems with no exactly zero pivot get the plain Newton step.  A Jacobian
    whose singular values all fall below the rank cutoff leaves no step and
    ends the run.
    """
    residual, jacobian = system.residual, system.jacobian
    x = tuple(float(c) for c in x0)
    r = residual(x)
    if not all(map(math.isfinite, r)):
        return x, math.inf, False
    norm_sq = _dot(r, r)
    for _ in range(MAX_ITER):
        # r is finite here: the start is checked, and a step is taken only
        # when its residual norm is below a finite or infinite one
        if max(map(abs, r)) <= tol:
            break
        step = _least_squares(jacobian(x), [-v for v in r])
        if step is None or not all(map(math.isfinite, step)):
            break
        for k in range(MAX_BACKTRACKS):
            t = 0.5**k
            candidate = [c + t * s for c, s in zip(x, step)]
            rc = residual(candidate)
            nc = 0.0  # _dot(rc, rc), inlined in the innermost loop
            for v in rc:
                nc += v * v
            if nc < norm_sq:
                x, r, norm_sq = candidate, rc, nc
                break
        else:
            break
    res = max(map(abs, r))
    return tuple(x), res, res <= tol


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
