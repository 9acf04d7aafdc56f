"""Floating-point dynamics: zero finding, indices, witness search.

Zeros of the map coincide with singular points of the descent field of
H = |F|^2/2.  At a zero q that field's Jacobian is -DF(q)^T DF(q), so
where det DF(q) != 0 the zero is non-degenerate with index (-1)^n; the
one thing ``index_at`` computes is that DF(q) is not singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .certify import RHO
from .errors import PreconditionError
from .floatval import FloatSystem, _norm, determinant, gauss_newton, max_abs, snap_exact
from .poly import PolyMap, Polynomial
from .sampling import PROBES, STARTS, points_in_box
from .univariate import bivariate, cell_samples, real_roots


DEDUP_RADIUS = 1e-6   # Newton points closer than this count as one zero
MAX_STARTS = 10_000   # Newton starts one search may take: 10,000 take seconds on tri3


@dataclass(frozen=True)
class ZeroInfo:
    point: tuple[float, ...]
    residual: float
    index: int | None
    note: str | None = None


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple[ZeroInfo, ...]
    unconverged: int  # starts whose Newton run stopped short of a zero


@dataclass(frozen=True)
class WitnessPair:
    """A pair of distinct points with equal image, exact when snappable."""

    a: tuple
    b: tuple
    exact: bool
    deviation: float


def _newton_zeros(
    fsys: FloatSystem, starts: int, box: float, seed: int
) -> tuple[list[tuple[tuple[float, ...], float]], int]:
    """Deduped converged Newton points and their residuals, in lexicographic
    order, and the number of starts that did not converge."""
    if starts < 1:
        raise ValueError("need at least one start")
    if starts > MAX_STARTS:
        raise ValueError(f"at most {MAX_STARTS} starts, got {starts}")
    found: list[tuple[tuple[float, ...], float]] = []
    unconverged = 0
    for start in points_in_box(fsys.n, starts, box, seed):
        point, residual, converged = gauss_newton(fsys, start, tol=RHO)
        if not converged:
            unconverged += 1
            continue
        if any(_norm([a - b for a, b in zip(point, q)]) <= DEDUP_RADIUS for q, _ in found):
            continue
        found.append((point, residual))
    return sorted(found, key=lambda item: item[0]), unconverged


def find_zeros(fmap: PolyMap, starts: int = 64, box: float = 5.0, seed: int = 0) -> ZeroReport:
    """Damped Newton from low-discrepancy starts; converged points deduped."""
    fsys = FloatSystem(list(fmap.components))
    found, unconverged = _newton_zeros(fsys, starts, box, seed)
    zeros: list[ZeroInfo] = []
    for point, residual in found:
        try:
            index = _index(fsys, point)
            note = None
        except PreconditionError as exc:
            index = None
            note = str(exc)
        zeros.append(ZeroInfo(point=point, residual=residual, index=index, note=note))
    return ZeroReport(zeros=tuple(zeros), unconverged=unconverged)


def index_at(fmap: PolyMap, q: Sequence[float]) -> int:
    """Index of the descent field at a zero ``q`` of the map: (-1)^n, by the
    theorem, once DF(q) is shown non-singular; a PreconditionError when ``q``
    is not a zero or DF(q) is singular or not finite there."""
    return _index(FloatSystem(list(fmap.components)), q)


def _index(fsys: FloatSystem, q: Sequence[float]) -> int:
    x = tuple(float(c) for c in q)
    residual = max_abs(fsys.residual(x))
    if not residual <= RHO:  # a NaN residual fails too
        raise PreconditionError(
            f"point is not a zero of the map: residual {residual:.3e} exceeds {RHO:.3e}"
        )
    det_df = determinant(fsys.jacobian(x))
    if not math.isfinite(det_df):
        raise PreconditionError(f"Jacobian determinant at the zero is not finite: {det_df}")
    if abs(det_df) < 1e-8:
        raise PreconditionError(f"near-singular Jacobian at the zero: det {det_df:.3e}")
    return (-1) ** fsys.n


def witness_from_probe(
    fmap: PolyMap, probe: Sequence[Fraction | int], box: float = 5.0, seed: int = 0
) -> WitnessPair | None:
    """Look for a second preimage of F(probe) via zeros of the recentred map,
    from ``STARTS`` Newton starts."""
    b = tuple(Fraction(v) for v in probe)
    c = fmap.evaluate(b)

    def shifted(z: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(zb + zv for zb, zv in zip(b, z))

    # Newton runs on the Taylor shift F(b + z) - F(b), not on F(x) - F(b): on
    # ((x+y+1)^30, y) this search finds the exact pair (-1, 3/4) ~ (-5/2, 3/4),
    # and Newton on F(x) - F(b) finds no pair at all
    recentred = FloatSystem(
        [component.translate(b) - value for component, value in zip(fmap.components, c)]
    )
    b_float = tuple(float(v) for v in b)
    for z, _ in _newton_zeros(recentred, STARTS, box, seed)[0]:
        if _norm(z) <= 1e-5:
            continue  # the trivial zero at the probe itself
        # try to promote the pair to exact rationals
        z_snap = snap_exact(z, lambda z: any(z) and fmap.evaluate(shifted(z)) == c)
        if z_snap is not None:
            return WitnessPair(a=shifted(z_snap), b=b, exact=True, deviation=0.0)
        a_float = tuple(zv + bv for zv, bv in zip(z, b_float))
        # |F(a) - F(b)| exactly at the float point a: float sums of F itself
        # can lose more than 2 RHO to cancellation, as on ((x+y)^30 + x, y)
        deviation = max(abs(v - w) for v, w in zip(fmap.evaluate(a_float), c))
        if deviation <= 2 * RHO:
            return WitnessPair(a=a_float, b=b_float, exact=False, deviation=float(deviation))
    return None


def line_witness(fmap: PolyMap) -> WitnessPair | None:
    """Two points with one image of F in one variable, or None: F is injective
    exactly when F' keeps its sign off its zeros.

    Where F' changes sign at r between two rational samples s < r < t, F has
    an extremum at r, and whichever of s and t has its image nearer F(r) has
    a second preimage on the other side of r: a real root of F(x) - F(b),
    a Fraction when one is rational, else a rational interval that isolates
    it, so that the pair is exact either way.
    """
    (f,) = fmap.components
    df = f.partial(0)
    if df.is_zero:
        return WitnessPair(a=(Fraction(1),), b=(Fraction(0),), exact=True, deviation=0.0)
    samples = cell_samples(_integers(df))
    for s, t in zip(samples, samples[1:]):
        rising = df.evaluate((s,)) > 0
        if rising == (df.evaluate((t,)) > 0):
            continue
        # a maximum at r when F rises into it: take the higher image, else the lower
        fs, ft = f.evaluate((s,)), f.evaluate((t,))
        b = s if (fs >= ft) == rising else t
        others = [r for r in real_roots(_integers(f - f.evaluate((b,)))) if r != b]
        a = next((r for r in others if isinstance(r, Fraction)), others[0])
        return WitnessPair(a=(a,), b=(b,), exact=True, deviation=0.0)
    return None


def _integers(p: Polynomial) -> list[int]:
    """The coefficients of ``p`` in one variable, as ``univariate`` takes them."""
    return bivariate({(0, i): c for (i,), c in p.terms.items()})[0]


def injectivity_witness(fmap: PolyMap, box: float = 5.0, seed: int = 0) -> WitnessPair | None:
    """Search for two points with the same image: for n = 1 exactly
    (``line_witness``), else from ``PROBES`` probe points, where absence proves
    nothing."""
    if fmap.n == 1:
        return line_witness(fmap)
    probe_points: list[tuple[Fraction, ...]] = []
    for raw in points_in_box(fmap.n, PROBES, box / 2.0, seed):
        snapped = tuple(Fraction(round(v * 8), 8) for v in raw)
        if snapped not in probe_points:
            probe_points.append(snapped)
    for k, probe in enumerate(probe_points):
        pair = witness_from_probe(fmap, probe, box=box, seed=seed + k + 1)
        if pair is not None:
            return pair
    return None
