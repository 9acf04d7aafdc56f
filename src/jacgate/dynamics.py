"""Floating-point dynamics: zero finding, descent flow, witness search.

Zeros of the map coincide with singular points of the descent field of
half its squared norm, and at any such zero the field's Jacobian
determinant has sign (-1)^n; both facts are used as numeric checks here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .certify import RHO
from .errors import PreconditionError
from .floatval import FloatSystem, _norm, determinant, gauss_newton, max_abs, snap_exact
from .poly import PolyMap, gradient_field, h_norm
from .sampling import PROBES, STARTS, points_in_box


DEDUP_RADIUS = 1e-6   # Newton points closer than this count as one zero
# descent flow: step length, escape box, convergence tolerance, and the
# potential increase a step may make
STEP_TARGET = 0.05
FLOW_BOX = 1e6
CONVERGE_TOL = 1e-9
H_SLACK = 1e-12


@dataclass(frozen=True)
class ZeroInfo:
    point: tuple[float, ...]
    residual: float
    index: int | None
    note: str | None = None


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple[ZeroInfo, ...]
    starts_used: int
    unconverged: int  # starts whose Newton run stopped short of a zero
    dedup_radius: float
    box: float
    seed: int


class FlowStatus(Enum):
    CONVERGED_TO_ZERO_OF_F = "converged_to_zero_of_f"
    LEFT_BOX = "left_box"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[tuple[float, tuple[float, ...], float], ...]
    status: FlowStatus


@dataclass(frozen=True)
class WitnessPair:
    """A pair of distinct points with equal image, exact when snappable."""

    a: tuple
    b: tuple
    exact: bool
    deviation: float


@dataclass(frozen=True)
class IndexSumReport:
    ok: bool
    properness_weight: tuple[int, ...] | None
    zero_count: int
    indices: tuple[int | None, ...]
    expected_index: int
    note: str | None = None


def _newton_zeros(
    fmap: PolyMap, starts: int, box: float, seed: int
) -> tuple[list[tuple[tuple[float, ...], float]], int]:
    """Deduped converged Newton points and their residuals, in lexicographic
    order, and the number of starts that did not converge."""
    if starts < 1:
        raise ValueError("need at least one start")
    fsys = FloatSystem(list(fmap.components))
    found: list[tuple[tuple[float, ...], float]] = []
    unconverged = 0
    for start in points_in_box(fmap.n, starts, box, seed):
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
    found, unconverged = _newton_zeros(fmap, starts, box, seed)
    zeros: list[ZeroInfo] = []
    for point, residual in found:
        try:
            index = index_at(fmap, point)
            note = None
        except PreconditionError as exc:
            index = None
            note = str(exc)
        zeros.append(ZeroInfo(point=point, residual=residual, index=index, note=note))
    return ZeroReport(
        zeros=tuple(zeros),
        starts_used=starts,
        unconverged=unconverged,
        dedup_radius=DEDUP_RADIUS,
        box=box,
        seed=seed,
    )


def index_at(fmap: PolyMap, q: Sequence[float]) -> int:
    """Sign of the descent field's Jacobian determinant at a zero of the map."""
    x = tuple(float(c) for c in q)
    fsys = FloatSystem(list(fmap.components))
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
    descent = gradient_field(h_norm(fmap))
    det_dy = determinant(FloatSystem(list(descent.components)).jacobian(x))
    if not math.isfinite(det_dy):
        raise PreconditionError(f"descent field Jacobian determinant is not finite: {det_dy}")
    if det_dy == 0.0:
        raise PreconditionError("descent field Jacobian is numerically singular")
    return 1 if det_dy > 0 else -1


def flow_descent(fmap: PolyMap, start: Sequence[float], max_steps: int = 5000) -> Trajectory:
    """Integrate the descent field with adaptive explicit steps.

    Each accepted step must not increase the potential (within ``H_SLACK``);
    a step that does gets halved until it fits or underflows.
    """
    h_sys = FloatSystem([h_norm(fmap)])
    f_sys = FloatSystem(list(fmap.components))

    def h_value(x: tuple[float, ...]) -> float:
        return h_sys.residual(x)[0]

    def velocity(x: tuple[float, ...]) -> tuple[float, ...]:
        # the descent field negates the exact partials of H; subtracting from
        # 0.0 keeps exact zeros +0.0, as evaluating the negated partials does
        return tuple(0.0 - g for g in h_sys.jacobian(x)[0])

    def along(x: tuple[float, ...], h: float, k: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(a + h * b for a, b in zip(x, k))

    x = tuple(float(c) for c in start)
    t = 0.0
    samples = [(t, x, h_value(x))]
    status = FlowStatus.STEP_LIMIT
    basin_tol = max(CONVERGE_TOL, 1e-5)
    for _ in range(max_steps):
        f_res = max_abs(f_sys.residual(x))
        if f_res <= CONVERGE_TOL:
            status = FlowStatus.CONVERGED_TO_ZERO_OF_F
            break
        if f_res <= basin_tol:
            # close enough to a singular point: polish with Newton, which
            # also only ever decreases the potential
            polished, residual, converged = gauss_newton(f_sys, x, tol=CONVERGE_TOL)
            if converged:
                x = polished
                samples.append((t, x, h_value(x)))
                status = FlowStatus.CONVERGED_TO_ZERO_OF_F
                break
        if max_abs(x) > FLOW_BOX:
            status = FlowStatus.LEFT_BOX
            break
        v = velocity(x)
        speed = _norm(v)
        if speed == 0.0:
            status = FlowStatus.CONVERGED_TO_ZERO_OF_F
            break
        h = STEP_TARGET / speed
        h_cur = h_value(x)
        accepted = False
        for _ in range(60):
            # classical RK4 on x' = Y(x)
            k1 = v
            k2 = velocity(along(x, 0.5 * h, k1))
            k3 = velocity(along(x, 0.5 * h, k2))
            k4 = velocity(along(x, h, k3))
            candidate = along(
                x, h / 6.0, [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]
            )
            if h_value(candidate) <= h_cur + H_SLACK:
                x = candidate
                t += h
                samples.append((t, x, h_value(x)))
                accepted = True
                break
            h *= 0.5
            if h < 1e-300:
                break
        if not accepted:
            status = FlowStatus.STEP_LIMIT
            break
    return Trajectory(samples=tuple(samples), status=status)


def witness_from_probe(
    fmap: PolyMap, probe: Sequence[Fraction | int], box: float = 5.0, seed: int = 0
) -> WitnessPair | None:
    """Look for a second preimage of F(probe) via zeros of the recentred map,
    from ``STARTS`` Newton starts."""
    b = tuple(Fraction(v) for v in probe)
    c = fmap.evaluate(b)

    def shifted(z: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(zb + zv for zb, zv in zip(b, z))

    recentred = PolyMap(
        [component.translate(b) - value for component, value in zip(fmap.components, c)]
    )
    b_float = tuple(float(v) for v in b)
    c_float = [float(v) for v in c]
    fsys: FloatSystem | None = None
    for z, _ in _newton_zeros(recentred, STARTS, box, seed)[0]:
        if _norm(z) <= 1e-5:
            continue  # the trivial zero at the probe itself
        # try to promote the pair to exact rationals
        z_snap = snap_exact(z, lambda z: any(z) and fmap.evaluate(shifted(z)) == c)
        if z_snap is not None:
            return WitnessPair(a=shifted(z_snap), b=b, exact=True, deviation=0.0)
        a_float = tuple(zv + bv for zv, bv in zip(z, b_float))
        fsys = fsys or FloatSystem(list(fmap.components))
        fa = fsys.residual(a_float)
        deviation = max_abs([v - w for v, w in zip(fa, c_float)])
        if deviation <= 2 * RHO:
            return WitnessPair(a=a_float, b=b_float, exact=False, deviation=deviation)
    return None


def injectivity_witness(fmap: PolyMap, box: float = 5.0, seed: int = 0) -> WitnessPair | None:
    """Search for two points with the same image from ``PROBES`` probe points;
    absence proves nothing."""
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


def index_sum_check(fmap: PolyMap, properness_weight: tuple[int, ...] | None) -> IndexSumReport:
    """Check that exactly one singular point exists and carries index (-1)^n.

    The unique-singular-point conclusion only has mathematical backing when
    properness was certified at some weight; the zero list and indices are
    reported either way, but ``ok`` stays false without that backing.
    """
    expected = (-1) ** fmap.n
    report = find_zeros(fmap)
    indices = tuple(z.index for z in report.zeros)
    counts_match = len(report.zeros) == 1 and indices == (expected,)
    if properness_weight is None:
        return IndexSumReport(
            ok=False,
            properness_weight=None,
            zero_count=len(report.zeros),
            indices=indices,
            expected_index=expected,
            note="properness was not certified at any weight; counts reported unverified",
        )
    note = None
    if not counts_match:
        note = (
            f"expected one zero of index {expected}, found {len(report.zeros)} "
            f"with indices {indices}; either zeros were missed or properness misreported"
        )
    return IndexSumReport(
        ok=counts_match,
        properness_weight=properness_weight,
        zero_count=len(report.zeros),
        indices=indices,
        expected_index=expected,
        note=note,
    )
