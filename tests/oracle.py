"""Oracles that tests check the library against: term-by-term ``Fraction``
products and sums for ``Polynomial``'s integer kernel, a grid scan for the
only-origin certifier, term-by-term interval bounds for ``IntervalPoly``,
hunt-first references for the box paths ``_only_origin_boxes`` and
``_check_assumptions_on_box`` (which ``only_origin`` and
``check_assumptions`` take for n >= 3), a witness-first reference for
``verdict``, the Euler identity as a polynomial identity for
``euler_check``, and the squeeze at derived weights."""

import math
from dataclasses import replace
from fractions import Fraction
from random import Random
from typing import Sequence

import numpy as np

from jacgate import Polynomial, certify
from jacgate.certify import (
    _PROBES,
    SHELL,
    CertConfig,
    CertOutcome,
    OutcomeKind,
    _newton_witness,
    _sphere_poly,
    _validate_system,
)
from jacgate.criteria import (
    AnalysisConfig,
    Assumptions,
    Criterion,
    JacStatus,
    VerdictKind,
    VerdictReport,
    _sign_change_zero,
    check_assumptions,
    derive_tilde_and_verify,
    weight_search,
)
from jacgate.dynamics import STARTS, injectivity_witness
from jacgate.errors import InternalInconsistencyError
from jacgate.floatval import FloatSystem, gauss_newton, snap_exact
from jacgate.intervals import Bisection, Box, Interval, IntervalPoly
from jacgate.poly import PolyMap, h_norm, jacobian_det
from jacgate.sampling import points_in_box, points_on_sphere
from jacgate.weights import Weight, higher_part, higher_part_map


def fraction_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """``p * q`` one ``Fraction`` term pair at a time; a key whose running
    sum reaches 0 is dropped, and re-inserted at the end if it comes back."""
    result: dict[tuple[int, ...], Fraction] = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            total = result.get(key, Fraction(0)) + ca * cb
            if total:
                result[key] = total
            else:
                result.pop(key, None)
    return Polynomial(p.n, result)


def fraction_add(p: Polynomial, q: Polynomial) -> Polynomial:
    """``p + q`` term by term, under the same order rule as ``fraction_mul``."""
    result = dict(p.terms)
    for exponent, coefficient in q.terms.items():
        total = result.get(exponent, Fraction(0)) + coefficient
        if total:
            result[exponent] = total
        else:
            result.pop(exponent, None)
    return Polynomial(p.n, result)


def _values(p: Polynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate ``p`` at a batch of points, shape (count, n)."""
    items = p.sorted_terms()
    if not items:
        return np.zeros(points.shape[0])
    coeffs = np.array([float(c) for _, c in items], dtype=np.float64)
    exps = np.array([k for k, _ in items], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.prod(points[:, np.newaxis, :] ** exps[np.newaxis, :, :], axis=2) @ coeffs


def brute_force_scan(
    system: Sequence[Polynomial],
    resolution: int,
    refine_top: int = 12,
) -> tuple[Fraction, ...] | tuple[float, ...] | None:
    """Scan primitive lattice directions on the sphere.

    Normalizes every primitive integer direction with coordinates in
    [-resolution, resolution] onto the unit sphere, ranks them by the
    squared residual of the system, and Newton-refines the best few.
    Returns a verified witness or None.
    """
    if not system:
        raise ValueError("empty system")
    n = system[0].n
    directions: set[tuple[int, ...]] = set()

    def rec(prefix: list[int]):
        if len(prefix) == n:
            if any(prefix):
                g = math.gcd(*(abs(v) for v in prefix))
                directions.add(tuple(v // g for v in prefix))
            return
        for v in range(-resolution, resolution + 1):
            rec(prefix + [v])

    rec([])
    ordered = sorted(directions)
    matrix = np.array(ordered, dtype=np.float64)
    matrix /= np.linalg.norm(matrix, axis=1)[:, np.newaxis]
    score = np.zeros(matrix.shape[0])
    for p in system:
        score += _values(p, matrix) ** 2
    scored = [
        (float(score[i]), tuple(matrix[i].tolist())) for i in range(matrix.shape[0])
    ]
    scored.sort(key=lambda item: (item[0], item[1]))

    augmented = FloatSystem(list(system) + [_sphere_poly(n)])
    for _, start in scored[:refine_top]:
        outcome = _newton_witness(system, augmented, start)
        if outcome is not None:
            return outcome.witness
    return None


def reference_bounds(p: Polynomial, coords: Sequence[Interval]) -> Interval:
    """Bounds of ``p`` over a box by term-by-term ``Interval`` arithmetic.

    The compiled ``IntervalPoly.bounds`` must return exactly this interval.
    """
    total = Interval(0.0, 0.0)
    for exponent, c in p.sorted_terms():
        term = Interval.from_fraction(c)
        for i, k in enumerate(exponent):
            if k:
                term = term * coords[i].pow_int(k)
        total = total + term
    return total


def hunt_first_only_origin(
    system: Sequence[Polynomial], w: Weight, cfg: CertConfig | None = None
) -> CertOutcome:
    """``_only_origin_boxes`` with the witness hunt from sphere points run before any box.

    The library runs branch-and-bound first and hunts, from the distinct
    sphere points and then from the first leaf's centre, only once a box
    survives as a leaf; the two agree on every outcome except a float
    witness that an interval exclusion of every box refutes, which only
    this order can report.
    """
    cfg = cfg or CertConfig()
    degrees = _validate_system(system, w)
    n = system[0].n
    if any(d == 0 for d in degrees):
        return CertOutcome(kind=OutcomeKind.ONLY_ORIGIN)

    fsys = FloatSystem(list(system) + [_sphere_poly(n)])
    for start in points_on_sphere(n, _PROBES, cfg.seed):
        outcome = _newton_witness(system, fsys, start)
        if outcome is not None:
            return outcome

    ipolys = [IntervalPoly(g) for g in system]
    shell = Interval(1.0 - SHELL, 1.0 + SHELL)

    def excluded(box: Box) -> bool:
        if not box.norm_sq().intersects(shell):
            return True
        return any(p.excludes_zero(box.coords) for p in ipolys)

    search = Bisection(Box.cube(n, 1.0), cfg.depth, certify.MAX_BOXES)
    leaf = search.first_leaf(excluded)
    counts = {"max_depth": search.max_depth, "boxes": search.boxes}
    if leaf is None:
        return CertOutcome(kind=OutcomeKind.ONLY_ORIGIN, **counts)
    outcome = _newton_witness(system, fsys, leaf.center())
    if outcome is not None:
        return replace(outcome, **counts)
    return CertOutcome(kind=OutcomeKind.INCONCLUSIVE, unresolved=leaf, **counts)


def hunt_first_check_assumptions(
    fmap: PolyMap, cfg: AnalysisConfig | None = None
) -> Assumptions:
    """``_check_assumptions_on_box`` with the Newton hunt and the sign test run before
    the boxes.

    The library runs the interval exclusion first; the two agree except where
    a float Newton zero of det DF lies in a box that the exclusion proves
    zero-free, which only this order reports as a violation.
    """
    cfg = cfg or AnalysisConfig()
    origin = (Fraction(0),) * fmap.n
    f_zero = all(value == 0 for value in fmap.evaluate(origin))

    det = jacobian_det(fmap)
    if det.is_zero:
        return Assumptions(
            f_zero_at_origin=f_zero,
            jac_status=JacStatus.VIOLATION_FOUND,
            jac_point=(0.0,) * fmap.n,
            jac_exact=True,
        )
    if set(det.terms) == {(0,) * fmap.n}:
        return Assumptions(f_zero_at_origin=f_zero, jac_status=JacStatus.VERIFIED_EVERYWHERE)

    det_sys = FloatSystem([det])
    starts = points_in_box(fmap.n, STARTS, cfg.box_radius, cfg.cert.seed)
    for start in starts:
        point, residual, converged = gauss_newton(det_sys, start, tol=1e-12)
        if converged and residual <= 1e-10 and all(abs(c) <= cfg.box_radius for c in point):
            snapped = snap_exact(point, lambda q: det.evaluate(q) == 0)
            return Assumptions(
                f_zero_at_origin=f_zero,
                jac_status=JacStatus.VIOLATION_FOUND,
                jac_point=point if snapped is None else snapped,
                jac_exact=snapped is not None,
            )
    zero = _sign_change_zero(det, starts)
    if zero is not None:
        return Assumptions(
            f_zero_at_origin=f_zero, jac_status=JacStatus.VIOLATION_FOUND, jac_point=zero
        )

    ipoly = IntervalPoly(det)
    search = Bisection(
        Box.cube(fmap.n, cfg.box_radius), min(cfg.cert.depth, 20), certify.MAX_BOXES
    )
    if search.first_leaf(lambda box: ipoly.excludes_zero(box.coords)) is not None:
        return Assumptions(f_zero_at_origin=f_zero, jac_status=JacStatus.ASSUMED)
    return Assumptions(
        f_zero_at_origin=f_zero,
        jac_status=JacStatus.VERIFIED_ON_BOX,
        jac_box=cfg.box_radius,
        jac_depth=search.max_depth,
    )


def witness_first_verdict(fmap: PolyMap, cfg: AnalysisConfig | None = None) -> VerdictReport:
    """``verdict`` with the witness search run on every map, before the weight search.

    The library searches for a witness only when no criterion success is
    left.  This order also checks each success against the search: an exact
    pair beside a success with the hypotheses intact raises, and a numeric
    pair is reported beside the certificate with a note.  The two agree on
    every map whose certificate the search finds no pair against.  It runs
    the full weight search even when a hypothesis is violated, where the
    library tries no criterion: there the two agree on the verdict, the
    witness and the assumptions, but not on the search or its notes.
    """
    cfg = cfg or AnalysisConfig()
    assumptions = check_assumptions(fmap, cfg)
    witness = injectivity_witness(fmap, box=cfg.box_radius / 2.0, seed=cfg.cert.seed)
    table: dict = {}
    search = weight_search(fmap, None, cfg, table)
    success = next((best for best in search.best.values() if best is not None), None)

    properness_weight = None
    h_best = search.best.get(Criterion.H_NORM_HIGHER_PART)
    if h_best is not None:
        properness_weight = h_best.weight

    tilde = None
    field_best = search.best.get(Criterion.FIELD_HIGHER_PART)
    if field_best is not None:
        try:
            derived, _ = derive_tilde_and_verify(fmap, field_best.weight, cfg, field_best, table)
            tilde = (field_best.weight, derived)
        except InternalInconsistencyError as exc:
            if exc.reason != "inconclusive":
                raise

    conflict_note = None
    violated = assumptions.violated
    if success is not None and violated is not None:
        conflict_note = (
            f"criterion {success.criterion.value} fired at weight {tuple(success.weight.s)} "
            f"but hypothesis {violated} is violated, so its conclusion does not apply"
        )
        success = None
    elif success is not None and assumptions.jac_status is not JacStatus.VERIFIED_EVERYWHERE:
        conflict_note = (
            f"criterion {success.criterion.value} fired at weight {tuple(success.weight.s)} "
            f"but det DF != 0 is {assumptions.jac_status.value}, not proven on all of R^n"
        )
        success = None

    if witness is not None and witness.exact and success is not None:
        raise InternalInconsistencyError(
            f"criterion {success.criterion.value} certified injectivity at weight "
            f"{tuple(success.weight.s)} but an exact witness pair exists and no "
            "hypothesis is violated",
            reason="refuted",
        )

    if success is not None:
        kind = VerdictKind.INJECTIVE
        if witness is not None:
            conflict_note = (
                "numeric (non-exact) witness pair found; reported alongside the certificate"
            )
    elif witness is not None:
        kind = VerdictKind.NOT_INJECTIVE
    elif fmap.n == 1:
        kind = VerdictKind.INJECTIVE
        note = "F' keeps its sign off its zeros, so F is injective"
        conflict_note = f"{conflict_note}; {note}" if conflict_note else note
    else:
        kind = VerdictKind.UNKNOWN
    return VerdictReport(
        kind=kind,
        by=success.criterion if success is not None else None,
        weight=success.weight if success is not None else None,
        witness=witness,
        assumptions=assumptions,
        search=search,
        properness_weight=properness_weight,
        tilde=tilde,
        conflict_note=conflict_note,
    )


def euler_identity(p: Polynomial, w: Weight, degree: int) -> bool:
    """The generalized Euler identity as a polynomial identity:
    sum of s_i * x_i * dp/dx_i == degree * p, which ``euler_check`` decides
    from the exponents."""
    lhs = Polynomial.zero(p.n)
    for i, s_i in enumerate(w.s):
        lhs = lhs + (Polynomial.variable(p.n, i) * p.partial(i)).scale(s_i)
    return lhs == p.scale(degree)


def squeeze_holds(fmap: PolyMap, w: Weight) -> bool:
    """Whether 0 <= H_top <= ||F_top||^2 / 2 holds exactly at 100 random rational
    points, with H the norm function and the tops taken at ``w``.

    The paper proves this squeeze at the weights derived from a field-criterion
    success; ``derive_tilde_and_verify`` certifies the map criterion there and
    leaves the squeeze to this check.
    """
    h_top = higher_part(h_norm(fmap), w)
    f_top = higher_part_map(fmap, w)
    rng = Random(97)
    for _ in range(100):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(fmap.n))
        middle = h_top.evaluate(x)
        upper = sum((c.evaluate(x) ** 2 for c in f_top.components), Fraction(0)) / 2
        if not 0 <= middle <= upper:
            return False
    return True
