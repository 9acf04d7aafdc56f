"""Oracles that tests check the library against: term-by-term ``Fraction``
products and sums for ``Polynomial``'s integer kernel, a grid scan for the
only-origin certifier, term-by-term interval bounds for ``IntervalPoly``,
hunt-first references for the box paths ``_only_origin_boxes`` and
``_check_assumptions_on_box`` (which ``only_origin`` and
``check_assumptions`` take for n >= 3), a witness-first reference for
``verdict``, the Euler identity as a polynomial identity for the
one-part reading of ``qh_decompose`` that ``_validate_system`` makes, a
partial-of-every-part reference for ``higher_part_field``, the weighted
degree for a raw weight vector, and the squeeze at derived weights.

It also keeps the proof machinery of the paper's first part, which no
command runs: the descent flow, the descent field's index evaluated in
floats, the index sum, the properness certificate, the own-block tops and
the weighted scaling action."""

import math
from dataclasses import dataclass, replace
from enum import Enum
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
    unique_zero_nonneg,
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
from jacgate.dynamics import STARTS, find_zeros, injectivity_witness
from jacgate.errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InternalInconsistencyError,
    ZeroPolynomialError,
)
from jacgate.floatval import FloatSystem, _norm, determinant, gauss_newton, max_abs, snap_exact
from jacgate.intervals import Bisection, Box, Interval, IntervalPoly
from jacgate.poly import PolyMap, h_norm, jacobian_det
from jacgate.sampling import points_in_box, points_on_sphere
from jacgate.weights import (
    FieldHigherPart,
    Weight,
    higher_part,
    higher_part_field,
    higher_part_map,
    qh_decompose,
)


def fraction_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """``p * q`` one ``Fraction`` term pair at a time, with the zero sums
    dropped at the end."""
    result: dict[tuple[int, ...], Fraction] = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            result[key] = result.get(key, Fraction(0)) + ca * cb
    return Polynomial(p.n, result)


def fraction_add(p: Polynomial, q: Polynomial) -> Polynomial:
    """``p + q`` term by term, with the zero sums dropped at the end."""
    result = dict(p.terms)
    for exponent, coefficient in q.terms.items():
        result[exponent] = result.get(exponent, Fraction(0)) + coefficient
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
            jac_point=origin,
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
    search = weight_search(fmap, cfg, table)
    success = next((best for best in search.best.values() if best is not None), None)

    properness_weight = None
    h_best = search.best.get(Criterion.H_NORM_HIGHER_PART)
    if h_best is not None:
        properness_weight = h_best.weight

    tilde = None
    field_best = search.best.get(Criterion.FIELD_HIGHER_PART)
    if field_best is not None:
        derived, map_result = derive_tilde_and_verify(fmap, field_best, cfg, table)
        if map_result.succeeded:
            tilde = (field_best.weight, derived)

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
            "hypothesis is violated"
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
    sum of s_i * x_i * dp/dx_i == degree * p.  The left side multiplies each
    term by its weighted degree, so it holds exactly when ``qh_decompose(p, w)``
    is one part, of degree ``degree``: the reading ``_validate_system`` makes."""
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


# -- the proof machinery of the paper's first part --------------------------
#
# The descent flow, the index sum, the properness certificate and the
# own-block tops are the paper's route to the polynomial Hadamard theorem.
# No command runs them; the tests check them against the library here.

# descent flow: step length, escape box, convergence tolerance, and the
# potential increase a step may make
STEP_TARGET = 0.05
FLOW_BOX = 1e6
CONVERGE_TOL = 1e-9
H_SLACK = 1e-12


class FlowStatus(Enum):
    CONVERGED_TO_ZERO_OF_F = "converged_to_zero_of_f"
    LEFT_BOX = "left_box"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[tuple[float, tuple[float, ...], float], ...]
    status: FlowStatus


@dataclass(frozen=True)
class IndexSumReport:
    ok: bool
    properness_weight: tuple[int, ...] | None
    zero_count: int
    indices: tuple[int | None, ...]
    expected_index: int
    note: str | None = None


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


def descent_index(fmap: PolyMap, q: Sequence[float]) -> int:
    """The sign of det of the descent field's Jacobian at ``q``, in floats: the
    index at a zero of the map that ``index_at`` takes from the theorem."""
    h = h_norm(fmap)
    field = FloatSystem([-h.partial(j) for j in range(fmap.n)])
    det = determinant(field.jacobian(tuple(float(c) for c in q)))
    if not math.isfinite(det) or det == 0.0:
        raise ValueError(f"the descent field's Jacobian is singular at the point: det {det}")
    return 1 if det > 0 else -1


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


def properness_certificate(
    h: Polynomial, w: Weight, cfg: CertConfig | None = None
) -> tuple[bool, CertOutcome]:
    """Certify that |h| blows up at infinity via its higher part's unique zero."""
    top = higher_part(h, w)
    outcome = unique_zero_nonneg(top, w, cfg)
    return outcome.is_only_origin, outcome


def raw_weighted_degree(p: Polynomial, svec: Sequence[int]) -> int:
    """Max weighted exponent sum over stored terms, for a raw weight vector
    such as ``FieldHigherPart.raw_tilde``, whose gcd may exceed 1."""
    if p.is_zero:
        raise ZeroPolynomialError("weighted degree of the zero polynomial is undefined")
    return max(sum(s * k for s, k in zip(svec, exponent)) for exponent in p.terms)


def weighted_degree(p: Polynomial, w: Weight) -> int:
    return raw_weighted_degree(p, w.s)


def field_by_every_partial(h: Polynomial, w: Weight) -> tuple:
    """``higher_part_field``'s degrees, field, blocks, ``m`` and raw derived
    weights the long way: the partial of every part, keeping the last
    non-zero one, and ``raw_tilde`` filled in block by block."""
    decomposition = qh_decompose(h, w)
    degrees: list[int] = []
    partials: list[Polynomial] = []
    for j in range(h.n):
        best = None
        for degree, part in decomposition:
            derivative = part.partial(j)
            if not derivative.is_zero:
                best = (degree, derivative)
        if best is None:
            raise DegenerateDirectionError(j)
        degrees.append(best[0])
        partials.append(best[1])
    perm = sorted(range(h.n), key=lambda j: -degrees[j])
    sizes: list[int] = []
    block_degrees: list[int] = []
    for j in perm:
        if block_degrees and block_degrees[-1] == degrees[j]:
            sizes[-1] += 1
        else:
            block_degrees.append(degrees[j])
            sizes.append(1)
    m = math.prod(block_degrees)
    raw_tilde = [0] * h.n
    start = 0
    for size, degree in zip(sizes, block_degrees):
        for j in perm[start:start + size]:
            raw_tilde[j] = m // degree * w.s[j]
        start += size
    field = PolyMap([-q for q in partials])
    return tuple(degrees), field, tuple(sizes), tuple(block_degrees), m, tuple(raw_tilde)


def script_h(h: Polynomial, w: Weight, bs: FieldHigherPart, block_index: int) -> Polynomial:
    """Own-block top of one potential part.

    Takes the quasi-homogeneous part of ``h`` at the block's degree and
    zeroes out every variable belonging to an earlier (higher-degree) block,
    leaving the monomials carried by the block's own variables.
    """
    if not 0 <= block_index < bs.r:
        raise IndexError(f"block index {block_index} out of range for r={bs.r}")
    part = dict(qh_decompose(h, w)).get(bs.block_degrees[block_index], Polynomial.zero(h.n))
    # the blocks are consecutive runs of ``perm``
    earlier = bs.perm[:sum(bs.sizes[:block_index])]
    kept = {k: c for k, c in part.terms.items() if all(k[i] == 0 for i in earlier)}
    return Polynomial(part.n, kept)


def script_h_sum(h: Polynomial, w: Weight) -> Polynomial:
    """Sum of the own-block tops over all blocks, in original coordinates."""
    bs = higher_part_field(h, w)
    total = Polynomial.zero(h.n)
    for i in range(bs.r):
        total = total + script_h(h, w, bs, i)
    return total


def scale_point(w_or_vec: Weight | Sequence[int], lam: Fraction, point: Sequence) -> tuple:
    """Apply the weighted scaling action ``x_i -> lam^{s_i} * x_i`` exactly."""
    svec = w_or_vec.s if isinstance(w_or_vec, Weight) else tuple(w_or_vec)
    if len(svec) != len(point):
        raise DimensionMismatchError("weight length does not match point length")
    lam = Fraction(lam)
    return tuple(Fraction(x) * lam ** s for s, x in zip(svec, point))
