"""Injectivity criteria, weight search, and verdict aggregation.

Three sufficient criteria are checked, all under the standing hypotheses
that the map fixes the origin and its Jacobian determinant never vanishes:

  * MapHigherPart     — the map's higher part vanishes only at the origin;
  * HNormHigherPart   — the gradient of the norm function's higher part
                        vanishes only at the origin (equivalently, that
                        higher part has the origin as unique zero, the
                        form decided here);
  * FieldHigherPart   — the higher part of the descent field vanishes only
                        at the origin.

A success of the field criterion also yields a derived weight vector at
which the map criterion is guaranteed to succeed; the map criterion is
certified again there rather than trusted.

The origin hypothesis is checked exactly.  The Jacobian hypothesis is
proven on all of R^n when det DF is a non-zero constant, decided on all of
R^n when n <= 2 by the exact real-zero algebra of ``jacgate.univariate``,
and checked on the box [-R, R]^n by interval branch-and-bound and a Newton
hunt when n >= 3 and for the planar dets the exact decision does not take
on (a critical zero on an irrational line, or resultants of too high a
degree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from . import certify
from .certify import CertConfig, CertOutcome, certify_once, only_origin
from .errors import (
    DegenerateDirectionError,
    InternalInconsistencyError,
    PreconditionError,
    ZeroPolynomialError,
)
from .floatval import FloatSystem, gauss_newton, snap_exact
from .intervals import Bisection, Box, IntervalPoly
from .poly import PolyMap, Polynomial, h_norm, jacobian_det
from .sampling import STARTS, points_in_box
from .univariate import UNDECIDED, planar_zero
from .weights import (
    FieldHigherPart,
    Weight,
    enumerate_weights,
    higher_part,
    higher_part_field,
    higher_part_map,
)

if TYPE_CHECKING:
    from .dynamics import WitnessPair


class JacStatus(Enum):
    VERIFIED_EVERYWHERE = "verified_everywhere"  # det DF != 0 proven on all of R^n
    VERIFIED_ON_BOX = "verified_on_box"
    VIOLATION_FOUND = "violation_found"
    ASSUMED = "assumed"


@dataclass(frozen=True)
class Assumptions:
    f_zero_at_origin: bool
    jac_status: JacStatus
    jac_box: float | None = None
    jac_depth: int | None = None
    jac_point: tuple | None = None
    jac_exact: bool = False

    @property
    def violated(self) -> str | None:
        """Name of a definitely violated hypothesis, if any."""
        if not self.f_zero_at_origin:
            return "f_zero_at_origin"
        if self.jac_status is JacStatus.VIOLATION_FOUND:
            return "jac_nonvanishing"
        return None


class Criterion(Enum):
    MAP_HIGHER_PART = "MapHigherPart"
    H_NORM_HIGHER_PART = "HNormHigherPart"
    FIELD_HIGHER_PART = "FieldHigherPart"


@dataclass(frozen=True)
class CriterionResult:
    criterion: Criterion
    weight: Weight
    outcome: CertOutcome | None
    diagnostic: str | None = None
    field_part: FieldHigherPart | None = None

    @property
    def succeeded(self) -> bool:
        return self.outcome is not None and self.outcome.is_only_origin


class VerdictKind(Enum):
    INJECTIVE = "injective"
    NOT_INJECTIVE = "not_injective"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AnalysisConfig:
    s_max: int = 4
    box_radius: float = 10.0
    cert: CertConfig = field(default_factory=CertConfig)


@dataclass(frozen=True)
class WeightSearchResult:
    attempts: dict[Criterion, tuple[CriterionResult, ...]]
    best: dict[Criterion, CriterionResult | None]


@dataclass(frozen=True)
class VerdictReport:
    kind: VerdictKind
    by: Criterion | None
    weight: Weight | None
    witness: WitnessPair | None
    assumptions: Assumptions
    search: WeightSearchResult
    properness_weight: Weight | None
    tilde: tuple[Weight, Weight] | None  # (source weight, derived weight)
    conflict_note: str | None = None


def check_assumptions(fmap: PolyMap, cfg: AnalysisConfig | None = None) -> Assumptions:
    """Verify the origin condition exactly, and the Jacobian condition on all of
    R^n when det DF is constant or n <= 2, or else on the box.

    For n <= 2 the decision is exact (``univariate.planar_zero``; for n = 1
    it takes det DF as a polynomial in x and y, whose first zero is the first
    real root of det DF).  Where it cannot finish, because a zero it cannot
    rule out is a critical point of det DF on an irrational line y = c or
    because its resultants would exceed ``univariate.MAX_RESULTANT_DEGREE``,
    and for every n >= 3, it is ``_check_assumptions_on_box``.
    """
    if fmap.n > 2:
        return _check_assumptions_on_box(fmap, cfg)
    f_zero, det, settled = _settled_assumptions(fmap)
    if settled is not None:
        return settled
    terms = det.terms if fmap.n == 2 else {(i, 0): c for (i,), c in det.terms.items()}
    point = planar_zero(terms)
    if point is UNDECIDED:
        return _check_assumptions_on_box(fmap, cfg)
    if point is None:
        return Assumptions(f_zero_at_origin=f_zero, jac_status=JacStatus.VERIFIED_EVERYWHERE)
    return Assumptions(
        f_zero_at_origin=f_zero,
        jac_status=JacStatus.VIOLATION_FOUND,
        jac_point=point[: fmap.n],
        jac_exact=True,
    )


def _settled_assumptions(fmap: PolyMap) -> tuple[bool, Polynomial, Assumptions | None]:
    """Whether F(0) = 0, det DF, and the assumptions when det DF is zero or constant."""
    f_zero = all(value == 0 for value in fmap.evaluate((Fraction(0),) * fmap.n))
    det = jacobian_det(fmap)
    settled = None
    if det.is_zero:
        settled = Assumptions(
            f_zero_at_origin=f_zero,
            jac_status=JacStatus.VIOLATION_FOUND,
            jac_point=(Fraction(0),) * fmap.n,
            jac_exact=True,
        )
    elif set(det.terms) == {(0,) * fmap.n}:
        settled = Assumptions(f_zero_at_origin=f_zero, jac_status=JacStatus.VERIFIED_EVERYWHERE)
    return f_zero, det, settled


def _check_assumptions_on_box(fmap: PolyMap, cfg: AnalysisConfig | None = None) -> Assumptions:
    """``check_assumptions`` on the box [-R, R]^n, for any n.

    ``check_assumptions`` takes this path for n >= 3; for n = 2 the tests
    compare it with the exact decision and with the hunt-first oracle.

    Interval branch-and-bound first tries to exclude zero from the
    determinant over the whole box; a float Newton zero never overrides that
    proof.  Only where it fails is the determinant probed for zeros with
    damped Newton from low-discrepancy starts, and then its exact signs at
    those starts are compared: a sign change proves a zero between two of
    them.  Outside the box nothing is claimed: absence of both a violation
    and a full exclusion leaves the status assumed.
    """
    cfg = cfg or AnalysisConfig()
    f_zero, det, settled = _settled_assumptions(fmap)
    if settled is not None:
        return settled

    # interval exclusion over the box
    ipoly = IntervalPoly(det)
    search = Bisection(
        Box.cube(fmap.n, cfg.box_radius), min(cfg.cert.depth, 20), certify.MAX_BOXES
    )
    if search.first_leaf(lambda box: ipoly.excludes_zero(box.coords)) is None:
        return Assumptions(
            f_zero_at_origin=f_zero,
            jac_status=JacStatus.VERIFIED_ON_BOX,
            jac_box=cfg.box_radius,
            jac_depth=search.max_depth,
        )

    # witness hunt: roots of det inside the box
    det_sys = FloatSystem([det])
    starts = points_in_box(fmap.n, STARTS, cfg.box_radius, cfg.cert.seed)
    for start in starts:
        point, _, converged = gauss_newton(det_sys, start, tol=1e-12)
        if converged and all(abs(c) <= cfg.box_radius for c in point):
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
    return Assumptions(f_zero_at_origin=f_zero, jac_status=JacStatus.ASSUMED)


def _sign_change_zero(p: Polynomial, starts: list[tuple[float, ...]]) -> tuple | None:
    """A point near a zero of ``p`` that its exact signs at ``starts`` prove, or None.

    Between a start where ``p > 0`` and one where ``p <= 0`` lies a zero
    (intermediate value theorem); 53 exact bisections, keeping that sign
    pattern at the ends, shrink the segment to the float precision of its
    length, and its midpoint is returned in floats: near the zero, not on it.
    """
    points = [tuple(Fraction(c) for c in start) for start in starts]
    positive = [p.evaluate(point) > 0 for point in points]
    if all(positive) or not any(positive):
        return None
    pos, neg = points[positive.index(True)], points[positive.index(False)]
    for _ in range(53):
        mid = tuple((a + b) / 2 for a, b in zip(pos, neg))
        if p.evaluate(mid) > 0:
            pos = mid
        else:
            neg = mid
    return tuple(float((a + b) / 2) for a, b in zip(pos, neg))


def _norm_function(fmap: PolyMap, table: dict | None) -> Polynomial:
    """``h_norm(fmap)``, computed once per map kept in ``table``."""
    table = {} if table is None else table
    key = (h_norm, fmap)
    if key not in table:
        table[key] = h_norm(fmap)
    return table[key]


def _check_criterion(
    criterion: Criterion, fmap: PolyMap, w: Weight, cfg: AnalysisConfig | None, table: dict | None
) -> CriterionResult:
    """One criterion at one weight: its higher-part system (and, for the field
    criterion, the whole ``FieldHigherPart``), certified once per system kept in
    ``table``.  A zero component, a zero norm function or a dead direction
    leaves no system: the result has no outcome and says why."""
    cfg = cfg or AnalysisConfig()
    field_part = None
    try:
        if criterion is Criterion.MAP_HIGHER_PART:
            system = higher_part_map(fmap, w).components
        else:
            h = _norm_function(fmap, table)
            if h.is_zero:
                raise ZeroPolynomialError("norm function is identically zero")
            if criterion is Criterion.H_NORM_HIGHER_PART:
                system = [higher_part(h, w)]
            else:
                field_part = higher_part_field(h, w)
                system = field_part.field.components
    except (ZeroPolynomialError, DegenerateDirectionError) as exc:
        return CriterionResult(criterion=criterion, weight=w, outcome=None, diagnostic=str(exc))
    outcome = certify_once(table, only_origin, system, w, cfg.cert)
    return CriterionResult(criterion=criterion, weight=w, outcome=outcome, field_part=field_part)


def check_map_higher_part(
    fmap: PolyMap, w: Weight, cfg: AnalysisConfig | None = None, table: dict | None = None
) -> CriterionResult:
    return _check_criterion(Criterion.MAP_HIGHER_PART, fmap, w, cfg, table)


def check_h_higher_part(
    fmap: PolyMap, w: Weight, cfg: AnalysisConfig | None = None, table: dict | None = None
) -> CriterionResult:
    """Certify that the norm function's higher part has the origin as its unique zero.

    That higher part is non-negative, the limit of lam^-d * H(lam^s * x)
    with H a sum of squares, so its unique zero at the origin is the
    paper's condition that its gradient vanishes only there; the tests
    check that the gradient form agrees.
    """
    return _check_criterion(Criterion.H_NORM_HIGHER_PART, fmap, w, cfg, table)


def check_field_higher_part(
    fmap: PolyMap, w: Weight, cfg: AnalysisConfig | None = None, table: dict | None = None
) -> CriterionResult:
    return _check_criterion(Criterion.FIELD_HIGHER_PART, fmap, w, cfg, table)


_CHECKERS = {
    Criterion.MAP_HIGHER_PART: check_map_higher_part,
    Criterion.H_NORM_HIGHER_PART: check_h_higher_part,
    Criterion.FIELD_HIGHER_PART: check_field_higher_part,
}


def derive_tilde_and_verify(
    fmap: PolyMap,
    field_result: CriterionResult,
    cfg: AnalysisConfig | None = None,
    table: dict | None = None,
) -> tuple[Weight, CriterionResult]:
    """Derive the new weight vector from a field-criterion success and re-verify.

    The construction guarantees the map criterion holds at the derived
    weights and that the norm function's higher part there is squeezed
    between zero and half the squared norm of the map's higher part.  The
    map criterion is certified again here and its result returned, also
    when the certificate is merely inconclusive; a refutation contradicts
    the theorem and raises.  The squeeze is a theorem, which the tests check.
    """
    if field_result.criterion is not Criterion.FIELD_HIGHER_PART or not field_result.succeeded:
        raise PreconditionError("derived weights need a field-criterion success")
    derived = field_result.field_part.tilde
    map_result = check_map_higher_part(fmap, derived, cfg, table)
    if map_result.outcome is None or map_result.outcome.is_nontrivial_zero:
        raise InternalInconsistencyError(
            f"map criterion refuted at derived weight {tuple(derived.s)} although the "
            f"field criterion held at {tuple(field_result.weight.s)}: implementation bug"
        )
    return derived, map_result


def weight_search(
    fmap: PolyMap, cfg: AnalysisConfig | None = None, table: dict | None = None
) -> WeightSearchResult:
    """Try canonical weights in (sum, lex) order, stopping per criterion at success.

    Outcomes and the norm function kept in ``table`` are reused; ``verdict``
    passes one per map.
    """
    cfg = cfg or AnalysisConfig()
    weights = enumerate_weights(fmap.n, cfg.s_max)
    attempts: dict[Criterion, tuple[CriterionResult, ...]] = {}
    best: dict[Criterion, CriterionResult | None] = {}
    for criterion, checker in _CHECKERS.items():
        results: list[CriterionResult] = []
        for w in weights:
            result = checker(fmap, w, cfg, table)
            results.append(result)
            if result.succeeded:
                break
        attempts[criterion] = tuple(results)
        best[criterion] = next((r for r in results if r.succeeded), None)
    return WeightSearchResult(attempts=attempts, best=best)


def verdict(fmap: PolyMap, cfg: AnalysisConfig | None = None) -> VerdictReport:
    """Aggregate assumptions, criteria and, when no criterion holds, a witness search.

    In order: every coefficient of F and H is checked to be within float
    range; the standing hypotheses are checked; when one is violated no
    criterion can answer injective, so the weight search and the derived
    weights are skipped (``search`` is empty) and the note names the
    hypothesis; otherwise the weight search runs, a field-criterion success
    has its derived weights re-verified, and a success is demoted when
    det DF != 0 is proven only on the box or assumed; and only when no
    success is left does the witness search look for two points with one
    image.  For n = 1 that search is exact, so finding no pair answers
    injective.  A success is never checked against a witness at run time:
    the tests check that the search finds no pair on certified maps.
    """
    cfg = cfg or AnalysisConfig()
    # one table of certified systems per map; no outcome outlives this verdict
    table: dict = {}
    # the witness search and the n >= 3 certificates evaluate F and the tops
    # of H in floats: refuse a coefficient beyond float range on every path
    for p in (*fmap.components, _norm_function(fmap, table)):
        for c in p.terms.values():
            float(c)
    assumptions = check_assumptions(fmap, cfg)
    # every sufficient criterion requires the standing hypotheses, with
    # det DF != 0 on all of R^n; a proven violation leaves none to try
    violated = assumptions.violated
    conflict_note: str | None = None
    if violated is not None:
        search = WeightSearchResult(attempts={}, best={})
        conflict_note = f"hypothesis {violated} is violated, so the criteria were not tried"
    else:
        search = weight_search(fmap, cfg, table)

    # the first criterion to succeed, in the order of _CHECKERS
    success = next((best for best in search.best.values() if best is not None), None)

    properness_weight: Weight | None = None
    h_best = search.best.get(Criterion.H_NORM_HIGHER_PART)
    if h_best is not None:
        properness_weight = h_best.weight

    tilde: tuple[Weight, Weight] | None = None
    field_best = search.best.get(Criterion.FIELD_HIGHER_PART)
    if field_best is not None:
        derived, map_result = derive_tilde_and_verify(fmap, field_best, cfg, table)
        if map_result.succeeded:
            tilde = (field_best.weight, derived)

    if success is not None and assumptions.jac_status is not JacStatus.VERIFIED_EVERYWHERE:
        conflict_note = (
            f"criterion {success.criterion.value} fired at weight {tuple(success.weight.s)} "
            f"but det DF != 0 is {assumptions.jac_status.value}, not proven on all of R^n"
        )
        success = None

    witness: WitnessPair | None = None
    if success is not None:
        kind = VerdictKind.INJECTIVE
    else:
        from .dynamics import injectivity_witness

        witness = injectivity_witness(fmap, box=cfg.box_radius / 2.0, seed=cfg.cert.seed)
        if witness is not None:
            kind = VerdictKind.NOT_INJECTIVE
        elif fmap.n == 1:
            # for n = 1 the witness search is exact: no pair proves injectivity
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
