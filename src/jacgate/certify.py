"""Certify whether a quasi-homogeneous system vanishes only at the origin.

The zero set of a quasi-homogeneous system is invariant under the weighted
scaling action, so any non-trivial real zero can be rescaled onto a fixed
set that meets every orbit.

For n = 2 the decision is exact.  With positive weights a zero with y != 0
scales onto the line y = 1 or y = -1, and a zero with y = 0 onto (1, 0) or
(-1, 0).  So the system vanishes only at the origin exactly when, for each
sign, the g_i(t, +-1) have no common real root (``univariate.line_roots``,
by a Sturm count of their gcd) and not every g_i vanishes at (1, 0) or at
(-1, 0).  A witness is a rational point when a common root is rational and
otherwise a rational interval of t, on y = +-1, that isolates one; either
way it is exact, and it does not lie on the unit sphere.

For n >= 3 every zero scales onto the unit sphere, and the proof runs first:
interval branch-and-bound covers [-1, 1]^n restricted to a shell around the
sphere; a box is discarded when its norm-square bounds miss the shell or
when some polynomial's interval bounds exclude zero, and surviving boxes are
subdivided.  Exclusion of every box is a sound certificate.  The search
stops at the first leaf, a surviving box at the depth limit or reached with
the box budget spent: from then on no proof can close.  Only then does the
witness hunt (damped Gauss-Newton) run, once: from low-discrepancy sphere
points, then from the centre of that leaf.  So a proof is never overridden
by a float Newton zero, and costs no float work at all.  Witnesses are
verified by residuals and, when the coordinates snap to small rationals,
confirmed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateDirectionError, ZeroPolynomialError
from .floatval import FloatSystem, _norm, gauss_newton, max_abs, snap_exact
from .intervals import Bisection, Box, Interval, IntervalPoly
from .poly import Polynomial
from .sampling import points_on_sphere
from .univariate import bivariate, line_roots
from .weights import Weight, qh_decompose


SHELL = 0.0625  # half-width of the norm-square shell around the sphere
TAU = 1e-8      # allowed distance of a witness norm from 1
RHO = 1e-10     # residual tolerance for zeros and witnesses
_PROBES = 16    # sphere points the witness hunt starts from
MAX_BOXES = 200_000  # box budget of one branch-and-bound search


@dataclass(frozen=True)
class CertConfig:
    depth: int = 24
    seed: int = 0


class OutcomeKind(Enum):
    ONLY_ORIGIN = "only_origin"
    NONTRIVIAL_ZERO = "nontrivial_zero"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertOutcome:
    """Result of an only-origin decision.

    For a witness outcome, ``witness`` holds floats (or exact Fractions when
    ``exact`` is set) and ``residuals`` the per-polynomial values there.  An
    exact planar witness may instead hold, for x, a ``(lo, hi)`` pair of
    Fractions that isolates one root on its line y = +-1; its ``residuals``
    are None.  An ``only_origin`` outcome has ``exact`` set when it was
    decided in exact arithmetic rather than by branch-and-bound.  For an
    inconclusive outcome, ``unresolved`` is the first leaf: the first box
    that survived to the depth limit or to the spent box budget.
    """

    kind: OutcomeKind
    max_depth: int = 0
    boxes: int = 0
    witness: tuple | None = None
    exact: bool = False
    residuals: tuple[float, ...] | None = None
    unresolved: Box | None = None

    @property
    def is_only_origin(self) -> bool:
        return self.kind is OutcomeKind.ONLY_ORIGIN

    @property
    def is_nontrivial_zero(self) -> bool:
        return self.kind is OutcomeKind.NONTRIVIAL_ZERO

    @property
    def is_inconclusive(self) -> bool:
        return self.kind is OutcomeKind.INCONCLUSIVE


def _sphere_poly(n: int) -> Polynomial:
    terms = {tuple(2 if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)}
    p = Polynomial(n, terms)
    return p - 1


def _validate_system(system: Sequence[Polynomial], w: Weight) -> list[int]:
    """Check the quasi-homogeneity contract; returns each polynomial's degree."""
    if not system:
        raise ValueError("empty system")
    degrees = []
    for i, g in enumerate(system):
        if g.is_zero:
            raise ZeroPolynomialError(f"system polynomial {i} is identically zero", component=i)
        parts = qh_decompose(g, w)
        if len(parts) > 1:
            raise ValueError(
                f"system polynomial {i} is not quasi-homogeneous for weight {tuple(w.s)}: "
                f"Euler identity fails at degree {parts[-1][0]}"
            )
        degrees.append(parts[0][0])
    return degrees


def _newton_witness(
    system: Sequence[Polynomial], fsys: FloatSystem, start: Sequence[float]
) -> CertOutcome | None:
    """Newton-refine a start on ``fsys``, the system plus the unit sphere; accept the
    point as a witness if residuals and norm pass, exact if a rational snapping does."""
    point, _, _ = gauss_newton(fsys, start, tol=1e-12)
    if not all(map(math.isfinite, point)) or abs(_norm(point) - 1.0) > TAU:
        return None
    residuals = fsys.residual(point)[: len(system)]
    if not max_abs(residuals) <= RHO:
        return None
    lo = (Fraction(1) - Fraction(TAU)) ** 2
    hi = (Fraction(1) + Fraction(TAU)) ** 2
    snapped = snap_exact(
        point,
        lambda q: lo <= sum(c * c for c in q) <= hi and all(g.evaluate(q) == 0 for g in system),
    )
    if snapped is not None:
        return _exact_zero(snapped, len(system))
    return CertOutcome(
        kind=OutcomeKind.NONTRIVIAL_ZERO,
        witness=point,
        exact=False,
        residuals=residuals,
    )


def only_origin(
    system: Sequence[Polynomial], w: Weight, cfg: CertConfig | None = None
) -> CertOutcome:
    """Decide whether the quasi-homogeneous system vanishes only at the origin.

    For n = 2 the decision is exact and reads ``max_depth=0, boxes=0``; for
    n >= 3 it is ``_only_origin_boxes``.
    """
    if system and system[0].n == 2:
        _validate_system(system, w)
        return _planar_only_origin(system)
    return _only_origin_boxes(system, w, cfg)


def _exact_zero(point: tuple, count: int) -> CertOutcome:
    """The exact witness outcome for a rational zero of a system of ``count``
    polynomials, off the origin."""
    return CertOutcome(
        kind=OutcomeKind.NONTRIVIAL_ZERO,
        witness=point,
        exact=True,
        residuals=tuple(0.0 for _ in range(count)),
    )


def _planar_only_origin(system: Sequence[Polynomial]) -> CertOutcome:
    """The exact decision for n = 2, by Sturm sequences on y = 1 and y = -1 and
    exact values at (1, 0) and (-1, 0): a rational witness wherever there is
    one, else an isolating interval."""
    rows = [bivariate(g.terms) for g in system]
    isolated = []
    for sigma in (Fraction(1), Fraction(-1)):
        for t in line_roots(rows, sigma):
            if isinstance(t, Fraction):
                return _exact_zero((t, sigma), len(system))
            isolated.append((t, sigma))
    for sigma in (Fraction(1), Fraction(-1)):
        point = (sigma, Fraction(0))
        if all(g.evaluate(point) == 0 for g in system):
            return _exact_zero(point, len(system))
    if isolated:
        return CertOutcome(kind=OutcomeKind.NONTRIVIAL_ZERO, witness=isolated[0], exact=True)
    return CertOutcome(kind=OutcomeKind.ONLY_ORIGIN, exact=True)


def _only_origin_boxes(
    system: Sequence[Polynomial], w: Weight, cfg: CertConfig | None = None
) -> CertOutcome:
    """``only_origin`` by branch-and-bound on the unit sphere, for any n.

    ``only_origin`` takes this path for n >= 3; for n = 2 the tests compare
    it with the exact decision and with the hunt-first oracle.

    Branch-and-bound runs first, up to its first leaf: a system whose boxes
    are all excluded is certified with no float work at all, and no float
    zero overrides that proof.  At a leaf the witness hunt runs once, from
    the distinct sphere points and then from the leaf's centre; with no
    witness the outcome is inconclusive, with that leaf ``unresolved``.  A
    witness found from a sphere point reports ``max_depth=0, boxes=0``, and
    one found from the leaf the counts at that leaf.
    """
    cfg = cfg or CertConfig()
    degrees = _validate_system(system, w)
    n = system[0].n

    # a non-zero constant in the system has no zeros at all
    if any(d == 0 for d in degrees):
        return CertOutcome(kind=OutcomeKind.ONLY_ORIGIN)

    # branch and bound over the shell around the unit sphere
    ipolys = [IntervalPoly(g) for g in system]
    shell = Interval(1.0 - SHELL, 1.0 + SHELL)

    def excluded(box: Box) -> bool:
        if not box.norm_sq().intersects(shell):
            return True
        return any(p.excludes_zero(box.coords) for p in ipolys)

    search = Bisection(Box.cube(n, 1.0), cfg.depth, MAX_BOXES)
    leaf = search.first_leaf(excluded)
    counts = {"max_depth": search.max_depth, "boxes": search.boxes}
    if leaf is None:
        return CertOutcome(kind=OutcomeKind.ONLY_ORIGIN, **counts)

    # the hunt: low-discrepancy sphere points, each distinct one once, then the leaf
    fsys = FloatSystem(list(system) + [_sphere_poly(n)])
    for start in dict.fromkeys(points_on_sphere(n, _PROBES, cfg.seed)):
        outcome = _newton_witness(system, fsys, start)
        if outcome is not None:
            return outcome
    outcome = _newton_witness(system, fsys, leaf.center())
    if outcome is not None:
        return replace(outcome, **counts)
    return CertOutcome(kind=OutcomeKind.INCONCLUSIVE, unresolved=leaf, **counts)


def certify_once(
    table: dict | None, certifier, system: Sequence[Polynomial], w: Weight, cfg: CertConfig
) -> CertOutcome:
    """``certifier(system, w, cfg)``, run once per certifier, system and config kept in ``table``.

    An outcome depends on the system and ``cfg`` alone: the weight enters only
    the Euler contract, which is checked again whenever an outcome is reused.
    """
    table = {} if table is None else table
    key = (certifier, tuple(system), cfg)
    if key in table:
        _validate_system(system, w)
    else:
        table[key] = certifier(system, w, cfg)
    return table[key]


def unique_zero_nonneg(p: Polynomial, w: Weight, cfg: CertConfig | None = None) -> CertOutcome:
    """Only-origin decision for a single non-negative quasi-homogeneous polynomial.

    Non-negativity is the caller's contract (the intended inputs are higher
    parts of sums of squares); it is spot-checked exactly on sample points,
    as float rounding in a high-degree sum of squares can dip below zero.
    """
    cfg = cfg or CertConfig()
    for point in points_on_sphere(p.n, 16, cfg.seed + 1):
        if p.evaluate([Fraction(c) for c in point]) < 0:
            raise ValueError("polynomial is negative at a sample point; nonneg contract violated")
    return only_origin([p], w, cfg)


def gradient_only_origin(p: Polynomial, w: Weight, cfg: CertConfig | None = None) -> CertOutcome:
    """Only-origin decision for the gradient system of a quasi-homogeneous polynomial.

    A dead direction j (the polynomial does not involve x_j) makes the j-th
    unit vector a common zero of the remaining partials whenever they all
    vanish there, which gives an exact witness; otherwise it is surfaced.
    """
    cfg = cfg or CertConfig()
    partials = [p.partial(j) for j in range(p.n)]
    dead = [j for j, q in enumerate(partials) if q.is_zero]
    if dead:
        j = dead[0]
        unit = tuple(Fraction(1) if i == j else Fraction(0) for i in range(p.n))
        if all(q.evaluate(unit) == 0 for q in partials if not q.is_zero):
            return _exact_zero(unit, len(partials))
        raise DegenerateDirectionError(j)
    return only_origin(partials, w, cfg)
