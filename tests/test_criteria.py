"""The injectivity criteria, derived weights, weight search, and verdicts."""

from dataclasses import replace
from fractions import Fraction

import pytest

from random import Random

import jacgate.criteria
import jacgate.dynamics
from conftest import p2
from corpus import field_pass_instances, random_map
from jacgate import (
    AnalysisConfig,
    CertConfig,
    Criterion,
    JacStatus,
    OutcomeKind,
    PolyMap,
    Polynomial,
    VerdictKind,
    Weight,
    check_assumptions,
    check_field_higher_part,
    check_h_higher_part,
    check_map_higher_part,
    derive_tilde_and_verify,
    h_norm,
    higher_part,
    higher_part_map,
    verdict,
    weight_search,
)
from jacgate.certify import (
    MAX_BOXES,
    CertOutcome,
    RHO,
    _only_origin_boxes,
    certify_once,
    gradient_only_origin,
    only_origin,
)
from jacgate.criteria import Assumptions, _check_assumptions_on_box
from jacgate.dynamics import injectivity_witness
from jacgate.errors import (
    DegenerateDirectionError,
    InternalInconsistencyError,
    PreconditionError,
)
from jacgate.intervals import IntervalPoly
from jacgate.parsing import parse_expr
from jacgate.sampling import points_on_sphere
from jacgate.weights import enumerate_weights
import oracle
from oracle import hunt_first_check_assumptions, witness_first_verdict


W11 = Weight((1, 1))

# the maps of the tests below: the golden cubic, a parabola with det DF = 2x,
# det DF > 0 proven at box depth 15 and at depth 17, and a zero of det DF that
# only the exact sign change proves
NAMED_MAPS = {
    "cubic": PolyMap([p2("x^3 + y^3 + x"), p2("y")]),
    "parabola": PolyMap([p2("x^2 - 1"), p2("y")]),
    "depth15": PolyMap([p2("x + x^3 + 1/100*(x+y)^5"), p2("y")]),
    "jacbox": PolyMap([p2("x + 1/3*(x - 1/2*y)^3 + 1/50*(x + y)^5"), p2("y")]),
    "power30": PolyMap([p2("(x+y)^30 + x"), p2("y")]),
}
# det DF = x^2 + 10^-12 > 0, where Newton converges to a float "zero" near x = -2e-15
TINYDET = PolyMap([p2("1/3*x^3 + 1/1000000000000*x"), p2("y")])


def counting_newton(monkeypatch):
    """Count the ``gauss_newton`` calls of ``check_assumptions`` and its oracle."""
    calls = [0]
    newton = jacgate.criteria.gauss_newton

    def counting(*args, **kwargs):
        calls[0] += 1
        return newton(*args, **kwargs)

    monkeypatch.setattr(jacgate.criteria, "gauss_newton", counting)
    monkeypatch.setattr(oracle, "gauss_newton", counting)
    return calls


class TestAssumptions:
    def test_cubic_verified(self, cubic_map):
        # det DF = 3x^2 + 1 is proven non-zero on all of R^2, and on the box by the box path
        assumptions = check_assumptions(cubic_map, AnalysisConfig(box_radius=10.0))
        assert assumptions.f_zero_at_origin
        assert assumptions.jac_status is JacStatus.VERIFIED_EVERYWHERE
        assert (assumptions.jac_box, assumptions.jac_depth) == (None, None)
        on_box = _check_assumptions_on_box(cubic_map, AnalysisConfig(box_radius=10.0))
        assert on_box.jac_status is JacStatus.VERIFIED_ON_BOX

    def test_parabola_violation(self):
        assumptions = check_assumptions(PolyMap([p2("x^2 - 1"), p2("y")]))
        assert not assumptions.f_zero_at_origin
        assert assumptions.jac_status is JacStatus.VIOLATION_FOUND
        # det = 2x vanishes on the y-axis; the witness snaps exactly
        assert assumptions.jac_exact
        assert assumptions.jac_point[0] == 0

    def test_identity_trivial(self):
        # a constant det DF is non-zero everywhere, on either path and for any n
        for fmap in (PolyMap.identity(2), PolyMap.identity(3)):
            for assumptions in (check_assumptions(fmap), _check_assumptions_on_box(fmap)):
                assert assumptions.f_zero_at_origin
                assert assumptions.jac_status is JacStatus.VERIFIED_EVERYWHERE

    @pytest.mark.parametrize(
        "cert, budget, status, depth",
        [
            (CertConfig(), MAX_BOXES, JacStatus.VERIFIED_ON_BOX, 15),
            (CertConfig(depth=10), MAX_BOXES, JacStatus.ASSUMED, None),
            (CertConfig(), 5, JacStatus.ASSUMED, None),
        ],
        ids=["verified", "depth_limit", "box_budget"],
    )
    def test_branch_and_bound_contract(self, monkeypatch, cert, budget, status, depth):
        monkeypatch.setattr(jacgate.certify, "MAX_BOXES", budget)
        # det DF = 1 + 3x^2 + 1/20*(x+y)^4 > 0 needs bisection to depth 15
        fmap = PolyMap([p2("x + x^3 + 1/100*(x+y)^5"), p2("y")])
        assumptions = _check_assumptions_on_box(fmap, AnalysisConfig(box_radius=10.0, cert=cert))
        assert (assumptions.jac_status, assumptions.jac_depth) == (status, depth)

    def test_jacbox_branch_and_bound(self, monkeypatch):
        # a map of the check-jacbox benchmark's form:
        # det DF = 1 + (x - y/2)^2 + 1/10*(x+y)^4 >= 1, excluded box by box
        calls = 0
        bounds = IntervalPoly.bounds

        def counting(self, coords):
            nonlocal calls
            calls += 1
            return bounds(self, coords)

        monkeypatch.setattr(IntervalPoly, "bounds", counting)
        fmap = PolyMap([p2("x + 1/3*(x - 1/2*y)^3 + 1/50*(x + y)^5"), p2("y")])
        assumptions = _check_assumptions_on_box(fmap)
        assert (assumptions.jac_status, assumptions.jac_depth, calls) == (
            JacStatus.VERIFIED_ON_BOX, 17, 25519
        )

    def test_sign_change_proves_violation(self):
        # det DF = 30*(x+y)^29 + 1 vanishes on the line x + y = -(1/30)^(1/29),
        # where Newton does not converge; the exact signs at the starts differ
        assumptions = _check_assumptions_on_box(PolyMap([p2("(x+y)^30 + x"), p2("y")]))
        assert assumptions.jac_status is JacStatus.VIOLATION_FOUND
        assert not assumptions.jac_exact
        x, y = assumptions.jac_point
        assert abs(x + y + (1 / 30) ** (1 / 29)) < 1e-12


class TestProveFirst:
    """The box exclusion runs before the Newton hunt and decides as hunting first did.

    For n = 2 the library decides exactly, so these tests call the box paths,
    ``_check_assumptions_on_box`` and ``_only_origin_boxes``, on the same maps.
    """

    @pytest.mark.parametrize(
        "cfg, budget",
        [
            (AnalysisConfig(), MAX_BOXES),
            (AnalysisConfig(cert=CertConfig(depth=10)), MAX_BOXES),
            (AnalysisConfig(), 5),
        ],
        ids=["default", "depth_limit", "box_budget"],
    )
    @pytest.mark.parametrize("name", sorted(NAMED_MAPS))
    def test_same_assumptions_as_hunting_first(self, monkeypatch, name, cfg, budget):
        monkeypatch.setattr(jacgate.certify, "MAX_BOXES", budget)
        fmap = NAMED_MAPS[name]
        # repr compares every float of a violation point
        on_box = _check_assumptions_on_box(fmap, cfg)
        assert repr(on_box) == repr(hunt_first_check_assumptions(fmap, cfg))

    def test_same_assumptions_on_seeded_maps(self):
        rng = Random(5)
        maps = [random_map(rng, rng.choice((2, 2, 3)), 3, 3) for _ in range(20)]
        maps += [fmap for fmap, _ in field_pass_instances(10, seed=19)]
        for fmap in maps:
            on_box = _check_assumptions_on_box(fmap)
            assert repr(on_box) == repr(hunt_first_check_assumptions(fmap)), fmap

    def test_same_map_criterion_outcomes_as_hunting_first(self):
        for name, fmap in NAMED_MAPS.items():
            for w in enumerate_weights(2, 2):
                top = higher_part_map(fmap, w).components
                on_boxes = _only_origin_boxes(top, w)
                assert repr(on_boxes) == repr(oracle.hunt_first_only_origin(top, w)), (name, w)

    def test_no_newton_when_box_proves_det(self, monkeypatch, cubic_map):
        calls = counting_newton(monkeypatch)
        assumptions = _check_assumptions_on_box(cubic_map)
        assert assumptions.jac_status is JacStatus.VERIFIED_ON_BOX
        assert calls[0] == 0
        # hunting first runs Newton from all 32 starts on the same map
        hunt_first_check_assumptions(cubic_map)
        assert calls[0] == 32

    def test_newton_runs_when_the_box_proof_fails(self, monkeypatch):
        calls = counting_newton(monkeypatch)
        cfg = AnalysisConfig(cert=CertConfig(depth=10))
        assumptions = _check_assumptions_on_box(NAMED_MAPS["depth15"], cfg)
        assert assumptions.jac_status is JacStatus.ASSUMED
        assert calls[0] == 32

    def test_float_zero_does_not_override_box_proof(self):
        assumptions = _check_assumptions_on_box(TINYDET)
        assert (assumptions.jac_status, assumptions.jac_depth) == (JacStatus.VERIFIED_ON_BOX, 0)
        # hunting first reports the float "zero" that the depth-0 box refutes
        refuted = hunt_first_check_assumptions(TINYDET)
        assert refuted.jac_status is JacStatus.VIOLATION_FOUND and not refuted.jac_exact
        assert abs(refuted.jac_point[0]) < 1e-14


class TestMapCriterion:
    def test_cubic(self, cubic_map):
        result = check_map_higher_part(cubic_map, W11)
        assert result.succeeded

    def test_identity(self):
        assert check_map_higher_part(PolyMap.identity(2), W11).succeeded

    def test_shifted_cubic(self):
        result = check_map_higher_part(PolyMap([p2("x"), p2("x + y^3")]), W11)
        assert result.succeeded

    def test_zero_component_diagnostic(self):
        from jacgate.poly import Polynomial

        result = check_map_higher_part(PolyMap([p2("x"), Polynomial.zero(2)]), W11)
        assert not result.succeeded
        assert "zero" in result.diagnostic


class TestHNormCriterion:
    @pytest.mark.parametrize("s", [(1, 1), (1, 2), (2, 1)])
    def test_cubic_fails_everywhere(self, cubic_map, s):
        result = check_h_higher_part(cubic_map, Weight(s))
        assert result.outcome.kind is OutcomeKind.NONTRIVIAL_ZERO
        top = higher_part(h_norm(cubic_map), Weight(s))
        assert gradient_only_origin(top, Weight(s)).kind is OutcomeKind.NONTRIVIAL_ZERO

    def test_identity(self):
        result = check_h_higher_part(PolyMap.identity(2), W11)
        assert result.succeeded
        top = higher_part(h_norm(PolyMap.identity(2)), W11)
        assert gradient_only_origin(top, W11).kind is OutcomeKind.ONLY_ORIGIN


class TestFieldCriterion:
    def test_identity(self):
        result = check_field_higher_part(PolyMap.identity(2), W11)
        assert result.succeeded
        assert result.block.r == 1

    def test_cubic_fails(self, cubic_map):
        result = check_field_higher_part(cubic_map, W11)
        assert result.outcome.kind is OutcomeKind.NONTRIVIAL_ZERO

    def test_h_success_implies_field_success_per_weight(self):
        # when the gradient of the top part misses zero off the origin, the
        # field's higher part is exactly that gradient
        for fmap, w in field_pass_instances(20, seed=19):
            h_result = check_h_higher_part(fmap, w)
            if not h_result.succeeded:
                continue
            field_result = check_field_higher_part(fmap, w)
            assert field_result.succeeded

    def test_field_can_succeed_where_h_fails(self):
        # the converse direction is weight-sensitive: with split block
        # degrees the field check can pass while the norm check fails
        fmap = PolyMap([p2("x^4 + 2*y"), p2("3*y^3")])
        h_result = check_h_higher_part(fmap, W11)
        assert h_result.outcome.kind is OutcomeKind.NONTRIVIAL_ZERO
        field_result = check_field_higher_part(fmap, W11)
        assert field_result.succeeded and field_result.block.r == 2


ZERO2 = PolyMap([Polynomial.zero(2), Polynomial.zero(2)])


@pytest.mark.parametrize(
    "check, fmap, diagnostic",
    [
        (check_map_higher_part, PolyMap([p2("x"), Polynomial.zero(2)]),
         "component 1 of the map is identically zero"),
        (check_h_higher_part, ZERO2, "norm function is identically zero"),
        (check_field_higher_part, ZERO2, "norm function is identically zero"),
        (check_field_higher_part, PolyMap([p2("x"), p2("x")]),
         "input does not depend on variable 1"),
    ],
    ids=["map-zero-component", "h-zero-map", "field-zero-map", "field-dead-direction"],
)
def test_no_system_gives_a_diagnostic(check, fmap, diagnostic):
    # a criterion with no higher-part system to certify says why, with no outcome
    result = check(fmap, W11)
    assert result.outcome is None and not result.succeeded
    assert result.diagnostic == diagnostic


class TestDeriveTilde:
    def test_identity_keeps_weight(self):
        derived, result = derive_tilde_and_verify(PolyMap.identity(2), W11)
        assert derived == W11
        assert result.succeeded

    def test_cubic_refused(self, cubic_map):
        with pytest.raises(PreconditionError):
            derive_tilde_and_verify(cubic_map, W11)

    def test_split_blocks_verified(self):
        fmap = PolyMap([p2("x^4 + 2*y"), p2("3*y^3")])
        field_result = check_field_higher_part(fmap, W11)
        assert field_result.succeeded and field_result.block.r == 2
        derived, map_result = derive_tilde_and_verify(fmap, W11, field_result=field_result)
        assert derived == Weight((3, 4))
        assert map_result.succeeded

    @pytest.mark.parametrize("kind", [OutcomeKind.NONTRIVIAL_ZERO, OutcomeKind.INCONCLUSIVE])
    def test_map_failure_at_derived_weight(self, monkeypatch, kind):
        # the identity's field criterion holds at (1, 1), and so must the map
        # criterion at the derived weight; make it fail there
        fmap = PolyMap.identity(2)
        derived, _ = derive_tilde_and_verify(fmap, W11)
        checker = jacgate.criteria.check_map_higher_part

        def failing(fmap, w, cfg=None, table=None):
            result = checker(fmap, w, cfg, table)
            return replace(result, outcome=CertOutcome(kind=kind)) if w == derived else result

        # the weight search calls its checkers through _CHECKERS, so this
        # reaches only the re-certification at the derived weight
        monkeypatch.setattr(jacgate.criteria, "check_map_higher_part", failing)
        if kind is OutcomeKind.NONTRIVIAL_ZERO:
            with pytest.raises(InternalInconsistencyError, match="refuted at derived weight") as exc:
                verdict(fmap)
            assert exc.value.reason == "refuted"
        else:
            report = verdict(fmap)
            assert (report.kind, report.by, report.tilde) == (
                VerdictKind.INJECTIVE, Criterion.MAP_HIGHER_PART, None
            )

    def test_sandwich_holds_on_family(self):
        # the exact squeeze at the derived weights of the seeded field passes
        # and of every field-criterion success the weight search finds on
        # NAMED_MAPS, hypotheses violated or not
        derived_weights = []
        for fmap, w in field_pass_instances(10, seed=23):
            field_result = check_field_higher_part(fmap, w)
            if field_result.succeeded:
                derived, _ = derive_tilde_and_verify(fmap, w, field_result=field_result)
                derived_weights.append((fmap, derived))
        named = []
        for fmap in NAMED_MAPS.values():
            search = weight_search(fmap, [Criterion.FIELD_HIGHER_PART])
            field_best = search.best[Criterion.FIELD_HIGHER_PART]
            if field_best is not None:
                derived, _ = derive_tilde_and_verify(
                    fmap, field_best.weight, field_result=field_best
                )
                named.append((fmap, derived))
        assert named and len(derived_weights) > 1
        for fmap, derived in derived_weights + named:
            assert oracle.squeeze_holds(fmap, derived), (fmap, derived)


class TestWeightSearch:
    def test_cubic_map_criterion_first_weight(self, cubic_map):
        result = weight_search(cubic_map, [Criterion.MAP_HIGHER_PART], AnalysisConfig(s_max=2))
        best = result.best[Criterion.MAP_HIGHER_PART]
        assert best is not None and best.weight == W11

    def test_cubic_h_criterion_no_success(self, cubic_map):
        result = weight_search(cubic_map, [Criterion.H_NORM_HIGHER_PART], AnalysisConfig(s_max=2))
        assert result.best[Criterion.H_NORM_HIGHER_PART] is None
        assert len(result.attempts[Criterion.H_NORM_HIGHER_PART]) == 3

    def test_identity_all_criteria_first_weight(self):
        result = weight_search(PolyMap.identity(2), None, AnalysisConfig(s_max=2))
        for criterion, best in result.best.items():
            assert best is not None and best.weight == W11


class TestCertTable:
    def test_each_system_certified_once(self, cubic_map, monkeypatch):
        import jacgate.certify
        import jacgate.criteria

        original = jacgate.certify.only_origin
        systems = []

        def recording(system, w, cfg=None):
            systems.append(tuple(system))
            return original(system, w, cfg)

        monkeypatch.setattr(jacgate.certify, "only_origin", recording)
        monkeypatch.setattr(jacgate.criteria, "only_origin", recording)
        cfg = AnalysisConfig(s_max=4)
        report = verdict(cubic_map, cfg)
        # the H criterion fails at all 11 weights, which have 3 distinct tops
        assert len(report.search.attempts[Criterion.H_NORM_HIGHER_PART]) == 11
        assert len(systems) == len(set(systems))
        # the same attempts as certifying each one with a table of its own
        for criterion, results in report.search.attempts.items():
            checker = jacgate.criteria._CHECKERS[criterion]
            assert results == tuple(checker(cubic_map, r.weight, cfg) for r in results)

    def test_norm_function_computed_once(self, monkeypatch):
        maps = []
        norm = jacgate.criteria.h_norm

        def counting(fmap):
            maps.append(fmap)
            return norm(fmap)

        monkeypatch.setattr(jacgate.criteria, "h_norm", counting)
        # both norm criteria hold, and the map criterion is certified at the derived weights
        assert verdict(PolyMap.identity(2)).tilde is not None
        # the H and field criteria fail at all 11 weights
        report = verdict(NAMED_MAPS["cubic"])
        assert len(report.search.attempts[Criterion.H_NORM_HIGHER_PART]) == 11
        assert len(report.search.attempts[Criterion.FIELD_HIGHER_PART]) == 11
        assert maps == [PolyMap.identity(2), NAMED_MAPS["cubic"]]

    def test_reuse_still_checks_euler(self):
        table: dict = {}
        system = [p2("x^2 + y^2")]
        assert certify_once(table, only_origin, system, W11, CertConfig()).is_only_origin
        with pytest.raises(ValueError, match="not quasi-homogeneous"):
            certify_once(table, only_origin, system, Weight((1, 2)), CertConfig())
        assert len(table) == 1


class TestVerdict:
    def test_cubic_injective(self, cubic_map):
        report = verdict(cubic_map)
        assert report.kind is VerdictKind.INJECTIVE
        assert report.by is Criterion.MAP_HIGHER_PART
        assert report.weight == W11
        assert report.witness is None

    def test_parabola_not_injective(self):
        report = verdict(PolyMap([p2("x^2 - 1"), p2("y")]))
        assert report.kind is VerdictKind.NOT_INJECTIVE
        assert report.witness is not None and report.witness.exact
        fmap = PolyMap([p2("x^2 - 1"), p2("y")])
        assert fmap.evaluate(report.witness.a) == fmap.evaluate(report.witness.b)

    def test_disqualified_criterion_names_hypothesis(self):
        # det DF of (x^3 - x, y) vanishes on x^2 = 1/3, so no criterion is tried
        report = verdict(PolyMap([p2("x^3 - x"), p2("y")]))
        assert report.kind is VerdictKind.NOT_INJECTIVE
        assert report.conflict_note == (
            "hypothesis jac_nonvanishing is violated, so the criteria were not tried"
        )

    @pytest.mark.parametrize("status", [JacStatus.VERIFIED_ON_BOX, JacStatus.ASSUMED])
    def test_success_needs_det_proven_everywhere(self, monkeypatch, cubic_map, status):
        # the criteria need det DF != 0 on all of R^n; on a box it is not enough
        assumptions = Assumptions(f_zero_at_origin=True, jac_status=status)
        monkeypatch.setattr(jacgate.criteria, "check_assumptions", lambda *_: assumptions)
        report = verdict(cubic_map)
        assert (report.kind, report.by, report.witness) == (VerdictKind.UNKNOWN, None, None)
        assert report.search.best[Criterion.MAP_HIGHER_PART] is not None
        assert report.conflict_note == (
            "criterion MapHigherPart fired at weight (1, 1) but det DF != 0 is "
            f"{status.value}, not proven on all of R^n"
        )

    def test_one_variable_without_pair_is_injective(self):
        # det DF = 3x^2 vanishes at 0, so no criterion is tried; F' = 3x^2
        # keeps its sign off 0, so the exact search finds no pair
        report = verdict(PolyMap([parse_expr("x^3", ("x",))]))
        assert (report.kind, report.by, report.witness) == (VerdictKind.INJECTIVE, None, None)
        assert report.conflict_note == (
            "hypothesis jac_nonvanishing is violated, so the criteria were not tried; "
            "F' keeps its sign off its zeros, so F is injective"
        )

    def test_unknown_when_search_capped(self):
        # this map needs weights (2, 1); capping the search at 1 leaves Unknown
        fmap = PolyMap([p2("x + y^2"), p2("y")])
        report = verdict(fmap, AnalysisConfig(s_max=1))
        assert report.kind is VerdictKind.UNKNOWN

    def test_succeeds_at_larger_cap(self):
        fmap = PolyMap([p2("x + y^2"), p2("y")])
        report = verdict(fmap, AnalysisConfig(s_max=2))
        assert report.kind is VerdictKind.INJECTIVE
        assert report.weight == Weight((2, 1))

    def test_tinydet_injective(self):
        report = verdict(TINYDET)
        assert report.kind is VerdictKind.INJECTIVE
        assert (report.by, report.weight) == (Criterion.MAP_HIGHER_PART, W11)
        assert report.assumptions.violated is None
        assert report.conflict_note is None

    def test_power30_numeric_pair_within_tolerance(self):
        # float sums of (x+y)^30 + x at this pair lose about 1e-8 to
        # cancellation; the exact deviation is about 2e-15
        fmap = NAMED_MAPS["power30"]
        report = verdict(fmap)
        assert report.kind is VerdictKind.NOT_INJECTIVE
        pair = report.witness
        assert not pair.exact
        a, b = (tuple(Fraction(v) for v in point) for point in (pair.a, pair.b))
        gap = max(abs(u - v) for u, v in zip(fmap.evaluate(a), fmap.evaluate(b)))
        assert gap <= 2 * RHO and pair.deviation == float(gap)

    def test_properness_recorded_when_h_succeeds(self):
        report = verdict(PolyMap.identity(2))
        assert report.properness_weight == W11


def p3(src: str):
    return parse_expr(src, ("x", "y", "z"))


# the named maps of the check-corpus benchmark, then two maps whose map
# criterion fires while a hypothesis fails: det DF vanishes on x^2 = 1/3 for
# (x^3 - x, y), and the parabola moves the origin
CORPUS_MAPS = {
    "cubic": PolyMap([p2("x^3 + y^3 + x"), p2("y")]),
    "shear": PolyMap([p2("x + y^2"), p2("y")]),
    "fold": PolyMap([p2("x^2 - y"), p2("y")]),
    "cusp": PolyMap([p2("x^3 - 2*x + y"), p2("y")]),
    "tri3": PolyMap([p3("x^5 + y^2 + z"), p3("y^3 + z^2"), p3("z^2*x + z")]),
    "tinydet": TINYDET,
    "coupled3": PolyMap([p2("x + x^3 + y^3"), p2("y + y^3 + 1/3*x^3")]),
    "cubic_fold": PolyMap([p2("x^3 - x"), p2("y")]),
    "parabola": NAMED_MAPS["parabola"],
}


def seeded_maps(count: int, seed: int) -> dict:
    """Triangular maps (g(x) + alpha*y^c, h(y)) and diagonal maps (g(x), h(y)),
    where g and h are gamma*(t^e + r^(e-1)*t) with seeded gamma, r > 0: monotone
    for odd e, folding for even e.  About a third of them fold."""
    rng = Random(seed)
    q = (Fraction(1, 2), Fraction(1), Fraction(2))

    def climb_or_fold(var: str, e: int) -> str:
        gamma, r = rng.choice(q), rng.choice(q)
        return f"{gamma}*({var}^{e} + {r ** (e - 1)}*{var})"

    maps = {}
    for k in range(count):
        a = rng.choice((2, 3, 3, 4, 5, 5))
        if rng.random() < 0.5:
            alpha, c, b = rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)), rng.choice((3, 5))
            components = [f"{climb_or_fold('x', a)} + {alpha}*y^{c}", climb_or_fold("y", b)]
            maps[f"tri-{k:02d}"] = PolyMap([p2(c) for c in components])
        else:
            e = rng.choice((1, 3, 5))
            maps[f"diag-{k:02d}"] = PolyMap([p2(climb_or_fold("x", a)), p2(climb_or_fold("y", e))])
    return maps


VERDICT_MAPS = {**CORPUS_MAPS, **seeded_maps(20, seed=29)}


class TestWitnessLast:
    """The witness search runs only when no criterion success is left."""

    @pytest.mark.parametrize("name", sorted(VERDICT_MAPS))
    def test_same_verdict_as_witness_first(self, name):
        fmap = VERDICT_MAPS[name]
        report = verdict(fmap)
        reference = witness_first_verdict(fmap)
        # repr compares every float of a witness pair
        if report.assumptions.violated is None:
            assert repr(report) == repr(reference)
        else:
            # the reference runs the full weight search; the library tries no criterion
            assert report.search.attempts == {}
            assert (report.kind, report.by, report.weight) == (
                reference.kind, reference.by, reference.weight
            )
            assert repr(report.witness) == repr(reference.witness)
            assert report.assumptions == reference.assumptions
        if report.kind is VerdictKind.INJECTIVE:
            # the guarantee an exact pair beside a certificate once raised for
            # at run time: on a certified map the search finds no pair at all
            cfg = AnalysisConfig()
            assert injectivity_witness(fmap, box=cfg.box_radius / 2.0, seed=cfg.cert.seed) is None

    @pytest.fixture
    def witness_calls(self, monkeypatch):
        calls = [0]
        search = jacgate.dynamics.injectivity_witness

        def counting(*args, **kwargs):
            calls[0] += 1
            return search(*args, **kwargs)

        # verdict looks it up in dynamics when its witness search starts
        monkeypatch.setattr(jacgate.dynamics, "injectivity_witness", counting)
        return calls

    @pytest.mark.parametrize(
        "fmap, cfg",
        [
            (CORPUS_MAPS["cubic"], AnalysisConfig()),
            # a check-jacbox map, checked as with --weights-max 1
            (PolyMap([p2("x + 1/5*(x - y)^3"), p2("y")]), AnalysisConfig(s_max=1)),
        ],
        ids=["cubic", "jacbox"],
    )
    def test_no_search_on_certified_maps(self, witness_calls, fmap, cfg):
        assert verdict(fmap, cfg).kind is VerdictKind.INJECTIVE
        assert witness_calls[0] == 0

    @pytest.mark.parametrize(
        "name, hypothesis",
        [("cubic_fold", "jac_nonvanishing"), ("parabola", "f_zero_at_origin")],
    )
    def test_violation_skips_the_weight_search(self, monkeypatch, witness_calls, name, hypothesis):
        # the map criterion would fire on both maps, but no criterion is tried
        calls = {"weight_search": 0, "derive_tilde_and_verify": 0}
        for attribute in calls:
            original = getattr(jacgate.criteria, attribute)

            def counting(*args, _original=original, _attribute=attribute, **kwargs):
                calls[_attribute] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(jacgate.criteria, attribute, counting)
        report = verdict(CORPUS_MAPS[name])
        assert (report.kind, report.by) == (VerdictKind.NOT_INJECTIVE, None)
        assert report.conflict_note == (
            f"hypothesis {hypothesis} is violated, so the criteria were not tried"
        )
        assert (report.search.attempts, report.search.best) == ({}, {})
        assert (report.properness_weight, report.tilde) == (None, None)
        assert calls == {"weight_search": 0, "derive_tilde_and_verify": 0}
        assert witness_calls[0] == 1

    def test_search_once_when_no_criterion_fires(self, witness_calls):
        # this map needs weights (2, 1); capped at 1, no criterion fires
        report = verdict(PolyMap([p2("x + y^2"), p2("y")]), AnalysisConfig(s_max=1))
        assert all(best is None for best in report.search.best.values())
        assert (report.kind, report.witness) == (VerdictKind.UNKNOWN, None)
        assert witness_calls[0] == 1


class TestHNormTops:
    """The verdict decides HNormHigherPart by the unique-zero form of H's top alone."""

    @pytest.mark.parametrize("name", sorted(VERDICT_MAPS))
    def test_tops_nonnegative_and_gradient_form_agrees(self, name):
        fmap = VERDICT_MAPS[name]
        h = h_norm(fmap)
        search = weight_search(fmap, [Criterion.H_NORM_HIGHER_PART])
        for result in search.attempts[Criterion.H_NORM_HIGHER_PART]:
            top = higher_part(h, result.weight)
            # the points of unique_zero_nonneg's spot check, evaluated exactly
            for point in points_on_sphere(fmap.n, 16, CertConfig().seed + 1):
                assert top.evaluate([Fraction(c) for c in point]) >= 0, (result.weight, point)
            try:
                gradient = gradient_only_origin(top, result.weight)
            except DegenerateDirectionError:
                continue
            if not (result.outcome.is_inconclusive or gradient.is_inconclusive):
                assert gradient.kind is result.outcome.kind, result.weight

    @pytest.mark.parametrize("name", ["cubic", "shear", "fold", "coupled3"])
    def test_one_certification_per_weight(self, monkeypatch, name):
        import jacgate.certify

        calls = {"certify_once": 0, "gradient_only_origin": 0, "unique_zero_nonneg": 0}

        def counting(module, attribute):
            original = getattr(module, attribute)

            def wrapper(*args, **kwargs):
                calls[attribute] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, attribute, wrapper)

        counting(jacgate.certify, "gradient_only_origin")
        counting(jacgate.certify, "unique_zero_nonneg")
        verdict(CORPUS_MAPS[name])
        assert calls == {"certify_once": 0, "gradient_only_origin": 0, "unique_zero_nonneg": 0}
        counting(jacgate.criteria, "certify_once")
        for w in enumerate_weights(2, 4):
            before = calls["certify_once"]
            check_h_higher_part(CORPUS_MAPS[name], w)
            assert calls["certify_once"] == before + 1, w
