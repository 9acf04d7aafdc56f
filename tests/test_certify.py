"""Only-origin certification: goldens, oracle agreement, witness soundness."""

import math
from fractions import Fraction

import pytest

from conftest import p2
from corpus import nonneg_qh_instances, qh_system_instances
from jacgate import (
    CertConfig,
    OutcomeKind,
    PolyMap,
    Polynomial,
    Weight,
    gradient_only_origin,
    h_norm,
    higher_part,
    only_origin,
    parse_expr,
    unique_zero_nonneg,
)
import jacgate.certify
from jacgate.certify import MAX_BOXES, RHO, _only_origin_boxes
from jacgate.errors import ZeroPolynomialError
from jacgate.floatval import FloatSystem
from jacgate.intervals import Box, Interval
from jacgate.sampling import points_on_sphere
import oracle
from oracle import (
    brute_force_scan,
    hunt_first_only_origin,
    properness_certificate,
    scale_point,
)


W11 = Weight((1, 1))
SQ2 = math.sqrt(2.0) / 2.0


def check_witness_on_line(outcome, slope_sum_tol=1e-6):
    """The cubic-square zero set is the line y = -x; check the witness sits on it."""
    wx, wy = (float(v) for v in outcome.witness)
    assert abs(wx + wy) < slope_sum_tol
    assert abs(abs(wx) - SQ2) < 1e-5


class TestOnlyOrigin:
    def test_cubic_system_only_origin(self):
        outcome = only_origin([p2("x^3 + y^3"), p2("y")], W11)
        assert outcome.kind is OutcomeKind.ONLY_ORIGIN
        # decided exactly for n = 2; the box search needs boxes for the same proof
        assert (outcome.boxes, outcome.max_depth) == (0, 0)
        assert _only_origin_boxes([p2("x^3 + y^3"), p2("y")], W11).boxes > 0

    def test_cubic_square_single(self):
        system = [p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")]
        outcome = only_origin(system, W11)
        assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO
        # the exact witness is the rational zero on the line y = 1, off the sphere
        assert (outcome.witness, outcome.exact) == ((Fraction(-1), Fraction(1)), True)
        check_witness_on_line(_only_origin_boxes(system, W11))

    def test_linear_system(self):
        outcome = only_origin([p2("x"), p2("y")], W11)
        assert outcome.kind is OutcomeKind.ONLY_ORIGIN

    def test_rejects_non_qh(self):
        with pytest.raises(ValueError, match="Euler"):
            only_origin([p2("x + x^2")], W11)

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            only_origin([Polynomial.zero(2)], W11)

    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")], ids=["exact", "boxes"])
    def test_non_qh_message_names_the_top_degree(self, names):
        # the parts of x + x^2*y at (1, ..., 1) have degrees 1 and 3; the message names 3
        w = Weight((1,) * len(names))
        ones = ", ".join("1" for _ in names)
        with pytest.raises(ValueError) as exc_info:
            only_origin([parse_expr("x + x^2*y", names)], w)
        assert str(exc_info.value) == (
            f"system polynomial 0 is not quasi-homogeneous for weight ({ones}): "
            "Euler identity fails at degree 3"
        )

    @pytest.mark.parametrize("n", [2, 3], ids=["exact", "boxes"])
    def test_zero_polynomial_names_its_index(self, n):
        system = [Polynomial.variable(n, 0), Polynomial.zero(n)]
        with pytest.raises(ZeroPolynomialError) as exc_info:
            only_origin(system, Weight((1,) * n))
        assert exc_info.value.component == 1

    def test_witness_residuals_below_tolerance(self):
        outcome = only_origin([p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")], W11)
        assert outcome.residuals is not None
        assert max(abs(r) for r in outcome.residuals) <= RHO

    def test_witness_scale_invariance(self):
        system = [p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")]
        outcome = only_origin(system, W11)
        fsys = FloatSystem(system)
        witness = [float(v) for v in outcome.witness]
        for lam in (Fraction(1, 2), Fraction(2)):
            scaled = scale_point(W11, lam, [Fraction(v).limit_denominator(10**12) for v in witness])
            value = fsys.residual(tuple(float(v) for v in scaled))
            bound = float(lam) ** 6 * 10 * 1e-10 + 1e-12
            assert max(abs(v) for v in value) <= bound

    @pytest.mark.parametrize(
        "cfg, budget, kind, boxes, max_depth, unresolved",
        [
            (CertConfig(), MAX_BOXES, OutcomeKind.ONLY_ORIGIN, 31, 5, None),
            # the search stops at its first leaf: the first survivor at depth 4
            (
                CertConfig(depth=4),
                MAX_BOXES,
                OutcomeKind.INCONCLUSIVE,
                10,
                4,
                Box((Interval(-1.0, -0.5), Interval(0.0, 0.5)), 4),
            ),
            # the budget stops the search only at a surviving box: box 8
            (
                CertConfig(),
                7,
                OutcomeKind.INCONCLUSIVE,
                8,
                4,
                Box((Interval(-1.0, 0.0), Interval(0.0, 1.0)), 2),
            ),
        ],
        ids=["certified", "depth_limit", "box_budget"],
    )
    def test_branch_and_bound_contract(
        self, monkeypatch, cfg, budget, kind, boxes, max_depth, unresolved
    ):
        monkeypatch.setattr(jacgate.certify, "MAX_BOXES", budget)
        outcome = _only_origin_boxes([p2("x^3 + y^3"), p2("y")], W11, cfg)
        assert outcome.kind is kind
        assert (outcome.boxes, outcome.max_depth) == (boxes, max_depth)
        assert outcome.unresolved == unresolved

    @pytest.mark.parametrize("count", [-1, 0, 1, 16])
    def test_probe_count(self, count):
        # a count of 0 or less gives no points
        assert len(points_on_sphere(3, count)) == max(count, 0)

    def test_monotonic_in_depth(self):
        for depth in (6, 12, 24):
            outcome = only_origin([p2("x^3 + y^3"), p2("y")], W11, CertConfig(depth=depth))
            assert outcome.kind is OutcomeKind.ONLY_ORIGIN
        for depth in (6, 12, 24):
            outcome = only_origin(
                [p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")], W11, CertConfig(depth=depth)
            )
            assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO


class TestProveFirst:
    """Branch-and-bound runs before the witness hunt and decides as hunting first did.

    ``only_origin`` is exact for n = 2, so these tests call the box search,
    ``_only_origin_boxes``, on the same planar systems.
    """

    @pytest.mark.parametrize(
        "cfg, budget",
        [
            (CertConfig(), MAX_BOXES),
            (CertConfig(depth=10), MAX_BOXES),
            (CertConfig(), 50),
            (CertConfig(seed=3), MAX_BOXES),
            (CertConfig(depth=14), MAX_BOXES),
            (CertConfig(depth=16), MAX_BOXES),
        ],
        ids=["default", "depth_limit", "box_budget", "seed", "leaf_before_hunt_depth", "hunt_depth"],
    )
    def test_same_outcomes_as_hunting_first_on_seeded_systems(self, monkeypatch, cfg, budget):
        monkeypatch.setattr(jacgate.certify, "MAX_BOXES", budget)
        kinds = set()
        for system, w in qh_system_instances(30, seed=307):
            outcome = _only_origin_boxes(system, w, cfg)
            # repr compares every float of a witness and its residuals
            assert repr(outcome) == repr(hunt_first_only_origin(system, w, cfg)), system
            kinds.add(outcome.kind)
        assert kinds >= {OutcomeKind.ONLY_ORIGIN, OutcomeKind.NONTRIVIAL_ZERO}

    def test_same_outcomes_as_hunting_first_on_nonneg_polynomials(self):
        for p, w in nonneg_qh_instances(20, seed=211):
            assert repr(_only_origin_boxes([p], w)) == repr(hunt_first_only_origin([p], w)), p

    def test_same_outcomes_on_contract_configs(self, monkeypatch):
        system = [p2("x^3 + y^3"), p2("y")]
        for cfg, budget in ((CertConfig(depth=4), MAX_BOXES), (CertConfig(), 7)):
            monkeypatch.setattr(jacgate.certify, "MAX_BOXES", budget)
            outcome = _only_origin_boxes(system, W11, cfg)
            assert outcome.is_inconclusive
            assert repr(outcome) == repr(hunt_first_only_origin(system, W11, cfg))

    @pytest.fixture
    def float_work(self, monkeypatch):
        """Counts of ``gauss_newton`` runs and ``FloatSystem`` builds, in the
        library and in the oracle, since the last reset, and the depth the
        library's branch-and-bound had reached at its first Newton run."""
        counts = {"newton": 0, "systems": 0, "first_newton_depth": None}
        newton = jacgate.certify.gauss_newton
        float_system = jacgate.certify.FloatSystem
        searches = []

        class RecordedBisection(jacgate.certify.Bisection):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        def counting_newton(*args, **kwargs):
            if counts["first_newton_depth"] is None and searches:
                counts["first_newton_depth"] = searches[-1].max_depth
            counts["newton"] += 1
            return newton(*args, **kwargs)

        def counting_system(*args, **kwargs):
            counts["systems"] += 1
            return float_system(*args, **kwargs)

        monkeypatch.setattr(jacgate.certify, "gauss_newton", counting_newton)
        monkeypatch.setattr(jacgate.certify, "FloatSystem", counting_system)
        monkeypatch.setattr(oracle, "FloatSystem", counting_system)
        monkeypatch.setattr(jacgate.certify, "Bisection", RecordedBisection)
        return counts

    def test_no_float_work_when_boxes_close_above_refine_depth(self, float_work):
        system = [p2("x^3 + y^3"), p2("y")]
        outcome = _only_origin_boxes(system, W11)
        # every box is excluded by depth 5
        assert (outcome.kind, outcome.max_depth, outcome.boxes) == (OutcomeKind.ONLY_ORIGIN, 5, 31)
        assert (float_work["newton"], float_work["systems"]) == (0, 0)
        # hunting first makes one Newton run per probe point on the same system
        hunt_first_only_origin(system, W11)
        assert (float_work["newton"], float_work["systems"]) == (16, 1)

    def test_no_float_work_when_deeper_boxes_close(self, float_work):
        # coupled3's MapHigherPart top at (1, 1): boxes survive to depth 9,
        # yet all close, long before a leaf
        system = [p2("x^3 + y^3"), p2("y^3 + 1/3*x^3")]
        outcome = _only_origin_boxes(system, W11)
        assert (outcome.kind, outcome.max_depth, outcome.boxes) == (OutcomeKind.ONLY_ORIGIN, 9, 63)
        assert (float_work["newton"], float_work["systems"]) == (0, 0)
        assert repr(hunt_first_only_origin(system, W11)) == repr(outcome)
        # hunting first runs the 16 probes, and no box reaches a leaf
        assert (float_work["newton"], float_work["systems"]) == (16, 1)

    def test_leaf_witness_reports_the_leaf_counts(self, float_work):
        # the H top at (1, 1) of a check-jacbox map: no probe converges, and
        # the witness comes from the centre of the first leaf, at depth 24
        fmap = PolyMap([p2("1/50*x^3 - 3/25*x^2*y + 6/25*x*y^2 - 4/25*y^3 + x"), p2("y")])
        system = [higher_part(h_norm(fmap), W11)]
        outcome = _only_origin_boxes(system, W11)
        assert (outcome.kind, outcome.max_depth, outcome.boxes) == (
            OutcomeKind.NONTRIVIAL_ZERO, 24, 40
        )
        # 15 distinct probes (entry 9 of the 16 repeats an earlier one), then the leaf
        assert (float_work["newton"], float_work["first_newton_depth"]) == (16, 24)
        float_work["newton"] = 0
        assert repr(hunt_first_only_origin(system, W11)) == repr(outcome)
        # the oracle runs the repeated probe twice
        assert float_work["newton"] == 17


class TestUniqueZeroNonneg:
    def test_cubic_square(self):
        outcome = unique_zero_nonneg(p2("1/2*x^6 + x^3*y^3 + 1/2*y^6"), W11)
        assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO

    def test_pure_power_uneven_weight(self):
        outcome = unique_zero_nonneg(p2("1/2*y^6"), Weight((1, 2)))
        assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO
        # the zero set is the x-axis; expect a witness near (+-1, 0)
        wx, wy = (float(v) for v in outcome.witness)
        assert abs(abs(wx) - 1.0) < 1e-6 and abs(wy) < 1e-2

    def test_positive_definite(self):
        outcome = unique_zero_nonneg(p2("x^2 + y^2"), W11)
        assert outcome.kind is OutcomeKind.ONLY_ORIGIN

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="nonneg"):
            unique_zero_nonneg(p2("-x^2 - y^2"), W11)

    def test_indefinite_input_rejected(self):
        with pytest.raises(ValueError, match="nonneg"):
            unique_zero_nonneg(p2("x^2 - y^2"), W11)

    def test_float_rounding_is_not_negativity(self):
        # the H top of ((x+y)^30 + x, y) is (x+y)^60/2: in floats it dips to
        # about -1.5e-8 at a sample point where its exact value is +1.5e-43
        fmap = PolyMap([p2("(x+y)^30 + x"), p2("y")])
        outcome = unique_zero_nonneg(higher_part(h_norm(fmap), W11), W11)
        assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO


class TestGradientOnlyOrigin:
    def test_positive_definite(self):
        outcome = gradient_only_origin(p2("x^2 + y^2"), W11)
        assert outcome.kind is OutcomeKind.ONLY_ORIGIN

    def test_cubic_square(self):
        outcome = gradient_only_origin(p2("1/2*x^6 + x^3*y^3 + 1/2*y^6"), W11)
        assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO

    def test_dead_direction_gives_exact_witness(self):
        # no y anywhere: the y-axis point is an exact gradient zero
        outcome = gradient_only_origin(p2("x^4"), W11)
        assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO
        assert outcome.exact
        assert outcome.witness == (Fraction(0), Fraction(1))

    def test_agreement_with_unique_zero(self):
        conclusive = (OutcomeKind.ONLY_ORIGIN, OutcomeKind.NONTRIVIAL_ZERO)
        checked = 0
        for p, w in nonneg_qh_instances(40, seed=211):
            a = unique_zero_nonneg(p, w)
            b = gradient_only_origin(p, w)
            if a.kind in conclusive and b.kind in conclusive:
                checked += 1
                assert a.kind is b.kind, f"{p!r} at {w!r}: {a.kind} vs {b.kind}"
        assert checked >= 30


class TestBruteForceScan:
    def test_no_witness_for_only_origin_system(self):
        assert brute_force_scan([p2("x^3 + y^3"), p2("y")], 12) is None
        assert brute_force_scan([p2("x^3 + y^3"), p2("y")], 20) is None

    def test_witness_on_line(self):
        witness = brute_force_scan([p2("x^6 + 2*x^3*y^3 + y^6")], 12)
        assert witness is not None
        wx, wy = (float(v) for v in witness)
        assert abs(wx + wy) < 1e-6

    def test_univariate_power(self):
        assert brute_force_scan([Polynomial.variable(1, 0)], 8) is None

    def test_oracle_agreement_random_systems(self):
        for system, w in qh_system_instances(40, seed=307):
            cert = only_origin(system, w)
            resolution = 12 if system[0].n == 2 else 6
            oracle = brute_force_scan(system, resolution)
            if cert.kind is OutcomeKind.ONLY_ORIGIN:
                assert oracle is None, f"oracle found {oracle} for {system!r}"
            elif cert.kind is OutcomeKind.NONTRIVIAL_ZERO:
                finer = brute_force_scan(system, resolution + 8)
                assert oracle is not None or finer is not None


class TestProperness:
    def test_identity_h(self):
        ok, outcome = properness_certificate(p2("x^2 + y^2"), W11)
        assert ok and outcome.kind is OutcomeKind.ONLY_ORIGIN

    def test_cubic_h_fails_at_all_three_weights(self, cubic_map):
        from jacgate import h_norm

        h = h_norm(cubic_map)
        for s in ((1, 1), (1, 2), (2, 1)):
            ok, outcome = properness_certificate(h, Weight(s))
            assert not ok
            assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO

    def test_quartic_sum(self):
        h = p2("(x^2 + y^2)^2 + x^2")
        ok, _ = properness_certificate(h, W11)
        assert ok
