"""Numeric zero finding, indices, descent flow, and witness pairs."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacgate.dynamics
from conftest import p1, p2
from jacgate import (
    PolyMap,
    find_zeros,
    index_at,
    injectivity_witness,
    witness_from_probe,
)
from jacgate.dynamics import _integers, line_witness
from jacgate.poly import Polynomial
from jacgate.univariate import count_roots, sturm
from jacgate.errors import PreconditionError
from oracle import FlowStatus, flow_descent, index_sum_check


class TestFindZeros:
    def test_cubic_single_zero(self, cubic_map):
        report = find_zeros(cubic_map, starts=64, box=5.0)
        assert len(report.zeros) == 1
        zero = report.zeros[0]
        assert zero.residual < 1e-10
        assert np.linalg.norm(zero.point) < 1e-8
        assert zero.index == 1

    def test_identity(self):
        report = find_zeros(PolyMap.identity(2), starts=16, box=3.0)
        assert len(report.zeros) == 1

    def test_parabola_two_zeros(self):
        report = find_zeros(PolyMap([p2("x^2 - 1"), p2("y")]), starts=32, box=5.0)
        points = sorted(round(z.point[0]) for z in report.zeros)
        assert points == [-1, 1]

    def test_stability_under_perturbed_restart(self, cubic_map):
        from jacgate.floatval import FloatSystem, gauss_newton

        report = find_zeros(cubic_map, starts=32, box=5.0)
        fsys = FloatSystem(list(cubic_map.components))
        rng = Random(59)
        for zero in report.zeros:
            start = [v + rng.uniform(-1e-3, 1e-3) for v in zero.point]
            point, residual, converged = gauss_newton(fsys, start, tol=1e-10)
            assert converged
            assert np.linalg.norm(point - np.array(zero.point)) <= 10 * 1e-10 + 1e-9


class TestIndexAt:
    def test_cubic_at_origin(self, cubic_map):
        assert index_at(cubic_map, (0.0, 0.0)) == 1  # (-1)^2

    def test_identity_three_vars(self):
        assert index_at(PolyMap.identity(3), (0.0, 0.0, 0.0)) == -1  # (-1)^3

    def test_not_a_zero(self, cubic_map):
        with pytest.raises(PreconditionError, match="not a zero"):
            index_at(cubic_map, (1.0, 1.0))

    def test_index_always_matches_parity(self):
        for n in (1, 2, 3):
            fmap = PolyMap.identity(n)
            assert index_at(fmap, (0.0,) * n) == (-1) ** n


class TestFlowDescent:
    def test_cubic_from_corner(self, cubic_map):
        trajectory = flow_descent(cubic_map, (1.0, 1.0))
        assert trajectory.status is FlowStatus.CONVERGED_TO_ZERO_OF_F
        values = [h for _, _, h in trajectory.samples]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-16
        final = trajectory.samples[-1][1]
        assert np.linalg.norm(final) < 1e-6

    def test_identity_straight_line(self):
        trajectory = flow_descent(PolyMap.identity(2), (3.0, -4.0))
        assert trajectory.status is FlowStatus.CONVERGED_TO_ZERO_OF_F
        # gradient flow of (x^2+y^2)/2 moves along the ray through the origin
        for _, point, _ in trajectory.samples:
            cross = point[0] * (-4.0) - point[1] * 3.0
            assert abs(cross) < 1e-6 * max(1.0, np.linalg.norm(point))

    def test_start_at_zero(self, cubic_map):
        trajectory = flow_descent(cubic_map, (0.0, 0.0))
        assert trajectory.status is FlowStatus.CONVERGED_TO_ZERO_OF_F
        assert len(trajectory.samples) == 1

    def test_monotone_even_without_convergence(self, cubic_map):
        trajectory = flow_descent(cubic_map, (2.5, -1.5), max_steps=40)
        values = [h for _, _, h in trajectory.samples]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestWitnessSearch:
    def test_parabola_probe_recovers_pair(self):
        fmap = PolyMap([p2("x^2 - 1"), p2("y")])
        pair = witness_from_probe(fmap, (Fraction(1), Fraction(0)))
        assert pair is not None and pair.exact
        assert pair.a == (Fraction(-1), Fraction(0))
        assert pair.b == (Fraction(1), Fraction(0))
        assert fmap.evaluate(pair.a) == fmap.evaluate(pair.b)

    def test_cubic_finds_nothing(self, cubic_map, monkeypatch):
        monkeypatch.setattr(jacgate.dynamics, "PROBES", 12)
        monkeypatch.setattr(jacgate.dynamics, "STARTS", 24)
        assert injectivity_witness(cubic_map) is None

    def test_identity_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(jacgate.dynamics, "STARTS", 16)
        assert injectivity_witness(PolyMap.identity(2)) is None

    def test_parabola_search_finds_some_pair(self, monkeypatch):
        monkeypatch.setattr(jacgate.dynamics, "STARTS", 24)
        fmap = PolyMap([p2("x^2 - 1"), p2("y")])
        pair = injectivity_witness(fmap)
        assert pair is not None
        if pair.exact:
            assert fmap.evaluate(pair.a) == fmap.evaluate(pair.b)
        else:
            assert pair.deviation <= 2e-10


class TestLineWitness:
    """For n = 1 a pair exists exactly when F' changes sign, and is found exactly."""

    @pytest.mark.parametrize(
        "src, a, b",
        [
            ("x + x^2", Fraction(3, 2), Fraction(-5, 2)),
            ("x^4 - 2*x^2", Fraction(1, 4), Fraction(-1, 4)),
            ("3", Fraction(1), Fraction(0)),
        ],
    )
    def test_exact_pair(self, src, a, b):
        pair = line_witness(PolyMap([p1(src)]))
        assert (pair.a, pair.b, pair.exact, pair.deviation) == ((a,), (b,), True, 0.0)

    def test_irrational_root_is_an_isolating_interval(self):
        # x^3 - 2x = 0 at 0 and -sqrt 2
        pair = line_witness(PolyMap([p1("x^3 - 2*x")]))
        ((lo, hi),) = pair.a
        assert (pair.b, pair.exact) == ((0,), True)
        assert lo < hi and lo * lo > 2 > hi * hi

    @pytest.mark.parametrize("src", ["x", "x^3", "x^3 + x", "x^5 - 2*x^4 + 4/3*x^3"])
    def test_monotone_has_none(self, src):
        assert injectivity_witness(PolyMap([p1(src)])) is None

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)), max_size=5),
        st.lists(st.integers(1, 9), max_size=2),
        st.integers(-5, 5).filter(bool),
    )
    def test_pair_exactly_when_derivative_changes_sign(self, roots, quadratics, lead):
        # F' = lead * prod (x - r) * prod (x^2 + c) changes sign at the roots of odd count
        x = Polynomial.variable(1, 0)
        derivative = Polynomial.constant(1, lead)
        for r in roots:
            derivative = derivative * (x - r)
        for c in quadratics:
            derivative = derivative * (x * x + c)
        f = Polynomial(1, {(k + 1,): c / (k + 1) for (k,), c in derivative.terms.items()})
        pair = line_witness(PolyMap([f]))
        if all(roots.count(r) % 2 == 0 for r in roots):
            assert pair is None
            return
        assert pair is not None and pair.exact
        (a,), (b,) = pair.a, pair.b
        if isinstance(a, Fraction):
            assert a != b and f.evaluate((a,)) == f.evaluate((b,))
        else:
            # one root of F - F(b) in (lo, hi), where b is not
            lo, hi = a
            level = f - f.evaluate((b,))
            assert not lo < b < hi and count_roots(sturm(_integers(level)), lo, hi) == 1


class TestIndexSumCheck:
    def test_cubic_counts_without_properness(self, cubic_map):
        # no weight certifies properness of this norm function, so the
        # counts are reported but the verdict stays unverified
        report = index_sum_check(cubic_map, properness_weight=None)
        assert not report.ok
        assert report.zero_count == 1
        assert report.indices == (1,)
        assert "properness" in report.note

    def test_identity_three_vars(self):
        report = index_sum_check(PolyMap.identity(3), properness_weight=(1, 1, 1))
        assert report.ok and report.indices == (-1,)

    def test_certified_triangular_map(self):
        from jacgate import Weight, h_norm
        from oracle import properness_certificate

        fmap = PolyMap([p2("x^3 + x"), p2("2*y")])
        ok, _ = properness_certificate(h_norm(fmap), Weight((1, 3)))
        assert ok
        report = index_sum_check(fmap, properness_weight=(1, 3))
        assert report.ok and report.zero_count == 1
