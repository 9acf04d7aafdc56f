"""Numeric zero finding, indices, descent flow, and witness pairs."""

from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacgate.dynamics
from conftest import p1, p2
from corpus import random_polynomial
from jacgate import (
    PolyMap,
    find_zeros,
    index_at,
    injectivity_witness,
    jacobian_det,
    parse_map_file,
    witness_from_probe,
)
from jacgate.dynamics import MAX_STARTS, _integers, line_witness
from jacgate.floatval import FloatSystem
from jacgate.poly import Polynomial
from jacgate.univariate import count_roots, sturm
from jacgate.errors import PreconditionError
from oracle import FlowStatus, descent_index, flow_descent, index_sum_check

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


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

    @pytest.mark.parametrize(
        "text, count",
        [
            ((CORPUS / "tri3.map").read_text(), 35),
            ("vars: x, y\nf = x^2 - 1\ng = y^2 - 1\n", 4),
        ],
        ids=["tri3", "squares"],
    )
    def test_one_compiled_system(self, monkeypatch, text, count):
        # Newton and every index read the one compiled copy of F
        built = []

        class CountingSystem(FloatSystem):
            def __init__(self, polys):
                built.append(len(polys))
                super().__init__(polys)

        monkeypatch.setattr(jacgate.dynamics, "FloatSystem", CountingSystem)
        fmap, _ = parse_map_file(text)
        report = find_zeros(fmap)
        assert len(report.zeros) == count
        assert built == [fmap.n]

    def test_starts_over_the_cap_refused_before_newton(self, monkeypatch):
        calls = []

        def unconverged(fsys, start, tol):
            calls.append(start)
            return tuple(start), 1.0, False

        monkeypatch.setattr(jacgate.dynamics, "gauss_newton", unconverged)
        with pytest.raises(ValueError, match=f"at most {MAX_STARTS} starts, got 10001"):
            find_zeros(PolyMap.identity(2), starts=10_001)
        assert calls == []
        report = find_zeros(PolyMap.identity(2), starts=MAX_STARTS)
        assert len(calls) == report.unconverged == MAX_STARTS == 10_000


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

    def test_singular_zero_has_no_index(self):
        with pytest.raises(PreconditionError, match="near-singular Jacobian at the zero"):
            index_at(PolyMap([p2("x^2"), p2("y")]), (0.0, 0.0))

    def test_matches_the_descent_field_at_regular_zeros(self):
        # F(x) = G(x - q), where G(0) = 0 and DG(0) is an integer matrix with
        # non-zero determinant: q is a regular zero of F
        rng = Random(67)
        checked = 0
        while checked < 40:
            n = rng.choice((1, 2, 3))
            q = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n))
            components = []
            for _ in range(n):
                higher = random_polynomial(rng, n, max_terms=4, max_degree=3)
                linear = {
                    tuple(int(i == j) for i in range(n)): rng.randint(-3, 3) for j in range(n)
                }
                terms = {k: c for k, c in higher.terms.items() if sum(k) >= 2}
                components.append(Polynomial(n, {**terms, **linear}))
            g = PolyMap(components)
            if jacobian_det(g).evaluate((0,) * n) == 0:
                continue
            fmap = PolyMap([c.translate(tuple(-v for v in q)) for c in g.components])
            assert fmap.evaluate(q) == (0,) * n
            point = tuple(float(v) for v in q)
            assert index_at(fmap, point) == descent_index(fmap, point) == (-1) ** n
            checked += 1


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
