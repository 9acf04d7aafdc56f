"""The float-compiled system against exact rational evaluation."""

import warnings
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import jacgate.dynamics
from conftest import p2
from corpus import random_point, random_polynomial
from jacgate import PolyMap, Polynomial
from jacgate.certify import _newton_witness, _sphere_poly
from jacgate.dynamics import FlowStatus, flow_descent, index_at, witness_from_probe
from jacgate.errors import PreconditionError
from jacgate.floatval import FloatSystem, gauss_newton


def _exact(p: Polynomial, q: list[Fraction]) -> tuple[float, float]:
    """The exact value at ``q`` as a float, and a rounding allowance: a few
    thousand ulps of the sum of the terms' magnitudes."""
    magnitude = Polynomial(p.n, {k: abs(c) for k, c in p.terms.items()})
    return float(p.evaluate(q)), 1e-12 * float(magnitude.evaluate([abs(c) for c in q]))


def assert_matches_exact(polys: list[Polynomial], point) -> None:
    n = polys[0].n
    x = np.array([float(c) for c in point])
    q = [Fraction(v) for v in x.tolist()]  # the float point, exactly
    fsys = FloatSystem(polys)
    residual, jacobian = fsys.residual(x), fsys.jacobian(x)
    assert fsys.n == n
    assert residual.shape == (len(polys),) and jacobian.shape == (len(polys), n)
    for i, p in enumerate(polys):
        value, allowance = _exact(p, q)
        assert abs(residual[i] - value) <= allowance
        for j in range(n):
            value, allowance = _exact(p.partial(j), q)
            assert abs(jacobian[i, j] - value) <= allowance


def test_random_systems():
    rng = Random(83)
    for _ in range(60):
        n = rng.randint(1, 3)
        polys = [random_polynomial(rng, n) for _ in range(rng.randint(1, n + 1))]
        for _ in range(3):
            assert_matches_exact(polys, random_point(rng, n))


def test_sphere_augmented_non_square():
    # two polynomials and the unit sphere in two variables: m = n + 1
    system = [p2("x^3 - 2*x*y^2 + 1/3*y"), p2("x^2*y - y^3")] + [_sphere_poly(2)]
    rng = Random(89)
    for _ in range(10):
        assert_matches_exact(system, random_point(rng, 2))


def test_zero_and_constant_rows():
    system = [p2("x^2*y - 3"), Polynomial.zero(2), Polynomial.constant(2, Fraction(-7, 3))]
    assert_matches_exact(system, (Fraction(1, 3), Fraction(-5, 2)))
    fsys = FloatSystem(system)
    x = np.array([0.5, 2.0])
    assert fsys.residual(x)[1:].tolist() == [0.0, -7 / 3]
    assert fsys.jacobian(x)[1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "poly, start",
    [
        # x^200 overflows and y^200 underflows at the start: the residual is nan
        (Polynomial(2, {(200, 200): 1, (0, 0): -1}), (100.0, 0.01)),
        # no real zero; the first Newton step lands where x^2 overflows
        (Polynomial(2, {(2, 0): 1, (0, 0): 1}), (1e-170, 1.0)),
        # the residual is finite, its squared norm is not
        (Polynomial(2, {(2, 0): 1, (0, 0): 1}), (1e100, 1.0)),
    ],
    ids=["at_start", "after_step", "squared_norm"],
)
def test_overflow_does_not_converge_or_warn(poly, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, converged = gauss_newton(FloatSystem([poly]), start)
    assert converged is False


class TestCallersSilenceOverflow:
    """``FloatSystem`` leaves overflow and invalid values to each caller's ``np.errstate``.

    Each point below overflows a power or a sum, or multiplies an overflowed
    power by an underflowed one (inf * 0, an invalid value).
    """

    CUBIC = PolyMap([p2("x^3 + x"), p2("y")])
    # x^200 overflows and y^200 underflows at (100, 0.01)
    INF_TIMES_ZERO = PolyMap([Polynomial(2, {(200, 200): 1, (1, 0): 1}), p2("y")])

    @staticmethod
    def call(function, *args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return function(*args, **kwargs)

    def test_index_at(self):
        with pytest.raises(PreconditionError, match="residual inf"):
            self.call(index_at, self.CUBIC, (1e200, 0.0))
        with pytest.raises(PreconditionError, match="residual nan"):
            self.call(index_at, self.INF_TIMES_ZERO, (100.0, 0.01))
        # an exact zero at the origin, where det DF = 10^400 overflows
        big = PolyMap([Polynomial(2, {(1, 0): 10**200}), Polynomial(2, {(0, 1): 10**200})])
        with pytest.raises(PreconditionError, match="not finite: inf"):
            self.call(index_at, big, (0.0, 0.0))

    def test_flow_descent(self):
        trajectory = self.call(flow_descent, self.CUBIC, (1e120, 1.0))
        assert trajectory.status is FlowStatus.LEFT_BOX
        trajectory = self.call(flow_descent, self.INF_TIMES_ZERO, (100.0, 0.01), max_steps=5)
        assert trajectory.status is FlowStatus.STEP_LIMIT

    def test_certify_residual_check(self):
        # 4 * 5e307 overflows the sum at (1, 0), where the start already lies
        # on the unit sphere, so Newton stops there at once
        c = 5 * 10**307
        system = [Polynomial(2, {(3, 0): c, (2, 0): c, (1, 0): c, (0, 0): c})]
        fsys = FloatSystem(system + [_sphere_poly(2)])
        assert self.call(_newton_witness, system, fsys, (1.0, 0.0)) is None

    def test_witness_from_probe(self, monkeypatch):
        # Newton "finds" second preimages of F(0, 0) where F overflows in floats
        zeros = [(np.array([1e200, 0.0]), 0.0), (np.array([1e200, 1e-200]), 0.0)]
        monkeypatch.setattr(jacgate.dynamics, "_newton_zeros", lambda *args, **kwargs: (zeros, 0))
        fmap = PolyMap([p2("x^3*y^2 + x^3 + x"), p2("y")])
        assert self.call(witness_from_probe, fmap, (0, 0)) is None
