"""The float-compiled system against exact rational evaluation, and the
Gauss-Newton step against numpy."""

import math
import warnings
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacgate.dynamics
from conftest import p2
from corpus import random_point, random_polynomial
from jacgate import PolyMap, Polynomial
from jacgate.certify import _newton_witness, _sphere_poly
from jacgate.dynamics import index_at, witness_from_probe
from jacgate.errors import PreconditionError
from jacgate.floatval import FloatSystem, _least_squares, determinant, gauss_newton
from oracle import FlowStatus, flow_descent


def _exact(p: Polynomial, q: list[Fraction]) -> tuple[float, float]:
    """The exact value at ``q`` as a float, and a rounding allowance: a few
    thousand ulps of the sum of the terms' magnitudes."""
    magnitude = Polynomial(p.n, {k: abs(c) for k, c in p.terms.items()})
    return float(p.evaluate(q)), 1e-12 * float(magnitude.evaluate([abs(c) for c in q]))


def assert_matches_exact(polys: list[Polynomial], point) -> None:
    n = polys[0].n
    x = tuple(float(c) for c in point)
    q = [Fraction(v) for v in x]  # the float point, exactly
    fsys = FloatSystem(polys)
    residual, jacobian = fsys.residual(x), fsys.jacobian(x)
    assert fsys.n == n
    assert len(residual) == len(polys) and [len(row) for row in jacobian] == [n] * len(polys)
    for i, p in enumerate(polys):
        value, allowance = _exact(p, q)
        assert abs(residual[i] - value) <= allowance
        for j in range(n):
            value, allowance = _exact(p.partial(j), q)
            assert abs(jacobian[i][j] - value) <= allowance


def test_random_systems():
    rng = Random(83)
    for _ in range(60):
        n = rng.randint(1, 3)
        polys = [random_polynomial(rng, n) for _ in range(rng.randint(1, n + 1))]
        for _ in range(3):
            assert_matches_exact(polys, random_point(rng, n))


rationals = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))


@st.composite
def systems_and_points(draw):
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 7)] * n)
    terms = st.dictionaries(exponents, rationals, max_size=8)
    polys = [Polynomial(n, t) for t in draw(st.lists(terms, min_size=1, max_size=n + 1))]
    return polys, draw(st.tuples(*[rationals] * n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(systems_and_points())
def test_matches_exact_at_rational_points(system_and_point):
    assert_matches_exact(*system_and_point)


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
    x = (0.5, 2.0)
    assert fsys.residual(x)[1:] == (0.0, -7 / 3)
    assert fsys.jacobian(x)[1:] == ((0.0, 0.0), (0.0, 0.0))


def test_many_terms_compile():
    # one statement per term: a single sum expression of 5,000 terms would
    # nest 5,000 levels deep and exceed the compiler's limit
    terms = {(i, j): Fraction((-1) ** (i + j), 1 + i + j) for i in range(100) for j in range(50)}
    p = Polynomial(2, terms)
    assert len(p.terms) == 5000
    assert_matches_exact([p], (Fraction(1, 2), Fraction(-3, 4)))


def test_overflow_gives_inf_or_nan_without_raising():
    fsys = FloatSystem([Polynomial(2, {(200, 200): 1, (1, 0): 1}), p2("x^3 - y")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x^200 overflows, y^200 underflows: inf * 0 is nan
        residual = fsys.residual((100.0, 0.01))
        jacobian = fsys.jacobian((100.0, 0.01))
        huge = fsys.residual((1e200, 1.0))
    assert math.isnan(residual[0]) and residual[1] == 100.0**3 - 0.01
    assert math.isnan(jacobian[0][0]) and math.isnan(jacobian[0][1])
    assert huge == (math.inf, math.inf)


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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("shape", ["square", "tall", "wide"])
def test_step_matches_numpy_lstsq(n, shape):
    rows = {"square": n, "tall": n + 1, "wide": 1}[shape]
    rng = Random(97 * n + rows)
    for _ in range(50):
        a = [[rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(rows)]
        b = [rng.uniform(-3.0, 3.0) for _ in range(rows)]
        expected, *_ = np.linalg.lstsq(np.array(a), np.array(b), rcond=None)
        step = _least_squares(a, b)
        assert np.allclose(step, expected, rtol=1e-8, atol=1e-10)
        if shape == "square":
            assert math.isclose(determinant(a), np.linalg.det(np.array(a)), rel_tol=1e-9)


@pytest.mark.parametrize("shape", ["tall", "wide"])
def test_step_drops_singular_values_as_numpy_lstsq_does(shape):
    # rank 2 in 4 x 3, up to a last singular value far below the cutoff
    # eps * 4 * sigma_max: lstsq returns the minimum-norm step of the rank-2 part
    rng = Random(101)
    for _ in range(20):
        u = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(2)]
        a = [[u[0][j] * c0 + u[1][j] * c1 for j in range(3)]
             for c0, c1 in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0), (0.5, 3.0))]
        a[3][2] += 1e-18
        b = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        if shape == "wide":
            a = [list(column) for column in zip(*a)]
            b = b[:3]
        expected, *_ = np.linalg.lstsq(np.array(a), np.array(b), rcond=None)
        assert np.allclose(_least_squares(a, b), expected, rtol=1e-8, atol=1e-10)


def test_singular_square_jacobian_takes_no_step():
    # the Jacobian ((1, 1), (2, 2)) is singular everywhere: elimination takes
    # no step at its zero pivot, and the minimum-norm least-squares step
    # replaces it, so Newton stops unconverged where x + y = 7/5 is the
    # least-squares fit of x + y = 1 and 2x + 2y = 3
    fsys = FloatSystem([p2("x + y - 1"), p2("2*x + 2*y - 3")])
    assert determinant(fsys.jacobian((0.5, 0.25))) == 0.0
    step = _least_squares(fsys.jacobian((0.5, 0.25)), [1.0, 1.0])
    assert step == pytest.approx([0.3, 0.3])
    point, res, converged = gauss_newton(fsys, (0.5, 0.25))
    assert point == pytest.approx((0.825, 0.575))
    assert res == pytest.approx(0.4)
    assert not converged


class TestCallersSilenceOverflow:
    """Callers of the float layer meet overflow and invalid values as inf and
    nan: nothing raises or warns.

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
        zeros = [((1e200, 0.0), 0.0), ((1e200, 1e-200), 0.0)]
        monkeypatch.setattr(jacgate.dynamics, "_newton_zeros", lambda *args, **kwargs: (zeros, 0))
        fmap = PolyMap([p2("x^3*y^2 + x^3 + x"), p2("y")])
        assert self.call(witness_from_probe, fmap, (0, 0)) is None
