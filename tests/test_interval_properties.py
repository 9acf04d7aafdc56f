"""Property tests: interval bounds enclose exact rational values.

Boxes range from radius 1e-6 to 1e150, so powers overflow on the wide ones;
a bound may then be infinite or NaN, but each endpoint that is not NaN must
still hold on its side.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jacgate import Polynomial
from jacgate.intervals import Interval, IntervalPoly

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))
# radii 1e-6 to 1e150, half of them at most 100
radii = st.one_of(st.floats(-6.0, 2.0), st.floats(2.0, 150.0)).map(lambda e: 10.0**e)
# a point's position in its box, as a fraction of the box's width
positions = st.builds(Fraction, st.integers(0, 1000), st.just(1000))
# where a box's centre sits, in radii, from the point it is built around
shifts = st.builds(Fraction, st.integers(-9, 9), st.just(10))


def polynomials(n: int, max_degree: int = 6, min_terms: int = 0) -> st.SearchStrategy:
    exponents = st.tuples(*[st.integers(0, max_degree)] * n)
    terms = st.dictionaries(exponents, rationals, min_size=min_terms, max_size=6)
    return terms.map(lambda t: Polynomial(n, t))


def enclosing(point: Fraction, radius: float, shift: Fraction) -> Interval:
    """A float interval of about ``radius`` centred near ``point``, holding it exactly."""
    lo = point - (1 - shift) * Fraction(radius)
    hi = point + (1 + shift) * Fraction(radius)
    return Interval(math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf))


def encloses(bound: Interval, exact: Fraction) -> bool:
    return (math.isnan(bound.lo) or bound.lo <= exact) and (
        math.isnan(bound.hi) or exact <= bound.hi
    )


finite = st.floats(-1e150, 1e150)
intervals = st.tuples(finite, finite).map(lambda ends: Interval(*sorted(ends)))


@SETTINGS
@given(intervals, intervals, st.integers(0, 8))
def test_arithmetic_encloses_exact_endpoint_values(a, b, k):
    # sums, products and powers of reals in a box take their extremes at its
    # corners, or at 0 for an even power
    a_ends = [Fraction(a.lo), Fraction(a.hi)]
    b_ends = [Fraction(b.lo), Fraction(b.hi)]
    assert all(encloses(a + b, x + y) for x, y in zip(a_ends, b_ends))
    assert all(encloses(a * b, x * y) for x in a_ends for y in b_ends)
    power = a.pow_int(k)
    assert all(encloses(power, x**k) for x in a_ends)
    if a.lo <= 0.0 <= a.hi:
        assert encloses(power, Fraction(0) ** k)


@st.composite
def polynomial_box_points(draw):
    n = draw(st.integers(1, 3))
    p = draw(polynomials(n))
    radius = draw(radii)
    box = tuple(enclosing(draw(rationals), radius, draw(shifts)) for _ in range(n))
    points = [
        tuple(Fraction(c.lo) + t * (Fraction(c.hi) - Fraction(c.lo)) for c, t in
              zip(box, draw(st.tuples(*[positions] * n))))
        for _ in range(3)
    ]
    return p, box, points


@SETTINGS
@given(polynomial_box_points())
def test_bounds_enclose_exact_values(case):
    p, box, points = case
    bound = IntervalPoly(p).bounds(box)
    # excludes_zero reads each endpoint alone: a NaN on one side only could
    # let the other exclude zero on a box that holds one
    assert math.isnan(bound.lo) == math.isnan(bound.hi)
    for point in points:
        assert encloses(bound, p.evaluate(point))


@st.composite
def polynomial_with_root_in_box(draw):
    """``sum_i (x_i - a_i) q_i``, which vanishes at ``a``, and a box around ``a``."""
    n = draw(st.integers(1, 3))
    root = draw(st.tuples(*[rationals] * n))
    p = Polynomial(n, {})
    for i, q in enumerate(draw(st.tuples(*[polynomials(n, 4, min_terms=1)] * n))):
        p = p + (Polynomial.variable(n, i) - Polynomial.constant(n, root[i])) * q
    radius = draw(radii)
    return p, root, tuple(enclosing(a, radius, draw(shifts)) for a in root)


@SETTINGS
@given(polynomial_with_root_in_box())
def test_excludes_zero_never_on_a_box_with_a_zero(case):
    p, root, box = case
    assert p.evaluate(root) == 0
    assert all(c.lo <= a <= c.hi for c, a in zip(box, root))
    assert not IntervalPoly(p).excludes_zero(box)
