"""Property tests of the exact univariate algebra: Sturm counts against known
roots, division and gcd identities, root isolation, the real roots of one
polynomial and the common roots of several on a line, and resultants that
vanish exactly when two polynomials share a root."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jacgate import Polynomial
from jacgate.poly import matrix_det
from jacgate.univariate import (
    add,
    bivariate,
    count_roots,
    d_dx,
    divide,
    evaluate,
    gcd,
    isolate,
    line_roots,
    mul,
    real_roots,
    refine_root,
    resultant,
    squarefree,
    squarefree_x,
    sturm,
    trim,
)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(bool)
positive = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))
polys = st.lists(rationals, max_size=7).map(trim)


def from_roots(roots, quadratics=(), lead=Fraction(1)):
    """lead * prod (x - r) * prod (x^2 + c): real roots ``roots``, no others when c > 0."""
    p = [lead]
    for r in roots:
        p = mul(p, [-r, Fraction(1)])
    for c in quadratics:
        p = mul(p, [c, Fraction(0), Fraction(1)])
    return p


class TestSturm:
    @SETTINGS
    @given(
        st.lists(rationals, max_size=6),
        st.lists(positive, max_size=2),
        nonzero,
        rationals,
        rationals,
    )
    def test_counts_distinct_real_roots(self, roots, quadratics, lead, a, b):
        p = from_roots(roots, quadratics, lead)
        if len(p) < 2:
            return
        seq = sturm(p)
        assert count_roots(seq) == len(set(roots))
        lo, hi = min(a, b), max(a, b)
        assert count_roots(seq, lo, hi) == len({r for r in roots if lo < r <= hi})
        assert count_roots(seq, None, hi) == len({r for r in roots if r <= hi})

    @SETTINGS
    @given(st.lists(rationals, max_size=6), st.lists(positive, max_size=2), nonzero, positive)
    def test_isolation_finds_every_root_once(self, roots, quadratics, lead, square):
        # with x^2 - square when square is not the square of a rational: two irrational roots
        p = from_roots(roots, quadratics, lead)
        rational_square = all(
            math.isqrt(v) ** 2 == v for v in (square.numerator, square.denominator)
        )
        if not rational_square:
            p = mul(p, [-square, Fraction(0), Fraction(1)])
        sqf = squarefree(p)
        intervals = list(isolate(sqf))
        rational, irrational = set(), []
        for (lo, hi), following in zip(intervals, intervals[1:] + [None]):
            if following is not None:
                assert hi <= following[0]
            if lo < hi:
                # a sign change at the ends and exactly one root inside
                assert evaluate(sqf, lo) * evaluate(sqf, hi) < 0
                assert count_roots(sturm(sqf), lo, hi) == 1
            else:
                assert evaluate(sqf, lo) == 0
            root = refine_root(sqf, (lo, hi))
            if isinstance(root, Fraction):
                assert evaluate(sqf, root) == 0
                rational.add(root)
            else:
                narrow_lo, narrow_hi = root
                assert lo <= narrow_lo < narrow_hi <= hi
                assert count_roots(sturm(sqf), narrow_lo, narrow_hi) == 1
                irrational.append(root)
        assert rational == set(roots)
        assert len(irrational) == (0 if rational_square else 2)
        for lo, hi in irrational:
            assert lo * lo < square < hi * hi or hi * hi < square < lo * lo
        assert list(real_roots(p)) == [refine_root(sqf, i) for i in intervals]


class TestRealRoots:
    def test_rational_roots_are_fractions_in_order(self):
        # 3 (x - 1/3)^2 (x + 2) (x^2 + 1)
        p = from_roots([Fraction(1, 3), Fraction(1, 3), Fraction(-2)], [Fraction(1)], Fraction(3))
        roots = list(real_roots(p))
        assert roots == [Fraction(-2), Fraction(1, 3)]
        assert all(isinstance(r, Fraction) for r in roots)

    def test_irrational_root_is_an_isolating_interval(self):
        # (x^2 - 2)(x - 1): -sqrt 2, 1, sqrt 2
        p = mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)])
        low, one, high = real_roots(p)
        assert one == 1
        for lo, hi in (low, high):
            assert lo < hi
            assert count_roots(sturm(p), lo, hi) == 1
        assert low[1] < one < high[0]

    def test_rows_vanishing_on_the_line_give_zero(self):
        # y (x + 1) and y x^2 vanish on the whole line y = 0, and share no root on y = 1
        one = Fraction(1)
        rows = [bivariate({(1, 1): one, (0, 1): one}), bivariate({(2, 1): one})]
        assert list(line_roots(rows, Fraction(0))) == [Fraction(0)]
        assert list(line_roots(rows, Fraction(1))) == []

    def test_common_roots_take_the_gcd_across_rows(self):
        # x^2 - 3x + 2 has the roots 1, 2; (x - 2)(x^2 - 3y) at y = 1 has 2, +-sqrt 3
        p = bivariate({(2, 0): Fraction(1), (1, 0): Fraction(-3), (0, 0): Fraction(2)})
        q = bivariate({(3, 0): Fraction(1), (2, 0): Fraction(-2), (1, 1): Fraction(-3),
                       (0, 1): Fraction(6)})
        assert list(line_roots([p, q], Fraction(1))) == [Fraction(2)]
        assert len(list(line_roots([q], Fraction(1)))) == 3


class TestDivision:
    @SETTINGS
    @given(polys, polys.filter(bool))
    def test_quotient_and_remainder(self, a, b):
        q, r = divide(a, b)
        assert add(mul(q, b), r) == trim(a)
        assert len(r) < len(b)

    @SETTINGS
    @given(polys, polys, polys.filter(bool))
    def test_gcd_divides_and_scales(self, a, b, c):
        g = gcd(a, b)
        if not a and not b:
            assert g == []
            return
        assert g[-1] == 1
        assert divide(a, g)[1] == [] and divide(b, g)[1] == []
        # gcd(ac, bc) = gcd(a, b) * c, made monic
        scaled = mul(g, c)
        assert gcd(mul(a, c), mul(b, c)) == [v / scaled[-1] for v in scaled]

    @SETTINGS
    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(st.integers(1, 3), min_size=4, max_size=4),
    )
    def test_squarefree_keeps_each_root_once(self, roots, powers):
        p = [Fraction(1)]
        for r, k in zip(roots, powers):
            for _ in range(k):
                p = mul(p, [-r, Fraction(1)])
        sqf = squarefree(p)
        assert len(sqf) - 1 == len(set(roots))
        assert all(evaluate(sqf, r) == 0 for r in roots)


def sylvester(p, q):
    """Res_x(p, q) as the determinant of the Sylvester matrix, over Q[y] in ``Polynomial``."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    zero = Polynomial.zero(1)

    def entry(coeffs):
        return Polynomial(1, {(j,): c for j, c in enumerate(coeffs) if c})

    rows = []
    for shift in range(n):
        row = [zero] * size
        for i, c in enumerate(reversed(p)):
            row[shift + i] = entry(c)
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for i, c in enumerate(reversed(q)):
            row[shift + i] = entry(c)
        rows.append(row)
    det = matrix_det(rows) if rows else Polynomial.constant(1, 1)
    degree = max((k[0] for k in det.terms), default=-1)
    return trim([det.terms.get((j,), Fraction(0)) for j in range(degree + 1)])


small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
bivariate_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), small, min_size=1, max_size=6
)


class TestResultant:
    @SETTINGS
    @given(bivariate_terms, bivariate_terms)
    def test_equals_sylvester_determinant(self, a, b):
        p, q = bivariate(a), bivariate(b)
        p, q = trim(p), trim(q)
        if not p or not q:
            return
        assert resultant(p, q) == sylvester(p, q)

    @SETTINGS
    @given(
        st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4)
    )
    def test_vanishes_exactly_with_a_common_root(self, roots_a, roots_b):
        p, q = from_roots(roots_a), from_roots(roots_b)
        res = resultant([[c] for c in p], [[c] for c in q])
        expected = Fraction(1)
        for r in roots_a:
            for s in roots_b:
                expected *= r - s
        # Res(a, b) = prod (r - s) over the roots of two monic polynomials
        assert res == trim([expected])
        assert (res == []) == bool(set(roots_a) & set(roots_b))

    def test_repeated_factor_in_x_is_removed(self):
        # (x + y)^2 (x - y^2 - 1): the discriminant in x vanishes identically
        p = Polynomial(2, {(1, 0): 1, (0, 1): 1}) ** 2 * Polynomial(
            2, {(1, 0): 1, (0, 2): -1, (0, 0): -1}
        )
        rows = bivariate(p.terms)
        assert resultant(rows, d_dx(rows)) == []
        reduced = squarefree_x(rows)
        assert len(reduced) == 3
        assert resultant(reduced, d_dx(reduced)) != []
