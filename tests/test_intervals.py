"""Soundness of the outward-rounded interval arithmetic, and the compiled
``IntervalPoly.bounds`` agreeing with it to the bit."""

import math
from collections import deque
from fractions import Fraction
from random import Random

import pytest

import jacgate.intervals
from conftest import p1
from corpus import random_polynomial
from jacgate.intervals import Box, Interval, IntervalPoly
from oracle import reference_bounds


def random_interval(rng: Random, scale: float = 4.0) -> Interval:
    a = rng.uniform(-scale, scale)
    b = rng.uniform(-scale, scale)
    return Interval(min(a, b), max(a, b))


def point_in(rng: Random, interval: Interval) -> float:
    return rng.uniform(interval.lo, interval.hi)


class TestArithmetic:
    def test_add_sub_mul_enclose(self):
        rng = Random(101)
        for _ in range(400):
            a = random_interval(rng)
            b = random_interval(rng)
            x = point_in(rng, a)
            y = point_in(rng, b)
            assert (a + b).contains(x + y)
            assert (a - b).contains(x - y)
            assert (a * b).contains(x * y)

    def test_pow_encloses(self):
        rng = Random(103)
        for _ in range(400):
            a = random_interval(rng, 2.0)
            x = point_in(rng, a)
            for k in (0, 1, 2, 3, 5, 8, 12):
                assert a.pow_int(k).contains(x**k)

    def test_pow_even_nonnegative(self):
        assert Interval(-2.0, 1.0).pow_int(2).lo == 0.0

    def test_fraction_conversion_encloses(self):
        rng = Random(107)
        for _ in range(200):
            value = Fraction(rng.randint(-999, 999), rng.randint(1, 997))
            interval = Interval.from_fraction(value)
            assert interval.lo <= value <= interval.hi

    def test_exact_fraction_is_tight(self):
        assert Interval.from_fraction(Fraction(3, 4)) == Interval(0.75, 0.75)


class TestBox:
    def test_split_covers(self):
        box = Box.cube(2, 1.0)
        left, right = box.split()
        assert left.depth == right.depth == 1
        i = box.widest_dim()
        assert left.coords[i].hi == right.coords[i].lo

    def test_norm_sq(self):
        box = Box((Interval(0.5, 0.5), Interval(0.5, 0.5)), 0)
        assert box.norm_sq().contains(0.5)


class TestIntervalPoly:
    def test_bounds_enclose_exact_values(self):
        rng = Random(109)
        for _ in range(120):
            n = rng.choice((1, 2, 3))
            p = random_polynomial(rng, n, max_terms=5, max_degree=4)
            compiled = IntervalPoly(p)
            coords = tuple(random_interval(rng, 1.5) for _ in range(n))
            bound = compiled.bounds(coords)
            for _ in range(5):
                point = tuple(
                    Fraction(rng.randint(-1000, 1000), 1000) for _ in range(n)
                )
                clamped = tuple(
                    min(max(float(v), c.lo), c.hi) for v, c in zip(point, coords)
                )
                exact = p.evaluate([Fraction(v) for v in clamped])
                assert Fraction(bound.lo) <= exact <= Fraction(bound.hi)

    def test_excludes_zero_positive_poly(self):
        from conftest import p2

        compiled = IntervalPoly(p2("x^2 + y^2 + 1"))
        assert compiled.excludes_zero((Interval(-1, 1), Interval(-1, 1)))


def random_box(rng: Random, n: int, scale: float) -> tuple[Interval, ...]:
    return tuple(random_interval(rng, scale) for _ in range(n))


def count_pow_int(monkeypatch) -> list[int]:
    """Count calls of ``Interval.pow_int`` from now on."""
    calls = [0]
    pow_int = Interval.pow_int

    def counting(self, k):
        calls[0] += 1
        return pow_int(self, k)

    monkeypatch.setattr(Interval, "pow_int", counting)
    return calls


class TestCompiledBounds:
    """``IntervalPoly.bounds`` returns term-by-term ``Interval`` bounds, to the bit."""

    def test_random_polynomials_and_boxes(self):
        rng = Random(211)
        for _ in range(300):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, max_terms=8, max_degree=8)
            compiled = IntervalPoly(p)
            for _ in range(4):
                coords = random_box(rng, n, rng.choice((0.5, 2.0, 50.0)))
                assert repr(compiled.bounds(coords)) == repr(reference_bounds(p, coords))

    @staticmethod
    def bisection_boxes(rng: Random):
        """Polynomials with the boxes a bisection visits for each: boxes that share coordinates."""
        for _ in range(6):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, max_terms=8, max_degree=8)
            boxes = []

            def excluded(box: Box) -> bool:
                boxes.append(box.coords)
                bound = reference_bounds(p, box.coords)
                return bound.lo > 0.0 or bound.hi < 0.0

            # breadth first, splitting each box the bounds do not exclude
            queue = deque([Box.cube(n, rng.choice((1.0, 10.0)))])
            while queue and len(boxes) < 400:
                box = queue.popleft()
                if not excluded(box):
                    queue.extend(box.split())
            yield p, boxes

    def test_boxes_sharing_coordinates_hit_the_memo(self, monkeypatch):
        calls = count_pow_int(monkeypatch)
        for p, boxes in self.bisection_boxes(Random(223)):
            calls[0] = 0
            IntervalPoly(p).bounds(boxes[0])
            per_box = calls[0]  # every power the polynomial needs
            calls[0] = 0
            compiled = IntervalPoly(p)
            found = [compiled.bounds(coords) for coords in boxes]
            assert len(boxes) > 50 and calls[0] < len(boxes) * per_box / 4
            assert list(map(repr, found)) == [repr(reference_bounds(p, c)) for c in boxes]

    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_cleared_memo(self, monkeypatch, size):
        monkeypatch.setattr(jacgate.intervals, "_MEMO_SIZE", size)
        for p, boxes in self.bisection_boxes(Random(227)):
            compiled = IntervalPoly(p)
            for coords in boxes:
                assert repr(compiled.bounds(coords)) == repr(reference_bounds(p, coords))

    def test_clearing_bounds_the_memo(self, monkeypatch):
        monkeypatch.setattr(jacgate.intervals, "_MEMO_SIZE", 5)
        p = random_polynomial(Random(229), 2, max_terms=6, max_degree=6)
        compiled = IntervalPoly(p)
        for j in range(40):
            coords = (Interval(-1.0, j / 40), Interval(j / 80, 1.0))
            assert repr(compiled.bounds(coords)) == repr(reference_bounds(p, coords))
            assert all(len(memo) <= 5 for _, _, memo in compiled._memo)

    def test_overflowing_powers(self):
        rng = Random(233)
        non_finite = nan = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            p = random_polynomial(rng, n, max_terms=8, max_degree=8)
            compiled = IntervalPoly(p)
            for _ in range(4):
                coords = random_box(rng, n, 10.0 ** rng.uniform(30, 308))
                bound = compiled.bounds(coords)
                assert repr(bound) == repr(reference_bounds(p, coords))
                non_finite += not all(map(math.isfinite, bound))
                nan += any(map(math.isnan, bound))
        # the overflow paths, inf and 0 * inf = nan, were exercised
        assert non_finite > 100 and nan > 10

    def test_signed_zero_and_infinite_endpoints(self):
        rng = Random(239)
        ends = (0.0, -0.0, 1.0, -2.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf)
        for _ in range(200):
            n = rng.randint(1, 3)
            p = random_polynomial(rng, n, max_terms=6, max_degree=8)
            compiled = IntervalPoly(p)
            for _ in range(4):
                coords = tuple(
                    Interval(*sorted((rng.choice(ends), rng.choice(ends)))) for _ in range(n)
                )
                assert repr(compiled.bounds(coords)) == repr(reference_bounds(p, coords))

    def test_constant_and_zero_polynomials(self):
        coords = (Interval(-1.0, 2.0),)
        for src in ("0", "1/3", "-7"):
            p = p1(src)
            assert repr(IntervalPoly(p).bounds(coords)) == repr(reference_bounds(p, coords))
