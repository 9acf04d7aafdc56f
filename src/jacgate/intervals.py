"""Outward-rounded interval arithmetic and interval polynomial evaluation.

Scalar products and sums in binary64 are correctly rounded, so widening
every computed bound by one ulp in the unfavourable direction yields
enclosures that are sound for exclusion tests.  Tightness is secondary:
it only affects how deep the branch-and-bound has to subdivide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .poly import Polynomial

_INF = math.inf
# entries a coordinate's power memo holds before it is cleared, so that
# memory stays bounded however many distinct intervals a run visits
_MEMO_SIZE = 4096


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval(NamedTuple):
    lo: float
    hi: float

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Interval":
        f = float(value)
        if Fraction(f) == value:
            return cls(f, f)
        return cls(_down(f), _up(f))

    def __add__(self, other: "Interval") -> "Interval":  # type: ignore[override]
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":  # type: ignore[override]
        a, b = self
        c, d = other
        p1, p2, p3, p4 = a * c, a * d, b * c, b * d
        return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    def pow_int(self, k: int) -> "Interval":
        if k < 0:
            raise ValueError("negative interval power")
        if k == 0:
            return Interval(1.0, 1.0)
        if k == 1:
            return self
        lo, hi = self
        if k % 2 == 0:
            big = max(-lo, hi)
            upper = _pow_mag_up(big, k)
            if lo <= 0.0 <= hi:
                return Interval(0.0, upper)
            small = min(abs(lo), abs(hi))
            return Interval(_pow_mag_down(small, k), upper)
        # odd power is monotone
        return Interval(_signed_pow_down(lo, k), _signed_pow_up(hi, k))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def width(self) -> float:
        return self.hi - self.lo

    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _pow_mag_down(x: float, k: int) -> float:
    """Lower bound of x**k for x >= 0 via outward-rounded squaring."""
    result = 1.0
    base = x
    while k:
        if k & 1:
            result = _down(result * base)
        k >>= 1
        if k:
            base = _down(base * base)
    return max(result, 0.0)


def _pow_mag_up(x: float, k: int) -> float:
    result = 1.0
    base = x
    while k:
        if k & 1:
            result = _up(result * base)
        k >>= 1
        if k:
            base = _up(base * base)
    return result


def _signed_pow_down(x: float, k: int) -> float:
    # k odd: x**k keeps the sign of x
    return _pow_mag_down(x, k) if x >= 0 else -_pow_mag_up(-x, k)


def _signed_pow_up(x: float, k: int) -> float:
    return _pow_mag_up(x, k) if x >= 0 else -_pow_mag_down(-x, k)


class Box(NamedTuple):
    coords: tuple[Interval, ...]
    depth: int

    @classmethod
    def cube(cls, n: int, radius: float) -> "Box":
        return cls(tuple(Interval(-radius, radius) for _ in range(n)), 0)

    def center(self) -> tuple[float, ...]:
        return tuple(c.mid() for c in self.coords)

    def widest_dim(self) -> int:
        widths = [c.width() for c in self.coords]
        return widths.index(max(widths))

    def split(self) -> tuple["Box", "Box"]:
        i = self.widest_dim()
        interval = self.coords[i]
        mid = interval.mid()
        left = self.coords[:i] + (Interval(interval.lo, mid),) + self.coords[i + 1:]
        right = self.coords[:i] + (Interval(mid, interval.hi),) + self.coords[i + 1:]
        return Box(left, self.depth + 1), Box(right, self.depth + 1)

    def norm_sq(self) -> Interval:
        total = Interval(0.0, 0.0)
        for c in self.coords:
            total = total + c.pow_int(2)
        return total


class Bisection:
    """Depth-first bisection of one root box: the branch-and-bound loop.

    ``first_leaf(excluded)`` pops boxes depth first, discards each one the
    caller's sound exclusion test proves zero-free and splits the others,
    until a surviving box is a leaf (at the depth limit, or reached with the
    box budget spent), which it returns, or until every box is excluded,
    when it returns None.  ``boxes`` counts every box popped, excluded or
    not, and ``max_depth`` the deepest one.
    """

    def __init__(self, root: Box, depth_limit: int, max_boxes: int):
        self.root = root
        self.depth_limit = depth_limit
        self.max_boxes = max_boxes
        self.boxes = 0
        self.max_depth = 0

    def first_leaf(self, excluded: Callable[[Box], bool]) -> Box | None:
        stack = [self.root]
        while stack:
            box = stack.pop()
            self.boxes += 1
            self.max_depth = max(self.max_depth, box.depth)
            if excluded(box):
                continue
            if box.depth >= self.depth_limit or self.boxes >= self.max_boxes:
                return box
            left, right = box.split()
            stack.append(right)
            stack.append(left)
        return None


class IntervalPoly:
    """A polynomial compiled for interval evaluation over boxes.

    Each term is stored as its coefficient's bounds and the slots of the
    coordinate powers it multiplies, in increasing coordinate order; zero
    exponents are dropped.  ``bounds`` evaluates on plain floats with the
    operations, and the order of operations, of ``Interval``'s ``*``, ``+``
    and ``pow_int``, so its result is the one that term-by-term ``Interval``
    arithmetic gives, to the bit.  A branch-and-bound run sees each
    coordinate interval again and again, so the powers each coordinate
    needs are memoised per coordinate interval, for the life of the object
    (one run: callers build one per branch-and-bound run).
    """

    __slots__ = ("terms", "_memo")

    def __init__(self, p: Polynomial):
        items = [
            (Interval.from_fraction(c), [(i, k) for i, k in enumerate(exponent) if k])
            for exponent, c in p.sorted_terms()
        ]
        needed = sorted({factor for _, factors in items for factor in factors})
        slot = {factor: s for s, factor in enumerate(needed)}
        # (coordinate, its needed exponents, memo: interval -> those powers),
        # in slot order
        self._memo = [
            (i, tuple(k for j, k in needed if j == i), {})
            for i in sorted({i for i, _ in needed})
        ]
        self.terms = [
            (c.lo, c.hi, tuple(slot[factor] for factor in factors)) for c, factors in items
        ]

    def bounds(self, coords: Sequence[Interval]) -> Interval:
        # Intervals equal as tuples share an entry though a zero endpoint's
        # sign may differ: every result passes through nextafter, which
        # maps 0.0 and -0.0 alike, so the sign never reaches a bound.
        values: list = []
        for i, exponents, memo in self._memo:
            c = coords[i]
            powers = memo.get(c)
            if powers is None:
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                powers = memo[c] = tuple(c.pow_int(k) for k in exponents)
            values += powers
        step, down, up = math.nextafter, -_INF, _INF
        total_lo = total_hi = 0.0
        for a, b, slots in self.terms:
            for s in slots:
                c, d = values[s]
                p1, p2, p3, p4 = a * c, a * d, b * c, b * d
                # min(p1, p2, p3, p4) and max(...) as the builtins pick
                # them, NaN included, without the cost of two calls
                lo = p2 if p2 < p1 else p1
                lo = p3 if p3 < lo else lo
                lo = p4 if p4 < lo else lo
                hi = p2 if p2 > p1 else p1
                hi = p3 if p3 > hi else hi
                hi = p4 if p4 > hi else hi
                a = step(lo, down)
                b = step(hi, up)
            total_lo = step(total_lo + a, down)
            total_hi = step(total_hi + b, up)
        return Interval(total_lo, total_hi)

    def excludes_zero(self, coords: Sequence[Interval]) -> bool:
        bound = self.bounds(coords)
        return bound.lo > 0.0 or bound.hi < 0.0
