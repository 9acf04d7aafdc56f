"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from jacgate import PolyMap, Polynomial, Weight, h_norm, higher_part_field
from jacgate.errors import DegenerateDirectionError, ZeroPolynomialError


def rational(rng: Random, lo: int = -5, hi: int = 5, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def nonzero_rational(rng: Random, lo: int = -5, hi: int = 5, max_den: int = 4) -> Fraction:
    while True:
        value = rational(rng, lo, hi, max_den)
        if value:
            return value


def random_point(rng: Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rational(rng, -9, 9, 9) for _ in range(n))


def random_polynomial(
    rng: Random, n: int, max_terms: int = 6, max_degree: int = 5
) -> Polynomial:
    """A random non-zero polynomial with small rational coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exponent = tuple(rng.randint(0, max_degree) for _ in range(n))
            if sum(exponent) > max_degree + 2:
                continue
            terms[exponent] = nonzero_rational(rng)
        p = Polynomial(n, terms)
        if not p.is_zero:
            return p


def random_weight(rng: Random, n: int, s_max: int = 3) -> Weight:
    return Weight(tuple(rng.randint(1, s_max) for _ in range(n)))


def exponents_of_weighted_degree(n: int, svec: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors with the given weighted degree."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if remaining % svec[i] == 0:
                out.append(prefix + (remaining // svec[i],))
            return
        k = 0
        while k * svec[i] <= remaining:
            rec(i + 1, remaining - k * svec[i], prefix + (k,))
            k += 1

    rec(0, degree, ())
    return out


def random_qh_polynomial(
    rng: Random, n: int, w: Weight, degree: int, max_terms: int = 5
) -> Polynomial | None:
    """A random quasi-homogeneous polynomial of the given weighted degree."""
    pool = exponents_of_weighted_degree(n, tuple(w.s), degree)
    if not pool:
        return None
    chosen = rng.sample(pool, k=min(len(pool), rng.randint(1, max_terms)))
    return Polynomial(n, {k: nonzero_rational(rng) for k in chosen})


def random_map(rng: Random, n: int, max_terms: int = 4, max_degree: int = 4) -> PolyMap:
    return PolyMap([random_polynomial(rng, n, max_terms, max_degree) for _ in range(n)])


def triangular_pass_map(rng: Random) -> PolyMap:
    """Planar maps built so the descent-field criterion holds with r >= 2.

    First component dominates in x alone, second in y alone; the cross term
    is kept low enough that the per-component top degrees stay split.
    """
    c = rng.randint(1, 2)
    b = c + rng.randint(2, 3)
    a = rng.randint(b + 1, 2 * b - c - 1)
    alpha = nonzero_rational(rng, -3, 3, 2)
    beta = nonzero_rational(rng, -3, 3, 2)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    return PolyMap([x**a + alpha * y**c, beta * y**b])


def diagonal_pass_map(rng: Random, n: int) -> PolyMap:
    """Diagonal maps with distinct exponents; the field criterion always holds."""
    exponents = rng.sample(range(1, n + 4), k=n)
    components = []
    for i, e in enumerate(exponents):
        components.append(nonzero_rational(rng, -3, 3, 2) * Polynomial.variable(n, i) ** e)
    return PolyMap(components)


def field_pass_instances(count: int, seed: int = 0) -> list[tuple[PolyMap, Weight]]:
    """Maps expected to satisfy the field criterion, paired with a weight."""
    rng = Random(seed)
    out: list[tuple[PolyMap, Weight]] = []
    while len(out) < count:
        kind = rng.randrange(3)
        if kind == 0:
            fmap = triangular_pass_map(rng)
        elif kind == 1:
            fmap = diagonal_pass_map(rng, 2)
        else:
            fmap = diagonal_pass_map(rng, 3)
        out.append((fmap, Weight((1,) * fmap.n)))
    return out


def r2_block_instances(count: int, seed: int = 0) -> list[tuple[PolyMap, Weight]]:
    """Maps whose norm-function block structure has at least two blocks."""
    rng = Random(seed)
    out: list[tuple[PolyMap, Weight]] = []
    while len(out) < count:
        if rng.random() < 0.5:
            fmap = random_map(rng, rng.choice((2, 2, 3)), max_terms=3, max_degree=4)
            w = random_weight(rng, fmap.n, 2)
        else:
            fmap = triangular_pass_map(rng) if rng.random() < 0.7 else diagonal_pass_map(rng, 2)
            w = Weight((1,) * fmap.n)
        try:
            h = h_norm(fmap)
            if h.is_zero:
                continue
            bs = higher_part_field(h, w)
        except (DegenerateDirectionError, ZeroPolynomialError):
            continue
        if bs.r >= 2:
            out.append((fmap, w))
    return out


def nonneg_qh_instances(count: int, seed: int = 0) -> list[tuple[Polynomial, Weight]]:
    """Non-negative quasi-homogeneous polynomials: higher parts of sums of squares."""
    from jacgate import higher_part

    rng = Random(seed)
    out: list[tuple[Polynomial, Weight]] = []
    while len(out) < count:
        n = rng.choice((2, 2, 2, 3))
        fmap = random_map(rng, n, max_terms=3, max_degree=3)
        w = random_weight(rng, n, 2)
        h = h_norm(fmap)
        if h.is_zero:
            continue
        out.append((higher_part(h, w), w))
    return out


def qh_system_instances(count: int, seed: int = 0) -> list[tuple[list[Polynomial], Weight]]:
    """Random quasi-homogeneous systems for oracle agreement, n <= 3."""
    rng = Random(seed)
    out: list[tuple[list[Polynomial], Weight]] = []
    while len(out) < count:
        n = rng.choice((2, 2, 3))
        w = random_weight(rng, n, 2)
        size = rng.choice((1, 1, n))
        system = []
        for _ in range(size):
            degree = rng.randint(2, 8)
            p = random_qh_polynomial(rng, n, w, degree)
            if p is not None:
                system.append(p)
        if system:
            out.append((system, w))
    return out
