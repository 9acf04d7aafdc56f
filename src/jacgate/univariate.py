"""Dense univariate polynomials with integer coefficients, and the exact
real-zero algebra of the planar decisions.

A polynomial is a list of ``int`` coefficients, lowest degree first, with no
trailing zeros; ``[]`` is the zero polynomial.  It stands for every non-zero
rational multiple of itself, with the same roots and Sturm counts and, up to
a constant, the same gcd: ``bivariate`` clears the denominators once,
division is exact in integers, and ``gcd`` and ``content`` are primitive
with a positive leading coefficient.  A polynomial in x with coefficients in
Z[y] is a list of such lists, indexed by the power of x.  Real roots are
counted with Sturm sequences (Sturm 1829) and isolated by bisection between
rational points, with signs by homogeneous Horner in integers; roots,
interval ends and the Cauchy bound are the only ``Fraction`` values.  One
subresultant sequence in Z[y][x] (Brown & Traub 1971; Cohen, *A Course in
Computational Algebraic Number Theory*, 1993) gives Res_x of two polynomials
and a multiple of their gcd in x.

``real_roots`` is the one path from a polynomial to its real roots: the
roots of its square-free part are isolated, and each is refined to a
``Fraction`` or an isolating interval.  ``line_roots`` takes the common
roots of several polynomials in x and y on a rational line; the
only-origin decision for n = 2 uses it on y = +-1, and ``planar_zero``,
the det DF decision for n <= 2, on its sample and critical lines.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterator, Mapping, Sequence

Poly = list  # list[int]
Interval = tuple  # (lo, hi) with rational ends; lo == hi for a root met exactly


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return trim([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])


def scale(p: Poly, factor) -> Poly:
    return trim([c * factor for c in p])


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def derivative(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def exact_div(a: Poly, b: Poly) -> Poly:
    """``a / b`` for a non-zero ``b`` that divides ``a`` with an integer quotient;
    a primitive ``b`` that divides ``a`` over Q does (Gauss's lemma)."""
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] // b[-1]
        for i, d in enumerate(b):
            r[k + i] -= c * d
    if any(r):
        raise ArithmeticError("polynomial division leaves a remainder")
    return trim(q)


def gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor, primitive with a positive leading coefficient;
    ``[]`` when both are zero.

    The remainders are made primitive at each step (Collins 1967): without
    that the digits of the coefficients grow exponentially with the degree."""
    a, b = (_primitive(a) if a else []), (_primitive(b) if b else [])
    while b:
        r = _pseudo_remainder(a, b)[0]
        a, b = b, (_primitive(r) if r else [])
    return [-c for c in a] if a and a[-1] < 0 else a


def squarefree(p: Poly) -> Poly:
    """``p`` divided by its repeated factors: the same roots, each simple."""
    return exact_div(p, gcd(p, derivative(p)))


def _primitive(p: Poly) -> Poly:
    """The positive multiple of the non-zero ``p`` with coprime coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """``(r, k)`` with ``lc(b)^k a = q b + r`` and deg r < deg b, in integers."""
    r, lead, k = list(a), b[-1], 0
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        r = [x * lead for x in r]
        for i, d in enumerate(b):
            r[shift + i] -= c * d
        k += 1
        while r and not r[-1]:
            r.pop()
    return r, k


def sturm(p: Poly) -> list[list[int]]:
    """The Sturm sequence of the non-constant ``p``: p, p', then negated remainders,
    each scaled by a positive constant to coprime integers."""
    seq = [_primitive(p), _primitive(derivative(p))]
    while True:
        r, k = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            return seq
        # r is lc^k times the remainder: keep the sign of minus the remainder
        sign = -1 if seq[-1][-1] > 0 or k % 2 == 0 else 1
        seq.append([sign * c for c in _primitive(r)])


def _value(p: Poly, x: Fraction) -> int:
    """v^deg(p) p(u/v) for x = u/v in lowest terms, by homogeneous Horner: with
    v > 0, an integer of the sign of p(x)."""
    u, v = x.numerator, x.denominator
    value, power = 0, 1
    for c in reversed(p):
        value = value * u + c * power
        power *= v
    return value


def _sign(p: Poly, x: Fraction) -> int:
    """Sign of ``p`` at the rational ``x``."""
    value = _value(p, x)
    return (value > 0) - (value < 0)


def _variations(seq: list[list[int]], x: Fraction | None, side: int) -> int:
    """Sign changes of the sequence at ``x``, or at ``side`` * infinity when ``x`` is None.

    At a repeated root of the first member every member vanishes, with the
    last one, a multiple of the gcd: the signs are then those of the members
    divided by it, a Sturm sequence of the square-free part."""
    if x is None:
        signs = [(1 if q[-1] > 0 else -1) * side ** (len(q) - 1) for q in seq]
    else:
        if not _sign(seq[-1], x):
            seq = [exact_div(q, seq[-1]) for q in seq]
        signs = [s for s in (_sign(q, x) for q in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(
    seq: list[list[int]], lo: Fraction | None = None, hi: Fraction | None = None
) -> int:
    """Distinct real roots in (lo, hi] of the first polynomial of the Sturm sequence
    ``seq``; a missing end is infinite."""
    return _variations(seq, lo, -1) - _variations(seq, hi, 1)


def isolate(p: Poly) -> Iterator[Interval]:
    """One rational interval per real root of the square-free ``p``, in increasing
    order, each found only when the one before it has been taken.

    A root met exactly as a bisection point is yielded as ``(r, r)``; every
    other interval ``(lo, hi)`` has ``lo < hi``, ends where ``p`` is non-zero
    with opposite signs, and holds exactly one root, strictly inside.
    """
    if len(p) < 2:
        return
    seq = sturm(p)
    # Cauchy: every root has |r| < 1 + max |a_i / a_n|
    bound = 1 + max(abs(Fraction(c, p[-1])) for c in p[:-1])
    # the left part of each split is popped first, so the roots come in order
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = 1 if lo == hi else count_roots(seq, lo, hi)
        if count == 1:
            yield (lo, hi)
        elif count > 1:
            mid = (lo + hi) / 2
            if _sign(p, mid):
                stack += [(mid, hi), (lo, mid)]
                continue
            step = (hi - lo) / 4
            while not _sign(p, mid - step) or not _sign(p, mid + step) or (
                count_roots(seq, mid - step, mid + step) != 1
            ):
                step /= 2
            stack += [(mid + step, hi), (mid, mid), (lo, mid - step)]


def refine_root(p: Poly, interval: Interval) -> Fraction | Interval:
    """The root of the square-free ``p`` that ``interval`` isolates: a Fraction when
    it is rational, else the interval narrowed until it holds no other fraction
    that could be a root."""
    lo, hi = interval
    if lo == hi:
        return lo
    if len(p) == 2:
        return Fraction(-p[0], p[1])
    p = _primitive(p)
    # a root u/v in lowest terms has v | a_n, and two such fractions differ
    # by at least 1/a_n^2: narrow the interval until it can hold only one
    den = abs(p[-1])
    low_sign = _sign(p, lo)
    while hi - lo >= Fraction(1, 2 * den * den):
        mid = (lo + hi) / 2
        s = _sign(p, mid)
        if s == 0:
            return mid
        if s == low_sign:
            lo = mid
        else:
            hi = mid
    candidate = ((lo + hi) / 2).limit_denominator(den)
    if lo < candidate < hi and not _sign(p, candidate):
        return candidate
    return (lo, hi)


def real_roots(p: Poly) -> Iterator[Fraction | Interval]:
    """Every real root of the non-zero ``p``, in increasing order and lazily: a
    Fraction when it is rational, else a rational interval that isolates it
    (``refine_root`` on the square-free part)."""
    roots = squarefree(p)
    for interval in isolate(roots):
        yield refine_root(roots, interval)


def cell_samples(p: Poly) -> list[Fraction]:
    """One rational point in each open interval that the real roots of the
    non-zero ``p`` cut the line into, in increasing order; none when ``p`` has
    no real root."""
    cuts = list(isolate(squarefree(p)))
    samples = [cuts[0][0] - 1] if cuts else []
    samples += [(a[1] + b[0]) / 2 for a, b in zip(cuts, cuts[1:])]
    return samples + ([cuts[-1][1] + 1] if cuts else [])


# -- polynomials in x with coefficients in Z[y] ---------------------------------


def bivariate(terms: Mapping[tuple[int, int], Fraction]) -> list[Poly]:
    """The polynomial with ``terms`` {(i, j): c} for c x^i y^j, rational or
    integer, times the least common denominator of the c: a list over i of Z[y]."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    width = 1 + max((i for i, _ in terms), default=-1)
    out: list[Poly] = [[] for _ in range(width)]
    for (i, j), c in terms.items():
        row = out[i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] = c.numerator * (den // c.denominator)
    return [trim(row) for row in out]


def fibre(p: list[Poly], y: Fraction) -> Poly:
    """``p`` at the rational ``y`` = u/v, a polynomial in x, times v^deg_y(p):
    every row is scaled by the same power of v."""
    degree = _degree_y(p)
    return trim([_value(row, y) * y.denominator ** (degree + 1 - len(row)) for row in p])


def line_roots(rows: Sequence[list[Poly]], y) -> Iterator[Fraction | Interval]:
    """The common real x-roots of ``rows`` on the line at the rational ``y``, as
    ``real_roots`` gives them; 0 alone when every row vanishes on the whole line."""
    common: Poly = []
    for row in rows:
        common = gcd(common, fibre(row, y))
    return real_roots(common) if common else iter([Fraction(0)])


def swap(p: list[Poly]) -> list[Poly]:
    """``p`` with x and y exchanged."""
    return bivariate({(j, i): c for i, row in enumerate(p) for j, c in enumerate(row) if c})


def d_dx(p: list[Poly]) -> list[Poly]:
    return [scale(row, i) for i, row in enumerate(p)][1:]


def d_dy(p: list[Poly]) -> list[Poly]:
    return trim([derivative(row) for row in p])


def content(p: list[Poly]) -> Poly:
    """The gcd of the coefficients of ``p``, primitive with a positive leading
    coefficient."""
    out: Poly = []
    for row in p:
        out = gcd(out, row)
    return out


def _primitive_x(p: list[Poly]) -> list[Poly]:
    """``p`` divided by its content and by the integer content that is left, so
    that it divides exactly in Z[y][x] what it divides over Q."""
    c = content(p)
    p = [exact_div(row, c) for row in p]
    g = math.gcd(*(v for row in p for v in row))
    return [[v // g for v in row] for row in p]


def _step_x(r: list[Poly], b: list[Poly], quotient: Poly, shift: int) -> list[Poly]:
    """``r`` less ``quotient * x^shift * b``."""
    r = list(r)
    for i, row in enumerate(b):
        r[shift + i] = add(r[shift + i], scale(mul(quotient, row), -1))
    return trim(r)


def squarefree_x(p: list[Poly]) -> list[Poly]:
    """The primitive ``p`` divided by the factors that divide it twice in Z[y][x]."""
    g = _primitive_x(_subresultants(p, d_dx(p))[1])
    quotient: list[Poly] = [[] for _ in range(len(p) - len(g) + 1)]
    r = p
    for k in range(len(quotient) - 1, -1, -1):
        # g is primitive and divides p, so every leading term divides exactly
        if len(r) >= k + len(g):
            quotient[k] = exact_div(r[k + len(g) - 1], g[-1])
            r = _step_x(r, g, quotient[k], k)
    if r:
        raise ArithmeticError("polynomial division leaves a remainder")
    return trim(quotient)


def _power(p: Poly, k: int) -> Poly:
    return reduce(mul, [p] * k, [1])


def _subresultants(p: list[Poly], q: list[Poly]) -> tuple[Poly, list[Poly]]:
    """Res_x(p, q) of two non-zero polynomials in x over Z[y], and the last
    non-zero member of their subresultant sequence, a multiple of their gcd in x.

    Every division in the sequence is exact in Z[y] (Cohen 1993, Alg. 3.3.7).
    """
    a, b, sign = p, q, 1
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        # the pseudo-remainder lc(b)^(delta + 1) a mod b (Cohen 1993, Alg. 3.1.2)
        r, steps = a, delta + 1
        while len(r) >= len(b):
            r = _step_x([mul(row, b[-1]) for row in r], b, r[-1], len(r) - len(b))
            steps -= 1
        divisor = mul(g, _power(h, delta))
        a, b = b, trim([exact_div(mul(row, _power(b[-1], steps)), divisor) for row in r])
        g = a[-1]
        h = exact_div(_power(g, delta), _power(h, delta - 1)) if delta else h
    res = exact_div(_power(b[0], len(a) - 1), _power(h, len(a) - 2)) if b else []
    return scale(res, sign), b or a


def _degree_y(p: list[Poly]) -> int:
    return max(len(c) for c in p) - 1


def _total_degree(p: list[Poly]) -> int:
    return max(i + len(c) - 1 for i, c in enumerate(p) if c)


def resultant_degree(p: list[Poly], q: list[Poly]) -> int:
    """A bound on the y-degree of Res_x(p, q), the Sylvester determinant:
    ``deg_x(p) deg_y(q) + deg_x(q) deg_y(p)`` and the product of the total
    degrees, whichever is smaller."""
    m, n = len(p) - 1, len(q) - 1
    return min(m * _degree_y(q) + n * _degree_y(p), _total_degree(p) * _total_degree(q))


def resultant(p: list[Poly], q: list[Poly]) -> Poly:
    """Res_x(p, q) in Z[y] of two non-zero polynomials in x over Z[y]."""
    return _subresultants(p, q)[0]


# -- real zeros of a polynomial in x and y --------------------------------------


UNDECIDED = object()

# y-degree bound on Res_x(p, p_x) and Res_x(p, p_y) above which the planar
# decision is not attempted.  Its cost grows with the degree (Python 3.11, one
# shared core): 1 ms at 12, the largest in the check benchmarks; 0.5-0.8 s at
# 56, for 1 + a^2 + b^2 with a, b dense quartics with integer coefficients in
# [-3, 3]; 2.0-2.6 s at 90 for 1 + x^10 + y^10 + (x+y)^10 + 3(x - 2y + 1)^4 + xy,
# nearly all in the gcds and Sturm sequences after the two resultants (0.2 s)
MAX_RESULTANT_DEGREE = 60


def planar_zero(terms: Mapping[tuple[int, int], Fraction]):
    """A real zero of the non-constant p(x, y) with ``terms``, None when it has
    none, or ``UNDECIDED``.

    A zero is proven on a rational line y = c where p(., c) has a real root
    by its Sturm count; its x is a rational root or an isolating interval.
    The line y = 0 is tried first, so that an obvious zero never costs a
    resultant.  Otherwise p loses the factors in y alone and in x alone
    (those with a real root vanish on a whole line) and, when Res_x(p, p_x)
    vanishes, its repeated factors.
    On each cell between the real roots of lc_x(p) Res_x(p, p_x) the real
    roots of p(., y) keep their count, so one rational sample per cell shows
    whether p vanishes off the cut lines.  If it does not, a zero on a cut
    line is a critical point, and none exists when
    gcd(Res_x(p, p_x), Res_x(p, p_y)) has no real root; each rational root of
    that gcd is decided on its line.  It is ``UNDECIDED`` when that leaves
    only irrational roots, or when a resultant's degree bound exceeds
    ``MAX_RESULTANT_DEGREE``.
    """
    p = bivariate(terms)
    zero = _line_zero(p, Fraction(0))
    if zero is not None:
        return zero
    c = content(p)
    y = next(real_roots(c), None)
    if y is not None:
        return (Fraction(0), y)
    p = [exact_div(row, c) for row in p]
    # a factor in x alone has no real root, as it divides p(x, 0); dropping it
    # keeps Res_x(p, p_y) non-zero
    swapped = swap(p)
    d = content(swapped)
    p = swap([exact_div(row, d) for row in swapped])
    if len(p) == 1:  # only a constant is left
        return None
    if max(resultant_degree(p, d_dx(p)), resultant_degree(p, d_dy(p))) > MAX_RESULTANT_DEGREE:
        return UNDECIDED
    discriminant = resultant(p, d_dx(p))
    if not discriminant:  # a factor divides p twice
        p = squarefree_x(p)
        discriminant = resultant(p, d_dx(p))
    for y in cell_samples(mul(p[-1], discriminant)):
        zero = _line_zero(p, y)
        if zero is not None:
            return zero
    irrational = False
    for y in real_roots(gcd(discriminant, resultant(p, d_dy(p)))):
        if not isinstance(y, Fraction):
            irrational = True
            continue
        zero = _line_zero(p, y)
        if zero is not None:
            return zero
    return UNDECIDED if irrational else None


def _line_zero(p: list[Poly], y: Fraction) -> tuple | None:
    """A zero of ``p`` on the line at rational ``y``, or None when its Sturm count is 0."""
    x = next(line_roots([p], y), None)
    return None if x is None else (x, y)
