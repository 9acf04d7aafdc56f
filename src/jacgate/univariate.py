"""Dense univariate polynomials over the rationals, and the exact real-zero
algebra of the planar decisions.

A polynomial is a list of ``Fraction`` coefficients, lowest degree first,
with no trailing zeros; ``[]`` is the zero polynomial.  A polynomial in x
with coefficients in Q[y] is a list of such lists, indexed by the power of
x.  Real roots are counted with Sturm sequences (Sturm 1829) and isolated
by bisection between rational points.  Resultants over Q[y] are resultants
over Q at integer points y, interpolated in Newton form; the degree bound
is that of the Sylvester determinant.

``real_roots`` is the one path from a polynomial to its real roots: the
roots of its square-free part are isolated, and each is refined to a
``Fraction`` or an isolating interval.  ``line_roots`` takes the common
roots of several polynomials in x and y on a rational line; the
only-origin decision for n = 2 uses it on y = +-1, and ``planar_zero``,
the det DF decision, on its sample and critical lines.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

Poly = list  # list[Fraction]
Interval = tuple  # (lo, hi) with rational ends; lo == hi for a root met exactly


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def evaluate(p: Poly, x) -> Fraction:
    value = Fraction(0)
    for c in reversed(p):
        value = value * x + c
    return value


def add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return trim([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])


def scale(p: Poly, factor) -> Poly:
    return trim([c * factor for c in p])


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def derivative(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def divide(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of ``a`` by the non-zero ``b``."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1] / lead
        q[k] = c
        if c:
            for i, d in enumerate(b):
                r[k + i] -= c * d
    return trim(q), trim(r[: len(b) - 1])


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divide(a, b)
    if r:
        raise ArithmeticError("polynomial division leaves a remainder")
    return q


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; ``[]`` when both are zero.

    The remainders are taken in integers and made primitive at each step
    (Collins 1967): Euclid over Q lets the digits of the coefficients grow
    exponentially with the degree."""
    if not a or not b:
        a = a or b
        return [c / a[-1] for c in a]
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _pseudo_remainder(a, b)[0]
        a, b = b, (_primitive(r) if r else [])
    return [Fraction(c, a[-1]) for c in a]


def squarefree(p: Poly) -> Poly:
    """``p`` divided by its repeated factors: the same roots, each simple."""
    return exact_div(p, gcd(p, derivative(p)))


def _primitive(p: Sequence) -> list[int]:
    """The positive multiple of the non-zero ``p`` (Fractions or integers) with
    coprime integer coefficients."""
    den = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints)
    return [i // g for i in ints]


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


def _sign(ints: list[int], x: Fraction) -> int:
    """Sign of an integer polynomial at the rational ``x``, in integers."""
    u, v = x.numerator, x.denominator
    value, power = 0, 1
    for c in reversed(ints):
        value = value * u + c * power
        power *= v
    # value = v^(deg) * p(u/v) with v > 0, computed by homogeneous Horner
    return (value > 0) - (value < 0)


def _variations(seq: list[list[int]], x: Fraction | None, side: int) -> int:
    """Sign changes of the sequence at ``x``, or at ``side`` * infinity when ``x`` is None."""
    if x is None:
        signs = [(1 if q[-1] > 0 else -1) * side ** (len(q) - 1) for q in seq]
    else:
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
    bound = 1 + max(abs(c / p[-1]) for c in p[:-1])
    # the left part of each split is popped first, so the roots come in order
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = 1 if lo == hi else count_roots(seq, lo, hi)
        if count == 1:
            yield (lo, hi)
        elif count > 1:
            mid = (lo + hi) / 2
            if evaluate(p, mid):
                stack += [(mid, hi), (lo, mid)]
                continue
            step = (hi - lo) / 4
            while evaluate(p, mid - step) == 0 or evaluate(p, mid + step) == 0 or (
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
        return -p[0] / p[1]
    ints = _primitive(p)
    # a root u/v in lowest terms has v | a_n, and two such fractions differ
    # by at least 1/a_n^2: narrow the interval until it can hold only one
    den = abs(ints[-1])
    low_sign = _sign(ints, lo)
    while hi - lo >= Fraction(1, 2 * den * den):
        mid = (lo + hi) / 2
        s = _sign(ints, mid)
        if s == 0:
            return mid
        if s == low_sign:
            lo = mid
        else:
            hi = mid
    candidate = ((lo + hi) / 2).limit_denominator(den)
    if lo < candidate < hi and not evaluate(p, candidate):
        return candidate
    return (lo, hi)


def real_roots(p: Poly) -> Iterator[Fraction | Interval]:
    """Every real root of the non-zero ``p``, in increasing order and lazily: a
    Fraction when it is rational, else a rational interval that isolates it
    (``refine_root`` on the square-free part)."""
    roots = squarefree(p)
    for interval in isolate(roots):
        yield refine_root(roots, interval)


# -- polynomials in x with coefficients in Q[y] ---------------------------------


def bivariate(terms: Mapping[tuple[int, int], Fraction]) -> list[Poly]:
    """The polynomial with ``terms`` {(i, j): c} for c x^i y^j, as a list over i of Q[y]."""
    width = 1 + max((i for i, _ in terms), default=-1)
    out: list[Poly] = [[] for _ in range(width)]
    for (i, j), c in terms.items():
        row = out[i]
        row.extend([Fraction(0)] * (j + 1 - len(row)))
        row[j] += c
    return [trim(row) for row in out]


def fibre(p: list[Poly], y) -> Poly:
    """``p`` at the given y, a polynomial in x."""
    return trim([evaluate(c, y) for c in p])


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
    """The monic gcd in Q[y] of the coefficients of ``p``."""
    out: Poly = []
    for row in p:
        out = gcd(out, row)
    return out


def _primitive_x(p: list[Poly]) -> list[Poly]:
    c = content(p)
    return [exact_div(row, c) for row in p]


def _step_x(r: list[Poly], b: list[Poly], quotient: Poly, shift: int) -> list[Poly]:
    """``r`` less ``quotient * x^shift * b``."""
    r = list(r)
    for i, row in enumerate(b):
        r[shift + i] = add(r[shift + i], scale(mul(quotient, row), -1))
    return trim(r)


def _gcd_x(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """A gcd in Q[y][x] of two primitive polynomials, by the primitive
    pseudo-remainder sequence (Collins 1967)."""
    while b:
        r = a
        while len(r) >= len(b):
            lead = r[-1]
            r = _step_x([mul(row, b[-1]) for row in r], b, lead, len(r) - len(b))
        a, b = b, _primitive_x(r) if r else []
    return a


def squarefree_x(p: list[Poly]) -> list[Poly]:
    """The primitive ``p`` divided by the factors that divide it twice in Q[y][x]."""
    g = _gcd_x(p, _primitive_x(d_dx(p)))
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


def _resultant_at(a: Poly, b: Poly) -> Fraction:
    """Res(a, b) over Q by the Euclidean remainder sequence."""
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        r = divide(a, b)[1]
        if not r:
            return Fraction(0)
        res *= (-1) ** (m * n) * b[-1] ** (m - len(r) + 1)
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def _newton_interpolate(xs: list[int], ys: list[Fraction]) -> Poly:
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out: Poly = []
    for x, c in zip(reversed(xs), reversed(coef)):
        out = add(mul(out, [Fraction(-x), Fraction(1)]), [c])
    return out


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
    """Res_x(p, q) in Q[y] of two non-zero polynomials in x over Q[y].

    It is interpolated from its values at ``resultant_degree(p, q)`` integer
    points plus one where neither leading coefficient vanishes, where the
    resultant over Q is the value.
    """
    bound = resultant_degree(p, q)
    xs: list[int] = []
    ys: list[Fraction] = []
    y = 0
    while len(xs) <= bound:
        if evaluate(p[-1], y) and evaluate(q[-1], y):
            xs.append(y)
            ys.append(_resultant_at(fibre(p, y), fibre(q, y)))
        y = -y if y > 0 else 1 - y  # 0, 1, -1, 2, -2, ...
    return _newton_interpolate(xs, ys)


# -- real zeros of a polynomial in x and y --------------------------------------


UNDECIDED = object()

# y-degree bound on Res_x(p, p_x) and Res_x(p, p_y) above which the planar
# decision is not attempted.  Its cost grows with the degree and the
# digits of these resultants: 0.1 s at 12, the largest in the check
# benchmarks; 0.7-1.3 s at 56, for dense degree-8 dets with small integer
# coefficients; 11 s at 90 for a degree-10 one
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
    cuts = list(isolate(squarefree(mul(p[-1], discriminant))))
    samples = [cuts[0][0] - 1] if cuts else []
    samples += [(a[1] + b[0]) / 2 for a, b in zip(cuts, cuts[1:])]
    samples += [cuts[-1][1] + 1] if cuts else []
    for y in samples:
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
