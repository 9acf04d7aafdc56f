"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as a finite map from exponent multi-indices to
non-zero ``Fraction`` coefficients.  Everything in this module is exact:
no floating point enters any computation here.

Sums and products work on integers.  A sum puts both operands over the
lcm of their denominators and adds the integer numerators.  A product puts
each operand over the common denominator of its coefficients, packs each
exponent tuple into one int (Kronecker substitution, base 1 + the two
operands' largest exponents, so no digit carries), and its pair loop
multiplies and adds plain ints.  Either builds one ``Fraction`` per result
term, from the int alone when the denominator is 1.  A key whose running
sum reaches 0 is deleted and re-inserted at the end if it comes back, as a
``Fraction`` sum would be: over a positive denominator the zero sums are
the same events, so the result's insertion order does not depend on the
kernel.  No result depends on that order either: float and interval
evaluation sum in ``sorted_terms`` order.  Results of ring operations on
valid polynomials skip the input checks of ``Polynomial(n, terms)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Mapping, Sequence

from .errors import DimensionMismatchError

Exponent = tuple[int, ...]
Rational = Fraction | int
RationalPoint = Sequence[Rational]


def _grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    # graded lexicographic: compare total degree first, then lexicographic
    return (sum(exponent), exponent)


class Polynomial:
    """Polynomial in ``n`` variables with exact rational coefficients.

    Zero coefficients are stripped eagerly, so two polynomials are equal
    iff their term maps are equal; iteration and printing follow graded
    lexicographic order, making both deterministic.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Rational] | None = None):
        if n < 1:
            raise ValueError(f"variable count must be at least 1, got {n}")
        cleaned: dict[Exponent, Fraction] = {}
        for exponent, coefficient in (terms or {}).items():
            key = tuple(exponent)
            if len(key) != n:
                raise DimensionMismatchError(
                    f"exponent {key} has length {len(key)}, expected {n}"
                )
            if any(k < 0 for k in key):
                raise ValueError(f"negative exponent in {key}")
            value = Fraction(coefficient)
            if value:
                cleaned[key] = value
        self.n = n
        self.terms = cleaned

    @classmethod
    def _trusted(cls, n: int, terms: dict[Exponent, Fraction]) -> "Polynomial":
        """Wrap ``terms`` as is: length-n non-negative keys, non-zero ``Fraction`` values."""
        poly = object.__new__(cls)
        poly.n = n
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Rational) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range for n={n}")
        exponent = tuple(1 if i == index else 0 for i in range(n))
        return cls(n, {exponent: 1})

    @classmethod
    def monomial(cls, n: int, exponent: Sequence[int], coefficient: Rational = 1) -> "Polynomial":
        return cls(n, {tuple(exponent): coefficient})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.n, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        from .parsing import print_poly

        return f"Polynomial({print_poly(self)!r})"

    # -- ring operations ----------------------------------------------

    def _check_same_n(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials in {self.n} and {other.n} variables cannot be combined"
            )

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other: "Rational") -> "Polynomial":
        return Polynomial.constant(self.n, other) - self

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign * other`` on integer numerators over the common denominator."""
        self._check_same_n(other)
        den = lcm(_denominator(self.terms), _denominator(other.terms))
        result = {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}
        get = result.get
        for key, c in other.terms.items():
            total = get(key, 0) + sign * c.numerator * (den // c.denominator)
            if total:
                result[key] = total
            else:
                del result[key]
        if den == 1:
            return Polynomial._trusted(self.n, {k: Fraction(v) for k, v in result.items()})
        return Polynomial._trusted(self.n, {k: Fraction(v, den) for k, v in result.items()})

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_n(other)
        if not self.terms or not other.terms:
            return Polynomial._trusted(self.n, {})
        base = 1 + _max_exponent(self.terms) + _max_exponent(other.terms)
        a, da = _packed_numerators(self.terms, base)
        b, db = _packed_numerators(other.terms, base)
        result: dict[int, int] = {}
        get = result.get
        for ka, ca in a:
            for kb, cb in b:
                key = ka + kb
                total = get(key, 0) + ca * cb
                if total:
                    result[key] = total
                else:
                    del result[key]
        n, den = self.n, da * db
        terms: dict[Exponent, Fraction] = {}
        for key, value in result.items():
            exponent = []
            for _ in range(n):
                key, k = divmod(key, base)
                exponent.append(k)
            terms[tuple(exponent)] = Fraction(value) if den == 1 else Fraction(value, den)
        return Polynomial._trusted(n, terms)

    __rmul__ = __mul__

    def scale(self, factor: Rational) -> "Polynomial":
        factor = Fraction(factor)
        if not factor:
            return Polynomial.zero(self.n)
        return Polynomial._trusted(self.n, {k: c * factor for k, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {exponent}")
        result = Polynomial.constant(self.n, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and evaluation ---------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.n:
            raise IndexError(f"variable index {index} out of range for n={self.n}")
        result: dict[Exponent, Fraction] = {}
        for exponent, coefficient in self.terms.items():
            k = exponent[index]
            if k == 0:
                continue
            lowered = exponent[:index] + (k - 1,) + exponent[index + 1:]
            result[lowered] = coefficient * k
        return Polynomial._trusted(self.n, result)

    def evaluate(self, point: RationalPoint) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.n:
            raise DimensionMismatchError(
                f"point of length {len(point)} for polynomial in {self.n} variables"
            )
        coords = [Fraction(c) for c in point]
        # cache powers per variable up to the largest exponent that occurs
        powers: list[dict[int, Fraction]] = [{0: Fraction(1)} for _ in range(self.n)]
        total = Fraction(0)
        for exponent, coefficient in self.terms.items():
            value = coefficient
            for i, k in enumerate(exponent):
                if k == 0:
                    continue
                cache = powers[i]
                if k not in cache:
                    cache[k] = coords[i] ** k
                value *= cache[k]
            total += value
        return total

    def zero_out(self, indices: Sequence[int]) -> "Polynomial":
        """Set the given variables to zero, dropping every term that uses them."""
        dead = set(indices)
        kept = {k: c for k, c in self.terms.items() if all(k[i] == 0 for i in dead)}
        return Polynomial(self.n, kept)

    def translate(self, offsets: RationalPoint) -> "Polynomial":
        """Substitute ``x_i -> x_i + b_i`` exactly.

        One Taylor shift per non-zero ``b_i``: c * x_i^k becomes the sum over
        j <= k of C(k, j) * b_i^(k-j) * c * x_i^j.
        """
        if len(offsets) != self.n:
            raise DimensionMismatchError("offset length does not match variable count")
        terms = self.terms
        for i, b in enumerate(offsets):
            b = Fraction(b)
            if not b:
                continue
            powers = [Fraction(1)]  # b^0, b^1, ...
            shifted: dict[Exponent, Fraction] = {}
            for exponent, coefficient in terms.items():
                k = exponent[i]
                while len(powers) <= k:
                    powers.append(powers[-1] * b)
                for j in range(k + 1):
                    key = exponent[:i] + (j,) + exponent[i + 1:]
                    value = comb(k, j) * powers[k - j] * coefficient
                    shifted[key] = shifted.get(key, 0) + value
            terms = shifted
        return Polynomial(self.n, terms)


def _max_exponent(terms: Mapping[Exponent, Fraction]) -> int:
    return max(max(exponent) for exponent in terms)


def _denominator(terms: Mapping[Exponent, Fraction]) -> int:
    """The least common denominator of the coefficients; 1 for no terms."""
    return lcm(*(c.denominator for c in terms.values()))


def _packed_numerators(
    terms: Mapping[Exponent, Fraction], base: int
) -> tuple[list[tuple[int, int]], int]:
    """``(packed exponent, numerator)`` pairs over the common denominator, and that denominator.

    Exponent ``(e_0, ..., e_{n-1})`` packs to ``e_0 + e_1 base + ... + e_{n-1} base^(n-1)``.
    """
    den = _denominator(terms)
    packed = []
    for exponent, c in terms.items():
        key = 0
        for k in reversed(exponent):
            key = key * base + k
        packed.append((key, c.numerator * (den // c.denominator)))
    return packed, den


class PolyMap:
    """A square polynomial map: n polynomials in n shared variables."""

    __slots__ = ("n", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a polynomial map needs at least one component")
        n = components[0].n
        for i, component in enumerate(components):
            if component.n != n:
                raise DimensionMismatchError(
                    f"component {i} lives in {component.n} variables, expected {n}"
                )
        if len(components) != n:
            raise DimensionMismatchError(
                f"map has {len(components)} components but {n} variables; must be square"
            )
        self.n = n
        self.components = components

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls([Polynomial.variable(n, i) for i in range(n)])

    def evaluate(self, point: RationalPoint) -> tuple[Fraction, ...]:
        return tuple(component.evaluate(point) for component in self.components)

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        from .parsing import print_poly

        inner = ", ".join(print_poly(c) for c in self.components)
        return f"PolyMap({inner})"


def jacobian_matrix(fmap: PolyMap) -> list[list[Polynomial]]:
    """Matrix of partials; entry (i, j) is the derivative of component i by variable j."""
    return [[component.partial(j) for j in range(fmap.n)] for component in fmap.components]


def jacobian_det(fmap: PolyMap) -> Polynomial:
    """Exact Jacobian determinant, by cofactor expansion with memoized minors."""
    return matrix_det(jacobian_matrix(fmap))


def matrix_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix of polynomials.

    Cofactor expansion along the first remaining row; minors are memoized
    on their column subset, which keeps the desk-scale sizes (n <= 6) cheap.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise DimensionMismatchError("determinant of a non-square matrix")
    n_vars = matrix[0][0].n
    memo: dict[tuple[int, ...], Polynomial] = {}

    def expand(columns: tuple[int, ...]) -> Polynomial:
        if not columns:
            return Polynomial.constant(n_vars, 1)
        if columns in memo:
            return memo[columns]
        row = size - len(columns)
        total = Polynomial.zero(n_vars)
        for position, column in enumerate(columns):
            entry = matrix[row][column]
            if entry.is_zero:
                continue
            rest = columns[:position] + columns[position + 1:]
            cofactor = entry * expand(rest)
            total = (total + cofactor) if position % 2 == 0 else (total - cofactor)
        memo[columns] = total
        return total

    return expand(tuple(range(size)))


def h_norm(fmap: PolyMap) -> Polynomial:
    """Half the squared Euclidean norm of the map: sum of squared components over 2."""
    total = Polynomial.zero(fmap.n)
    for component in fmap.components:
        total = total + component * component
    return total.scale(Fraction(1, 2))


def gradient_field(h: Polynomial) -> PolyMap:
    """The descent field of ``h``: component j is the negated partial by variable j."""
    return PolyMap([-h.partial(j) for j in range(h.n)])
