"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as a finite map from exponent multi-indices to
non-zero ``Fraction`` coefficients.  Everything in this module is exact:
no floating point enters any computation here.

Sums and products work on integers.  A sum puts both operands over the
lcm of their denominators and adds the integer numerators.  A product puts
each operand over the common denominator of its coefficients, packs each
exponent tuple into one int (Kronecker substitution, base 1 + the two
operands' largest exponents, so no digit carries), and its pair loop
multiplies and adds plain ints.  Either builds one ``Fraction`` per
non-zero result term, from the int alone when the denominator is 1.
``matrix_det`` packs once and runs its whole cofactor expansion on ints,
with base 1 + the sum of the rows' largest exponents; it builds
``Fraction``s only for the terms of the determinant.  No result depends
on the insertion order of the terms: float and interval evaluation sum
in ``sorted_terms`` order, and printing sorts too.  A power of a one-term
polynomial is built directly, its coefficient to the k and every
exponent times k; only powers of several terms go through products.
Exact evaluation works on integers too: the point goes over the lcm of its
denominators, every term is lifted to the top degree with powers of that
lcm, and one ``Fraction`` is built from the integer sum.  So does the
Taylor shift of ``translate`` (von zur Gathen and Gerhard, ISSAC 1997):
for an offset p/q in x_i, every numerator is lifted to x_i's top degree
with powers of q, so that each shift multiplies and adds plain ints and
one ``Fraction`` is built per result term.  Results of ring operations on
valid polynomials skip the input checks of ``Polynomial(n, terms)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
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
            result[key] = get(key, 0) + sign * c.numerator * (den // c.denominator)
        if den == 1:
            return Polynomial._trusted(self.n, {k: Fraction(v) for k, v in result.items() if v})
        return Polynomial._trusted(self.n, {k: Fraction(v, den) for k, v in result.items() if v})

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_n(other)
        if not self.terms or not other.terms:
            return Polynomial._trusted(self.n, {})
        base = 1 + _max_exponent(self.terms) + _max_exponent(other.terms)
        da, db = _denominator(self.terms), _denominator(other.terms)
        b = _packed_numerators(other.terms, base, db)
        result: dict[int, int] = {}
        get = result.get
        for ka, ca in _packed_numerators(self.terms, base, da):
            for kb, cb in b:
                key = ka + kb
                result[key] = get(key, 0) + ca * cb
        return _unpacked(self.n, result, base, da * db)

    __rmul__ = __mul__

    def scale(self, factor: Rational) -> "Polynomial":
        factor = Fraction(factor)
        if not factor:
            return Polynomial.zero(self.n)
        return Polynomial._trusted(self.n, {k: c * factor for k, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {exponent}")
        if len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            return Polynomial._trusted(self.n, {tuple(k * exponent for k in key): c**exponent})
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
        """Exact value at a rational point, summed on integers.

        With the point as ``nums / d`` and the coefficients over ``den``, a
        term c * x^e of degree |e| contributes c * den * nums^e * d^(top - |e|)
        to the numerator of the value over ``den * d^top``.
        """
        if len(point) != self.n:
            raise DimensionMismatchError(
                f"point of length {len(point)} for polynomial in {self.n} variables"
            )
        coords = [Fraction(c) for c in point]
        d = lcm(*(c.denominator for c in coords))
        nums = [c.numerator * (d // c.denominator) for c in coords]
        den = _denominator(self.terms)
        top = max(map(sum, self.terms), default=0)
        d_powers = [d**j for j in range(top + 1)]
        # cache powers per variable up to the largest exponent that occurs
        powers: list[dict[int, int]] = [{} for _ in range(self.n)]
        total = 0
        for exponent, c in self.terms.items():
            value = c.numerator * (den // c.denominator) * d_powers[top - sum(exponent)]
            for num, cache, k in zip(nums, powers, exponent):
                if k:
                    if k not in cache:
                        cache[k] = num**k
                    value *= cache[k]
            total += value
        return Fraction(total, den * d_powers[top])

    def translate(self, offsets: RationalPoint) -> "Polynomial":
        """Substitute ``x_i -> x_i + b_i`` exactly, on integers.

        The terms go over one denominator ``den``.  One Taylor shift per
        non-zero ``b_i = p/q``: with ``top`` the largest exponent of x_i, the
        numerator c of c * x_i^k becomes C(k, j) * p^(k-j) * q^(top-k+j) * c
        at x_i^j for each j <= k, and ``den`` takes a factor q^top.
        """
        if len(offsets) != self.n:
            raise DimensionMismatchError("offset length does not match variable count")
        den = _denominator(self.terms)
        nums = {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}
        for i, b in enumerate(offsets):
            b = Fraction(b)
            if not b:
                continue
            top = max((exponent[i] for exponent in nums), default=0)
            p_powers = [b.numerator**e for e in range(top + 1)]
            q_powers = [b.denominator**e for e in range(top + 1)]
            factors: dict[int, list[int]] = {}  # per k, the factor of each j
            shifted: dict[Exponent, int] = {}
            get = shifted.get
            for exponent, c in nums.items():
                k = exponent[i]
                row = factors.get(k)
                if row is None:
                    row = factors[k] = [
                        comb(k, j) * p_powers[k - j] * q_powers[top - k + j] for j in range(k + 1)
                    ]
                head, tail = exponent[:i], exponent[i + 1:]
                for j, factor in enumerate(row):
                    key = head + (j,) + tail
                    shifted[key] = get(key, 0) + factor * c
            nums = shifted
            den *= q_powers[top]
        if den == 1:
            return Polynomial._trusted(self.n, {k: Fraction(v) for k, v in nums.items() if v})
        return Polynomial._trusted(self.n, {k: Fraction(v, den) for k, v in nums.items() if v})


def _max_exponent(terms: Mapping[Exponent, Fraction]) -> int:
    return max((max(exponent) for exponent in terms), default=0)


def _denominator(terms: Mapping[Exponent, Fraction]) -> int:
    """The least common denominator of the coefficients; 1 for no terms."""
    return lcm(*(c.denominator for c in terms.values()))


def _packed_numerators(
    terms: Mapping[Exponent, Fraction], base: int, den: int
) -> list[tuple[int, int]]:
    """``(packed exponent, numerator)`` pairs over ``den``, a multiple of every denominator.

    Exponent ``(e_0, ..., e_{n-1})`` packs to ``e_0 + e_1 base + ... + e_{n-1} base^(n-1)``.
    """
    packed = []
    for exponent, c in terms.items():
        key = 0
        for k in reversed(exponent):
            key = key * base + k
        packed.append((key, c.numerator * (den // c.denominator)))
    return packed


def _unpacked(n: int, packed: Mapping[int, int], base: int, den: int) -> Polynomial:
    """The polynomial of the non-zero numerators in ``packed``, each over ``den``."""
    terms: dict[Exponent, Fraction] = {}
    for key, value in packed.items():
        if not value:
            continue
        exponent = []
        for _ in range(n):
            key, k = divmod(key, base)
            exponent.append(k)
        terms[tuple(exponent)] = Fraction(value) if den == 1 else Fraction(value, den)
    return Polynomial._trusted(n, terms)


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
    It runs on packed integer numerators: each row goes over the lcm of its
    denominators, and one base, 1 + the sum of the rows' largest exponents,
    packs every exponent; a term of a minor takes one term from each row,
    so no digit carries.  ``Fraction``s are built only for the terms of the
    determinant, over the product of the row lcms.
    """
    size = len(matrix)
    if not size:
        raise DimensionMismatchError("determinant of an empty matrix")
    if any(len(row) != size for row in matrix):
        raise DimensionMismatchError("determinant of a non-square matrix")
    n_vars = matrix[0][0].n
    if any(entry.n != n_vars for row in matrix for entry in row):
        raise DimensionMismatchError("matrix entries live in different numbers of variables")
    base = 1 + sum(max(_max_exponent(e.terms) for e in row) for row in matrix)
    dens = [lcm(*(_denominator(e.terms) for e in row)) for row in matrix]
    rows = [[_packed_numerators(e.terms, base, d) for e in row] for row, d in zip(matrix, dens)]
    memo: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}

    def expand(columns: tuple[int, ...]) -> dict[int, int]:
        if columns in memo:
            return memo[columns]
        row = rows[size - len(columns)]
        total: dict[int, int] = {}
        get = total.get
        for position, column in enumerate(columns):
            entry = row[column]
            if not entry:
                continue
            minor = expand(columns[:position] + columns[position + 1:]).items()
            for ka, ca in entry:
                ca = -ca if position % 2 else ca
                for kb, cb in minor:
                    key = ka + kb
                    total[key] = get(key, 0) + ca * cb
        memo[columns] = total = {k: v for k, v in total.items() if v}
        return total

    return _unpacked(n_vars, expand(tuple(range(size))), base, prod(dens))


def h_norm(fmap: PolyMap) -> Polynomial:
    """Half the squared Euclidean norm of the map: sum of squared components over 2."""
    total = Polynomial.zero(fmap.n)
    for component in fmap.components:
        total = total + component * component
    return total.scale(Fraction(1, 2))
