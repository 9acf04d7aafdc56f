"""Exact polynomial arithmetic, Jacobians, and the norm/gradient constructions."""

import itertools
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import p1, p2
from corpus import random_map, random_point, random_polynomial
from jacgate import (
    PolyMap,
    Polynomial,
    h_norm,
    jacobian_det,
    jacobian_matrix,
    matrix_det,
    parse_expr,
)
from jacgate.errors import DimensionMismatchError, ParseError
from oracle import fraction_add, fraction_mul, fraction_translate

# small exponents and coefficients, so that products collide and cancel often
rationals = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3, 6)))


def polynomials(n: int) -> st.SearchStrategy:
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), rationals, max_size=8)
    return terms.map(lambda t: Polynomial(n, t))


operand_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(polynomials(n), polynomials(n)))


def permutation_det(matrix):
    """Independent determinant oracle: signed sum over permutations."""
    size = len(matrix)
    n_vars = matrix[0][0].n
    total = Polynomial.zero(n_vars)
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        product = Polynomial.constant(n_vars, sign)
        for i in range(size):
            product = product * matrix[i][perm[i]]
        total = total + product
    return total


class TestAddMul:
    def test_add_cancellation(self):
        assert p2("x + y") + p2("-x") == p2("y")

    def test_add_identity(self):
        p = p2("3*x^2*y - 1/2")
        assert p + Polynomial.zero(2) == p

    def test_add_rational_coefficients(self):
        assert p2("1/2*x^2") + p2("1/2*x^2") == p2("x^2")

    def test_mul_difference_of_squares(self):
        assert p2("x + y") * p2("x - y") == p2("x^2 - y^2")

    def test_mul_identity(self):
        p = p2("x^3 + 2*y - 7")
        assert p * Polynomial.constant(2, 1) == p

    def test_mul_cubic_square(self):
        assert p2("x^3 + y^3") * p2("x^3 + y^3") == p2("x^6 + 2*x^3*y^3 + y^6")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            p2("x") + Polynomial.variable(3, 0)

    def test_commutative_associative_distributive(self):
        rng = Random(11)
        for _ in range(50):
            n = rng.choice((1, 2, 3))
            a = random_polynomial(rng, n)
            b = random_polynomial(rng, n)
            c = random_polynomial(rng, n)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestIntegerKernel:
    """``*`` and ``+`` against term-by-term ``Fraction`` loops: the same terms
    with the same values, and no stored zero."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(operand_pairs)
    def test_matches_fraction_oracle(self, operands):
        p, q = operands
        for result, expected in ((p * q, fraction_mul(p, q)), (p + q, fraction_add(p, q))):
            assert result == expected
            assert result.terms == expected.terms
            assert all(result.terms.values())

    def test_cancelled_key_comes_back(self):
        # x^2 and x^3 cancel on the second row; x^2 comes back on the third
        p = Polynomial(1, {(2,): Fraction(1, 2), (1,): Fraction(-1, 2), (0,): Fraction(3, 4)})
        q = Polynomial(1, {(0,): 1, (1,): 1, (2,): 1})
        product = p * q
        assert product == fraction_mul(p, q)
        assert product.terms == {
            (4,): Fraction(1, 2),
            (1,): Fraction(1, 4),
            (0,): Fraction(3, 4),
            (2,): Fraction(3, 4),
        }
        assert all(product.terms.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_and_constant_operands(self, n):
        rng = Random(n)
        p = random_polynomial(rng, n)
        for other in (Polynomial.zero(n), Polynomial.constant(n, Fraction(-2, 3))):
            for a, b in ((p, other), (other, p)):
                assert list((a * b).terms.items()) == list(fraction_mul(a, b).terms.items())
        assert (p * Polynomial.zero(n)).is_zero


def dict_sum(operands) -> dict:
    """``(sign, p)`` operands summed into a plain dict of ``Fraction``s, with
    the zero sums dropped at the end."""
    total: dict = {}
    for sign, p in operands:
        for key, c in p.terms.items():
            total[key] = total.get(key, Fraction(0)) + sign * c
    return {key: c for key, c in total.items() if c}


signs = st.sampled_from((1, -1))
signed_chains = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        polynomials(n), polynomials(n), st.lists(st.tuples(signs, polynomials(n)))
    )
)


class TestSumOrder:
    """``+`` and ``-`` on integer numerators, against a plain dict of ``Fraction``s."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(signed_chains)
    def test_chained_sums_match_dict(self, chain):
        # a + b - a + a: the keys of a alone cancel, then come back
        a, b, rest = chain
        operands = [(1, a), (1, b), (-1, a), (1, a), *rest]
        total = Polynomial.zero(a.n)
        for sign, p in operands:
            total = (total + p) if sign == 1 else (total - p)
        assert total.terms == dict_sum(operands)
        assert all(total.terms.values())

    def test_cancelled_key_appended_at_end(self):
        x, y = Polynomial(2, {(1, 0): Fraction(1, 2)}), Polynomial(2, {(0, 1): Fraction(2, 3)})
        assert list((x + y - x + x).terms.items()) == [
            ((0, 1), Fraction(2, 3)),
            ((1, 0), Fraction(1, 2)),
        ]
        assert (x + y - x - y).is_zero


class TestPartialEvaluate:
    def test_partial_simple(self):
        assert p2("x^3 + y^3 + x").partial(0) == p2("3*x^2 + 1")

    def test_partial_remark_polynomial(self):
        # x^2*((9x+10)^2 + 8) has derivative 108x(x+1)(3x+2), expanded below
        p = p1("x^2") * (p1("(9*x + 10)^2 + 8"))
        assert p.partial(0) == p1("324*x^3 + 540*x^2 + 216*x")

    def test_partial_unused_variable(self):
        assert p2("x^2").partial(1) == Polynomial.zero(2)

    def test_partial_index_range(self):
        with pytest.raises(IndexError):
            p2("x").partial(2)

    def test_evaluate_remark_polynomial(self):
        p = p1("x^2") * (p1("(9*x + 10)^2 + 8"))
        assert p.evaluate((Fraction(-1),)) == 9

    def test_evaluate_at_origin(self):
        assert p2("x^5*y - 3*x").evaluate((0, 0)) == 0

    def test_evaluate_symmetry(self):
        assert p2("x^3 + y^3").evaluate((1, -1)) == 0

    def test_evaluate_ring_homomorphism(self):
        rng = Random(23)
        for _ in range(50):
            n = rng.choice((1, 2, 3))
            a = random_polynomial(rng, n)
            b = random_polynomial(rng, n)
            point = random_point(rng, n)
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)

    def test_translate_matches_evaluation(self):
        rng = Random(31)
        for trial in range(40):
            n = rng.choice((1, 2, 3))
            p = random_polynomial(rng, n)
            offset = random_point(rng, n)
            if trial % 2:
                # zero offsets are skipped, not shifted
                offset = tuple(0 if rng.random() < 0.5 else b for b in offset)
            shifted = p.translate(offset)
            assert p.translate((0,) * n) == p
            point = random_point(rng, n)
            moved = tuple(a + b for a, b in zip(point, offset))
            assert shifted.evaluate(point) == p.evaluate(moved)


offsets = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 8))),
    st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(1, 10**15)),
)
translations = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 5)] * n), rationals, max_size=8).map(
            lambda t: Polynomial(n, t)
        ),
        st.lists(offsets, min_size=n, max_size=n),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(translations)
def test_translate_matches_fraction_oracle(case):
    p, offset = case
    shifted, expected = p.translate(offset), fraction_translate(p, offset)
    assert list(shifted.terms.items()) == list(expected.terms.items())
    assert all(isinstance(c, Fraction) and c for c in shifted.terms.values())
    assert p.translate((0,) * p.n) == p


nonzero_rationals = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 7, 12))
)
one_terms = st.integers(1, 4).flatmap(
    lambda n: st.builds(
        lambda e, c: Polynomial(n, {e: c}), st.tuples(*[st.integers(0, 3)] * n), nonzero_rationals
    )
)
coordinates = st.one_of(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0, 0.0, 1, -1, 5e-300, 1e200)),
)
polys_at_points = st.integers(1, 4).flatmap(
    lambda n: st.tuples(polynomials(n), st.lists(coordinates, min_size=n, max_size=n))
)


def fraction_value(p: Polynomial, point) -> Fraction:
    """``p`` at ``point`` one ``Fraction`` term at a time."""
    total = Fraction(0)
    for exponent, c in p.terms.items():
        value = c
        for x, k in zip(point, exponent):
            value *= Fraction(x) ** k
        total += value
    return total


class TestOneTermPowerAndEvaluate:
    """The direct one-term power and the integer ``evaluate`` against plain
    ``Fraction`` products and sums."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(one_terms)
    def test_one_term_power_matches_repeated_product(self, p):
        expected = Polynomial.constant(p.n, 1)
        for k in range(10):
            result = p**k
            assert result == expected
            assert list(result.terms.items()) == list(expected.terms.items())
            expected = fraction_mul(expected, p)

    @pytest.mark.parametrize("exponent", [-1, 1.0, Fraction(2)])
    def test_one_term_power_rejects_bad_exponent(self, exponent):
        with pytest.raises(ValueError, match="non-negative integer"):
            p2("2*x") ** exponent

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(polys_at_points)
    def test_evaluate_matches_fraction_sum(self, case):
        p, point = case
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == fraction_value(p, point)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_evaluate_zero_and_constant(self, n):
        point = [Fraction(1, 3), 0.5, 0][:n]
        assert Polynomial.zero(n).evaluate(point) == 0
        assert type(Polynomial.zero(n).evaluate(point)) is Fraction
        assert Polynomial.constant(n, Fraction(-7, 4)).evaluate(point) == Fraction(-7, 4)

    @pytest.mark.parametrize(
        "src, message, column",
        [
            ("x^33", "exponent 33 exceeds the cap 32", 3),
            (
                "x + (1234567890123456789012345678901234567890123*y)^31",
                "expression coefficients may exceed 4096 bits",
                52,
            ),
        ],
        ids=["exponent", "bits"],
    )
    def test_parser_caps_come_before_the_power(self, src, message, column):
        with pytest.raises(ParseError, match=message) as exc_info:
            parse_expr(src, ("x", "y"))
        assert (exc_info.value.line, exc_info.value.column) == (1, column)


class TestJacobian:
    def test_jacobian_matrix_cubic(self, cubic_map):
        grid = jacobian_matrix(cubic_map)
        assert grid[0][0] == p2("3*x^2 + 1")
        assert grid[0][1] == p2("3*y^2")
        assert grid[1][0] == Polynomial.zero(2)
        assert grid[1][1] == Polynomial.constant(2, 1)

    def test_jacobian_matrix_identity(self):
        grid = jacobian_matrix(PolyMap.identity(3))
        for i in range(3):
            for j in range(3):
                expected = Polynomial.constant(3, 1 if i == j else 0)
                assert grid[i][j] == expected

    def test_jacobian_matrix_swap(self):
        fmap = PolyMap([p2("y"), p2("x")])
        grid = jacobian_matrix(fmap)
        assert grid[0][0].is_zero and grid[1][1].is_zero
        assert grid[0][1] == 1 and grid[1][0] == 1

    def test_jacobian_det_cubic(self, cubic_map):
        assert jacobian_det(cubic_map) == p2("3*x^2 + 1")

    def test_jacobian_det_identity(self):
        assert jacobian_det(PolyMap.identity(4)) == Polynomial.constant(4, 1)

    def test_jacobian_det_parabola(self):
        assert jacobian_det(PolyMap([p2("x^2 - 1"), p2("y")])) == p2("2*x")

    def test_det_against_permutation_oracle(self):
        rng = Random(7)
        for _ in range(25):
            n = rng.choice((2, 3, 4))
            fmap = random_map(rng, n, max_terms=3, max_degree=3)
            grid = jacobian_matrix(fmap)
            assert jacobian_det(fmap) == permutation_det(grid)

    def test_matrix_det_non_square(self):
        with pytest.raises(DimensionMismatchError):
            matrix_det([[p2("x")], [p2("y")]])

    def test_matrix_det_empty(self):
        with pytest.raises(DimensionMismatchError, match="empty matrix"):
            matrix_det([])

    def test_matrix_det_mixed_variable_counts(self):
        # the packed expansion never multiplies two Polynomials, so it checks n up front
        with pytest.raises(DimensionMismatchError, match="different numbers of variables"):
            matrix_det([[p2("x"), p2("y")], [p3("z"), p2("x")]])


def p3(src: str) -> Polynomial:
    return parse_expr(src, ("x", "y", "z"))


def fraction_det(matrix):
    """Signed sum over permutations, on ``oracle.fraction_mul`` and ``fraction_add`` only."""
    size, n = len(matrix), matrix[0][0].n
    total = Polynomial(n)
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        product = Polynomial(n, {(0,) * n: (-1) ** inversions})
        for row, column in zip(matrix, perm):
            product = fraction_mul(product, row[column])
        total = fraction_add(total, product)
    return total


det_coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))


@st.composite
def det_matrices(draw):
    """Square matrices of sizes 1-4 in 1-3 variables, with zero entries and
    all-constant rows; every other row has one entry with a single exponent
    of 5 to 7, so that a packing base of less than the sum of the rows'
    largest exponents would carry into the next variable."""
    size, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    small = st.tuples(*[st.integers(0, 2)] * n)
    matrix = []
    for _ in range(size):
        if draw(st.booleans()):
            matrix.append([Polynomial.constant(n, draw(det_coefficients)) for _ in range(size)])
            continue
        row = [draw(st.dictionaries(small, det_coefficients, max_size=3)) for _ in range(size)]
        high = list(draw(small))
        high[draw(st.integers(0, n - 1))] = draw(st.integers(5, 7))
        row[draw(st.integers(0, size - 1))][tuple(high)] = draw(det_coefficients.filter(bool))
        matrix.append([Polynomial(n, terms) for terms in row])
    return matrix


class TestPackedDeterminant:
    @settings(max_examples=200, deadline=None)
    @given(det_matrices())
    def test_matches_fraction_oracle(self, matrix):
        det = matrix_det(matrix)
        assert det.terms == fraction_det(matrix).terms
        assert all(det.terms.values())

    def test_singular_rational_matrix_stores_no_term(self):
        r1, r2 = [p3("1/2*x + y^2"), p3("1/3*z"), p3("x*y - 5/6")], [p3("y"), p3("2/5*x^3"), p3("z")]
        r3 = [a.scale(Fraction(2, 3)) - b.scale(Fraction(5, 4)) for a, b in zip(r1, r2)]
        assert matrix_det([r1, r2, r3]).terms == {}
        assert matrix_det([[p2("1/2*x"), p2("1/3*y")], [p2("3/2*x"), p2("y")]]).terms == {}

    def test_sylvester_shaped_matrix(self):
        # the 6 x 6 Sylvester matrix of two cubics in t over Q[x]: 15 of its 36 entries are 0
        p = [p1("x^2 - 1/2"), p1("3"), p1("0"), p1("2/3*x")]
        q = [p1("x"), p1("-1/5*x^3"), p1("x + 1"), p1("7")]
        zero = Polynomial.zero(1)
        matrix = [[zero] * s + p[::-1] + [zero] * (2 - s) for s in range(3)]
        matrix += [[zero] * s + q[::-1] + [zero] * (2 - s) for s in range(3)]
        assert sum(entry.is_zero for row in matrix for entry in row) == 15
        det = matrix_det(matrix)
        assert not det.is_zero and det.terms == fraction_det(matrix).terms

    def test_dense_degree_five_map(self):
        rng = Random(30)
        monomials = [k for k in itertools.product(range(6), repeat=3) if 1 <= sum(k) <= 5]
        fmap = PolyMap(
            [Polynomial(3, {k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in monomials})
             for _ in range(3)]
        )
        assert jacobian_det(fmap).terms == fraction_det(jacobian_matrix(fmap)).terms

    def test_one_polynomial_built(self, monkeypatch):
        # the expansion runs on packed ints: only the final unpack wraps a polynomial
        built = []
        trusted = Polynomial._trusted.__func__

        def counting(cls, n, terms):
            built.append(n)
            return trusted(cls, n, terms)

        monkeypatch.setattr(Polynomial, "_trusted", classmethod(counting))
        grid = jacobian_matrix(random_map(Random(3), 4, max_terms=4, max_degree=3))
        built.clear()
        matrix_det(grid)
        assert built == [4]


class TestNormAndGradient:
    def test_h_norm_cubic(self, cubic_map):
        expected = p2("1/2*x^2 + x^4 + 1/2*x^6 + 1/2*y^2 + x*y^3 + x^3*y^3 + 1/2*y^6")
        assert h_norm(cubic_map) == expected

    def test_h_norm_identity(self):
        assert h_norm(PolyMap.identity(2)) == p2("1/2*x^2 + 1/2*y^2")

    def test_h_norm_zero_map(self):
        zero_map = PolyMap([Polynomial.zero(2), Polynomial.zero(2)])
        assert h_norm(zero_map).is_zero

    # the descent field of h: component j is the negated partial by variable j
    def test_gradient_field_quadratic(self):
        h = p2("1/2*x^2 + 1/2*y^2")
        assert PolyMap([-h.partial(j) for j in range(2)]) == PolyMap([p2("-x"), p2("-y")])

    def test_gradient_field_cubic(self, cubic_map):
        h = h_norm(cubic_map)
        assert -h.partial(0) == p2("-(x + 4*x^3 + 3*x^5 + y^3 + 3*x^2*y^3)")
        assert -h.partial(1) == p2("-(y + 3*x*y^2 + 3*x^3*y^2 + 3*y^5)")

    def test_gradient_field_constant(self):
        h = Polynomial.constant(2, 5)
        assert PolyMap([-h.partial(j) for j in range(2)]) == PolyMap(
            [Polynomial.zero(2), Polynomial.zero(2)]
        )

    def test_gradient_equals_negative_jacobian_transpose_times_map(self):
        # the descent field factors through the Jacobian transpose exactly
        rng = Random(41)
        for _ in range(20):
            n = rng.choice((2, 3))
            fmap = random_map(rng, n, max_terms=3, max_degree=3)
            h = h_norm(fmap)
            grid = jacobian_matrix(fmap)
            for j in range(n):
                column = Polynomial.zero(n)
                for i in range(n):
                    column = column + grid[i][j] * fmap.components[i]
                assert -h.partial(j) == -column
