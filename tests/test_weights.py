"""Weighted degrees, decompositions, block structure, and derived weights."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import p2
from corpus import (
    field_pass_instances,
    r2_block_instances,
    random_map,
    random_point,
    random_polynomial,
    random_qh_polynomial,
    random_weight,
)
from jacgate import (
    PolyMap,
    Polynomial,
    Weight,
    enumerate_weights,
    h_norm,
    higher_part,
    higher_part_field,
    higher_part_map,
    parse_expr,
    qh_decompose,
)
from jacgate.errors import DegenerateDirectionError, ZeroPolynomialError
from oracle import raw_weighted_degree, scale_point, script_h, script_h_sum, weighted_degree


W11 = Weight((1, 1))


@st.composite
def weighted_polynomials(draw):
    """A non-zero polynomial and a weight; about half of them quasi-homogeneous."""
    n = draw(st.integers(1, 3))
    w = Weight(draw(st.tuples(*[st.integers(1, 3)] * n)))
    exponents = st.tuples(*[st.integers(0, 5)] * n)
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))
    p = Polynomial(n, draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=6)))
    if draw(st.booleans()):
        p = higher_part(p, w)
    return p, w


@pytest.fixture
def cubic_h(cubic_map):
    return h_norm(cubic_map)


class TestWeight:
    def test_canonicalization(self):
        assert Weight((2, 4)).s == (1, 2)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Weight((0, 1))

    def test_enumerate_weights_order(self):
        weights = enumerate_weights(2, 2)
        assert [w.s for w in weights] == [(1, 1), (1, 2), (2, 1)]


class TestWeightedDegree:
    def test_monomial(self):
        assert weighted_degree(p2("x^2*y^3"), Weight((1, 2))) == 8

    def test_cubic_h_unit_weights(self, cubic_h):
        assert weighted_degree(cubic_h, W11) == 6

    def test_cubic_h_uneven_weights(self, cubic_h):
        assert weighted_degree(cubic_h, Weight((1, 2))) == 12
        assert weighted_degree(cubic_h, Weight((2, 1))) == 12

    def test_zero_polynomial_signalled(self):
        with pytest.raises(ZeroPolynomialError):
            weighted_degree(Polynomial.zero(2), W11)


class TestDecompose:
    def test_cubic_h_parts(self, cubic_h):
        decomposition = qh_decompose(cubic_h, W11)
        assert tuple(degree for degree, _ in decomposition) == (2, 4, 6)
        parts = dict(decomposition)
        assert parts[2] == p2("1/2*x^2 + 1/2*y^2")
        assert parts[4] == p2("x^4 + x*y^3")
        assert parts[6] == p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")

    def test_monomial_single_part(self):
        decomposition = qh_decompose(p2("5*x^2*y"), W11)
        assert len(decomposition) == 1

    def test_equal_weighted_terms_merge(self):
        decomposition = qh_decompose(p2("x + y^2"), Weight((2, 1)))
        assert tuple(degree for degree, _ in decomposition) == (2,)

    def test_reassembly_random(self):
        rng = Random(3)
        for _ in range(100):
            n = rng.choice((1, 2, 3))
            p = random_polynomial(rng, n)
            w = random_weight(rng, n)
            total = Polynomial.zero(n)
            for _, part in qh_decompose(p, w):
                total = total + part
            assert total == p

    def test_scaling_law_random(self):
        # definitional check: each part scales by lambda to its degree
        rng = Random(9)
        for _ in range(40):
            n = rng.choice((1, 2, 3))
            p = random_polynomial(rng, n)
            w = random_weight(rng, n)
            for degree, part in qh_decompose(p, w):
                for _ in range(3):
                    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    point = random_point(rng, n)
                    scaled = scale_point(w, lam, point)
                    assert part.evaluate(scaled) == lam**degree * part.evaluate(point)


class TestHigherPart:
    def test_cubic_h_weights(self, cubic_h):
        assert higher_part(cubic_h, W11) == p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")
        assert higher_part(cubic_h, Weight((1, 2))) == p2("1/2*y^6")
        assert higher_part(cubic_h, Weight((2, 1))) == p2("1/2*x^6")

    def test_idempotent(self):
        rng = Random(13)
        for _ in range(50):
            n = rng.choice((2, 3))
            p = random_polynomial(rng, n)
            w = random_weight(rng, n)
            top = higher_part(p, w)
            assert higher_part(top, w) == top

    def test_map_higher_part(self, cubic_map):
        assert higher_part_map(cubic_map, W11) == PolyMap([p2("x^3 + y^3"), p2("y")])

    def test_map_higher_part_quasi_homogeneous_fixed_point(self):
        fmap = PolyMap([p2("x + y^2"), p2("y")])
        assert higher_part_map(fmap, Weight((2, 1))) == fmap

    def test_map_zero_component_reported(self):
        fmap = PolyMap([p2("x"), Polynomial.zero(2)])
        with pytest.raises(ZeroPolynomialError) as exc_info:
            higher_part_map(fmap, W11)
        assert exc_info.value.component == 1


def one_part_of_degree(p: Polynomial, w: Weight, degree: int) -> bool:
    """The contract ``certify._validate_system`` reads: ``p`` is quasi-homogeneous
    of weighted degree ``degree`` exactly when it decomposes into one part, of
    that degree."""
    parts = qh_decompose(p, w)
    return len(parts) == 1 and parts[0][0] == degree


class TestEulerCheck:
    def test_homogeneous_cubic(self):
        assert one_part_of_degree(p2("x^3 + y^3"), W11, 3)

    def test_weighted_monomial(self):
        assert one_part_of_degree(p2("x^2*y^3"), Weight((1, 2)), 8)

    def test_inhomogeneous_fails(self):
        assert not one_part_of_degree(p2("x + x^2"), W11, 1)

    def test_random_qh_instances(self):
        rng = Random(29)
        for _ in range(200):
            n = rng.choice((2, 3, 4))
            w = random_weight(rng, n)
            degree = rng.randint(1, 12)
            p = random_qh_polynomial(rng, n, w, degree)
            if p is None:
                continue
            assert one_part_of_degree(p, w, degree)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(weighted_polynomials(), st.integers(-1, 2))
    def test_matches_the_polynomial_identity(self, case, shift):
        # shift 0 is the right degree for a quasi-homogeneous polynomial
        p, w = case
        degree = weighted_degree(p, w) + shift
        quasi_homogeneous = len(qh_decompose(p, w)) == 1
        expected = quasi_homogeneous and shift == 0
        assert one_part_of_degree(p, w, degree) == oracle.euler_identity(p, w, degree) == expected


class TestFieldHigherPart:
    def test_quadratic(self):
        fhp = higher_part_field(p2("1/2*x^2 + 1/2*y^2"), W11)
        assert fhp.degrees == (2, 2)
        assert fhp.field == PolyMap([p2("-x"), p2("-y")])

    def test_cubic_h(self, cubic_h):
        fhp = higher_part_field(cubic_h, W11)
        assert fhp.degrees == (6, 6)
        top = p2("1/2*x^6 + x^3*y^3 + 1/2*y^6")
        assert fhp.field == PolyMap([-top.partial(0), -top.partial(1)])

    def test_degree_drop(self):
        fhp = higher_part_field(p2("1/4*x^4 + 1/2*y^2"), W11)
        assert fhp.degrees == (4, 2)
        assert fhp.field == PolyMap([p2("-x^3"), p2("-y")])

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirectionError) as exc_info:
            higher_part_field(p2("x^2"), W11)
        assert exc_info.value.index == 1

    def test_degree_bookkeeping(self):
        # each component's weighted degree is its part degree minus the weight
        rng = Random(37)
        for _ in range(40):
            n = rng.choice((2, 3))
            fmap = random_map(rng, n, max_terms=3, max_degree=3)
            w = random_weight(rng, n)
            h = h_norm(fmap)
            if h.is_zero:
                continue
            try:
                fhp = higher_part_field(h, w)
            except DegenerateDirectionError:
                continue
            for j in range(n):
                assert (
                    weighted_degree(-fhp.field.components[j], w) == fhp.degrees[j] - w.s[j]
                )

    def test_agrees_with_every_partial_reference(self):
        # the top-down scan for the first part that depends on x_j, and s~ per
        # coordinate, give what the partial of every part and s~ per block give
        def outcome(build, h, w):
            try:
                return build(h, w)
            except DegenerateDirectionError as exc:
                return ("dead direction", exc.index)

        def library(h, w):
            fhp = higher_part_field(h, w)
            return fhp.degrees, fhp.field, fhp.sizes, fhp.block_degrees, fhp.m, fhp.raw_tilde

        rng = Random(53)
        cases = [(h_norm(f), w) for f, w in field_pass_instances(30, seed=59)]
        cases += [(h_norm(f), w) for f, w in r2_block_instances(30, seed=61)]
        for _ in range(80):
            fmap = random_map(rng, rng.choice((2, 3)), max_terms=3, max_degree=3)
            cases.append((h_norm(fmap), random_weight(rng, fmap.n)))
        dead = 0
        for h, w in cases:
            if h.is_zero:
                continue
            expected = outcome(oracle.field_by_every_partial, h, w)
            assert outcome(library, h, w) == expected
            dead += expected[0] == "dead direction"
        assert dead > 0


class TestBlockStructure:
    def test_single_block(self, cubic_h):
        bs = higher_part_field(cubic_h, W11)
        assert bs.r == 1
        assert bs.sizes == (2,)
        assert bs.block_degrees == (6,)
        assert bs.m == 6

    def test_two_blocks(self):
        bs = higher_part_field(p2("1/4*x^4 + 1/2*y^2"), W11)
        assert bs.r == 2
        assert bs.sizes == (1, 1)
        assert bs.block_degrees == (4, 2)
        assert bs.m == 8
        assert bs.perm == (0, 1)

    def test_equal_degrees_one_block(self):
        rng = Random(43)
        for _ in range(20):
            p = random_qh_polynomial(rng, 2, W11, 4, max_terms=6)
            if p is None or {i for e in p.terms for i, k in enumerate(e) if k} != {0, 1}:
                continue
            bs = higher_part_field(p, W11)
            assert bs.r == 1

    def test_top_degree_equals_weighted_degree(self):
        for fmap, w in r2_block_instances(20, seed=5):
            h = h_norm(fmap)
            bs = higher_part_field(h, w)
            assert bs.block_degrees[0] == weighted_degree(h, w)


class TestScriptH:
    def test_single_block_whole_part(self, cubic_h):
        bs = higher_part_field(cubic_h, W11)
        assert script_h(cubic_h, W11, bs, 0) == higher_part(cubic_h, W11)

    def test_two_blocks(self):
        h = p2("1/4*x^4 + 1/2*y^2")
        bs = higher_part_field(h, W11)
        assert script_h(h, W11, bs, 0) == p2("1/4*x^4")
        assert script_h(h, W11, bs, 1) == p2("1/2*y^2")

    def test_block_index_out_of_range(self, cubic_h):
        bs = higher_part_field(cubic_h, W11)
        with pytest.raises(IndexError):
            script_h(cubic_h, W11, bs, 1)

    def test_own_block_part_unchanged(self):
        h = p2("x^6 + y^2")
        bs = higher_part_field(h, W11)
        assert script_h(h, W11, bs, 1) == p2("y^2")


class TestTildeWeights:
    def test_single_block_keeps_weight(self, cubic_h):
        bs = higher_part_field(cubic_h, W11)
        assert bs.tilde == W11
        assert bs.raw_tilde == (1, 1)

    def test_two_blocks(self):
        bs = higher_part_field(p2("1/4*x^4 + 1/2*y^2"), W11)
        assert bs.raw_tilde == (2, 4)
        assert bs.tilde == Weight((1, 2))

    def test_three_blocks(self):
        h = parse_expr("x^6 + y^3 + z^2", ("x", "y", "z"))
        bs = higher_part_field(h, Weight((1, 1, 1)))
        assert bs.block_degrees == (6, 3, 2)
        assert bs.m == 36
        assert bs.raw_tilde == (6, 12, 18)
        assert bs.tilde == Weight((1, 2, 3))


class TestScriptHSum:
    def test_single_block(self, cubic_h):
        assert script_h_sum(cubic_h, W11) == higher_part(cubic_h, W11)

    def test_two_blocks(self):
        h = p2("1/4*x^4 + 1/2*y^2")
        assert script_h_sum(h, W11) == h

    def test_matches_higher_part_at_tilde(self):
        # the sum of own-block tops is the higher part at the derived weights
        for fmap, w in r2_block_instances(30, seed=77):
            h = h_norm(fmap)
            bs = higher_part_field(h, w)
            derived = bs.tilde
            assert script_h_sum(h, w) == higher_part(h, derived)
            assert raw_weighted_degree(h, bs.raw_tilde) == bs.m
