"""The exact planar decisions: only-origin by Sturm sequences on y = +-1 and at
(+-1, 0), and det DF != 0 on all of R^2.  They are compared with the box paths
on every system the verdict visits, tried on random quasi-homogeneous systems
of known answer, and every witness they report is re-checked exactly."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jacgate.certify
import jacgate.criteria
import jacgate.dynamics
import jacgate.univariate
from conftest import p2
from corpus import (
    exponents_of_weighted_degree,
    field_pass_instances,
    r2_block_instances,
    random_map,
)
from jacgate import (
    AnalysisConfig,
    Criterion,
    JacStatus,
    OutcomeKind,
    PolyMap,
    Polynomial,
    VerdictKind,
    Weight,
    check_assumptions,
    h_norm,
    higher_part,
    higher_part_field,
    higher_part_map,
    jacobian_det,
    only_origin,
    parse_expr,
    verdict,
)
from jacgate.certify import _only_origin_boxes
from jacgate.criteria import _check_assumptions_on_box
from test_criteria import seeded_maps
from jacgate.univariate import (
    bivariate,
    count_roots,
    evaluate,
    fibre,
    gcd,
    squarefree,
    sturm,
    swap,
)

X, Y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)

# the planar named maps of the check-corpus benchmark (the seventh, tri3, has n = 3)
NAMED = {
    "cubic": PolyMap([p2("x^3 + y^3 + x"), p2("y")]),
    "shear": PolyMap([p2("x + y^2"), p2("y")]),
    "fold": PolyMap([p2("x^2 - y"), p2("y")]),
    "cusp": PolyMap([p2("x^3 - 2*x + y"), p2("y")]),
    "tinydet": PolyMap([p2("1/3*x^3 + 1/1000000000000*x"), p2("y")]),
    "coupled3": PolyMap([p2("x + x^3 + y^3"), p2("y + y^3 + 1/3*x^3")]),
}

F = Fraction
# (alpha, beta, gamma) of the check-jacbox maps (x + alpha (x - beta y)^3 +
# gamma (x + y)^5, y), whose det DF = 1 + 3 alpha (x - beta y)^2 + 5 gamma (x + y)^4 >= 1
JACBOX = (
    (F(1, 5), F(1), F(0)), (F(1, 5), F(2), F(0)), (F(1, 5), F(-1, 2), F(1, 100)),
    (F(1, 20), F(2), F(1, 100)), (F(1, 20), F(-1, 2), F(1, 1000)),
    (F(1, 50), F(-1, 2), F(1, 1000)), (F(1, 50), F(1, 2), F(1, 1000)),
    (F(1, 10), F(2), F(0)), (F(1, 10), F(-1, 2), F(1, 100)),
    (F(1, 20), F(2), F(0)), (F(1, 50), F(2), F(0)), (F(1, 20), F(1), F(0)),
    (F(1, 10), F(1, 2), F(0)), (F(1, 20), F(1, 2), F(0)), (F(1, 10), F(-1, 2), F(0)),
    (F(1, 20), F(-1, 2), F(1, 100)), (F(1, 10), F(1), F(0)), (F(1, 50), F(2), F(1, 1000)),
    (F(1, 20), F(2), F(1, 1000)), (F(1, 10), F(2), F(1, 1000)),
    (F(1, 50), F(1, 2), F(0)), (F(1, 5), F(-1, 2), F(0)),
)


def jacbox_map(alpha, beta, gamma) -> PolyMap:
    return PolyMap([X + (X - Y * beta) ** 3 * alpha + (X + Y) ** 5 * gamma, Y])


def map_with_det(det: Polynomial) -> PolyMap:
    """(the integral of ``det`` in x, y), whose det DF is ``det``."""
    integral = Polynomial(2, {(i + 1, j): c / (i + 1) for (i, j), c in det.terms.items()})
    return PolyMap([integral, Y])


def corpus_maps() -> list[PolyMap]:
    """Planar maps of ``tests/corpus.py``: field-criterion, split-block and random maps."""
    maps = [fmap for fmap, _ in field_pass_instances(12, seed=41) if fmap.n == 2]
    maps += [fmap for fmap, _ in r2_block_instances(8, seed=43) if fmap.n == 2]
    rng = Random(47)
    maps += [random_map(rng, 2, 3, 3) for _ in range(8)]
    return maps


def assert_common_zero(polys, point) -> None:
    """``point`` is a zero of every polynomial in ``polys``: exactly, or on a line
    where its interval coordinate holds a root of the polynomials' gcd there."""
    if all(isinstance(c, Fraction) for c in point):
        assert all(p.evaluate(point) == 0 for p in polys), point
        return
    (k,) = [i for i, c in enumerate(point) if isinstance(c, tuple)]
    rows = [bivariate(p.terms) for p in polys]
    if k == 1:
        rows = [swap(row) for row in rows]
    common: list = []
    for row in rows:
        common = gcd(common, fibre(row, point[1 - k]))
    roots = squarefree(common)
    lo, hi = point[k]
    assert len(roots) > 1 and lo < hi and evaluate(roots, lo) and evaluate(roots, hi), point
    # a Sturm count of at least one root strictly inside proves the zero
    assert count_roots(sturm(roots), lo, hi) >= 1, point


@pytest.fixture
def visited(monkeypatch):
    """Every (system, weight) the library certifies while the test runs."""
    seen = []
    original = jacgate.criteria.only_origin

    def recording(system, w, cfg=None):
        seen.append((tuple(system), w))
        return original(system, w, cfg)

    monkeypatch.setattr(jacgate.criteria, "only_origin", recording)
    return seen


class TestAgreementWithBoxes:
    def test_only_origin_never_conflicts_with_branch_and_bound(self, visited):
        for fmap in [*NAMED.values(), *corpus_maps()]:
            verdict(fmap)
        systems = dict.fromkeys(visited)  # first weight of each distinct system, in order
        conclusive = (OutcomeKind.ONLY_ORIGIN, OutcomeKind.NONTRIVIAL_ZERO)
        kinds = Counter()
        for system, w in systems:
            exact = only_origin(system, w)
            assert exact.kind in conclusive
            if exact.is_nontrivial_zero:
                assert exact.exact and (exact.max_depth, exact.boxes) == (0, 0)
                assert_common_zero(system, exact.witness)
            boxes = _only_origin_boxes(system, w)
            if boxes.kind in conclusive:
                assert boxes.kind is exact.kind, (system, w)
            kinds[exact.kind, boxes.kind] += 1
        assert kinds[OutcomeKind.ONLY_ORIGIN, OutcomeKind.ONLY_ORIGIN] >= 10, kinds
        assert kinds[OutcomeKind.NONTRIVIAL_ZERO, OutcomeKind.NONTRIVIAL_ZERO] >= 10, kinds

    def test_det_never_conflicts_with_the_box(self):
        statuses = Counter()
        jacbox = [jacbox_map(*stratum) for stratum in JACBOX[::4]]
        for fmap in [*NAMED.values(), *corpus_maps(), *jacbox]:
            exact = check_assumptions(fmap)
            on_box = _check_assumptions_on_box(fmap)
            statuses[exact.jac_status] += 1
            assert exact.jac_status is not JacStatus.ASSUMED, fmap
            if exact.jac_status is JacStatus.VIOLATION_FOUND:
                assert exact.jac_exact
                assert_common_zero([jacobian_det(fmap)], exact.jac_point)
                # the box proof covers [-10, 10]^2 only: a zero outside it is no conflict
                if on_box.jac_status is JacStatus.VERIFIED_ON_BOX:
                    ends = [c if isinstance(c, tuple) else (c,) for c in exact.jac_point]
                    assert any(min(abs(v) for v in end) > 10 for end in ends)
            else:
                assert on_box.jac_status is not JacStatus.VIOLATION_FOUND, fmap
        assert statuses[JacStatus.VIOLATION_FOUND] >= 10
        assert statuses[JacStatus.VERIFIED_EVERYWHERE] >= 10


class TestWitnessesAreExact:
    @pytest.mark.parametrize("family", ["named", "seeded"])
    def test_every_planar_witness_and_violation_rechecks(self, family):
        maps = list(NAMED.values()) if family == "named" else list(seeded_maps(20, 29).values())
        witnesses = violations = 0
        for fmap in maps:
            report = verdict(fmap)
            h = h_norm(fmap)
            systems = {
                Criterion.MAP_HIGHER_PART: lambda w: higher_part_map(fmap, w).components,
                Criterion.H_NORM_HIGHER_PART: lambda w: [higher_part(h, w)],
                Criterion.FIELD_HIGHER_PART: lambda w: higher_part_field(h, w).field.components,
            }
            for criterion, results in report.search.attempts.items():
                for result in results:
                    outcome = result.outcome
                    if outcome is not None and outcome.is_nontrivial_zero:
                        assert outcome.exact
                        assert_common_zero(systems[criterion](result.weight), outcome.witness)
                        witnesses += 1
            if report.assumptions.jac_status is JacStatus.VIOLATION_FOUND:
                assert report.assumptions.jac_exact
                assert_common_zero([jacobian_det(fmap)], report.assumptions.jac_point)
                violations += 1
        assert witnesses >= 20 and violations >= 2


def qh(rng_terms, s, degree):
    """A quasi-homogeneous polynomial of weighted ``degree`` from (index, coefficient) draws."""
    pool = exponents_of_weighted_degree(2, s, degree)
    return Polynomial(2, {pool[i % len(pool)]: c for i, c in rng_terms}) if pool else None


coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
term_draws = st.lists(st.tuples(st.integers(0, 50), coefficients), min_size=1, max_size=4)
weights = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda s: Weight(s).s)
nonzero_small = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestRandomSystems:
    @SETTINGS
    @given(
        weights,
        st.sampled_from(("plane", "x-axis", "y-axis")),
        nonzero_small,
        nonzero_small,
        st.lists(st.tuples(st.integers(1, 8), term_draws), min_size=1, max_size=2),
    )
    def test_known_rational_zero_is_found(self, s, where, x0, y0, parts):
        zero = Fraction(0)
        point = {"plane": (x0, y0), "x-axis": (x0, zero), "y-axis": (zero, y0)}[where]
        system = []
        for degree, draws in parts:
            g = qh(draws, s, degree)
            # a monomial of the same degree that does not vanish at the point
            fixers = [
                e for e in exponents_of_weighted_degree(2, s, degree)
                if Polynomial.monomial(2, e).evaluate(point) != 0
            ]
            assume(g is not None and fixers)
            m = Polynomial.monomial(2, fixers[0])
            g = g - m * (g.evaluate(point) / m.evaluate(point))
            assume(not g.is_zero)
            system.append(g)
        outcome = only_origin(system, Weight(s))
        assert outcome.is_nontrivial_zero and outcome.exact
        assert_common_zero(system, outcome.witness)

    @SETTINGS
    @given(
        weights,
        st.integers(1, 2),
        st.lists(term_draws, max_size=2),
        st.lists(term_draws, max_size=1),
    )
    def test_positive_sum_of_squares_vanishes_only_at_origin(self, s, k, squares, others):
        a, b = s
        half = a * b * k
        total = X ** (2 * b * k) + Y ** (2 * a * k)
        for draws in squares:
            h = qh(draws, s, half)
            total = total + h * h
        system = [total]
        # any other quasi-homogeneous polynomial keeps the origin the only common zero
        for draws in others:
            g = qh(draws, s, half)
            if g is not None and not g.is_zero:
                system.append(g)
        outcome = only_origin(system, Weight(s))
        assert outcome.is_only_origin and (outcome.max_depth, outcome.boxes) == (0, 0)

    @SETTINGS
    @given(
        st.lists(coefficients, min_size=1, max_size=3),
        st.sampled_from((1, 2, 3)),
        nonzero_small,
        nonzero_small,
    )
    def test_det_with_a_rational_zero_is_found(self, coeffs, power, x0, y0):
        # det = sum c_k (x - x0)^k (y - y0)^k plus (x - x0)^power: zero at (x0, y0)
        u, v = X - x0, Y - y0
        det = u**power
        for k, c in enumerate(coeffs, start=1):
            det = det + (u * v) ** k * c
        fmap = map_with_det(det)
        assert jacobian_det(fmap) == det
        assumptions = check_assumptions(fmap)
        assert assumptions.jac_status is JacStatus.VIOLATION_FOUND and assumptions.jac_exact
        assert_common_zero([det], assumptions.jac_point)

    @SETTINGS
    @given(st.lists(coefficients, min_size=1, max_size=3), nonzero_small, nonzero_small)
    def test_positive_det_is_proven_everywhere(self, coeffs, c, shift):
        # 1 + c^2 (x - shift y)^2 + sum of squares of products: >= 1 on R^2
        det = Polynomial.constant(2, 1) + (X - Y * shift) ** 2 * (c * c)
        for k, coefficient in enumerate(coeffs, start=1):
            det = det + (X ** k * Y + coefficient) ** 2 * abs(coefficient)
        assumptions = check_assumptions(map_with_det(det))
        assert assumptions.jac_status is JacStatus.VERIFIED_EVERYWHERE


class TestWork:
    @pytest.fixture
    def work(self, monkeypatch):
        """Calls of ``gauss_newton`` and ``Bisection`` through the names the code
        looks up: each module holds its own."""
        counts = Counter()
        for module, name in (
            (jacgate.certify, "gauss_newton"),
            (jacgate.criteria, "gauss_newton"),
            (jacgate.dynamics, "gauss_newton"),
            (jacgate.certify, "Bisection"),
            (jacgate.criteria, "Bisection"),
        ):
            original = getattr(module, name)

            def counting(*args, _original=original, _key=(module.__name__, name), **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_planar_paths_make_no_float_or_box_work(self, work):
        maps = [*NAMED.values(), *(jacbox_map(*stratum) for stratum in JACBOX)]
        for fmap in maps:
            check_assumptions(fmap)
            verdict(fmap, AnalysisConfig(s_max=1))
        certify_and_criteria = {k: v for k, v in work.items() if k[0] != "jacgate.dynamics"}
        assert certify_and_criteria == {}

    def test_witness_search_keeps_its_newton_steps(self, work):
        report = verdict(NAMED["cusp"])
        assert report.kind is VerdictKind.NOT_INJECTIVE
        assert work[("jacgate.dynamics", "gauss_newton")] > 0
        assert {k for k in work if k[0] != "jacgate.dynamics"} == set()

    def test_box_paths_still_run_for_three_variables(self, work):
        names = ("x", "y", "z")
        tri3 = PolyMap(
            [parse_expr(f, names) for f in ("x^5 + y^2 + z", "y^3 + z^2", "z^2*x + z")]
        )
        check_assumptions(tri3)
        assert work[("jacgate.criteria", "Bisection")] == 1

    @pytest.mark.parametrize("stratum", JACBOX, ids=[f"jacbox-{k:02d}" for k in range(len(JACBOX))])
    def test_jacbox_det_proven_on_the_plane(self, stratum):
        fmap = jacbox_map(*stratum)
        assert check_assumptions(fmap).jac_status is JacStatus.VERIFIED_EVERYWHERE
        assert verdict(fmap, AnalysisConfig(s_max=1)).kind is VerdictKind.INJECTIVE


class TestHostileInput:
    def test_obvious_det_zero_costs_no_resultant(self, monkeypatch):
        # det DF = 30 (x + y + 1)^29: its line y = 0 has the root x = -1, so
        # the violation is proven before any resultant is built
        calls = [0]
        resultant = jacgate.univariate.resultant

        def counting(*args):
            calls[0] += 1
            return resultant(*args)

        monkeypatch.setattr(jacgate.univariate, "resultant", counting)
        assumptions = check_assumptions(PolyMap([p2("(x+y+1)^30"), p2("y")]))
        assert assumptions.jac_status is JacStatus.VIOLATION_FOUND and assumptions.jac_exact
        assert assumptions.jac_point == (Fraction(-1), Fraction(0))
        assert calls[0] == 0
        # a det with no zero on y = 0 does build the two resultants
        check_assumptions(jacbox_map(F(1, 5), F(-1, 2), F(1, 100)))
        assert calls[0] == 2

    def test_line_of_zeros_in_y_alone(self):
        # det DF = (x^2 + 1)(y - 1/3)(y^2 + 2): zero on the whole line y = 1/3
        det = (X * X + 1) * (Y - Fraction(1, 3)) * (Y * Y + 2)
        fmap = map_with_det(det)
        assumptions = check_assumptions(fmap)
        assert assumptions.jac_status is JacStatus.VIOLATION_FOUND
        assert assumptions.jac_point == (Fraction(0), Fraction(1, 3))

    def test_critical_zero_on_an_irrational_line_takes_the_box_path(self):
        # det DF = x^2 + (y^2 - 2)^2 vanishes only at (0, +-sqrt 2): a critical
        # point on an irrational line, which no rational line shows
        det = X * X + (Y * Y - 2) ** 2
        fmap = map_with_det(det)
        assert jacgate.univariate.planar_zero(det.terms) is jacgate.univariate.UNDECIDED
        assert check_assumptions(fmap) == _check_assumptions_on_box(fmap)

    def test_rational_critical_line_after_an_irrational_one(self):
        # the critical zeros (0, -sqrt 2), (0, sqrt 2) and (0, 1) lie on no
        # sampled line; the gcd's root -sqrt 2 comes before its root 1, which
        # is still decided on its line
        det = (X * X + (Y * Y - 2) ** 2) * (X * X + (Y - 1) ** 2)
        assumptions = check_assumptions(map_with_det(det))
        assert assumptions.jac_status is JacStatus.VIOLATION_FOUND and assumptions.jac_exact
        assert assumptions.jac_point == (Fraction(0), Fraction(1))

    @pytest.mark.parametrize(
        "last, status",
        [(Y ** 31, JacStatus.VIOLATION_FOUND), (Y ** 30, JacStatus.ASSUMED)],
        ids=["zero_off_y0", "positive"],
    )
    def test_high_degree_det_takes_the_box_path(self, monkeypatch, last, status):
        # det DF = 1 + x^2 + (x + y)^30 + y^31 (or + y^30) has no zero on y = 0,
        # and Res_x(p, p_x) would have y-degree up to 900: the box path decides
        # instead, as it does for n >= 3, with no resultant built
        calls = Counter()
        resultant = jacgate.univariate.resultant
        on_box = jacgate.criteria._check_assumptions_on_box

        def counting_resultant(*args):
            calls["resultant"] += 1
            return resultant(*args)

        def counting_on_box(*args):
            calls["on_box"] += 1
            return on_box(*args)

        monkeypatch.setattr(jacgate.univariate, "resultant", counting_resultant)
        monkeypatch.setattr(jacgate.criteria, "_check_assumptions_on_box", counting_on_box)
        det = X * X + 1 + (X + Y) ** 30 + last
        assert check_assumptions(map_with_det(det)).jac_status is status
        assert calls == Counter(on_box=1)
