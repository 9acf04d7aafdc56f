"""Acceptance suite: every criterion with its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Expected values marked exact are asserted with rational equality;
numeric tolerances are pinned inline.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from conftest import p1, p2
from corpus import (
    field_pass_instances,
    nonneg_qh_instances,
    qh_system_instances,
    r2_block_instances,
    random_point,
    random_polynomial,
    random_qh_polynomial,
    random_weight,
)
from jacgate import (
    OutcomeKind,
    PolyMap,
    Polynomial,
    Weight,
    check_field_higher_part,
    derive_tilde_and_verify,
    find_zeros,
    gradient_only_origin,
    h_norm,
    higher_part,
    higher_part_field,
    higher_part_map,
    jacobian_det,
    only_origin,
    qh_decompose,
    unique_zero_nonneg,
    witness_from_probe,
)
from jacgate.cli import main
from oracle import (
    brute_force_scan,
    euler_identity,
    flow_descent,
    raw_weighted_degree,
    scale_point,
    script_h_sum,
)

W11 = Weight((1, 1))

EX_MAP = """\
vars: x, y
f = x^3 + y^3 + x
g = y
"""


# one line per criterion, flushed into the terminal summary by conftest
RESULT_LINES: list[str] = []


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        RESULT_LINES.append(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    RESULT_LINES.append(f"ACCEPTANCE {number} ({label}): PASS")


def test_01_example_end_to_end(tmp_path, capsys):
    with criterion(1, "cubic example end-to-end"):
        started = time.perf_counter()
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        fmap = PolyMap([x**3 + y**3 + x, y])

        assert jacobian_det(fmap) == p2("3*x^2 + 1")

        h = h_norm(fmap)
        assert h == p2("1/2*x^2 + x^4 + 1/2*x^6 + 1/2*y^2 + x*y^3 + x^3*y^3 + 1/2*y^6")

        expected_tops = {
            (1, 1): p2("1/2*x^6 + x^3*y^3 + 1/2*y^6"),
            (1, 2): p2("1/2*y^6"),
            (2, 1): p2("1/2*x^6"),
        }
        for s, expected in expected_tops.items():
            top = higher_part(h, Weight(s))
            assert top == expected
            outcome = unique_zero_nonneg(top, Weight(s))
            assert outcome.kind is OutcomeKind.NONTRIVIAL_ZERO

        top_map = higher_part_map(fmap, W11)
        assert top_map == PolyMap([p2("x^3 + y^3"), p2("y")])
        assert only_origin(list(top_map.components), W11).kind is OutcomeKind.ONLY_ORIGIN

        path = tmp_path / "ex.map"
        path.write_text(EX_MAP)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "injective by MapHigherPart" in out and "s=(1, 1)" in out

        assert time.perf_counter() - started < 5.0


def test_02_remark_golden():
    with criterion(2, "nonneg polynomial with extra gradient zeros"):
        p = p1("x^2") * p1("(9*x + 10)^2 + 8")
        dp = p.partial(0)
        assert dp == p1("324*x^3 + 540*x^2 + 216*x")
        for root in (Fraction(0), Fraction(-1), Fraction(-2, 3)):
            assert dp.evaluate((root,)) == 0
        assert p.evaluate((Fraction(-1),)) == 9


def test_03_euler_identity_suite():
    with criterion(3, "Euler identity on 1000 random quasi-homogeneous polynomials"):
        rng = Random(301)
        checked = 0
        while checked < 1000:
            n = rng.choice((2, 3, 4))
            w = random_weight(rng, n, 3)
            degree = rng.randint(1, 12)
            p = random_qh_polynomial(rng, n, w, degree)
            if p is None:
                continue
            parts = qh_decompose(p, w)
            assert [d for d, _ in parts] == [degree], f"Euler identity failed: {p!r} at {w!r}"
            assert euler_identity(p, w, degree), f"Euler identity failed: {p!r} at {w!r}"
            checked += 1
        assert checked == 1000


def test_04_decomposition_round_trip():
    with criterion(4, "decomposition round trip and scaling law, 1000 instances"):
        rng = Random(401)
        for _ in range(1000):
            n = rng.choice((1, 2, 3))
            p = random_polynomial(rng, n, max_terms=5, max_degree=6)
            w = random_weight(rng, n, 3)
            decomposition = qh_decompose(p, w)
            total = Polynomial.zero(n)
            for _, part in decomposition:
                total = total + part
            assert total == p
            for degree, part in decomposition:
                for _ in range(3):
                    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(3):
                        a = random_point(rng, n)
                        scaled = scale_point(w, lam, a)
                        assert part.evaluate(scaled) == lam**degree * part.evaluate(a)


def test_05_split_block_top_identity():
    with criterion(5, "own-block tops vs higher part at derived weights, 100 maps"):
        instances = r2_block_instances(100, seed=501)
        assert len(instances) == 100
        for fmap, w in instances:
            h = h_norm(fmap)
            bs = higher_part_field(h, w)
            assert bs.r >= 2
            derived = bs.tilde
            assert higher_part(h, derived) == script_h_sum(h, w)
            assert raw_weighted_degree(h, bs.raw_tilde) == bs.m


def test_06_field_success_transfers_to_map():
    with criterion(6, "field criterion success transfers to derived map criterion"):
        instances = field_pass_instances(60, seed=601)
        certified = 0
        inconclusive = 0
        for fmap, w in instances:
            field_result = check_field_higher_part(fmap, w)
            if not field_result.succeeded:
                continue
            certified += 1
            # a refutation at the derived weight raises InternalInconsistencyError
            _, map_result = derive_tilde_and_verify(fmap, field_result)
            if map_result.outcome.is_inconclusive:
                inconclusive += 1
                continue
            assert map_result.succeeded
        assert certified >= 40, f"corpus produced only {certified} certified instances"
        assert inconclusive < 0.10 * certified, (
            f"{inconclusive} inconclusive out of {certified}"
        )
        print(f"  [criterion 6: {certified} certified, {inconclusive} inconclusive]")


def test_07_gradient_and_unique_zero_agree():
    with criterion(7, "gradient and unique-zero checks agree on 200 nonneg inputs"):
        conclusive = (OutcomeKind.ONLY_ORIGIN, OutcomeKind.NONTRIVIAL_ZERO)
        agreements = 0
        inconclusive = 0
        for p, w in nonneg_qh_instances(200, seed=701):
            a = unique_zero_nonneg(p, w)
            b = gradient_only_origin(p, w)
            if a.kind in conclusive and b.kind in conclusive:
                assert a.kind is b.kind, f"disagreement on {p!r} at {w!r}"
                agreements += 1
            else:
                inconclusive += 1
        assert agreements + inconclusive == 200
        assert agreements >= 150
        print(f"  [criterion 7: {agreements} agreements, {inconclusive} inconclusive]")


def test_08_oracle_agreement():
    with criterion(8, "certifier agrees with the grid oracle on 100 systems"):
        mismatches = []
        inconclusive = 0
        for system, w in qh_system_instances(100, seed=801):
            cert = only_origin(system, w)
            coarse, fine = (12, 20) if system[0].n == 2 else (6, 10)
            if cert.kind is OutcomeKind.ONLY_ORIGIN:
                for resolution in (coarse, fine):
                    witness = brute_force_scan(system, resolution)
                    if witness is not None:
                        mismatches.append((system, witness))
            elif cert.kind is OutcomeKind.NONTRIVIAL_ZERO:
                if brute_force_scan(system, coarse) is None and (
                    brute_force_scan(system, fine) is None
                ):
                    mismatches.append((system, None))
            else:
                inconclusive += 1
        assert not mismatches, f"{len(mismatches)} oracle mismatches: {mismatches[:2]}"
        print(f"  [criterion 8: {inconclusive} inconclusive of 100]")


def test_09_numeric_dynamics_goldens():
    with criterion(9, "zero finding, witness pair, flow monotonicity"):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        fmap = PolyMap([x**3 + y**3 + x, y])
        report = find_zeros(fmap, starts=64, box=5.0)
        assert len(report.zeros) == 1
        assert report.zeros[0].residual < 1e-10
        assert report.zeros[0].index == 1  # (-1)^2

        parabola = PolyMap([p2("x^2 - 1"), p2("y")])
        pair = witness_from_probe(parabola, (Fraction(1), Fraction(0)))
        assert pair is not None and pair.exact
        assert pair.a == (Fraction(-1), Fraction(0))
        assert pair.b == (Fraction(1), Fraction(0))
        assert parabola.evaluate(pair.a) == parabola.evaluate(pair.b)

        for start in ((1.0, 1.0), (-2.0, 0.5), (0.3, -1.7)):
            trajectory = flow_descent(fmap, start)
            values = [h for _, _, h in trajectory.samples]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_10_deterministic_reports(tmp_path, capsys):
    with criterion(10, "byte-identical reports for identical seeds"):
        path = tmp_path / "ex.map"
        path.write_text(EX_MAP)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        main(["check", str(path), "--seed", "3", "--json", str(first)])
        main(["check", str(path), "--seed", "3", "--json", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["schema"] == 1
