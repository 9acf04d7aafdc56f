"""Command-line interface: exit codes, reports, determinism."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jacgate import Polynomial, jacobian_det, parse_map_file, print_poly
from jacgate.cli import main

EX_MAP = """\
# the running cubic example
vars: x, y
f = x^3 + y^3 + x
g = y
"""

PARABOLA_MAP = """\
vars: x, y
f = x^2 - 1
g = y
"""

SHEAR_MAP = """\
vars: x, y
f = x + y^2
g = y
"""


@pytest.fixture
def ex_file(tmp_path):
    path = tmp_path / "ex.map"
    path.write_text(EX_MAP)
    return str(path)


class TestCheck:
    def test_injective_exit_zero(self, ex_file, capsys):
        code = main(["check", ex_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "injective by MapHigherPart" in out
        assert "s=(1, 1)" in out

    def test_not_injective_exit_two(self, tmp_path, capsys):
        path = tmp_path / "p.map"
        path.write_text(PARABOLA_MAP)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "witness pair" in out

    @pytest.mark.parametrize(
        "text", ["vars: x, y\nf = 1\ng = 1\n", "vars: x\nf = 3\n"], ids=["plane", "line"]
    )
    def test_constant_map_not_injective(self, tmp_path, capsys, text):
        # every point has the same image, and F(0) != 0 stops the analysis before any criterion
        path, report = tmp_path / "c.map", tmp_path / "c.json"
        path.write_text(text)
        assert main(["check", str(path), "--json", str(report)]) == 2
        assert "witness pair (exact)" in capsys.readouterr().out
        data = json.loads(report.read_text())
        (witness,) = data["witnesses"]
        assert witness["exact"] and witness["a"] != witness["b"]
        assert data["verdict"]["note"] == (
            "hypothesis f_zero_at_origin is violated, so the criteria were not tried"
        )
        assert data["attempts"] == []

    def test_singular_map_not_injective(self, tmp_path, capsys):
        # det DF of (x, x) is identically zero: the violation point is the exact
        # origin, and Newton's least-squares steps on a singular Jacobian find a pair
        text = "vars: x, y\nf = x\ng = x\n"
        path, report = tmp_path / "xx.map", tmp_path / "xx.json"
        path.write_text(text)
        assert main(["check", str(path), "--json", str(report)]) == 2
        assert "det DF vanishes at x = 0, y = 0 (exact)" in capsys.readouterr().out
        data = json.loads(report.read_text())
        jac = data["assumptions"]["jac_nonvanishing"]
        assert (jac["status"], jac["point"], jac["exact"]) == ("violation_found", ["0", "0"], True)
        (witness,) = data["witnesses"]
        a, b = (tuple(Fraction(c) for c in witness[k]) for k in ("a", "b"))
        fmap, _ = parse_map_file(text)
        assert witness["exact"] and a != b
        assert fmap.evaluate(a) == fmap.evaluate(b)

    def test_witness_pair_named_by_variable(self, capsys):
        # the text report renders both points as the assumptions line does
        fold = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "fold.map"
        assert main(["check", str(fold)]) == 2
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "witness pair" in ln]
        assert "Fraction(" not in line
        assert re.fullmatch(
            r"witness pair \(exact\): a: x = \S+, y = \S+; b: x = \S+, y = \S+", line
        )

    def test_violated_hypothesis_skips_the_certificates(self, tmp_path, monkeypatch):
        # a fold along x + y = -2 in three variables: det DF vanishes there, so
        # no criterion is tried and no higher part is certified, only the pair searched
        import jacgate.certify
        import jacgate.criteria

        calls = [0]
        original = jacgate.certify.only_origin

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for module in (jacgate.certify, jacgate.criteria):
            monkeypatch.setattr(module, "only_origin", counting)
        path, report = tmp_path / "fold3.map", tmp_path / "fold3.json"
        path.write_text(
            "vars: x, y, z\n"
            "f = (x + y) + 1/4*(x + y)^2\n"
            "g = (x + y) + 1/4*(x + y)^2 + (y + z)\n"
            "h = y + 2*z\n"
        )
        assert main(["check", str(path), "--json", str(report)]) == 2
        data = json.loads(report.read_text())
        (witness,) = data["witnesses"]
        assert witness["exact"]
        assert (witness["a"], witness["b"]) == (["1/8", "-13/8", "-9/4"], ["-7/8", "-13/8", "-9/4"])
        assert data["attempts"] == []
        assert "hypothesis jac_nonvanishing is violated" in data["verdict"]["note"]
        assert calls[0] == 0

    def test_three_variable_stretch_spends_few_boxes(self, tmp_path):
        # MapHigherPart holds at (1, 1, 1), but det DF != 0 is only assumed; each
        # only-origin search stops at its first leaf, which keeps the 111
        # attempts to a few hundred boxes, not the budget of 200,000 each
        path, report = tmp_path / "stretch.map", tmp_path / "stretch.json"
        path.write_text("vars: x, y, z\nf = x + (x-y)^3\ng = y + (y-z)^3\nh = z\n")
        assert main(["check", str(path), "--json", str(report)]) == 3
        data = json.loads(report.read_text())
        note = data["verdict"]["note"]
        assert "MapHigherPart fired at weight (1, 1, 1)" in note and "assumed" in note
        boxes = sum(a["outcome"]["boxes"] for a in data["attempts"] if a["outcome"])
        assert boxes <= 5000

    def test_unknown_exit_three(self, tmp_path):
        path = tmp_path / "s.map"
        path.write_text(SHEAR_MAP)
        assert main(["check", str(path), "--weights-max", "1"]) == 3

    def test_malformed_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.map"
        path.write_text("vars: x, y\nf = x +\n")
        assert main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self):
        assert main(["check", "/nonexistent/f.map"]) == 1

    @pytest.mark.parametrize("expr", ["x^100000000", "(x+y+1)^400"])
    def test_oversized_input_exit_one_fast(self, tmp_path, capsys, expr):
        path = tmp_path / "big.map"
        path.write_text(f"vars: x, y\nf = {expr}\ng = y\n")
        started = time.perf_counter()
        assert main(["check", str(path)]) == 1
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and "(line 2," in err

    @pytest.mark.parametrize(
        "command, f",
        [
            ("check", f"1{'0' * 400}*x + x^3"),
            ("zeros", f"1{'0' * 400}*x + x^3"),
            ("check", f"1{'0' * 200}*x^3 + x"),  # the H top has a 10^400 coefficient
        ],
        ids=["check", "zeros", "check_h_top"],
    )
    def test_coefficient_beyond_float_range_exit_one(self, tmp_path, capsys, command, f):
        path = tmp_path / "huge.map"
        path.write_text(f"vars: x, y\nf = {f}\ng = y\n")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: a coefficient is beyond float range")

    @pytest.mark.parametrize("command", ["check", "zeros"])
    @pytest.mark.parametrize("box", ["-10", "0", "nan", "inf"])
    def test_box_not_positive_and_finite_exit_one(self, tmp_path, capsys, command, box):
        # for n = 3 the radius bounds the det DF proof: one that is not positive
        # and finite would back a proof on no box at all
        path = tmp_path / "odd.map"
        path.write_text("vars: x, y, z\nf = x + x^3\ng = y + y^3\nh = z + z^3\n")
        assert main([command, str(path), "--box", box]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --box must be positive and finite, got {float(box)}\n"

    @pytest.mark.parametrize("command", ["check", "certify"])
    def test_negative_depth_exit_one(self, tmp_path, capsys, command):
        path = tmp_path / "s.map"
        path.write_text("vars: x, y, z\ng1 = x^3 + y^3\ng2 = y\ng3 = z\n")
        flags = ["--weights", "1,1,1"] if command == "certify" else []
        assert main([command, str(path), *flags, "--depth", "-1"]) == 1
        assert capsys.readouterr().err == "error: --depth must be a non-negative integer, got -1\n"
        # depth 0 stays valid
        assert main([command, str(path), *flags, "--depth", "0"]) in (0, 2, 3)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_weights_max_below_one_exit_one(self, capsys, bound):
        # fold.map violates det DF != 0, so the weight search never runs: the
        # flag is refused up front, not by the search
        fold = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "fold.map"
        assert main(["check", str(fold), "--weights-max", bound]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --weights-max must be a positive integer, got {bound}\n"

    def test_weights_max_over_the_cap_exit_one_fast(self, ex_file, capsys):
        started = time.perf_counter()
        assert main(["check", ex_file, "--weights-max", "257"]) == 1
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == "error: 257^2 candidate weights exceed the cap 65536\n"

    def test_json_deterministic(self, ex_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["check", ex_file, "--seed", "7", "--json", str(a)])
        main(["check", ex_file, "--seed", "7", "--json", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_schema_fields(self, ex_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["check", ex_file, "--json", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        for key in ("version", "input", "assumptions", "attempts", "verdict", "witnesses", "config"):
            assert key in payload
        assert payload["verdict"]["kind"] == "injective"
        assert payload["verdict"]["by"] == "MapHigherPart"
        assert payload["verdict"]["weight"] == [1, 1]
        assert payload["config"]["seed"] == 0


    @pytest.mark.parametrize(
        "text, line, status, point",
        [
            (EX_MAP, "det DF != 0 proven on all of R^2", "verified_everywhere", None),
            (
                "vars: x, y\nf = x^3 - 2*x + y\ng = y\n",
                "det DF vanishes at x in (-5/6, -25/32), y = 0 (exact)",
                "violation_found",
                [["-5/6", "-25/32"], "0"],
            ),
            (
                "vars: x, y, z\nf = x + x^3\ng = y\nh = z\n",
                "det DF != 0 proven on the box [-10, 10]^3",
                "verified_on_box",
                None,
            ),
        ],
        ids=["plane", "plane_violation", "box"],
    )
    def test_det_line_and_report(self, tmp_path, capsys, text, line, status, point):
        path, report = tmp_path / "m.map", tmp_path / "m.json"
        path.write_text(text)
        main(["check", str(path), "--json", str(report)])
        assert f"; {line}\n" in capsys.readouterr().out
        jac = json.loads(report.read_text())["assumptions"]["jac_nonvanishing"]
        assert (jac["status"], jac["point"]) == (status, point)
        assert jac["exact"] is (status == "violation_found")

    @pytest.mark.parametrize("box", [["--box", "0.4"], []], ids=["box_0.4", "default"])
    def test_one_variable_det_decided_exactly(self, tmp_path, capsys, box):
        # det DF = 1 + 2x vanishes at -1/2, outside [-0.4, 0.4], and changes sign
        # there: F(3/2) = F(-5/2) whatever the box
        path, report = tmp_path / "m.map", tmp_path / "m.json"
        path.write_text("vars: x\nf = x + x^2\n")
        assert main(["check", str(path), *box, "--json", str(report)]) == 2
        assert "det DF vanishes at x = -1/2 (exact)" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        jac = payload["assumptions"]["jac_nonvanishing"]
        assert (jac["status"], jac["point"], jac["exact"]) == ("violation_found", ["-1/2"], True)
        assert payload["witnesses"] == [
            {"a": ["3/2"], "b": ["-5/2"], "deviation": 0.0, "exact": True}
        ]

    @pytest.mark.parametrize(
        "text, box",
        [
            ("vars: x, y, z\nf = x + 1/100*x^2\ng = y\nh = z\n", []),
            ("vars: x, y, z\nf = x + x^2\ng = y\nh = z\n", ["--box", "0.4"]),
        ],
        ids=["default_box", "box_0.4"],
    )
    def test_det_proven_on_box_only_is_unknown(self, tmp_path, capsys, text, box):
        # det DF = 1 + x/50 or 1 + 2x vanishes outside the box, and F folds
        # there: MapHigherPart fires, but it needs det DF != 0 on all of R^3
        path, report = tmp_path / "m.map", tmp_path / "m.json"
        path.write_text(text)
        assert main(["check", str(path), *box, "--json", str(report)]) == 3
        note = "det DF != 0 is verified_on_box, not proven on all of R^n"
        assert note in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["assumptions"]["jac_nonvanishing"]["status"] == "verified_on_box"
        assert payload["verdict"]["kind"] == "unknown" and "by" not in payload["verdict"]

    @pytest.mark.parametrize(
        "f, code", [("x^3", 0), ("x + x^2", 2)], ids=["monotone", "fold"]
    )
    def test_one_variable_verdict_exact(self, tmp_path, capsys, f, code):
        # for n = 1 the witness search is exact: no pair proves injectivity
        path = tmp_path / "m.map"
        path.write_text(f"vars: x\nf = {f}\n")
        assert main(["check", str(path)]) == code
        assert ("F' keeps its sign off its zeros" in capsys.readouterr().out) is (code == 0)

    def test_power_pair_from_the_taylor_shift(self, tmp_path, capsys):
        # Newton on F(b + z) - F(b) finds this exact pair; on F(x) - F(b) it finds none
        path, report = tmp_path / "m.map", tmp_path / "m.json"
        path.write_text("vars: x, y\nf = (x+y+1)^30\ng = y\n")
        assert main(["check", str(path), "--json", str(report)]) == 2
        capsys.readouterr()
        (witness,) = json.loads(report.read_text())["witnesses"]
        assert witness == {
            "a": ["-1", "3/4"], "b": ["-5/2", "3/4"], "deviation": 0.0, "exact": True
        }


class TestDecompose:
    def test_h_parts(self, ex_file, capsys):
        assert main(["decompose", ex_file, "--weights", "1,1", "--target", "H"]) == 0
        out = capsys.readouterr().out
        assert "degree 2: 1/2*x^2 + 1/2*y^2" in out
        assert "degree 4: x^4 + x*y^3" in out
        assert "degree 6: 1/2*x^6 + x^3*y^3 + 1/2*y^6" in out

    def test_field_target(self, ex_file, capsys):
        assert main(["decompose", ex_file, "--weights", "1,1", "--target", "Y"]) == 0
        out = capsys.readouterr().out
        assert "i = (6, 6)" in out
        assert "r=1" in out

    def test_map_target_identity(self, tmp_path, capsys):
        path = tmp_path / "i.map"
        path.write_text("vars: x, y\nf = x\ng = y\n")
        assert main(["decompose", str(path), "--weights", "1,1", "--target", "F"]) == 0
        out = capsys.readouterr().out
        assert "degree 1: x" in out

    def test_bad_weights_exit_one(self, ex_file):
        assert main(["decompose", ex_file, "--weights", "1,2,3", "--target", "H"]) == 1


class TestCertify:
    def test_system_only_origin(self, tmp_path, capsys):
        path = tmp_path / "sys.map"
        path.write_text("vars: x, y\ng1 = x^3 + y^3\ng2 = y\n")
        assert main(["certify", str(path), "--weights", "1,1", "--mode", "system"]) == 0
        assert "only_origin" in capsys.readouterr().out

    def test_nonneg_witness(self, tmp_path, capsys):
        path = tmp_path / "p.map"
        path.write_text("vars: x, y\np = 1/2*x^6 + x^3*y^3 + 1/2*y^6\n")
        assert main(["certify", str(path), "--weights", "1,1", "--mode", "nonneg"]) == 0
        out = capsys.readouterr().out
        assert "nontrivial_zero" in out and "witness" in out

    @pytest.mark.parametrize(
        "text, weights, lines",
        [
            (
                "vars: x, y\ng1 = x^3 + y^3\ng2 = y\n",
                "1,1",
                ["outcome: only_origin", "decided exactly, with no box search"],
            ),
            (
                "vars: x, y\np = 1/2*x^6 + x^3*y^3 + 1/2*y^6\n",
                "1,1",
                ["witness (exact): x = -1, y = 1", "residuals: [0.0]"],
            ),
            # the root -sqrt(2) of t^2 - 2 on the line y = 1, as an isolating interval
            ("vars: u, v\np = u^2 - 2*v^2\n", "1,1", ["witness (exact): u in (-3/2, -9/8), v = 1"]),
            ("vars: x, y, z\ng1 = x\ng2 = y\ng3 = z\n", "1,1,1", ["boxes processed: "]),
        ],
        ids=["only_origin", "rational_witness", "interval_witness", "three_variables"],
    )
    def test_exact_planar_text(self, tmp_path, capsys, text, weights, lines):
        path = tmp_path / "s.map"
        path.write_text(text)
        assert main(["certify", str(path), "--weights", weights]) == 0
        out = capsys.readouterr().out
        for line in lines:
            assert line in out
        # box counts are printed only where branch-and-bound ran
        assert ("boxes processed" in out) is (weights == "1,1,1")

    @pytest.mark.parametrize(
        "flags, budget, line",
        [
            (
                ["--depth", "4"],
                None,
                "unresolved box at depth 4, stopped by the depth limit: "
                "x in [-0.5, 0.0], y in [-1.0, 0.0], z in [-1.0, 0.0]",
            ),
            (
                [],
                7,
                "unresolved box at depth 5, stopped by the box budget: "
                "x in [-0.5, 0.0], y in [-0.5, 0.0], z in [-1.0, 0.0]",
            ),
        ],
        ids=["depth_limit", "box_budget"],
    )
    def test_inconclusive_names_its_cause(self, tmp_path, capsys, monkeypatch, flags, budget, line):
        import jacgate.certify

        if budget is not None:
            monkeypatch.setattr(jacgate.certify, "MAX_BOXES", budget)
        path = tmp_path / "s.map"
        path.write_text("vars: x, y, z\ng1 = x^3 + y^3\ng2 = y\ng3 = z\n")
        assert main(["certify", str(path), "--weights", "1,1,1", *flags]) == 0
        out = capsys.readouterr().out
        assert "outcome: inconclusive" in out and line in out

    def test_gradient_mode(self, tmp_path, capsys):
        path = tmp_path / "q.map"
        path.write_text("vars: x, y\np = x^2 + y^2\n")
        assert main(["certify", str(path), "--weights", "1,1", "--mode", "gradient"]) == 0
        assert "only_origin" in capsys.readouterr().out

    def test_non_qh_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.map"
        path.write_text("vars: x, y\np = x + x^2\n")
        assert main(["certify", str(path), "--weights", "1,1", "--mode", "system"]) == 1
        assert "Euler" in capsys.readouterr().err


class TestUsageErrors:
    """argparse's errors exit 1, the input-error code, not 2 (not injective)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "{map}", "--depth", "abc"], "argument --depth: invalid int value: 'abc'"),
            (["check", "{map}", "--bogus"], "unrecognized arguments: --bogus"),
            (["check"], "the following arguments are required: mapfile"),
            (
                ["certify", "{map}", "--weights", "1,1", "--mode", "fast"],
                "argument --mode: invalid choice: 'fast'",
            ),
        ],
        ids=["bad-int", "unknown-flag", "missing-positional", "bad-choice"],
    )
    def test_exit_one(self, ex_file, capsys, argv, message):
        assert main([arg.format(map=ex_file) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: jacgate")
        assert f"\nerror: {message}" in captured.err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc_info:
            main([flag])
        assert exc_info.value.code == 0
        assert "jacgate" in capsys.readouterr().out


class TestZeros:
    def test_cubic_one_zero(self, ex_file, capsys):
        assert main(["zeros", ex_file]) == 0
        out = capsys.readouterr().out
        assert out.count("zero at") == 1
        assert "index 1" in out

    def test_parabola_two_zeros(self, tmp_path, capsys):
        path = tmp_path / "p.map"
        path.write_text(PARABOLA_MAP)
        assert main(["zeros", str(path), "--starts", "32"]) == 0
        assert capsys.readouterr().out.count("zero at") == 2

    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "i.map"
        path.write_text("vars: x, y\nf = x\ng = y\n")
        assert main(["zeros", str(path), "--starts", "16"]) == 0
        assert capsys.readouterr().out.count("zero at") == 1

    def test_unconverged_starts_reported(self, tmp_path, capsys):
        # Newton shrinks a large x by about 2/3 a step, so no start from a box
        # of radius 1e20 reaches the zero at the origin within MAX_ITER steps
        path = tmp_path / "c.map"
        path.write_text("vars: x, y\nf = x + x^3\ng = y\n")
        assert main(["zeros", str(path), "--box", "1e20"]) == 0
        out = capsys.readouterr().out
        assert "no zeros found; 64 of 64 starts did not converge\n" in out
        assert main(["zeros", str(path), "--box", "1e6"]) == 0
        out = capsys.readouterr().out
        assert out.count("zero at") == 1 and "did not converge" not in out


ROOT = Path(__file__).resolve().parents[1]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports jacgate from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["zeros", "perfbench/corpus/tri3.map"], ["check", "perfbench/corpus/cubic.map"]],
    ids=["zeros", "check"],
)
def test_closed_stdout_exits_141_quietly(argv, buffered):
    # stdout is a pipe whose read end is already closed, as when ``| head -1``
    # has exited: no message, and the exit code of a process ended by SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from jacgate.cli import main; sys.exit(main())",
             *argv],
            cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


class TestExactPathWithoutNumpy:
    def test_decompose_runs_with_numpy_blocked(self):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "from jacgate.cli import main\n"
            "for target in 'FHY':\n"
            "    argv = ['decompose', 'perfbench/corpus/cubic.map', '--weights', '1,1']\n"
            "    assert main(argv + ['--target', target]) == 0\n"
        )
        proc = _fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "f1:\n"
            "  degree 1: x\n"
            "  degree 3: x^3 + y^3\n"
            "f2:\n"
            "  degree 1: y\n"
            "H = ||F||^2/2:\n"
            "  degree 2: 1/2*x^2 + 1/2*y^2\n"
            "  degree 4: x^4 + x*y^3\n"
            "  degree 6: 1/2*x^6 + x^3*y^3 + 1/2*y^6\n"
            "component degrees i = (6, 6)\n"
            "  Y_s[1] = -3*x^5 - 3*x^2*y^3\n"
            "  Y_s[2] = -3*x^3*y^2 - 3*y^5\n"
            "blocks: r=1 sizes=(2,) degrees=(6,) m=6 tilde=(1, 1)\n"
        )

    def test_exact_check_runs_with_numpy_blocked(self, tmp_path):
        # coupled3 is decided by exact algebra alone: det DF on all of R^2 and
        # the planar only-origin certificates take no float step
        reports = []
        for block in ("sys.modules['numpy'] = None\n", ""):
            report = tmp_path / f"report{len(reports)}.json"
            proc = _fresh_python(
                "import sys\n" + block + "from jacgate.cli import main\n"
                f"argv = ['check', 'perfbench/corpus/coupled3.map', '--json', {str(report)!r}]\n"
                "print(main(argv), sys.modules.get('numpy') is not None)\n"
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "0 False"
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_float_paths_run_with_numpy_blocked(self, tmp_path):
        # cusp's witness pair comes from Newton; tri3 runs the n = 3 boxes, the
        # det hunt and the sphere hunts; zeros runs Newton and index_at, and
        # certify on the cone system the sphere hunt
        cone = tmp_path / "cone.poly"
        cone.write_text("vars: x, y, z\np = x^2 + y^2 - 2*z^2\nq = x*y - z^2\n")
        runs = []
        for block in ("sys.modules['numpy'] = None\n", ""):
            proc = _fresh_python(
                "import sys\n" + block + "from jacgate.cli import main\n"
                "for name in ('cusp', 'tri3'):\n"
                f"    argv = ['check', f'perfbench/corpus/{{name}}.map', '--json', "
                f"f'{tmp_path}/{{name}}.json']\n"
                "    print(main(argv))\n"
                "print(main(['zeros', 'perfbench/corpus/tri3.map']))\n"
                f"print(main(['certify', {str(cone)!r}, '--weights', '1,1,1']))\n"
                "print(sys.modules.get('numpy') is not None)\n"
            )
            assert proc.returncode == 0, proc.stderr
            reports = [(tmp_path / f"{name}.json").read_bytes() for name in ("cusp", "tri3")]
            # the verdict lines end in the elapsed time
            runs.append((re.sub(r"\[\d+\.\d+s\]", "", proc.stdout), reports))
        stdout, _ = runs[0]
        assert [line for line in stdout.splitlines() if line in ("0", "2", "False")] == [
            "2", "2", "0", "0", "False"
        ]
        assert "numeric" in stdout and "zero at" in stdout
        assert runs[0] == runs[1]

    def test_cli_import_leaves_numpy_unloaded(self):
        code = (
            "import sys\n"
            "import jacgate.cli\n"
            "print('numpy' in sys.modules)\n"
            "from jacgate import find_zeros, only_origin, verdict\n"
            "print(verdict.__module__, only_origin.__module__, find_zeros.__module__)\n"
        )
        proc = _fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\njacgate.criteria jacgate.certify jacgate.dynamics\n"

    def test_decompose_leaves_the_analysis_layers_unloaded(self):
        # the exact commands import only the algebra: the analysis layers load
        # lazily, on the first command that needs them
        lazy = ("certify", "criteria", "dynamics", "floatval", "intervals", "sampling",
                "univariate")
        proc = _fresh_python(
            "import sys\n"
            "import jacgate.cli\n"
            "argv = ['decompose', 'perfbench/corpus/cubic.map', '--weights', '1,1', "
            "'--target', 'Y']\n"
            "assert jacgate.cli.main(argv) == 0\n"
            f"print([m for m in {lazy!r} if f'jacgate.{{m}}' in sys.modules])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


# sha256 of the `check --json` reports of five maps: four of the corpus and
# the `jacbox` map of tests/test_criteria.py, with the exit code of each.
# coupled3 and jacbox take the exact planar path alone: det DF and every
# planar higher part are decided by Sturm counts, with no float step.
# tri3, cusp and fold violate jac_nonvanishing, so their reports try no criterion.
# Float sums run left to right in explicit loops, so the bytes are the same
# on every supported Python; a change that moves a report on purpose updates
# its pin.
REPORT_SHA256 = {
    "tri3": (2, "6b5574398b21f5744348e69a36c514ab4809a4144bf18af9838cce679236080b"),
    "cusp": (2, "dbfb964bbbb4a0089adbccd7c8321e7318f692307210853a8bb4265757ce3df6"),
    "fold": (2, "2b99cf24daf16671420dc3ebda8ef440fa8168899a6fcd9e308fb964fea2b13c"),
    "coupled3": (0, "8aff1d264195c66d7a0fdac933626e0e809c3304a8059c114751dd9894cbb50a"),
    "jacbox": (0, "23cdcc4fef9538b0f293235bc873db71d158b2712ad967ac13067166418a3415"),
}
JACBOX_MAP = "vars: x, y\nf = x + 1/3*(x - 1/2*y)^3 + 1/50*(x + y)^5\ng = y\n"


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_check_report_pinned(name, tmp_path, monkeypatch, capsys):
    exit_code, digest = REPORT_SHA256[name]
    path = f"perfbench/corpus/{name}.map"
    monkeypatch.chdir(ROOT)  # the report names the map by the path given
    if name == "jacbox":
        monkeypatch.chdir(tmp_path)
        path = "jacbox.map"
        Path(path).write_text(JACBOX_MAP)
    report = tmp_path / f"{name}.json"
    assert main(["check", path, "--json", str(report)]) == exit_code
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    if name in ("cusp", "fold", "tri3"):
        data = json.loads(report.read_text())
        assert data["attempts"] == []
        assert data["derived_weights"] is None and data["properness_weight"] is None


# sha256 of `zeros` output with the default flags on each corpus map
ZEROS_SHA256 = {
    "coupled3": "418c01474ee1e33277780a2a645f7a231959000d1f77967430adff315c2db756",
    "cubic": "8da0800de9b50e3cfa4090ab844fba80bf1bfe2f3a2c9a1740bcb6e693102a6a",
    "cusp": "0beb39c8320800fa3bed986d57dd119b01f1473494843ae840eb9c4072ab3be4",
    "fold": "24c6a9e22af00e6b924264f08ddefebe855ec25069966642ac923b3d5e3db6cf",
    "shear": "deae279aed5472438419f6d4a07b4e3719729346341b1435f7925e6ee6d3d7bc",
    "tinydet": "341dd7e4ae3181a715a7d205113bafb22745e03aa5451b3d89da3e0f200cbc0f",
    "tri3": "00bc620ef90f92cf275939b6181a45cbb636da3abd20cd00fef2312e4022c135",
}


@pytest.mark.parametrize("name", sorted(ZEROS_SHA256))
def test_zeros_output_pinned(name, capsys):
    assert main(["zeros", str(ROOT / "perfbench" / "corpus" / f"{name}.map")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ZEROS_SHA256[name]


def dense_map_text() -> str:
    """A dense map with n = 4, degree 6: every monomial of degree 1 to 6, with
    a coefficient in [-3, 3] \\ {0} picked by a fixed rule."""
    names = ("x", "y", "z", "w")
    lines = ["vars: " + ", ".join(names)]
    for c in range(4):
        terms = []
        for exponent in itertools.product(range(7), repeat=4):
            if not 1 <= sum(exponent) <= 6:
                continue
            v = (c + 1 + sum((i + 2) * k * k for i, k in enumerate(exponent))) % 6
            monomial = "*".join(f"{n}^{k}" for n, k in zip(names, exponent) if k)
            terms.append(f"{v - 3 if v < 3 else v - 2}*{monomial}")
        lines.append(f"f{c + 1} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


# sha256 of `decompose --weights 1,2,1,1` for each target, and of the printed
# det DF, for the map above. Printing sorts the terms, so no digest depends on
# the order in which a term dict holds them.
DECOMPOSE_SHA256 = {
    "F": "21495766eb266769fd106ce18a06ab7844ea1dcb22eb20da9e3e67d87f3d66b7",
    "H": "62c660835631b574d8da1588430a68da4ce69f84d389477aca95337bf34ad9aa",
    "Y": "ed0c9210018c39e5d717c570b5f3f1aa6bbf2c98216ab8804ec11c2cd928b970",
    "det": "32883445492453c27742d1c610e7b6821ef846997caf99755eb7aa3d1e5d9edf",
}


def test_dense_decompose_pinned(tmp_path, capsys):
    path = tmp_path / "dense.map"
    path.write_text(dense_map_text())
    digests = {}
    for target in "FHY":
        assert main(["decompose", str(path), "--weights", "1,2,1,1", "--target", target]) == 0
        digests[target] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    fmap, names = parse_map_file(path.read_text())
    digests["det"] = hashlib.sha256(print_poly(jacobian_det(fmap), names).encode()).hexdigest()
    assert digests == DECOMPOSE_SHA256


@pytest.fixture
def reversed_terms(monkeypatch):
    """Every ``Polynomial`` built from here on holds its terms dict reversed."""
    trusted, init = Polynomial._trusted.__func__, Polynomial.__init__

    def reversed_trusted(cls, n, terms):
        return trusted(cls, n, dict(reversed(terms.items())))

    def reversed_init(self, n, terms=None):
        init(self, n, terms)
        self.terms = dict(reversed(self.terms.items()))

    monkeypatch.setattr(Polynomial, "_trusted", classmethod(reversed_trusted))
    monkeypatch.setattr(Polynomial, "__init__", reversed_init)
    assert list(Polynomial(2, {(1, 0): 1, (0, 1): 1}).terms) == [(0, 1), (1, 0)]


# no result depends on the insertion order of Polynomial.terms: float and
# interval evaluation and printing sort the terms, and the rest is exact
@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_check_report_pinned_with_reversed_terms(
    name, reversed_terms, tmp_path, monkeypatch, capsys
):
    test_check_report_pinned(name, tmp_path, monkeypatch, capsys)


def test_dense_decompose_pinned_with_reversed_terms(reversed_terms, tmp_path, capsys):
    test_dense_decompose_pinned(tmp_path, capsys)
