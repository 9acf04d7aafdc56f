"""Command-line interface: exit codes, reports, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
        # every point has the same image, and F(0) != 0 cancels the criterion that fires
        path, report = tmp_path / "c.map", tmp_path / "c.json"
        path.write_text(text)
        assert main(["check", str(path), "--json", str(report)]) == 2
        assert "witness pair (exact)" in capsys.readouterr().out
        data = json.loads(report.read_text())
        (witness,) = data["witnesses"]
        assert witness["exact"] and witness["a"] != witness["b"]
        assert "hypothesis f_zero_at_origin is violated" in data["verdict"]["note"]

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


# sha256 of the `check --json` reports of three corpus maps. Float sums run
# left to right in explicit loops, so the bytes are the same on every
# supported Python; a change that moves a report on purpose updates its pin.
REPORT_SHA256 = {
    "tri3": "c45dc126225d79030149c339cf77503af43e658889da089cb8e5c01ef85fe698",
    "cusp": "c4b5121bca44714110074d4ee309ec50f1cb3b7f059fc554f67a40350c28f208",
    "fold": "9026436baa7f1a87b775519e1767bab60910d6d47a6bea89aead8399a7a5d386",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_check_report_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the report names the map by the path given
    report = tmp_path / f"{name}.json"
    assert main(["check", f"perfbench/corpus/{name}.map", "--json", str(report)]) == 2
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256[name]
