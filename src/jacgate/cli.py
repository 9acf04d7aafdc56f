"""Command-line front end.

Subcommands: check, decompose, certify, zeros.  ``check`` exits 0 for an
injective verdict, 2 for not-injective, 3 for unknown, and 1 on input
errors; the JSON report is byte-stable for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import JacgateError, ZeroPolynomialError
from .parsing import parse_map_file, parse_poly_file, print_poly
from .poly import h_norm
from .weights import Weight, higher_part_field, qh_decompose

if TYPE_CHECKING:
    from .certify import CertOutcome
    from .criteria import AnalysisConfig, Assumptions, VerdictReport

EXIT_INJECTIVE = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_INJECTIVE = 2
EXIT_UNKNOWN = 3

# keyed by ``VerdictKind`` value, so that commands other than check load no float layer
_VERDICT_EXIT = {
    "injective": EXIT_INJECTIVE,
    "not_injective": EXIT_NOT_INJECTIVE,
    "unknown": EXIT_UNKNOWN,
}


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _format_point(point, names) -> str:
    """``x = 1/2, y in (1/3, 3/8)``: a rational isolating interval is shown open."""
    return ", ".join(
        f"{name} in ({value[0]}, {value[1]})" if isinstance(value, tuple) else f"{name} = {value}"
        for name, value in zip(names, point)
    )


def _outcome_dict(outcome: CertOutcome | None) -> dict | None:
    if outcome is None:
        return None
    data = {
        "kind": outcome.kind.value,
        "max_depth": outcome.max_depth,
        "boxes": outcome.boxes,
    }
    if outcome.witness is not None:
        data["witness"] = _jsonable(outcome.witness)
        data["exact"] = outcome.exact
        data["residuals"] = list(outcome.residuals or ())
    return data


def _build_report(
    report: VerdictReport, mapfile_text: str, names, cfg: AnalysisConfig, path: str
) -> dict:
    from .certify import RHO, SHELL, TAU
    from .sampling import PROBES, STARTS

    attempts = []
    for criterion, results in report.search.attempts.items():
        for result in results:
            attempts.append(
                {
                    "criterion": criterion.value,
                    "weight": list(result.weight.s),
                    "outcome": _outcome_dict(result.outcome),
                    "diagnostic": result.diagnostic,
                }
            )
    witnesses = []
    if report.witness is not None:
        witnesses.append(
            {
                "a": _jsonable(report.witness.a),
                "b": _jsonable(report.witness.b),
                "exact": report.witness.exact,
                "deviation": report.witness.deviation,
            }
        )
    verdict_block: dict = {"kind": report.kind.value}
    if report.by is not None:
        verdict_block["by"] = report.by.value
        verdict_block["weight"] = list(report.weight.s)
    if report.conflict_note:
        verdict_block["note"] = report.conflict_note
    return {
        "schema": 1,
        "version": __version__,
        "input": {
            "path": path,
            "vars": list(names),
            "text": mapfile_text,
        },
        "assumptions": {
            "f_zero_at_origin": report.assumptions.f_zero_at_origin,
            "jac_nonvanishing": {
                "status": report.assumptions.jac_status.value,
                "box": report.assumptions.jac_box,
                "depth": report.assumptions.jac_depth,
                "point": _jsonable(report.assumptions.jac_point),
                "exact": report.assumptions.jac_exact,
            },
        },
        "attempts": attempts,
        "verdict": verdict_block,
        "witnesses": witnesses,
        "derived_weights": (
            {
                "from": list(report.tilde[0].s),
                "tilde": list(report.tilde[1].s),
            }
            if report.tilde
            else None
        ),
        "properness_weight": list(report.properness_weight.s)
        if report.properness_weight
        else None,
        "config": {
            "weights_max": cfg.s_max,
            "depth": cfg.cert.depth,
            "box": cfg.box_radius,
            "seed": cfg.cert.seed,
            "rho": RHO,
            "tau": TAU,
            "shell": SHELL,
            "probes": PROBES,
            "starts": STARTS,
        },
    }


def _parse_weights_flag(text: str, n: int) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise JacgateError(f"expected {n} weight entries, got {len(parts)}")
    try:
        entries = [int(p) for p in parts]
    except ValueError as exc:
        raise JacgateError(f"weights must be integers: {exc}") from exc
    return Weight(entries)


def _box(radius: float) -> float:
    """The ``--box`` radius, refused unless positive and finite."""
    if not 0 < radius < math.inf:
        raise JacgateError(f"--box must be positive and finite, got {radius}")
    return radius


def _depth(depth: int) -> int:
    """The ``--depth`` limit, refused when negative."""
    if depth < 0:
        raise JacgateError(f"--depth must be a non-negative integer, got {depth}")
    return depth


def _weights_max(s_max: int) -> int:
    """The ``--weights-max`` bound on weight entries, refused unless positive."""
    if s_max < 1:
        raise JacgateError(f"--weights-max must be a positive integer, got {s_max}")
    return s_max


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    from .certify import CertConfig
    from .criteria import AnalysisConfig, verdict

    text = _read(args.mapfile)
    fmap, names = parse_map_file(text)
    cert = CertConfig(depth=_depth(args.depth), seed=args.seed)
    cfg = AnalysisConfig(s_max=_weights_max(args.weights_max), box_radius=_box(args.box), cert=cert)
    started = time.perf_counter()
    report = verdict(fmap, cfg)
    elapsed = time.perf_counter() - started

    print(f"map: {', '.join(print_poly(c, names) for c in fmap.components)}")
    print(
        "assumptions: F(0)=0 "
        + ("holds" if report.assumptions.f_zero_at_origin else "FAILS")
        + f"; det DF {_jacobian_text(report.assumptions, names, fmap.n)}"
    )
    for criterion, results in report.search.attempts.items():
        for result in results:
            outcome = (
                result.outcome.kind.value if result.outcome else f"error: {result.diagnostic}"
            )
            print(f"  {criterion.value} at s={tuple(result.weight.s)}: {outcome}")
    if report.tilde:
        print(f"derived weights: {tuple(report.tilde[0].s)} -> {tuple(report.tilde[1].s)}")
    if report.witness:
        kind = "exact" if report.witness.exact else "numeric"
        a, b = (_format_point(point, names) for point in (report.witness.a, report.witness.b))
        print(f"witness pair ({kind}): a: {a}; b: {b}")
    if report.conflict_note:
        print(f"note: {report.conflict_note}")
    summary = report.kind.value
    if report.by:
        summary += f" by {report.by.value} at s={tuple(report.weight.s)}"
    print(f"verdict: {summary}  [{elapsed:.2f}s]")

    if args.json:
        payload = _build_report(report, text, names, cfg, args.mapfile)
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return _VERDICT_EXIT[report.kind.value]


def _jacobian_text(assumptions: Assumptions, names, n: int) -> str:
    from .criteria import JacStatus

    status = assumptions.jac_status
    if status is JacStatus.VERIFIED_EVERYWHERE:
        return f"!= 0 proven on all of R^{n}"
    if status is JacStatus.VERIFIED_ON_BOX:
        return f"!= 0 proven on the box [-{assumptions.jac_box:g}, {assumptions.jac_box:g}]^{n}"
    if status is JacStatus.VIOLATION_FOUND:
        kind = "exact" if assumptions.jac_exact else "numeric"
        return f"vanishes at {_format_point(assumptions.jac_point, names)} ({kind})"
    return "!= 0 assumed, not proven"


def cmd_decompose(args: argparse.Namespace) -> int:
    text = _read(args.mapfile)
    fmap, names = parse_map_file(text)
    w = _parse_weights_flag(args.weights, fmap.n)
    if args.target == "F":
        for i, component in enumerate(fmap.components):
            if component.is_zero:
                raise ZeroPolynomialError(f"component {i} is identically zero", component=i)
            print(f"f{i + 1}:")
            for degree, part in qh_decompose(component, w):
                print(f"  degree {degree}: {print_poly(part, names)}")
        return 0
    h = h_norm(fmap)
    if h.is_zero:
        raise ZeroPolynomialError("norm function is identically zero")
    if args.target == "H":
        print("H = ||F||^2/2:")
        for degree, part in qh_decompose(h, w):
            print(f"  degree {degree}: {print_poly(part, names)}")
        return 0
    # argparse allows only F, H and Y
    fhp = higher_part_field(h, w)
    print(f"component degrees i = {fhp.degrees}")
    for j, component in enumerate(fhp.field.components):
        print(f"  Y_s[{j + 1}] = {print_poly(component, names)}")
    print(
        f"blocks: r={fhp.r} sizes={fhp.sizes} degrees={fhp.block_degrees} "
        f"m={fhp.m} tilde={fhp.raw_tilde}"
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from .certify import CertConfig, gradient_only_origin, only_origin, unique_zero_nonneg

    text = _read(args.polyfile)
    polys, names = parse_poly_file(text)
    n = polys[0].n
    w = _parse_weights_flag(args.weights, n)
    cfg = CertConfig(depth=_depth(args.depth), seed=args.seed)
    mode = args.mode
    if mode == "system":
        outcome = only_origin(polys, w, cfg)
    else:  # argparse allows only system, nonneg and gradient
        if len(polys) != 1:
            raise JacgateError(f"mode {mode!r} expects exactly one polynomial")
        checker = unique_zero_nonneg if mode == "nonneg" else gradient_only_origin
        outcome = checker(polys[0], w, cfg)
    print(f"outcome: {outcome.kind.value}")
    if outcome.witness is not None:
        kind = "exact" if outcome.exact else "numeric"
        print(f"witness ({kind}): {_format_point(outcome.witness, names)}")
        if outcome.residuals is not None:
            print(f"residuals: {list(outcome.residuals)}")
    elif outcome.exact:
        print("decided exactly, with no box search")
    else:
        print(f"boxes processed: {outcome.boxes}, max depth: {outcome.max_depth}")
    if outcome.unresolved is not None:
        box = outcome.unresolved
        cause = "depth limit" if box.depth >= cfg.depth else "box budget"
        region = ", ".join(f"{name} in [{c.lo}, {c.hi}]" for name, c in zip(names, box.coords))
        print(f"unresolved box at depth {box.depth}, stopped by the {cause}: {region}")
    return 0


def cmd_zeros(args: argparse.Namespace) -> int:
    from .dynamics import DEDUP_RADIUS, find_zeros

    text = _read(args.mapfile)
    fmap, names = parse_map_file(text)
    report = find_zeros(fmap, starts=args.starts, box=_box(args.box), seed=args.seed)
    print(f"starts: {args.starts}, dedup radius: {DEDUP_RADIUS}")
    missed = f"{report.unconverged} of {args.starts} starts did not converge"
    if not report.zeros:  # then no start converged
        print(f"no zeros found; {missed}")
        return 0
    for zero in report.zeros:
        index = zero.index if zero.index is not None else f"unavailable ({zero.note})"
        print(f"  zero at {zero.point} residual {zero.residual:.3e} index {index}")
    if report.unconverged:
        print(missed)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors take ``main``'s input-error path, exit code 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise JacgateError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jacgate",
        description="Analyze global injectivity of polynomial maps R^n -> R^n",
    )
    parser.add_argument("--version", action="version", version=f"jacgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the full injectivity analysis")
    check.add_argument("mapfile")
    check.add_argument("--weights-max", type=int, default=4, dest="weights_max")
    check.add_argument("--depth", type=int, default=24)
    check.add_argument("--box", type=float, default=10.0)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--json", type=str, default=None)
    check.set_defaults(func=cmd_check)

    decompose = sub.add_parser("decompose", help="print a quasi-homogeneous decomposition")
    decompose.add_argument("mapfile")
    decompose.add_argument("--weights", required=True)
    decompose.add_argument("--target", choices=["F", "H", "Y"], default="H")
    decompose.set_defaults(func=cmd_decompose)

    certify = sub.add_parser("certify", help="certify an only-origin zero set")
    certify.add_argument("polyfile")
    certify.add_argument("--weights", required=True)
    certify.add_argument("--mode", choices=["system", "nonneg", "gradient"], default="system")
    certify.add_argument("--depth", type=int, default=24)
    certify.add_argument("--seed", type=int, default=0)
    certify.set_defaults(func=cmd_certify)

    zeros = sub.add_parser("zeros", help="find zeros of the map numerically")
    zeros.add_argument("mapfile")
    zeros.add_argument("--starts", type=int, default=64)
    zeros.add_argument("--box", type=float, default=5.0)
    zeros.add_argument("--seed", type=int, default=0)
    zeros.set_defaults(func=cmd_zeros)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (JacgateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OverflowError as exc:
        print(f"error: a coefficient is beyond float range ({exc})", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
