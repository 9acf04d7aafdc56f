#!/usr/bin/env python3
"""jacgate benchmark: one user running jacgate commands back to back.

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; jacgate is imported from its ``src/``.
Each workload is a seeded round of map files (see ``workloads.py``), run
one command at a time in this process (closed loop, one client): once, and
again while another round still fits in ``--seconds``. Every output is
checked against ground truth computed without jacgate, and every repeated
run of an input must reproduce its first output byte for byte.

Timings are normalised for the speed of the machine while they are taken:
``SpeedSampler`` times a fixed probe every PROBE_PERIOD_S from a SIGALRM
handler, and an item's wall time, less the probes inside it, is scaled by
NOMINAL_PROBE_S over their mean. On a shared machine the CPU speed swings
by 40% or more within seconds; normalised times stay comparable across
runs. Raw wall times are printed on a line of their own.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times a quarter
of the round untraced, then traces whole rounds through ``tracing.Tracer``
and prints the per-layer metrics, the dominant layer, the predictions it
confirms or refutes, and the tracing overhead on the items timed both ways.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
PROBE_PERIOD_S = 0.05
NOMINAL_PROBE_S = 0.0012  # the probe time that normalised seconds refer to
# The probe's second half multiplies this polynomial by itself with
# reference.mul: dict and big-number work, which contention on a shared
# machine slows more than the integer loop of the first half. Timed against
# jacgate's work, the integer loop alone under-corrects check items (their
# time grows as the loop's to the power 1.2) and the dict half alone
# over-corrects (power 0.8).
PROBE_POLY = {(i, j, k): (i + 2 * j + 3 * k) % 5 + 1
              for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3}
EXIT_OF = {"injective": 0, "not_injective": 2, "unknown": 3}

# Predictions to confirm or refute per workload: the layers expected to
# dominate self time, then (label, measured quantity, low, high) ranges.
EXACT_LAYERS = ("poly", "weights", "parsing")
PREDICTIONS = {
    "check-corpus": (("floatval", "dynamics"), (
        ("gauss_newton share of verdict time", "gauss_newton", 0.80, 0.94),
        ("intervals self-time share", ("intervals",), 0.0, 0.05),
        ("poly+weights+parsing self-time share", EXACT_LAYERS, 0.0, 0.05))),
    "check-jacbox": (("intervals",), (
        ("intervals self-time share", ("intervals",), 0.47, 0.76),
        ("poly+weights+parsing self-time share", EXACT_LAYERS, 0.0, 0.05))),
    "decompose-dense": (("poly", "weights"), (
        ("poly+weights+parsing self-time share", EXACT_LAYERS, 0.90, 1.0),
        ("floatval+intervals self-time share", ("floatval", "intervals"), 0.0, 0.01))),
}


def load_jacgate():
    """Import jacgate from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "jacgate" / "__init__.py").is_file():
        raise SystemExit(f"error: jacgate sources not found under {src}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("JACGATE_THREADS", None)
    sys.path.insert(0, str(src))
    import jacgate
    import jacgate.cli  # noqa: F401

    if Path(jacgate.__file__).resolve().parent != (src / "jacgate").resolve():
        raise SystemExit(f"error: imported jacgate from {jacgate.__file__}, not {src}")
    return jacgate


# -- set-up -------------------------------------------------------------------

def set_up(jacgate, workload: str, seed: int, folder: Path) -> tuple[list, set[str]]:
    """Generate the round and write its map files, then check that jacgate
    reads each file as the map the generator meant. Returns the items and the
    names of those jacgate misreads."""
    items = workloads.build(workload, seed)
    folder.mkdir(parents=True, exist_ok=True)
    rng = Random(seed)
    misread = set()
    for item in items:
        path = folder / f"{item.name}.map"
        path.write_text(item.text, encoding="utf-8")
        fmap, _ = jacgate.parsing.parse_map_file(path.read_text(encoding="utf-8"))
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(fmap.n))
        if fmap.evaluate(point) != ref.map_evaluator(item.text)(point):
            misread.add(item.name)
    return items, misread


# -- one command ----------------------------------------------------------------

def _cli(jacgate, argv: list[str]) -> tuple[int | None, str, str | None]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = jacgate.cli.main(argv)
    except Exception as exc:  # an exception is a failed item, reported below
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def run_check(jacgate, item, folder: Path) -> tuple[float, dict]:
    report = folder / f"{item.name}.json"
    report.unlink(missing_ok=True)
    argv = ["check", str((folder / f"{item.name}.map").relative_to(ROOT)),
            "--json", str(report), *item.args]
    start = time.perf_counter()
    code, _, error = _cli(jacgate, argv)
    seconds = time.perf_counter() - start
    payload = report.read_bytes() if report.exists() else b""
    return seconds, {"code": code, "error": error, "payload": payload}


def run_decompose(jacgate, item, folder: Path) -> tuple[float, dict]:
    path = folder / f"{item.name}.map"
    weights = ",".join(map(str, item.weights))
    outputs, codes, errors = {}, [], []
    start = time.perf_counter()
    for target in "FHY":
        code, text, error = _cli(jacgate, ["decompose", str(path.relative_to(ROOT)),
                                           "--weights", weights, "--target", target])
        outputs[target], codes, errors = text, codes + [code], errors + [error]
    try:
        fmap, names = jacgate.parsing.parse_map_file(path.read_text(encoding="utf-8"))
        det = jacgate.poly.jacobian_det(fmap)
    except Exception as exc:  # reported as a failed item
        det, errors = None, errors + [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    outputs["det"] = jacgate.parsing.print_poly(det, names) if det is not None else ""
    error = next((e for e in errors if e), None)
    code = None if error else max(codes)
    payload = json.dumps(outputs, sort_keys=True).encode()
    return seconds, {"code": code, "error": error, "payload": payload, "outputs": outputs}


# -- correctness ------------------------------------------------------------------

def _equal_at(expr: str, names, poly: dict, points) -> bool:
    fn = ref.compile_expr(expr, names)
    return all(fn(p) == ref.evaluate(poly, p) for p in points)


def verify_check(item, result) -> tuple[str | None, bool, bool]:
    """(failure, decided, exact-backed) for one ``check`` report."""
    if result["error"]:
        return result["error"], False, False
    try:
        report = json.loads(result["payload"])
        kind = report["verdict"]["kind"]
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}", False, False
    if EXIT_OF.get(kind) != result["code"]:
        return f"exit code {result['code']} for verdict {kind}", False, False
    if kind != "unknown" and kind != item.truth:
        return f"verdict {kind} contradicts ground truth {item.truth}", False, False
    evaluate = ref.map_evaluator(item.text)
    if item.pair is not None:
        a, b = item.pair
        if a == b or evaluate(a) != evaluate(b):
            return "ground-truth witness pair does not hold", False, False
    exact_witness = False
    for witness in report["witnesses"]:
        if witness["exact"]:
            a, b = ref.parse_point(",".join(witness["a"])), ref.parse_point(",".join(witness["b"]))
            if a == b or evaluate(a) != evaluate(b):
                return "exact witness pair fails the exact re-check", False, False
            exact_witness = True
        else:
            a = tuple(Fraction(v) for v in witness["a"])
            b = tuple(Fraction(v) for v in witness["b"])
            fa, fb = evaluate(a), evaluate(b)
            scale = 1 + max(abs(v) for v in fa + fb)
            if max(abs(x - y) for x, y in zip(a, b)) < 1e-9 or \
                    max(abs(x - y) for x, y in zip(fa, fb)) > 1e-6 * scale:
                return "numeric witness pair fails the re-check", False, False
    if kind == "not_injective":
        return None, True, exact_witness
    if kind == "injective":
        by, weight = report["verdict"]["by"], report["verdict"]["weight"]
        certified = any(
            a["criterion"] == by and a["weight"] == weight and a["outcome"]
            and a["outcome"]["kind"] == "only_origin" for a in report["attempts"])
        return None, True, certified and not report["witnesses"]
    return None, False, False


def verify_decompose(item, result) -> tuple[str | None, bool, bool]:
    if result["error"] or result["code"] != 0:
        return result["error"] or f"exit code {result['code']}", False, False
    names, _, _ = ref.read_map(item.text)
    n, s = len(names), ref.canonical_weight(item.weights)
    rng = Random(item.name)
    points = [tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(n))
              for _ in range(2)]
    out = result["outputs"]

    def parts_match(lines, poly) -> bool:
        expected = ref.parts_by_weight(poly, s)
        got = [line.split(":", 1) for line in lines]
        if [int(d.split()[1]) for d, _ in got] != sorted(expected):
            return False
        return all(_equal_at(e, names, expected[int(d.split()[1])], points) for d, e in got)

    lines = out["F"].splitlines()
    heads = [i for i, line in enumerate(lines) if not line.startswith(" ")] + [len(lines)]
    if len(heads) != n + 1:
        return "target F printed the wrong number of components", False, False
    for i, comp in enumerate(item.components):
        if not parts_match(lines[heads[i] + 1:heads[i + 1]], comp):
            return f"target F: component {i} parts differ from the reference", False, False
    h = ref.h_norm(item.components)
    if not parts_match(out["H"].splitlines()[1:], h):
        return "target H: parts differ from the reference", False, False
    degrees, field = ref.field_top(h, s, n)
    lines = out["Y"].splitlines()
    if lines[0] != f"component degrees i = {tuple(degrees)}":
        return "target Y: component degrees differ from the reference", False, False
    for j, line in enumerate(lines[1:1 + n]):
        if not _equal_at(line.split("=", 1)[1], names, field[j], points):
            return f"target Y: component {j} differs from the reference", False, False
    b = ref.blocks(degrees, s)
    blocks_line = (f"blocks: r={b['r']} sizes={b['sizes']} degrees={b['degrees']} "
                   f"m={b['m']} tilde={b['tilde']}")
    if lines[1 + n:] != [blocks_line]:
        return "target Y: block structure differs from the reference", False, False
    det_fn = ref.compile_expr(out["det"], names)
    for p in points:
        matrix = [[ref.evaluate(ref.partial(f, j), p) for j in range(n)] for f in item.components]
        if det_fn(p) != ref.det(matrix):
            return "jacobian_det differs from the reference", False, False
    return None, True, True


# -- measurement ----------------------------------------------------------------

class SpeedSampler:
    """Samples the machine's speed while items run: a SIGALRM handler times a
    fixed probe (an integer loop, then a polynomial product) every
    PROBE_PERIOD_S."""

    def __init__(self):
        self.times: list[float] = []

    def probe(self, *_) -> None:
        start = time.perf_counter()
        acc = 0
        for k in range(6_000):
            acc += k * k % 7
        ref.mul(PROBE_POLY, PROBE_POLY)
        self.times.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Run ``fn``, which returns (wall seconds, result). Returns (normalised
        seconds, wall seconds, result): the wall time less the probes that ran
        inside it, times NOMINAL_PROBE_S over their mean (or over the last
        probe before, when none ran inside)."""
        first = len(self.times)
        wall, result = fn(*args)
        inside = self.times[first:]
        wall -= sum(inside)
        speed = sum(inside) / len(inside) if inside else self.times[first - 1]
        return wall * NOMINAL_PROBE_S / speed, wall, result


def clocked(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def measure(timed, jacgate, items, folder, run_item, seconds, wrap=None):
    """Run the round once, then again while another round still fits in
    ``seconds``. Returns one list per round of (normalised s, wall s, result)."""
    rounds = []
    start = time.perf_counter()
    while True:
        if wrap is None:
            rounds.append([timed(run_item, jacgate, item, folder) for item in items])
        else:
            rounds.append([timed(wrap, run_item, jacgate, item, folder) for item in items])
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def check_outputs(items, first, repeats, verify):
    """Verify the first round against ground truth, and every repeated run of an
    item (``repeats``: (index, result) pairs) against its first output. Returns
    (failure per item, decided count, exact count, report digest)."""
    failures, decided, exact = [], 0, 0
    digest = hashlib.sha256()
    for i, item in enumerate(items):
        try:
            failure, is_decided, is_exact = verify(item, first[i])
        except Exception as exc:  # malformed output: a failed item, not a crash
            failure, is_decided, is_exact = f"output check raised {exc!r}", False, False
        digest.update(item.name.encode() + b"\0" + hashlib.sha256(first[i]["payload"]).digest())
        failures.append(failure)
        decided += is_decided
        exact += is_exact
    for i, result in repeats:
        if failures[i] is None and result["payload"] != first[i]["payload"]:
            failures[i] = "output differs between two runs of the same input"
    return failures, decided, exact, digest.hexdigest()


def code_hash() -> str:
    """Hash of jacgate's sources and the benchmark's own files."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "jacgate").glob("*.py"), *HERE.rglob("*.py"),
                        *HERE.rglob("*.map")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def same_as_before(workload: str, seed: int, digest: str) -> bool:
    """The ROADMAP's byte-identical gate across runs: the report digest of a
    workload and seed must not change while the code does not."""
    path = OUT / "digests" / f"{workload}-seed{seed}-{code_hash()}.txt"
    if path.exists():
        return path.read_text() == digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest)
    return True


def tail(values, k):
    """The highest percentile of ``values`` with at least 10 samples beyond it
    in a round of ``k`` items: nearest rank (k - 10)/k, in integers so that
    rounding cannot move it. Returns (percentile, value)."""
    ordered = sorted(values)
    rank = -(-(k - 10) * len(ordered) // k)
    return 100 * (k - 10) / k, ordered[max(0, rank - 1)]


COUNTED = ("floatval.gauss_newton", "floatval.FloatSystem.init", "dynamics.find_zeros",
           "certify.only_origin", "intervals.IntervalPoly.bounds", "intervals.Box.split",
           "weights.higher_part", "weights.higher_part_map", "weights.higher_part_field",
           "weights.block_structure")
SELF_TIMED = ("floatval.gauss_newton", "floatval.FloatSystem.init", "dynamics.injectivity_witness",
              "certify.only_origin", "criteria.check_assumptions", "criteria.weight_search",
              "criteria.derive_tilde_and_verify", "intervals.IntervalPoly.bounds", "poly.h_norm",
              "weights.qh_decompose")


def trace_metrics(workload, tracer, items_traced, traced_s, untraced_s):
    calls, counts = tracer.calls, tracer.counts
    per = 1 / items_traced

    def self_s(*names):
        return sum(tracer.self_time[name] for name in names) * per

    def ratio(part, whole):
        return part / whole if whole else 0.0

    only_origin = calls["certify.only_origin"]
    m = {f"{name}.calls": (calls[name] * per, "count/item") for name in COUNTED}
    m.update({f"{name}.self_s": (self_s(name), "s/item") for name in SELF_TIMED})
    cli = [name for name in tracer.self_time if name.startswith("cli.")]
    m.update({
        "poly.h_norm.calls_per_item": (calls["poly.h_norm"] * per, "count/item"),
        "poly.jacobian_det.self_s": (
            self_s("poly.jacobian_det", "poly.matrix_det", "poly.jacobian_matrix"), "s/item"),
        "parsing.parse_map_file.self_s": (
            self_s("parsing.parse_map_file", "parsing.parse_map_source", "parsing.parse_expr"),
            "s/item"),
        "cli.main.self_s": (self_s(*cli), "s/item"),
        "floatval.gauss_newton.converged_frac": (
            ratio(counts["gauss_newton.converged"], calls["floatval.gauss_newton"]), "fraction"),
        "certify.only_origin.boxes_per_cert": (
            ratio(counts["only_origin.boxes"], only_origin), "boxes"),
        "certify.only_origin.max_depth": (float(tracer.max_depth), "depth"),
        "certify.only_origin.inconclusive_count": (
            counts["only_origin.inconclusive"] * per, "count/item"),
        "certify.only_origin.refine_calls": (
            counts["gauss_newton.under_only_origin"] * per, "count/item"),
        "certify.only_origin.unique_system_frac": (
            ratio(len(tracer.systems), only_origin), "fraction"),
        "criteria.weight_search.attempts_per_item": (
            counts["weight_search.attempts"] * per, "count/item"),
        "intervals.IntervalPoly.excludes_zero.hit_frac": (
            ratio(counts["excludes_zero.hits"], calls["intervals.IntervalPoly.excludes_zero"]),
            "fraction"),
    })
    layer_self = tracer.layer_self()
    total = sum(layer_self.values()) + tracer.self_time["bench.item"]
    shares = {layer: (v / total if total else 0.0) for layer, v in layer_self.items()}
    for layer, share in shares.items():
        m[f"layer.{layer}.self_share"] = (share, "fraction")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "fraction")

    dominant = max(shares, key=shares.get)
    predicted, ranges = PREDICTIONS[workload]
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print("layer self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in ranked))
    held = dominant in predicted
    print(f"dominant layer: {dominant} ({shares[dominant]:.3f}); predicted "
          f"{'+'.join(predicted)}: {'confirmed' if held else 'REFUTED'}")
    refuted = 0 if held else 1
    for label, what, low, high in ranges:
        if what == "gauss_newton":
            verdict_s = tracer.total["criteria.verdict"]
            measured = tracer.total["floatval.gauss_newton"] / verdict_s if verdict_s else 0.0
        else:
            measured = sum(shares[layer] for layer in what)
        inside = low <= measured <= high
        refuted += not inside
        print(f"{label}: measured {measured:.3f}, predicted {low:.2f}-{high:.2f}: "
              f"{'confirmed' if inside else 'REFUTED'}")
    m["trace.dominant_layer_predicted"] = (1.0 if held else 0.0, "bool")
    m["trace.predictions_refuted"] = (float(refuted), "count")
    print(f"tracing overhead: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced "
          f"for the same items ({m['trace.overhead_frac'][0]:+.1%}); "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    jacgate = load_jacgate()
    import jacgate.parsing  # noqa: F401
    import jacgate.poly  # noqa: F401

    folder = OUT / args.workload
    with SpeedSampler() as sampler:
        setups = [sampler.timed(clocked, set_up, jacgate, args.workload, args.seed, folder)
                  for _ in range(SETUP_REPEATS)]
        items, misread = setups[0][2]
        decompose = args.workload == "decompose-dense"
        run_item = run_decompose if decompose else run_check
        verify = verify_decompose if decompose else verify_check
        # warm-up: lazy imports and first-call costs; its output is checked too
        repeats = [(0, run_item(jacgate, items[0], folder)[1])]

        metrics = {}
        if args.trace:
            from tracing import Tracer

            # a quarter of the round untraced, to compare with the same items traced
            untraced = [sampler.timed(run_item, jacgate, item, folder)
                        for item in items[: max(1, len(items) // 4)]]
            repeats += [(i, result) for i, (_, _, result) in enumerate(untraced)]
            tracer = Tracer()
            with tracer:
                rounds = measure(sampler.timed, jacgate, items, folder, run_item,
                                 args.seconds - sum(w for _, w, _ in untraced), wrap=tracer.item)
            tracer.write_spans(folder / f"spans-seed{args.seed}.jsonl")
            metrics = trace_metrics(args.workload, tracer, len(items) * len(rounds),
                                    sum(n for n, _, _ in rounds[0][: len(untraced)]),
                                    sum(n for n, _, _ in untraced))
        else:
            rounds = measure(sampler.timed, jacgate, items, folder, run_item, args.seconds)
    repeats += [(i, result) for later in rounds[1:] for i, (_, _, result) in enumerate(later)]

    first = [result for _, _, result in rounds[0]]
    failures, decided, exact, digest = check_outputs(items, first, repeats, verify)
    failures = ["jacgate reads the map file as another map" if item.name in misread else f
                for item, f in zip(items, failures)]
    for item, failure in zip(items, failures):
        if failure:
            print(f"FAILED {item.name}: {failure}")
    for item, result, failure in zip(items, first, failures):
        if item.expected and not failure:
            kind = json.loads(result["payload"])["verdict"]["kind"]
            if kind != item.expected:
                print(f"note: {item.name} now gives {kind}, recorded as {item.expected}")
    k = len(items)
    attempted = k + len(repeats)
    failed = sum(1 + sum(i == j for j, _ in repeats) for i, f in enumerate(failures) if f)
    if not same_as_before(args.workload, args.seed, digest):
        print(f"FAILED: report digest {digest} differs from an earlier run of this seed and code")
        failed = attempted
    times = [n for r in rounds for n, _, _ in r]
    walls = [w for r in rounds for _, w, _ in r]
    # fixed per workload by the round size, so that runs with more rounds
    # compare with runs of one
    tail_pct, tail_s = tail(times, k)
    print(f"workload {args.workload} seed {args.seed}: {k} items x {len(rounds)} rounds, "
          f"report digest {digest}")
    print(f"item_s_tail is p{tail_pct:.1f} over {len(times)} samples, "
          f"{sum(t > tail_s for t in times)} beyond it")
    print(f"wall clock: {len(walls) / sum(walls):.4f} items/s, "
          f"p50 {statistics.median(walls):.4f} s, "
          f"p{tail_pct:.1f} {tail(walls, k)[1]:.4f} s, "
          f"machine speed {sum(walls) / sum(times):.3f} x nominal")
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(n for n, _, _ in setups), "s"),
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_s_p50": (statistics.median(times), "s"),
            "item_s_tail": (tail_s, "s"),
            "decided_frac": (decided / k, "fraction"),
            "exact_frac": (exact / k, "fraction"),
            "ok_frac": (1 - failed / attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
