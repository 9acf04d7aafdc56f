"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

GRID = [Fraction(v, 2) for v in range(-5, 6)]


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first, again = workloads.build(workload, 7), workloads.build(workload, 7)
        assert first == again
        other = workloads.build(workload, 8)
        assert [i.text for i in first] != [i.text for i in other]
        assert len(other) == len(first)


def test_named_corpus_truths():
    for name in workloads.NAMED:
        item = workloads.named_item(name)
        assert item.truth in ("injective", "not_injective")
        assert item.expected in ("injective", "not_injective", "unknown")
        if item.pair is not None:
            a, b = item.pair
            f = ref.map_evaluator(item.text)
            assert a != b and f(a) == f(b)
    assert workloads.named_item("tinydet").expected == "unknown"


def _images_distinct(f, n):
    images = [f(p) for p in itertools.product(GRID, repeat=n)]
    return len(set(images)) == len(images)


def _det_at(components, point):
    n = len(components)
    matrix = [[ref.evaluate(ref.partial(c, j), point) for j in range(n)] for c in components]
    return ref.det(matrix)


def test_family_ground_truths_at_small_size():
    rng = Random(3)
    for _ in range(8):
        for even in (None, 2, 4, 6):
            for components, pair in (workloads.triangular_map(rng, even),
                                     workloads.diagonal_map(rng, 2, even)):
                f = ref.map_evaluator(ref.format_map(components, ("x", "y")))
                if even is None:
                    assert pair is None
                    assert _images_distinct(f, 2)
                    dets = {_det_at(components, p) > 0 for p in itertools.product(GRID, repeat=2)}
                    assert len(dets) == 1  # det DF keeps one sign
                else:
                    a, b = pair
                    assert a != b and f(a) == f(b)


def test_jacbox_strata_have_det_at_least_one():
    for stratum in workloads.JACBOX_STRATA:
        components = workloads.jacbox_map(*stratum)
        f = ref.map_evaluator(ref.format_map(components, ("x", "y")))
        assert _images_distinct(f, 2)
        assert all(_det_at(components, p) >= 1 for p in itertools.product(GRID, repeat=2))


def test_reference_algebra_agrees_with_evaluation():
    rng = Random(5)
    components = workloads.dense_map(rng, 3, 3)
    point = (Fraction(1, 3), Fraction(-2), Fraction(3, 4))
    h = ref.h_norm(components)
    values = [ref.evaluate(c, point) for c in components]
    assert ref.evaluate(h, point) == sum(v * v for v in values) / 2
    parts = ref.parts_by_weight(h, (1, 2, 1))
    assert sum(ref.evaluate(p, point) for p in parts.values()) == ref.evaluate(h, point)
    text = ref.format_map(components, ("x", "y", "z"))
    assert ref.map_evaluator(text)(point) == tuple(values)


def _bindings():
    """Identity of every name the tracer may rebind."""
    out = {}
    mods = [importlib.import_module("jacgate")]
    mods += [importlib.import_module(f"jacgate.{layer}") for layer in LAYERS]
    for module in mods:
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = id(obj)
            if isinstance(obj, dict):
                for key, value in obj.items():
                    out[(module.__name__, attr, repr(key))] = id(value)
            if inspect.isclass(obj):
                for name, value in vars(obj).items():
                    out[(module.__name__, attr, name)] = id(value)
    return out


def test_tracing_restores_every_function():
    import jacgate.criteria
    import jacgate.parsing

    before = _bindings()
    original = jacgate.criteria.only_origin
    checkers = jacgate.criteria._CHECKERS
    key = jacgate.criteria.Criterion.MAP_HIGHER_PART
    original_checker = checkers[key]
    fmap, _ = jacgate.parsing.parse_map_file("vars: x, y\nf = x + y^2\ng = y\n")

    def parse_error():
        try:
            jacgate.parsing.parse_map_file("vars: x\nf = x +\n")
        except jacgate.errors.ParseError:
            pass

    tracer = Tracer()
    with tracer:
        assert jacgate.criteria.only_origin is not original
        assert checkers[key] is not original_checker
        assert checkers[key] is jacgate.criteria.check_map_higher_part
        tracer.item(jacgate.criteria.verdict, fmap)
        tracer.item(parse_error)  # a wrapped call that raises
    assert _bindings() == before
    assert jacgate.criteria.only_origin is original
    # calls through direct imports and the dispatch table were seen
    assert tracer.calls["criteria.check_map_higher_part"] >= 1
    assert tracer.calls["certify.only_origin"] >= 1
    assert tracer.calls["floatval.gauss_newton"] >= 1
    assert tracer.calls["intervals.IntervalPoly.bounds"] >= 1
    assert tracer.calls["parsing.parse_map_file"] == 1
    assert tracer._stack == [[0, tracer._stack[0][1]]]
    # self times add up to the item's duration
    total = sum(tracer.layer_self().values()) + tracer.self_time["bench.item"]
    assert abs(total - tracer.total["bench.item"]) < 1e-6


def test_traced_metrics_match_benchmark_json():
    import jacgate.criteria
    import jacgate.parsing

    fmap, _ = jacgate.parsing.parse_map_file("vars: x, y\nf = x + x^3 + y^3\ng = y\n")
    tracer = Tracer()
    with tracer:
        tracer.item(jacgate.criteria.verdict, fmap)
    metrics = run.trace_metrics("check-corpus", tracer, 1, 1.0, 1.0)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert metrics["certify.only_origin.calls"][0] >= 1
    assert metrics["floatval.gauss_newton.calls"][0] >= 1


def _report(kind, witnesses=()):
    return {"verdict": {"kind": kind, "by": "MapHigherPart", "weight": [1, 1]},
            "witnesses": list(witnesses),
            "attempts": [{"criterion": "MapHigherPart", "weight": [1, 1],
                          "outcome": {"kind": "only_origin"}}]}


def test_correctness_gate_rejects_wrong_outputs():
    fold = workloads.named_item("fold")
    cubic = workloads.named_item("cubic")

    def result(report, code):
        return {"error": None, "code": code, "payload": json.dumps(report).encode()}

    good = {"a": ["1", "0"], "b": ["-1", "0"], "exact": True, "deviation": 0.0}
    bad = {"a": ["1", "0"], "b": ["2", "0"], "exact": True, "deviation": 0.0}
    assert run.verify_check(fold, result(_report("not_injective", [good]), 2)) == (None, True, True)
    assert run.verify_check(fold, result(_report("not_injective", [bad]), 2))[0]
    assert run.verify_check(fold, result(_report("injective"), 0))[0]  # contradicts truth
    assert run.verify_check(cubic, result(_report("injective"), 2))[0]  # wrong exit code
    assert run.verify_check(cubic, result(_report("injective"), 0)) == (None, True, True)
    assert run.verify_check(cubic, result(_report("unknown"), 3)) == (None, False, False)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
