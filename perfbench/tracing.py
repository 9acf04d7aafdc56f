"""Span tracing of jacgate's layers from outside the package.

``Tracer.install`` wraps the public functions of every jacgate module, plus
a few hot methods, and rebinds every name that refers to them: module
attributes, the names other modules imported directly (``from .floatval
import gauss_newton``) and functions held in module-level dicts (the
criteria dispatch table). ``uninstall`` puts every original back.

Each call records a span (id, parent id, name, start, end) in memory; the
spans are written out once, at the end of a run. The hot interval methods
are counted and timed but keep no span of their own, so that memory stays
bounded. Self time is a call's duration minus the time of the calls it
made into other wrapped functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "parsing", "criteria", "certify", "dynamics", "floatval", "intervals",
          "poly", "weights", "sampling")
# methods traced besides module-level functions: (layer, class, method, span name)
METHODS = (
    ("floatval", "FloatSystem", "__init__", "FloatSystem.init"),
    ("intervals", "IntervalPoly", "bounds", "IntervalPoly.bounds"),
    ("intervals", "IntervalPoly", "excludes_zero", "IntervalPoly.excludes_zero"),
    ("intervals", "Box", "split", "Box.split"),
)
# called up to millions of times per run: aggregated, no span kept
HOT = frozenset({"intervals.IntervalPoly.bounds", "intervals.IntervalPoly.excludes_zero",
                 "intervals.Box.split"})
MAX_SPANS = 400_000
ITEM = "bench.item"


def _system_key(system) -> tuple:
    return tuple((p.n, tuple(p.sorted_terms())) for p in system)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # observed outcomes, see _observe
        self.max_depth = 0
        self.systems: set = set()
        self._stack: list[list] = [[0, 0.0]]  # [span id, time spent in children]
        self._next_id = 1
        self._in_only_origin = 0
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def modules(self) -> list:
        return [importlib.import_module("jacgate")] + [
            importlib.import_module(f"jacgate.{layer}") for layer in LAYERS]

    def targets(self) -> list[tuple]:
        """(span name, owner, attribute, original) for every traced callable."""
        out = []
        for layer in LAYERS:
            module = importlib.import_module(f"jacgate.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    out.append((f"{layer}.{attr}", module, attr, obj))
            for owner_layer, cls_name, method, label in METHODS:
                cls = vars(module).get(cls_name) if owner_layer == layer else None
                if cls is not None and method in vars(cls):
                    out.append((f"{layer}.{label}", cls, method, vars(cls)[method]))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, original in self.targets():
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = (original, wrapper)
            self._patches.append((owner, attr, original, "attr"))
            setattr(owner, attr, wrapper)
        # names imported directly into other modules, and dispatch tables
        for module in self.modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj, "attr"))
                    setattr(module, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value, "item"))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, kind = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        hot = name in HOT
        observe = self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            if name == "certify.only_origin":
                self._in_only_origin += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if name == "certify.only_origin":
                    self._in_only_origin -= 1
                duration = end - start
                parent[1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if not hot:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((frame[0], parent[0], name, start, end))
                    else:
                        self.dropped += 1
            observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result) -> None:
        if name == "intervals.IntervalPoly.excludes_zero":
            self.counts["excludes_zero.hits"] += bool(result)
        elif name == "floatval.gauss_newton":
            self.counts["gauss_newton.converged"] += bool(result[2])
            self.counts["gauss_newton.under_only_origin"] += self._in_only_origin > 0
        elif name == "certify.only_origin":
            self.counts["only_origin.boxes"] += result.boxes
            self.counts["only_origin.inconclusive"] += result.is_inconclusive
            self.max_depth = max(self.max_depth, result.max_depth)
            self.systems.add(_system_key(args[0]))
        elif name == "criteria.weight_search":
            self.counts["weight_search.attempts"] += sum(len(r) for r in result.attempts.values())

    def item(self, fn, *args):
        """Run ``fn(*args)`` as one root span, the unit whose time the layers share."""
        return self._wrap(ITEM, fn)(*args)

    # -- results ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end"), span))))
                handle.write("\n")
