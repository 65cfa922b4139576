"""Outside-in tracing: spans around each module's public entry points.

The program is not changed.  ``Tracer.install`` replaces module attributes
with timing wrappers (the name as the caller binds it, so ``cli.load_scenario``
rather than ``scenario.load_scenario``) and ``Tracer.uninstall`` puts the
originals back, which lets a run alternate traced and untraced ops.

A span records name, layer, start, end, parent span and op id.  The hot leaf
``discounted_phi_sum`` (about 100k calls per op on the patience workloads) is
not given a span per call: its call count and total time are added to the
span that called it.  A wrapped name that does not exist is recorded as
absent instead of failing, so a refactor of the program does not break the
trace.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


def _in_bytes(args, kwargs, result) -> dict:
    return {"in_bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _thresholds(args, kwargs, result) -> dict:
    return {"thresholds": sum(p.threshold is not None for p in result)}


def _intervals(args, kwargs, result) -> dict:
    return {"intervals": len(result)}


def _prefixes(args, kwargs, result) -> dict:
    instance = args[0] if args else kwargs["instance"]
    length = args[2] if len(args) > 2 else kwargs["prefix_length"]
    subsets = sum(math.comb(instance.n, size) for size in range(instance.k + 1))
    return {"prefixes": subsets**length}


def _trials(args, kwargs, result) -> dict:
    return {"trials": result.trials, "violations": result.violations}


# (layer, module, attribute, counter): each span wraps the name as its caller binds it.
ENTRY_POINTS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("cli", "teachsel.cli", "main", None),
    ("scenario", "teachsel.cli", "load_scenario", _in_bytes),
    ("model", "teachsel.scenario", "ProblemInstance", None),
    ("planner", "teachsel.cli", "optimal_stationary_sequence", None),
    ("planner", "teachsel.cli", "discounted_baseline_loss", None),
    ("tradeoff", "teachsel.tradeoff", "all_switch_points", _thresholds),
    ("tradeoff", "teachsel.tradeoff", "enumerate_optimal_subsets", _intervals),
    ("oracle", "teachsel.oracle", "exhaustive_prefix_search", _prefixes),
    ("robustness", "teachsel.robustness", "margins", None),
    ("robustness", "teachsel.robustness", "validate_bound", _trials),
)

# (layer, module, attribute): aggregated per calling span instead of one span per call.
LEAVES: tuple[tuple[str, str, str], ...] = tuple(
    ("dynamics", f"teachsel.{module}", "discounted_phi_sum")
    for module in ("planner", "tradeoff", "robustness", "oracle")
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self.op: int | None = None
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for layer, module_name, attr, counter in ENTRY_POINTS:
            found = self._find(module_name, attr)
            if found:
                self._add(*found, self._span(f"{module_name}.{attr}", layer, found[2], counter))
        for layer, module_name, attr in LEAVES:
            found = self._find(module_name, attr)
            if found:
                self._add(*found, self._leaf(layer, found[2]))

    def _find(self, module_name: str, attr: str):
        try:
            module = importlib.import_module(module_name)
            return module, attr, getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return None

    def _add(self, module, attr: str, original, wrapper) -> None:
        self._saved.append((module, attr, original))
        self._wrappers.append((module, attr, wrapper))

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self.op = None

    def _span(self, name: str, layer: str, fn, counter: Counter | None):
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "op": self.op,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "leaves": {},
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError) as exc:
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def _leaf(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self._stack:
                    calls, seconds = self._stack[-1]["leaves"].get(layer, (0, 0.0))
                    self._stack[-1]["leaves"][layer] = (calls + 1, seconds + elapsed)

        return wrapper


def layer_totals(spans: list[dict]) -> dict[int, dict]:
    """Per op: self seconds and calls per layer, span counts, and root time.

    A span's self time is its duration minus its child spans and the leaf
    calls made from it.  ``leaf_calls_in`` keeps each span name's leaf calls
    apart, so a ratio can use the calls made inside one entry point.
    """
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    per_op: dict[int, dict] = {}
    for span in spans:
        op = per_op.setdefault(span["op"], {
            "self_s": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(int),
            "leaf_calls_in": defaultdict(int),
            "root_s": 0.0,
        })
        duration = span["end"] - span["start"]
        own = duration - children[span["id"]]
        for layer, (calls, seconds) in span["leaves"].items():
            own -= seconds
            op["self_s"][layer] += seconds
            op["calls"][layer] += calls
            op["leaf_calls_in"][span["name"]] += calls
        op["self_s"][span["layer"]] += own
        op["calls"][span["layer"]] += 1
        for key, value in span["counts"].items():
            op["counts"][f"{span['layer']}.{key}"] += value
        if span["parent"] is None:
            op["root_s"] += duration
    return per_op
