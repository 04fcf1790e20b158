"""Spans around the package's public entry points, recorded from outside.

The tracer swaps each entry point for a wrapper in every module namespace
that holds it: ``cli``, ``routing`` and ``optimize`` import functions such as
``solve_global`` and ``enumerate_routes`` by name, so patching only the
defining module would miss their calls.  ``RouteEvaluator`` methods are
patched on the class.  A span is ``[name, layer, start, end, parent, root,
counts]``; ``root`` is the benchmark's top-level call the span belongs to.
Spans stay in memory and are written out once, when the run ends.

Each wrapper costs about a microsecond of Python per call.  The scalar
evaluator methods fire about 10^4 times per 3x3 ``solve_global``, so that
cost is reported per workload as ``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

import v2xdelivery as v2x

# Entry point -> layer.  Functions are looked up by name in every loaded
# v2xdelivery module; methods are patched on RouteEvaluator.
FUNCTION_LAYERS = {
    "build_grid_scenario": "scenario.build",
    "load_scenario": "scenario.build",
    "enumerate_routes": "routing.enumerate",
    "spr_route": "routing.baselines",
    "gpsr_route": "routing.baselines",
    "global_routing": "routing.select",
    "distributed_routing": "routing.select",
    "build_normalization": "optimize.normalization",
    "solve_global": "optimize.solve",
    "solve_distributed": "optimize.solve",
    "kkt_stationarity_check": "optimize.kkt",
    "simulate_route": "simulate",
    "sweep_windows": "simulate",
    "run_command": "cli",
}
METHOD_LAYERS = {
    "__init__": "closedform.build",
    "series": "closedform.series",
    "rate_closed": "closedform.scalar",
    "latency": "closedform.scalar",
    "hop_latencies": "closedform.scalar",
    "hop_rates": "closedform.scalar",
    "rate_min_of_means": "closedform.scalar",
}


def _enumerate_counts(bound, result) -> dict:
    return {"routes": len(result), "max_hops": max(len(r) for r in result)}


def _series_counts(bound, result) -> dict:
    return {"series_points": len(bound.arguments["ts"])}


def _simulate_counts(bound, result) -> dict:
    config = bound.arguments.get("config") or v2x.SimConfig()
    windows = len(bound.arguments["ts"]) if "ts" in bound.arguments else 1
    return {"snapshot_hops": config.snapshots * len(bound.arguments["route"]) * windows}


def _cli_counts(bound, result) -> dict:
    argv = list(bound.arguments.get("argv") or ())
    if "--out" not in argv:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    return {"csv_bytes": out.stat().st_size if out.is_file() else 0}


# Counts read from a call's arguments and result; "max_" counts keep the
# maximum over calls, the rest are summed.
COUNTERS: dict[str, Callable] = {
    "enumerate_routes": _enumerate_counts,
    "series": _series_counts,
    "simulate_route": _simulate_counts,
    "sweep_windows": _simulate_counts,
    "run_command": _cli_counts,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent][5] if parent >= 0 else index
        span = [name, layer, time.perf_counter(), 0.0, parent, root, None]
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, layer: str = "call") -> Iterator[None]:
        """Span of one of the benchmark's own top-level steps."""
        span = self._open(name, layer)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                span[6] = counter(bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every entry point for the duration of the block."""
        undo = []
        modules = [m for key, m in sys.modules.items() if key == "v2xdelivery" or key.startswith("v2xdelivery.")]
        for name, layer in FUNCTION_LAYERS.items():
            original = getattr(v2x, name, None) or getattr(v2x.cli, name)
            wrapper = self._wrap(name, layer, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    undo.append((module, name, original))
                    setattr(module, name, wrapper)
        for name, layer in METHOD_LAYERS.items():
            original = v2x.RouteEvaluator.__dict__[name]
            undo.append((v2x.RouteEvaluator, name, original))
            setattr(v2x.RouteEvaluator, name, self._wrap(name, layer, original))
        try:
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer times and counts over the spans ``lo:hi`` of one pass.

        A layer's time counts each outermost span of that layer once, so a
        layer calling itself (``latency`` calling ``hop_latencies``) is not
        counted twice; self time subtracts the direct children's spans.
        The pass's input preparation counts only toward ``scenario.build``:
        its route enumeration serves the output checks, not the program.
        """
        spans = self.spans
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            parent = spans[i][4]
            if parent >= lo:
                child[parent - lo] += spans[i][3] - spans[i][2]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            _, layer, start, end, parent, root, extra = spans[i]
            if spans[root][1] == "prepare" and layer != "scenario.build":
                continue
            duration = end - start
            calls[layer] += 1
            own[layer] += duration - child[i - lo]
            while parent >= lo and spans[parent][1] != layer:
                parent = spans[parent][4]
            if parent < lo:
                inclusive[layer] += duration
            for key, value in (extra or {}).items():
                counts[key] = max(counts[key], value) if key.startswith("max_") else counts[key] + value
        return {
            "scenario.build_s": inclusive["scenario.build"],
            "routing.enumerate_s": inclusive["routing.enumerate"],
            "routing.enumerate_calls": calls["routing.enumerate"],
            "routing.routes": counts["routes"],
            "routing.max_hops": counts["max_hops"],
            "routing.baselines_s": inclusive["routing.baselines"],
            "closedform.build_s": inclusive["closedform.build"],
            "closedform.builds": calls["closedform.build"],
            "closedform.series_s": inclusive["closedform.series"],
            "closedform.series_calls": calls["closedform.series"],
            "closedform.series_points": counts["series_points"],
            "closedform.scalar_s": inclusive["closedform.scalar"],
            "closedform.scalar_calls": calls["closedform.scalar"],
            "optimize.normalization_s": inclusive["optimize.normalization"],
            "optimize.normalization_calls": calls["optimize.normalization"],
            "optimize.solve_calls": calls["optimize.solve"],
            "optimize.solve_self_s": own["optimize.solve"],
            "optimize.kkt_s": inclusive["optimize.kkt"],
            "simulate.calls": calls["simulate"],
            "simulate.busy_s": inclusive["simulate"],
            "simulate.snapshot_hops": counts["snapshot_hops"],
            "cli.commands": calls["cli"],
            "cli.self_s": own["cli"],
            "cli.csv_bytes": counts["csv_bytes"],
        }

    def write(self, path: Path, header: dict) -> None:
        """Write the header and then one span per line, gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps({**header, "fields": ["name", "layer", "start", "end", "parent", "root", "counts"]}))
            f.write("\n")
            for name, layer, start, end, parent, root, extra in self.spans:
                row = [name, layer, start - self._origin, end - self._origin, parent, root, extra]
                f.write(json.dumps(row, separators=(",", ":")))
                f.write("\n")
