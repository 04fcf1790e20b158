"""Benchmark of the v2xdelivery package: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload study-3x3 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from
the spans (see ``tracing.py``), writing the spans under ``perfbench/out/``.
Every call's output is checked outside the timed region; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("study-3x3", "select-4x4", "fine-trials", "mc-validate")
# Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_PROBES = 3
# Probe samples a call needs to be scaled by its own speed reading.
MIN_CALL_SAMPLES = 5
# Single-threaded numerics, so runs do not contend with themselves.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# A fresh interpreter: import the package, then build pass 0's inputs.
PROBE = """
import json, sys, time
from pathlib import Path
import speed
probe = speed.SpeedProbe()
with probe.sampling():
    start = time.perf_counter()
    import v2xdelivery
    imported = time.perf_counter()
    import workloads
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), 0, Path(sys.argv[3]))
print(json.dumps({"import_s": imported - start, "scale": probe.scale(probe.samples)}))
"""


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def probe_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(set-up, import) reference seconds of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, workload, str(seed), str(workdir)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return elapsed * record["scale"], record["import_s"] * record["scale"]


def probe_scipy_import() -> float:
    """Seconds ``python -X importtime`` charges to scipy while importing the package.

    Sums the cumulative time of every scipy module imported outside another
    scipy module, that is the whole scipy subtree under ``v2xdelivery``.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import v2xdelivery"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{done.stderr}")
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    # importtime prints children before their parent; walk it parent-first.
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6


@dataclass
class PassResult:
    """One pass: raw seconds of each call and their factors to reference seconds."""

    work: int
    raw_times: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Factor over the whole pass, for figures that span several calls.
    scale: float = 1.0

    @property
    def times(self) -> list[float]:
        return [t * s for t, s in zip(self.raw_times, self.scales)]

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(prepare, seed: int, index: int, workdir: Path, probe: speed.SpeedProbe, tracer=None) -> PassResult:
    """One pass: build its inputs, then time each call and check its output.

    With a tracer, its wrappers are installed only around the preparation
    and the calls, so the output checks leave no spans.
    """
    installed = tracer.installed if tracer else contextlib.nullcontext

    def span(name: str, layer: str = "call"):
        return tracer.root(name, layer) if tracer else contextlib.nullcontext()

    with installed(), span("prepare", "prepare"):
        calls = prepare(seed, index, workdir)
    result = PassResult(work=sum(c.work for c in calls))
    samples: list[list[float]] = []
    for call in calls:
        found: list[str] = []
        probe.samples = []
        with installed(), probe.sampling():
            start = time.perf_counter()
            try:
                with span(call.name):
                    output = call.run()
            except Exception:  # a failing call is counted and reported, not fatal
                found = [f"{call.name} raised:\n{traceback.format_exc()}"]
            result.raw_times.append(time.perf_counter() - start)
        samples.append(probe.samples)
        if not found:
            try:
                found = call.check(output)
            except Exception:
                found = [f"{call.name}: output check raised:\n{traceback.format_exc()}"]
        if found:
            result.failed += 1
            result.problems += found
    result.scale = probe.scale([p for call in samples for p in call])
    # A call too short to collect its own samples takes the pass's factor.
    result.scales = [probe.scale(s) if len(s) >= MIN_CALL_SAMPLES else result.scale for s in samples]
    return result


def _measure(prepare, seed: int, seconds: float, workdir: Path, tracer=None):
    """Closed loop of passes until the next pass would overrun ``seconds``.

    Returns (untraced passes, traced passes, span ranges of traced passes).
    With a tracer, every index runs untraced and then traced on the same
    inputs, so the two walls differ only by tracing.
    """
    plain, traced, ranges = [], [], []
    probe = speed.SpeedProbe()
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        plain.append(run_pass(prepare, seed, index, workdir, probe))
        if tracer is not None:
            lo = len(tracer.spans)
            traced.append(run_pass(prepare, seed, index, workdir, probe, tracer))
            ranges.append((lo, len(tracer.spans)))
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return plain, traced, ranges
        index += 1


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(passes: list[PassResult], setup: list[float]) -> dict:
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median(p.wall for p in passes), "s"),
        "answer_p50_s": (_median(_median(p.times) for p in passes), "s"),
        "answer_max_s": (_median(max(p.times) for p in passes), "s"),
        "work_per_s": (_median(p.work / p.wall for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, plain, traced, ranges, imports: list[float]) -> dict:
    import v2xdelivery

    per_pass = [tracer.layer_metrics(lo, hi) for lo, hi in ranges]
    for metrics, p in zip(per_pass, traced):
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] *= p.scale
    layers: dict[str, tuple[float, str]] = {
        "setup.import_s": (_median(imports), "s"),
        "setup.import_scipy_s": (probe_scipy_import(), "s"),
    }
    for name in per_pass[0]:
        if name.endswith("_s"):
            layers[name] = (_median(m[name] for m in per_pass), "s")
        else:
            # Counts repeat exactly for a seed: they come from pass 0.
            layers[name] = (per_pass[0][name], "B" if name.endswith("_bytes") else "count")
    layers["trace.overhead_s"] = (_median(t.wall - p.wall for p, t in zip(plain, traced)), "s")
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "v2xdelivery").glob("*.py"))
    layers["code.src_lines"] = (src_lines, "lines")
    layers["code.all_names"] = (len(v2xdelivery.__all__), "count")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "v2xdelivery" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
        setup = [s for s, _ in probes]

        import tracing
        import workloads

        prepare = workloads.WORKLOADS[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, ranges = _measure(prepare, args.seed, args.seconds, workdir, tracer)
        if tracer is None:
            metrics = end_to_end_metrics(plain, setup)
        else:
            metrics = per_layer_metrics(tracer, plain, traced, ranges, [i for _, i in probes])
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans, {"workload": args.workload, "seed": args.seed, "traced_passes": len(traced)})
            print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p.raw_times) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes, "
        f"{len(plain[0].raw_times)} top-level calls per pass (answer_p50_s samples), {failed}/{attempted} calls failed"
    )
    print("  raw pass walls (s): " + " ".join(f"{sum(p.raw_times):.4f}" for p in plain)
          + "; reference scale: " + " ".join(f"{p.scale:.4f}" for p in plain))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
