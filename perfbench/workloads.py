"""The benchmark's four workloads: seeded inputs, timed calls, output checks.

Every workload is a closed loop in one process and one thread: a pass is a
fixed list of top-level calls into the package, and the next call starts
when the previous one returns.  Pass ``i`` of a run with seed ``s`` builds
its scenario from the traffic seed ``pass_seed(s, i)``, which also keys the
Monte Carlo streams, so the same seed always gives the same inputs while a
cache kept across passes never sees the same scenario twice.

Why each workload exists:

* ``study-3x3``: a parameter study through ``cli.run_command`` on the stock
  3x3 grid (12 routes, at most 8 hops).  Every command reuses the same
  routes and ``SystemParams``; only the weight changes.  Per-call overhead,
  evaluators and normalizations rebuilt for identical inputs, and the CLI
  layer dominate.  This is the workload a reuse cache should speed up.
* ``select-4x4``: ``global_routing`` over every loop-free route of a 4x4
  grid (184 routes of 6 to 14 hops) at a trial time of ``SELECT_TRIAL_TIME``.
  The exact E[max wait] term makes each ``RouteEvaluator`` O(2^k), and
  normalization scales with the route set, so per-hop algebra and route-set
  scaling show here and not on 3x3.  The coarse trial time keeps the scan
  grids small (20 pieces per window), so evaluator builds are most of a pass
  and a run repeats the pass often enough for a steady median; the scan grid
  at fine trial times is ``fine-trials``' subject.
* ``fine-trials``: ``solve_global`` on the stock 3x3 routes once per trial
  time in ``FINE_TRIAL_TIMES``.  Scan grid, bracketing and bisection grow
  with the piece count (1000 pieces at 0.02), evaluator builds stay cheap
  (k <= 8), and no two calls share ``SystemParams``: the no-reuse
  counterpart of ``study-3x3``, where a reuse cache must cost nothing.
* ``mc-validate``: ``simulate_route`` and ``sweep_windows`` on the SPR route
  (4 hops) and the longest loop-free route (8 hops) of the 3x3 grid at a
  fixed window.  The simulation layer does nearly all the work, with no
  optimizer call, including the memory-heavy (windows x snapshots) sweep.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

import v2xdelivery as v2x
import v2xdelivery.cli  # noqa: F401  (binds v2x.cli for run_command lookups)

# Oracle agreement, as tier-1 applies it to the evaluator's rate.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Both solvers break ties between routes within this objective gap.
TIE_TOL = 1e-15
# Monte Carlo branch fractions must sit within SE_LIMIT standard errors,
# widened by a Bonferroni correction so that one call's family of
# comparisons (up to 41 windows x 8 hops x 3 branches) raises a false alarm
# with probability FAMILY_ALPHA.  At a flat 4 SE a pass of mc-validate failed
# on noise alone in about one seed of a hundred.
SE_LIMIT = 4.0
FAMILY_ALPHA = 1e-6

STUDY_WEIGHTS = "0,0.5,1"
STUDY_COMMANDS = (
    ("analyze",),
    ("optimize-global",),
    ("optimize-distributed",),
    ("compare",),
    ("sweep", "--variable", "alpha", "--grid", STUDY_WEIGHTS),
)
SELECT_TRIAL_TIME = 1.0
FINE_TRIAL_TIMES = (0.02, 0.05, 0.1, 0.2)
MC_WINDOW = 8.0
MC_SNAPSHOTS = 300_000
MC_SWEEP_SNAPSHOTS = 50_000
MC_SWEEP_WINDOWS = 41


@dataclass(frozen=True)
class Call:
    """One top-level call of a pass.

    ``run`` is timed; ``check`` runs after it, untimed, and returns the
    problems it found in the output.  ``work`` counts what the call
    completes: candidate routes evaluated, or simulated snapshot-hops.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    work: int


def pass_seed(seed: int, index: int) -> int:
    """Traffic and Monte Carlo seed of pass ``index`` in a run keyed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- output checks --------------------------------------------------------


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= max(REL_TOL * abs(reference), ABS_TOL)


def _check_shared_window(label, route, t, params, latency, rate) -> list[str]:
    problems = []
    lat_ref = v2x.e2e_latency_closed(route, t, params)
    rate_ref = v2x.e2e_rate_closed(route, t, params)
    if not _close(latency, lat_ref):
        problems.append(f"{label}: latency {latency!r} != oracle {lat_ref!r} at t={t!r}")
    if not _close(rate, rate_ref):
        problems.append(f"{label}: rate {rate!r} != oracle {rate_ref!r} at t={t!r}")
    return problems


def _check_per_hop_windows(label, route, windows, params, latency, rate) -> list[str]:
    # The distributed aggregate sums hop latencies and takes the weakest hop
    # mean, each hop at its own window; the model scalars are its oracle.
    problems = []
    if len(windows) != len(route):
        return [f"{label}: {len(windows)} windows for {len(route)} hops"]
    lat_ref = sum(v2x.expected_hop_latency(h, w, params) for h, w in zip(route.hops, windows))
    rate_ref = min(v2x.expected_hop_rate(h, w, params) for h, w in zip(route.hops, windows))
    if not _close(latency, lat_ref):
        problems.append(f"{label}: latency {latency!r} != oracle {lat_ref!r}")
    if not _close(rate, rate_ref):
        problems.append(f"{label}: rate {rate!r} != oracle {rate_ref!r}")
    return problems


def _check_winner_objective(label, objective, values) -> list[str]:
    top = max(values)
    if abs(objective - top) > TIE_TOL:
        return [f"{label}: objective {objective!r} is not the per-route maximum {top!r}"]
    return []


def _check_global_outcome(label, routes, outcome, params) -> list[str]:
    route = routes[outcome.route_index]
    problems = _check_winner_objective(label, outcome.objective, [v for _, v in outcome.per_route_best])
    if outcome.kkt and not outcome.kkt.get("ok", False):
        problems.append(f"{label}: stationarity check failed: {outcome.kkt}")
    problems += _check_shared_window(label, route, outcome.t_star, params, outcome.latency, outcome.rate)
    return problems


def _se_limit(comparisons: int) -> float:
    return max(SE_LIMIT, NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * comparisons)))


def _check_branches(label, route, result, params, limit) -> list[str]:
    n = result.snapshots
    problems = []
    for h, hop in enumerate(route.hops):
        t = result.windows[h]
        if result.mode == "analytic":
            expected = (
                v2x.p_courier_forward(hop),
                v2x.p_success(hop, t, params),
                v2x.p_failure(hop, t, params),
            )
        else:
            expected = v2x.physical_branch_probs(hop, t, params)
        counts = result.branch_counts[h]
        seen = (
            counts[v2x.Branch.COURIER_FORWARD],
            counts[v2x.Branch.DISCOVERY_SUCCESS],
            counts[v2x.Branch.DISCOVERY_FAILURE] + counts[v2x.Branch.BACKHAUL_FORWARD],
        )
        for branch, p, c in zip(("forward", "success", "failure"), expected, seen):
            se = math.sqrt(p * (1.0 - p) / n)
            diff = abs(c / n - p)
            if diff > limit * se:
                problems.append(
                    f"{label}: hop {h} {branch} fraction {c / n!r} vs {p!r} "
                    f"({diff / se if se else math.inf:.2f} SE) at t={t!r}"
                )
    return problems


# -- workloads --------------------------------------------------------------


def _scenario(seed: int, index: int, rows: int = 3, cols: int = 3):
    return v2x.build_grid_scenario(rows=rows, cols=cols, seed=pass_seed(seed, index))


def _routes(scenario):
    return v2x.enumerate_routes(scenario.topology, scenario.source, scenario.destination)


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = v2x.cli.run_command(argv)
        return status, out.getvalue()

    return run


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def prepare_study(seed: int, index: int, workdir: Path) -> list[Call]:
    scenario = _scenario(seed, index)
    recipe = workdir / f"study-{index}.yaml"
    v2x.save_scenario(scenario, recipe)
    routes = _routes(scenario)
    params = scenario.params
    by_nodes = {"-".join(str(n) for n in r.nodes): r for r in routes}
    weights = len(STUDY_WEIGHTS.split(","))
    n = len(routes)
    # CSV data rows each command must write, and the route evaluations it asks for.
    expected_rows = {
        "analyze": (n, n),
        "optimize-global": (n, n),
        "optimize-distributed": (sum(len(r) for r in routes), n),
        "compare": (3, n + 2),
        "sweep": (weights, 2 * n * weights),
    }

    def make_check(command: str, out: Path) -> Callable[[Any], list[str]]:
        def check(result) -> list[str]:
            status, stdout = result
            if status != 0:
                return [f"{command}: exit status {status}"]
            lines = stdout.strip().splitlines()
            try:
                record = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError) as exc:
                return [f"{command}: stdout is not one JSON line ({exc})"]
            rows = _read_csv(out)
            problems = []
            if len(rows) != expected_rows[command][0]:
                problems.append(f"{command}: {len(rows)} CSV rows, expected {expected_rows[command][0]}")
            if command == "optimize-global":
                if record["stationarity_ok"] is not True:
                    problems.append(f"{command}: stationarity check failed")
                route = by_nodes[record["nodes"]]
                problems += _check_winner_objective(
                    command, record["objective"], [float(r["objective"]) for r in rows]
                )
                problems += _check_shared_window(
                    command, route, record["t_star"], params, record["latency"], record["rate"]
                )
            elif command == "optimize-distributed":
                route = by_nodes[record["nodes"]]
                problems += _check_winner_objective(
                    command, record["objective"], [float(r["objective"]) for r in rows]
                )
                problems += _check_per_hop_windows(
                    command, route, record["windows"], params, record["latency"], record["rate"]
                )
            elif command == "compare":
                best = next(s for s in record["strategies"] if s["strategy"] == "global")
                problems += _check_shared_window(
                    command, by_nodes[best["nodes"]], best["t_star"], params, best["latency"], best["rate"]
                )
            return problems

        return check

    calls = []
    for i, command in enumerate(STUDY_COMMANDS):
        out = workdir / f"study-{index}-{i}.csv"
        argv = list(command) + ["--scenario", str(recipe), "--out", str(out)]
        calls.append(Call(command[0], _cli(argv), make_check(command[0], out), expected_rows[command[0]][1]))
    return calls


def prepare_select(seed: int, index: int, workdir: Path) -> list[Call]:
    scenario = _scenario(seed, index, rows=4, cols=4)
    routes = _routes(scenario)
    params = replace(scenario.params, trial_time=SELECT_TRIAL_TIME)

    def run():
        return v2x.global_routing(scenario.topology, scenario.source, scenario.destination, params)

    def check(result) -> list[str]:
        route, outcome = result
        if route != routes[outcome.route_index]:
            return ["global_routing: returned route is not the winner's route"]
        return _check_global_outcome("global_routing", routes, outcome, params)

    return [Call("global_routing", run, check, len(routes))]


def prepare_fine(seed: int, index: int, workdir: Path) -> list[Call]:
    scenario = _scenario(seed, index)
    routes = _routes(scenario)
    calls = []
    for trial_time in FINE_TRIAL_TIMES:
        params = replace(scenario.params, trial_time=trial_time)
        label = f"solve_global[trial_time={trial_time}]"
        calls.append(
            Call(
                label,
                lambda p=params: v2x.solve_global(routes, p),
                lambda outcome, p=params, label=label: _check_global_outcome(label, routes, outcome, p),
                len(routes),
            )
        )
    return calls


def prepare_mc(seed: int, index: int, workdir: Path) -> list[Call]:
    scenario = _scenario(seed, index)
    params = scenario.params
    sim_seed = pass_seed(seed, index)
    spr = v2x.spr_route(scenario.topology, scenario.source, scenario.destination)
    longest = max(_routes(scenario), key=len)
    windows = [float(t) for t in np.linspace(0.0, params.hop_dwell, MC_SWEEP_WINDOWS)]
    calls = []
    for tag, route in (("spr", spr), ("longest", longest)):
        for mode, backhaul in (("physical", None), ("analytic", None), ("physical", v2x.BackhaulConfig())):
            label = f"simulate_route[{tag},{mode}{',backhaul' if backhaul else ''}]"
            config = v2x.SimConfig(snapshots=MC_SNAPSHOTS, seed=sim_seed, mode=mode)
            calls.append(
                Call(
                    label,
                    lambda r=route, c=config, b=backhaul: v2x.simulate_route(r, MC_WINDOW, params, c, backhaul=b),
                    lambda res, r=route, label=label: _check_branches(label, r, res, params, _se_limit(3 * len(r))),
                    MC_SNAPSHOTS * len(route),
                )
            )
    for tag, route in (("spr", spr), ("longest", longest)):
        label = f"sweep_windows[{tag}]"
        config = v2x.SimConfig(snapshots=MC_SWEEP_SNAPSHOTS, seed=sim_seed)

        def check(results, r=route, label=label) -> list[str]:
            if len(results) != len(windows):
                return [f"{label}: {len(results)} results for {len(windows)} windows"]
            limit = _se_limit(3 * len(r) * len(windows))
            problems = []
            for res in results:
                problems += _check_branches(label, r, res, params, limit)
            return problems

        calls.append(
            Call(
                label,
                lambda r=route, c=config: v2x.sweep_windows(r, windows, params, c),
                check,
                MC_SWEEP_SNAPSHOTS * len(route) * len(windows),
            )
        )
    return calls


WORKLOADS: dict[str, Callable[[int, int, Path], list[Call]]] = {
    "study-3x3": prepare_study,
    "select-4x4": prepare_select,
    "fine-trials": prepare_fine,
    "mc-validate": prepare_mc,
}
