"""Command-line entry points: analysis, optimization, simulation, sweeps.

Every command reads a scenario (a YAML recipe, or the stock 3x3 grid when
none is given) and returns its JSON record and its CSV table
(:data:`Output`); it writes nothing.  :func:`run_command` is the one
writer: it writes the table to ``--out`` when that is given, then prints
the record as one JSON line, so a failed write prints no line.  Every
record starts with ``"command"`` and ends with ``"out"`` (the CSV path or
null), except that a ``sweep`` record's variable-specific keys follow
``"out"``.  Floats are rendered at 12 significant digits in both; CSV
output is UTF-8, comma-separated, decimal point.  Runs are single-threaded
and seeded, so a fixed command line reproduces its artifacts byte for byte.

Commands:

* ``analyze``: closed-form latency and rate of every candidate route at one
  window position.
* ``optimize-global``: best shared window and route.
* ``optimize-distributed``: best per-hop windows and route.
* ``simulate``: Monte Carlo on the selected route, empirical vs closed-form
  readings side by side.
* ``compare``: coordinated selection against shortest-path and geographic
  baselines, each at its own best window.
* ``sweep``: grid sweeps over the window, the trade-off weight, a traffic
  scale factor, or scheme beam counts, with CSV output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import astuple, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .closedform import _RouteStack
from .model import _windows, Route
from .optimize import (
    _baseline,
    _objective,
    _Scan,
    _solve_distributed,
    _solve_global,
    solve_distributed,
    solve_global,
)
from .routing import (
    GreedyLoopError,
    NoRouteError,
    enumerate_routes,
    gpsr_route,
    spr_route,
)
from .scenario import Scenario, build_grid_scenario, default_scenario, load_scenario
from .simulate import (
    BackhaulConfig,
    Branch,
    SimConfig,
    delta_t_for_scheme,
    simulate_route,
    sweep_windows,
)

__all__ = ["run_command", "main"]

# What every command returns: its JSON record, its CSV header and rows.
Output = tuple[dict, list[str], list[list]]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit(record: dict) -> None:
    print(json.dumps(record, separators=(", ", ": "), allow_nan=False))


def _json_ready(value):
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, (np.floating, np.integer)):
        return _json_ready(value.item())
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _nodes_label(route: Route) -> str:
    return "-".join(str(n) for n in route.nodes)


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    params = scenario.params
    if getattr(args, "alpha", None) is not None:
        if not 0.0 <= args.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        params = replace(params, weight=args.alpha)
    if args.scheme is not None:
        params = replace(params, trial_time=delta_t_for_scheme(args.scheme, 1 if args.beams is None else args.beams))
    elif args.beams is not None:
        raise ValueError("--beams needs --scheme")
    if params is not scenario.params:
        scenario = replace(scenario, params=params)
    return scenario


def _routes(scenario: Scenario, args) -> list[Route]:
    max_hops = scenario.route_filter if args.max_hops is None else args.max_hops
    return enumerate_routes(scenario.topology, scenario.source, scenario.destination, max_hops)


def _backhaul(args) -> BackhaulConfig | None:
    return BackhaulConfig() if getattr(args, "backhaul", False) else None


def _table(records: Sequence[dict]) -> tuple[list[str], list[list]]:
    """One CSV column per record key, in the records' key order."""
    header = list(records[0])
    return header, [[record[key] for key in header] for record in records]


def _cmd_analyze(args) -> Output:
    scenario = _load(args)
    params = scenario.params
    t = params.hop_dwell / 2 if args.t is None else args.t
    routes = _routes(scenario, args)
    # Every route at t in one kernel read.
    out = _RouteStack(routes, params).read(np.arange(len(routes)), t)
    readings = zip(*(out[name].tolist() for name in ("latency", "rate_closed", "rate_min_means")))
    records = [
        {
            "route": i,
            "nodes": _nodes_label(route),
            "hops": len(route),
            "latency": lat,
            "rate": rate,
            "rate_min_means": rate_mm,
        }
        for i, (route, (lat, rate, rate_mm)) in enumerate(zip(routes, readings))
    ]
    record = {
        "command": "analyze",
        "t": t,
        "routes": records,
        "best_rate_route": max(records, key=lambda r: r["rate"])["route"],
        "best_latency_route": min(records, key=lambda r: r["latency"])["route"],
        "out": args.out,
    }
    return (record, *_table(records))


def _cmd_optimize_global(args) -> Output:
    scenario = _load(args)
    routes = _routes(scenario, args)
    outcome = solve_global(routes, scenario.params)
    record = {
        "command": "optimize-global",
        "alpha": scenario.params.weight,
        "t_star": outcome.t_star,
        "objective": outcome.objective,
        "route": outcome.route_index,
        "nodes": _nodes_label(routes[outcome.route_index]),
        "latency": outcome.latency,
        "rate": outcome.rate,
        "stationarity_ok": bool(outcome.kkt.get("ok", False)),
        "out": args.out,
    }
    rows = [
        [i, _nodes_label(r), t_i, val_i]
        for i, (r, (t_i, val_i)) in enumerate(zip(routes, outcome.per_route_best))
    ]
    return record, ["route", "nodes", "t_star", "objective"], rows


def _cmd_optimize_distributed(args) -> Output:
    scenario = _load(args)
    routes = _routes(scenario, args)
    outcome = solve_distributed(routes, scenario.params)
    record = {
        "command": "optimize-distributed",
        "alpha": scenario.params.weight,
        "windows": list(outcome.windows),
        "objective": outcome.objective,
        "route": outcome.route_index,
        "nodes": _nodes_label(routes[outcome.route_index]),
        "latency": outcome.latency,
        "rate": outcome.rate,
        "out": args.out,
    }
    rows = [
        [i, _nodes_label(routes[i]), h, w, val]
        for i, (windows, val) in enumerate(outcome.per_route)
        for h, w in enumerate(windows)
    ]
    return record, ["route", "nodes", "hop", "window", "objective"], rows


_SIM_COLUMNS = ["t", "mean_latency", "se_latency", "mean_rate", "se_rate", "p_fwd", "p_succ", "p_fail"]


def _sim_row(t: float, result) -> list:
    """A simulation's _SIM_COLUMNS: the window, the means and their standard
    errors, and the shares of hop outcomes that forward, discover and fail."""
    frac = result.branch_counts.sum(axis=0) / (result.snapshots * len(result.branch_counts))
    forward = float(frac[Branch.COURIER_FORWARD])
    success = float(frac[Branch.DISCOVERY_SUCCESS])
    failure = float(frac[Branch.DISCOVERY_FAILURE] + frac[Branch.BACKHAUL_FORWARD])
    means = [result.mean_latency, result.se_latency, result.mean_rate, result.se_rate]
    return [t, *means, forward, success, failure]


def _cmd_simulate(args) -> Output:
    scenario = _load(args)
    params = scenario.params
    routes = _routes(scenario, args)
    scan = _Scan(routes, params)  # its stack reads the winner again
    outcome = _solve_global(routes, params, [params.weight], None, False, scan)[0]
    route = routes[outcome.route_index]
    t = outcome.t_star if args.t is None else args.t
    config = SimConfig(snapshots=args.snapshots, seed=args.seed, mode=args.mode)
    result = simulate_route(route, t, params, config, backhaul=_backhaul(args))
    out = scan.stack.read(outcome.route_index, [t])
    lat_closed, rate_closed, rate_mm = (float(out[name][0]) for name in ("latency", "rate_closed", "rate_min_means"))
    # No relative error against an analytic reading of 0: JSON has no infinity.
    rel = lambda emp, ana: abs(emp - ana) / abs(ana) if ana != 0 else None
    record = {
        "command": "simulate",
        "t": t,
        "nodes": _nodes_label(route),
        "snapshots": result.snapshots,
        "mode": result.mode,
        "backhaul": bool(args.backhaul),
        "empirical": {
            "latency": result.mean_latency,
            "se_latency": result.se_latency,
            "rate": result.mean_rate,
            "se_rate": result.se_rate,
            "rate_mean_subst": result.mean_rate_mean_subst,
        },
        "analytic": {"latency": lat_closed, "rate": rate_closed, "rate_min_means": rate_mm},
        "relative_error": {
            "latency": rel(result.mean_latency, lat_closed),
            "rate": rel(result.mean_rate, rate_closed),
            "rate_mean_subst_vs_min_means": rel(result.mean_rate_mean_subst, rate_mm),
        },
        "out": args.out,
    }
    return record, _SIM_COLUMNS, [_sim_row(t, result)]


def _cmd_compare(args) -> Output:
    scenario = _load(args)
    params = scenario.params
    routes = _routes(scenario, args)
    scan = _Scan(routes, params)  # a baseline among the routes reads its search
    outcome = _solve_global(routes, params, [params.weight], None, False, scan)[0]
    entries = [("global", routes[outcome.route_index], outcome)]
    for name, pick in (("spr", spr_route), ("gpsr", gpsr_route)):
        route = pick(scenario.topology, scenario.source, scenario.destination)
        entries.append((name, route, _baseline(scan, outcome, route)))
    records = [
        {
            "strategy": name,
            "nodes": _nodes_label(route),
            "hops": len(route),
            "t_star": sub.t_star,
            "objective": sub.objective,
            "latency": sub.latency,
            "rate": sub.rate,
        }
        for name, route, sub in entries
    ]
    record = {"command": "compare", "alpha": params.weight, "strategies": records, "out": args.out}
    return (record, *_table(records))


def _parse_grid(args, default: np.ndarray) -> np.ndarray:
    if args.grid is None:
        return default
    if not args.grid.strip():
        raise ValueError("empty sweep grid")
    values = np.array([float(v) for v in args.grid.split(",")], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("sweep grid values must be finite")
    if np.any(np.diff(values) < 0):
        raise ValueError("sweep grid must be sorted ascending")
    return values


def _sweep_t(args, scenario: Scenario) -> tuple[list[str], list[list], dict]:
    params = scenario.params
    T = params.hop_dwell
    given = ((args.points, 41), (args.snapshots, 2_000), (args.seed, 0))
    points, snapshots, seed = (default if value is None else value for value, default in given)
    if points < 1:
        raise ValueError("--points must be at least 1")
    # Read by the window rule before the solve, so a bad grid fails early.
    grid, _ = _windows(_parse_grid(args, np.linspace(0.0, T, points)), params)
    routes = _routes(scenario, args)
    scan = _Scan(routes, params)  # its stack scores the winner again
    outcome = _solve_global(routes, params, [params.weight], None, False, scan)[0]
    route = routes[outcome.route_index]
    config = SimConfig(snapshots=snapshots, seed=seed, mode=args.mode or "physical")
    results = sweep_windows(route, [float(t) for t in grid], params, config, backhaul=_backhaul(args))
    objectives = _objective(scan.stack, outcome.route_index, grid, astuple(outcome.context), params.weight).tolist()
    rows = [[*_sim_row(float(t), res), objective] for t, res, objective in zip(grid, results, objectives)]
    best = max(rows, key=lambda r: r[-1])
    return [*_SIM_COLUMNS, "objective"], rows, {"nodes": _nodes_label(route), "argmax_objective_t": best[0]}


def _sweep_alpha(args, scenario: Scenario) -> tuple[list[str], list[list], dict]:
    params = scenario.params
    grid = _parse_grid(args, np.linspace(0.0, 1.0, 11))
    if np.any(grid < 0) or np.any(grid > 1):
        raise ValueError("alpha grid must lie within [0, 1]")
    routes = _routes(scenario, args)
    weights = [float(alpha) for alpha in grid]
    # Each solver runs once for every weight, both on one scan: neither its
    # grid read nor its envelopes depend on the weight or the solver.
    scan = _Scan(routes, params)
    coordinated = _solve_global(routes, params, weights, None, False, scan)
    distributed = _solve_distributed(routes, params, weights, None, scan)
    rows = [
        [alpha, g.t_star, g.objective, g.latency, g.rate, d.objective, d.latency, d.rate]
        for alpha, g, d in zip(weights, coordinated, distributed)
    ]
    header = [
        "alpha",
        "t_star_global",
        "objective_global",
        "latency_global",
        "rate_global",
        "objective_distributed",
        "latency_distributed",
        "rate_distributed",
    ]
    return header, rows, {"routes": len(routes)}


def _sweep_lambda_scale(args, scenario: Scenario) -> tuple[list[str], list[list], dict]:
    grid = _parse_grid(args, np.array([0.5, 0.75, 1.0, 1.25, 1.5]))
    if np.any(grid <= 0):
        raise ValueError("traffic scale factors must be positive")
    rows = []
    for scale in grid:
        low, high = scenario.arrival_interval
        scaled = build_grid_scenario(
            rows=scenario.rows,
            cols=scenario.cols,
            block_length=scenario.block_length,
            params=scenario.params,
            seed=scenario.seed,
            arrival_interval=(low * float(scale), high * float(scale)),
            source=scenario.source,
            destination=scenario.destination,
            route_filter=scenario.route_filter,
        )
        routes = _routes(scaled, args)
        outcome = solve_distributed(routes, scaled.params)
        route = routes[outcome.route_index]
        for h, w in enumerate(outcome.windows):
            rows.append([float(scale), outcome.route_index, _nodes_label(route), h, w, outcome.objective])
    header = ["lambda_scale", "route", "nodes", "hop", "window", "objective"]
    return header, rows, {"entries": len(rows)}


def _sweep_scheme_beams(args, scenario: Scenario) -> tuple[list[str], list[list], dict]:
    grid = _parse_grid(args, np.arange(1.0, 9.0))
    beams = [int(b) for b in grid]
    if any(b < 1 or b != g for b, g in zip(beams, grid)):
        raise ValueError("beam counts must be positive integers")
    routes = _routes(scenario, args)
    rows = []
    for scheme in ("TD", "SD", "FD", "CD"):
        for m in beams:
            if scheme == "TD" and m != 1:
                continue
            dt = delta_t_for_scheme(scheme, m)
            params = replace(scenario.params, trial_time=dt)
            outcome = solve_global(routes, params, with_kkt=False)
            rows.append(
                [scheme, m, dt, outcome.t_star, outcome.objective, outcome.latency, outcome.rate]
            )
    header = ["scheme", "beams", "delta_t", "t_star", "objective", "latency", "rate"]
    return header, rows, {"routes": len(routes)}


def _cmd_sweep(args) -> Output:
    # A flag the swept variable does not read, or overrides, is an error.
    for flag in ("backhaul", "mode", "snapshots", "seed", "points"):
        if getattr(args, flag) is not None and args.variable != "t":
            raise ValueError(f"--{flag} applies only to --variable t")
    if args.points is not None and args.grid is not None:
        raise ValueError("--points sizes the grid only when --grid is omitted")
    for flag, variable in (("alpha", "alpha"), ("scheme", "scheme_beams")):
        if getattr(args, flag) is not None and args.variable == variable:
            raise ValueError(f"--{flag} is swept by --variable {variable}")
    scenario = _load(args)
    runner = {
        "t": _sweep_t,
        "alpha": _sweep_alpha,
        "lambda_scale": _sweep_lambda_scale,
        "scheme_beams": _sweep_scheme_beams,
    }[args.variable]
    header, rows, extra = runner(args, scenario)
    record = {"command": "sweep", "variable": args.variable, "rows": len(rows), "columns": header}
    return {**record, "out": args.out, **extra}, header, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xdelivery",
        description="Multihop store-carry-forward delivery: analysis, optimization, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, alpha=True) -> None:
        p.add_argument("--scenario", help="scenario YAML recipe; omit for the stock 3x3 grid")
        p.add_argument("--max-hops", type=int, default=None, help="route length cap")
        p.add_argument("--scheme", choices=["TD", "SD", "FD", "CD"], default=None,
                       help="derive the trial duration from a discovery scheme")
        p.add_argument("--beams", type=int, default=None, help="beam count for --scheme; default 1")
        if alpha:
            p.add_argument("--alpha", type=float, default=None, help="trade-off weight in [0, 1]")
        p.add_argument("--out", default=None, help="CSV output path")

    p = sub.add_parser("analyze", help="closed-form readings per route at one window")
    common(p, alpha=False)
    p.add_argument("--t", type=float, default=None, help="window position; default half the dwell")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize-global", help="best shared window over all routes")
    common(p)
    p.set_defaults(func=_cmd_optimize_global)

    p = sub.add_parser("optimize-distributed", help="best per-hop windows over all routes")
    common(p)
    p.set_defaults(func=_cmd_optimize_distributed)

    p = sub.add_parser("simulate", help="Monte Carlo vs closed forms on the selected route")
    common(p)
    p.add_argument("--t", type=float, default=None, help="window; default: the optimizer's choice")
    p.add_argument("--snapshots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["physical", "analytic"], default="physical")
    p.add_argument("--backhaul", action="store_true", help="wire every consecutive RSU pair")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="coordinated selection vs SPR and GPSR baselines")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="grid sweep with CSV output")
    common(p)
    p.add_argument("--variable", choices=["t", "alpha", "lambda_scale", "scheme_beams"], default="t")
    p.add_argument("--grid", default=None, help="comma-separated ascending grid values")
    # --variable t's flags default to None, so other variables can reject them.
    p.add_argument("--points", type=int, default=None, help="grid size when --grid is omitted; default 41")
    p.add_argument("--snapshots", type=int, default=None, help="default 2000")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--mode", choices=["physical", "analytic"], default=None, help="default physical")
    p.add_argument("--backhaul", action="store_true", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first command only."""
    return build_parser()


def run_command(argv: Sequence[str] | None = None) -> int:
    """Parse and run one command and write its output, the CSV table before
    the JSON line (see the module docstring); returns the exit status."""
    args = _parser().parse_args(argv)
    try:
        record, header, rows = args.func(args)
        if args.out:
            _write_csv(args.out, header, rows)
        _emit(_json_ready(record))
        return 0
    except (
        ValueError,
        NoRouteError,
        GreedyLoopError,
        OSError,
        yaml.YAMLError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
