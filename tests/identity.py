"""Bit-identity digest of the solvers over a fixed matrix of cases.

Run it from the repository root with

    PYTHONPATH=src python tests/identity.py

and compare its output between two versions of the package: a case whose
line differs moved.  The matrix is 204 cases: the 3x3 grid at seeds 0-3
and the 4x4 grid at seeds 2-3, each under six parameter sets (stock,
``rate_cell`` 0.3, ``trial_time`` 0.02 on 3x3 only, ``decode_error`` 0.3,
``rate_cell`` 2.5 at ``trial_time`` 1, and ``trial_time`` 1), two arrival
intervals and three weights.  A case's outcome is the ``repr`` of
``build_normalization``, of ``_solve_global`` with the KKT report and of
``_solve_distributed``, both solvers once without a context and once on
the normalization's.  Each case prints its label and the sha256 of that
outcome, and the last line is the sha256 of all the case lines.  Each
case starts cold (see ``support.start_cold``), so its line does not
depend on the cases before it, and its solves after the first read the
scan the first kept.  The matrix takes about 24 s on a shared 2-vCPU
machine, against 69 s when no solve kept a scan for the next.  Pytest
does not collect this file.

To size what moved between two versions, dump each version's outcome
fields and diff the dumps:

    PYTHONPATH=src python tests/identity.py --dump before.json
    PYTHONPATH=src python tests/identity.py --diff before.json after.json

A dump holds, per case, the context's four bounds and each solve's
route, window(s), objective, latency and rate.  The diff prints each case
that moved, with any route change and its largest window, objective, rate
and context moves, then a summary that lists every route change and every
window move beyond the search's 2e-8 s tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

from support import start_cold
from v2xdelivery import build_grid_scenario, build_normalization, enumerate_routes
from v2xdelivery.optimize import _solve_distributed, _solve_global

GRIDS = [(3, seed) for seed in range(4)] + [(4, 2), (4, 3)]
OVERRIDES = {
    "stock": {},
    "cell0.3": {"rate_cell": 0.3},
    "trial0.02": {"trial_time": 0.02},  # 3x3 only
    "decode0.3": {"decode_error": 0.3},
    "cell2.5-trial1": {"rate_cell": 2.5, "trial_time": 1.0},
    "trial1": {"trial_time": 1.0},
}
ARRIVALS = [(0.05, 0.3), (2.0, 4.0)]
WEIGHTS = [0.0, 0.5, 1.0]


def cases():
    """(label, routes, params, weight) of every case, in a fixed order."""
    for size, seed in GRIDS:
        for interval in ARRIVALS:
            scenario = build_grid_scenario(rows=size, cols=size, seed=seed, arrival_interval=interval)
            routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
            for name, override in OVERRIDES.items():
                if size > 3 and name == "trial0.02":
                    continue
                params = dataclasses.replace(scenario.params, **override)
                for weight in WEIGHTS:
                    yield f"{size}x{size} seed {seed} arrival {interval} {name} weight {weight}", routes, params, weight


SOLVES = ("global", "global_ctx", "distributed", "distributed_ctx")
#: The search's window tolerance, s: a window move beyond it is listed.
WINDOW_TOL = 2e-8


def outcome(routes, params, weight) -> tuple:
    """Every solver output of one case, from a cold start (see start_cold),
    so that no case reads what an earlier one kept: the context, then the
    one-weight lists of SOLVES in order.  The solves after the first reuse
    its kept scan."""
    start_cold()
    ctx = build_normalization(routes, params)
    return (
        ctx,
        _solve_global(routes, params, [weight], None, True),
        _solve_global(routes, params, [weight], ctx, True),
        _solve_distributed(routes, params, [weight], None),
        _solve_distributed(routes, params, [weight], ctx),
    )


def fields(out: tuple) -> dict:
    """The outcome fields of one case that a dump keeps."""
    ctx, *solves = out
    kept = {"context": [ctx.latency_min, ctx.latency_max, ctx.rate_min, ctx.rate_max]}
    for name, (s,) in zip(SOLVES, solves):
        windows = [s.t_star] if hasattr(s, "t_star") else list(s.windows)
        kept[name] = {"route": s.route_index, "windows": windows, "objective": s.objective,
                      "latency": s.latency, "rate": s.rate}
    return kept


def digest() -> None:
    overall = hashlib.sha256()
    count = 0
    for label, routes, params, weight in cases():
        line = f"{label}: {hashlib.sha256(repr(outcome(routes, params, weight)).encode()).hexdigest()}"
        print(line, flush=True)
        overall.update(line.encode() + b"\n")
        count += 1
    print(f"overall ({count} cases): {overall.hexdigest()}")


def dump(path: str) -> None:
    cases_out = {label: fields(outcome(routes, params, weight)) for label, routes, params, weight in cases()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cases_out, f, indent=1)


def moves(a: dict, b: dict) -> tuple[list[str], float, float, float]:
    """One case's route changes and its largest window, objective and rate moves."""
    routes, window, objective, rate = [], 0.0, 0.0, 0.0
    for name in SOLVES:
        x, y = a[name], b[name]
        if x["route"] != y["route"]:
            routes.append(f"{name} route {x['route']} -> {y['route']}")
        elif len(x["windows"]) == len(y["windows"]):
            window = max([window] + [abs(p - q) for p, q in zip(x["windows"], y["windows"])])
        objective = max(objective, abs(x["objective"] - y["objective"]))
        rate = max(rate, abs(x["rate"] - y["rate"]))
    return routes, window, objective, rate


def diff(path_a: str, path_b: str) -> None:
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    if a.keys() != b.keys():
        raise SystemExit("the two dumps hold different cases")
    moved, changed, wide = 0, [], []
    top_window = top_objective = top_rate = 0.0
    for label in a:
        if a[label] == b[label]:
            continue
        moved += 1
        routes, window, objective, rate = moves(a[label], b[label])
        context = max(abs(p - q) for p, q in zip(a[label]["context"], b[label]["context"]))
        print(f"{label}: window {window:.3g} s, objective {objective:.3g}, rate {rate:.3g}, "
              f"context {context:.3g}" + "".join(f"; {r}" for r in routes))
        changed += [f"{label}: {r}" for r in routes]
        if window > WINDOW_TOL:
            wide.append(f"{label}: {window:.3g} s")
        top_window, top_objective = max(top_window, window), max(top_objective, objective)
        top_rate = max(top_rate, rate)
    print(f"{moved} of {len(a)} cases moved; largest moves: window {top_window:.3g} s, "
          f"objective {top_objective:.3g}, rate {top_rate:.3g}")
    print(f"route changes: {len(changed)}" + "".join(f"\n  {line}" for line in changed))
    print(f"window moves beyond {WINDOW_TOL:g} s: {len(wide)}" + "".join(f"\n  {line}" for line in wide))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", metavar="FILE", help="write each case's outcome fields to FILE as JSON")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="print what moved between two dumps")
    args = parser.parse_args()
    if args.dump:
        dump(args.dump)
    elif args.diff:
        diff(*args.diff)
    else:
        digest()


if __name__ == "__main__":
    main()
