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
outcome, and the last line is the sha256 of all the case lines.  Pytest
does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib

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


def outcome(routes, params, weight) -> str:
    """The repr of every solver output of one case."""
    ctx = build_normalization(routes, params)
    return repr(
        (
            ctx,
            _solve_global(routes, params, [weight], None, True),
            _solve_global(routes, params, [weight], ctx, True),
            _solve_distributed(routes, params, [weight], None),
            _solve_distributed(routes, params, [weight], ctx),
        )
    )


def main() -> None:
    overall = hashlib.sha256()
    count = 0
    for label, routes, params, weight in cases():
        line = f"{label}: {hashlib.sha256(outcome(routes, params, weight).encode()).hexdigest()}"
        print(line, flush=True)
        overall.update(line.encode() + b"\n")
        count += 1
    print(f"overall ({count} cases): {overall.hexdigest()}")


if __name__ == "__main__":
    main()
