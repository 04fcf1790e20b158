"""Helpers shared across test modules."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

import v2xdelivery
from v2xdelivery import Hop, Route, RouteEvaluator, SystemParams
from v2xdelivery import closedform, optimize


def child_env(**overrides: str) -> dict[str, str]:
    """This process's environment for a child interpreter, with the root of
    the package under test first on its PYTHONPATH, plus ``overrides``."""
    package_root = str(Path(v2xdelivery.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)


def window_grid(params: SystemParams, n: int) -> np.ndarray:
    """n-point window grid over [0, T] containing every whole-trial edge.

    The closed forms jump wherever one more trial fits into the window, so
    identity and monotonicity checks must sample those points exactly.
    """
    T = params.hop_dwell
    breaks = np.unique(np.minimum(np.arange(0.0, T + params.trial_time, params.trial_time), T))
    if len(breaks) > n:
        raise ValueError(f"{n} points cannot contain {len(breaks)} breakpoints")
    fill = np.linspace(0.0, T, n - len(breaks) + 2)[1:-1]
    grid = np.union1d(breaks, fill)
    while len(grid) < n:
        mids = 0.5 * (grid[:-1] + grid[1:])
        grid = np.union1d(grid, mids[: n - len(grid)])
    assert len(grid) == n and grid[0] == 0.0 and grid[-1] == T
    return grid


def make_route(rng: np.random.Generator, k: int | None = None, degs=(2, 3)) -> Route:
    """Random route with arrival rates in the stock interval."""
    k = int(rng.integers(2, 7)) if k is None else k
    hops = tuple(
        Hop(
            arrival_rate=float(rng.uniform(0.05, 0.3)),
            deg=int(rng.choice(degs)),
            rsu_id=f"r{i}",
        )
        for i in range(k)
    )
    nodes = tuple(str(i) for i in range(k + 1))
    return Route(hops=hops, source=nodes[0], destination=nodes[-1], nodes=nodes)


def start_cold() -> None:
    """Empty both process memos, the joint-outcome totals
    (``closedform._TOTALS``) and the kept scan (``optimize._KEPT``), so
    that the next solve does all of its work, as a new process's first
    solve would."""
    closedform._TOTALS.clear()
    optimize._KEPT.clear()


def count_table_builds(monkeypatch) -> list[str]:
    """Names of the joint-outcome work done, one entry a unit:
    ``_node_walk``, one walk over a stack's mixed routes, ``_fold_hop``,
    one hop folded into a walk's state, and ``_mixture_table``, one
    route's mixture table.  The count starts cold (see start_cold), so
    every stack's first table build walks as if it were the process's
    first."""
    start_cold()
    built = []
    for name in ("_node_walk", "_fold_hop", "_mixture_table"):
        original = getattr(closedform, name)

        def spy(*args, name=name, original=original, **kwargs):
            built.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(closedform, name, spy)
    return built


def is_mixed(route: Route) -> bool:
    """Whether a route reads the joint-outcome mixture: two hops or more,
    not all of them forwarding."""
    return len(route.hops) > 1 and any(h.deg > 1 for h in route.hops)


def prefix_tree_nodes(routes) -> int:
    """Nodes of the tree of the mixed routes' arrival-rate prefixes: the
    hop folds of one node walk over routes in depth-first order."""
    return len({tuple(h.arrival_rate for h in r.hops[:d]) for r in routes if is_mixed(r) for d in range(1, len(r) + 1)})


def fold_alone(lam, T: float, rows: int = 3) -> np.ndarray:
    """The node walk's first ``rows`` of W, A and B of one route alone,
    given its hops' arrival rates ``lam``."""
    return next(closedform._node_walk([np.asarray(lam, dtype=float).tolist()], closedform._v_nodes(T)[1], rows))


def table_alone(lam, T: float) -> np.ndarray:
    """The mixture table of one route alone, given its hops' arrival rates ``lam``."""
    lam = np.asarray(lam, dtype=float).tolist()
    return closedform._mixture_table(fold_alone(lam, T), lam, T, closedform._v_nodes(T))


def totals_alone(lam, T: float) -> tuple[float, float]:
    """J(1) and E[max wait] of one route alone, given its hops' arrival
    rates ``lam``, as a walk that keeps none computes them."""
    lam = np.asarray(lam, dtype=float).tolist()
    (W,) = fold_alone(lam, T, 1)
    ends = closedform._end_terms([lam], T)[:, 0]
    return closedform._mixture_totals(W, ends, T, closedform._v_nodes(T)[2])


def evaluators(stack) -> list[RouteEvaluator]:
    """A view of every route of a route stack, in order; each reads the stack's tables."""
    return [RouteEvaluator.__new__(RouteEvaluator)._bind(stack, j) for j in range(len(stack.routes))]


def columns(stack, j: int) -> np.ndarray:
    """Row j's distinct-hop columns of a route stack, in hop order."""
    return stack.at[: stack.ks[j], j]
