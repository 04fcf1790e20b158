"""Scenario construction and YAML recipe round-tripping.

A scenario is defined by a small recipe: grid dimensions, block length,
endpoint ids, the arrival-rate interval, a seed, and the system parameters.
The road topology and its per-street arrival rates are rebuilt
deterministically from the recipe, so saving and loading a scenario file
reproduces the scenario field for field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from .model import SystemParams
from .routing import Topology

__all__ = [
    "Scenario",
    "build_grid_scenario",
    "default_scenario",
    "load_scenario",
    "save_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """A reproducible delivery scenario on a rectangular street grid.

    Attributes:
        rows, cols: grid dimensions in intersections.
        block_length: street segment length in meters.
        params: system parameters shared by every hop.
        source, destination: intersection ids of the endpoints.
        arrival_interval: (low, high) of the per-street arrival-rate draw.
        seed: drives the arrival-rate assignment.
        route_filter: optional maximum hop count for route enumeration.
        topology: the rebuilt road network.
    """

    rows: int
    cols: int
    block_length: float
    params: SystemParams
    source: int
    destination: int
    arrival_interval: tuple[float, float]
    seed: int
    route_filter: int | None
    topology: Topology


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral value names ``name``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def build_grid_scenario(
    rows: int = 3,
    cols: int = 3,
    block_length: float = 250.0,
    params: SystemParams | None = None,
    seed: int = 0,
    arrival_interval: tuple[float, float] = (0.05, 0.3),
    source: int | None = None,
    destination: int | None = None,
    route_filter: int | None = None,
) -> Scenario:
    """Build a rows x cols intersection grid with seeded street traffic.

    Intersection ids run row-major from the upper-left; the default
    endpoints are the upper-left and lower-right corners.  Every street gets
    one arrival rate per direction, drawn uniformly from
    ``arrival_interval`` by a counter-based generator keyed on ``seed``, in
    sorted directed-edge order, so the assignment is stable across runs and
    platforms.

    Raises:
        ValueError: dimensions below 2x2, a block length or arrival
            interval that is not positive and finite, coinciding
            endpoints, a bool or non-integral ``rows``, ``cols``, ``seed``
            or ``route_filter``, or a ``route_filter`` below 1.
    """
    rows, cols, seed = _integer("rows", rows), _integer("cols", cols), _integer("seed", seed)
    if route_filter is not None:
        route_filter = _integer("route_filter", route_filter)
        if route_filter < 1:
            raise ValueError(f"route_filter must be at least 1, got {route_filter}")
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    if not 0 < block_length < math.inf:
        raise ValueError("block length must be positive and finite")
    low, high = arrival_interval
    if not 0 < low <= high < math.inf:
        raise ValueError("arrival interval must satisfy 0 < low <= high < inf")
    p = params or SystemParams()
    src = 0 if source is None else source
    dst = rows * cols - 1 if destination is None else destination
    if src == dst:
        raise ValueError("source and destination coincide")

    positions = {
        r * cols + c: (c * block_length, r * block_length)
        for r in range(rows)
        for c in range(cols)
    }
    if src not in positions or dst not in positions:
        raise ValueError("endpoints must be grid intersection ids")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.add((node, node + 1))
            if r + 1 < rows:
                edges.add((node, node + cols))
    directed = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.uniform(low, high, size=len(directed))
    rates = {edge: float(rate) for edge, rate in zip(directed, draws)}
    topology = Topology(positions=positions, edges=frozenset(edges), arrival_rates=rates)
    return Scenario(
        rows=rows,
        cols=cols,
        block_length=block_length,
        params=p,
        source=src,
        destination=dst,
        arrival_interval=(low, high),
        seed=seed,
        route_filter=route_filter,
        topology=topology,
    )


def default_scenario() -> Scenario:
    """The stock 3x3 grid with 250 m blocks and corner-to-corner endpoints."""
    return build_grid_scenario()


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the scenario's recipe as YAML; the topology is not serialized."""
    doc = {
        "grid": {
            "rows": scenario.rows,
            "cols": scenario.cols,
            "block_length": scenario.block_length,
        },
        "endpoints": {
            "source": scenario.source,
            "destination": scenario.destination,
        },
        "arrival": {
            "low": scenario.arrival_interval[0],
            "high": scenario.arrival_interval[1],
        },
        "seed": scenario.seed,
        "route_filter": scenario.route_filter,
        "params": asdict(scenario.params),
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    """Rebuild a scenario from its YAML recipe.

    Raises:
        ValueError: missing or malformed sections.
    """
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must hold a mapping")
    try:
        grid = raw.get("grid", {})
        endpoints = raw.get("endpoints", {})
        arrival = raw.get("arrival", {})
        params = SystemParams(**raw.get("params", {}))
        return build_grid_scenario(
            rows=grid.get("rows", 3),
            cols=grid.get("cols", 3),
            block_length=float(grid.get("block_length", 250.0)),
            params=params,
            seed=raw.get("seed", 0),
            arrival_interval=(
                float(arrival.get("low", 0.05)),
                float(arrival.get("high", 0.3)),
            ),
            source=endpoints.get("source"),
            destination=endpoints.get("destination"),
            route_filter=raw.get("route_filter"),
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
