"""Intersection-graph routing: exhaustive, shortest-path, and geographic.

The road network is a graph of intersections, each hosting a roadside unit.
A route's hop h is the directed edge from intersection h-1 to intersection
h; the hop inherits the edge's courier arrival rate, and its branching
degree counts the exit intersection's outgoing directions minus the one the
courier came from (a courier never turns straight back), floored at one.

Three selection strategies are provided:

* :func:`global_routing` scores every loop-free path with the coordinated
  window optimizer and keeps the best;
* :func:`spr_route` follows hop counts only, the classic shortest-path
  baseline;
* :func:`gpsr_route` is the stateless geographic baseline, greedy on
  Euclidean progress with right-hand perimeter recovery when greedy gets
  stuck.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .model import Hop, Route, SystemParams
from .optimize import (
    DistributedOutcome,
    NormalizationContext,
    OptimizationOutcome,
    solve_distributed,
    solve_global,
)

__all__ = [
    "NoRouteError",
    "GreedyLoopError",
    "Topology",
    "enumerate_routes",
    "spr_route",
    "gpsr_route",
    "global_routing",
    "distributed_routing",
]


class NoRouteError(RuntimeError):
    """No loop-free path connects the requested endpoints."""


class GreedyLoopError(RuntimeError):
    """Geographic forwarding revisited a directed edge; the packet loops."""


@dataclass(frozen=True)
class Topology:
    """Road network: intersection positions and undirected road segments.

    Attributes:
        positions: intersection id -> (x, y) in meters.
        edges: undirected segment set as (a, b) pairs.
        arrival_rates: courier arrival rate per directed edge (a, b); both
            directions must be present for every segment.
    """

    positions: dict[int, tuple[float, float]]
    edges: frozenset[tuple[int, int]]
    arrival_rates: dict[tuple[int, int], float] = field(default_factory=dict)
    # Adjacency, built once from ``edges``: both directions of every
    # segment, and each intersection's neighbors in ascending id order.
    _directed: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)
    _adjacent: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    # The Hop of each directed edge, built on its first hop_for and shared
    # by every route through the edge.
    _hops: dict[tuple[int, int], Hop] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.positions or b not in self.positions:
                raise ValueError(f"edge ({a}, {b}) references unknown intersection")
            if a == b:
                raise ValueError("self-loops are not roads")
        directed = frozenset(self.edges) | frozenset((b, a) for a, b in self.edges)
        adjacent: dict[int, list[int]] = {}
        for a, b in directed:
            adjacent.setdefault(a, []).append(b)
        object.__setattr__(self, "_directed", directed)
        object.__setattr__(self, "_adjacent", {node: tuple(sorted(out)) for node, out in adjacent.items()})
        for (a, b), rate in self.arrival_rates.items():
            if (a, b) not in directed:
                raise ValueError(f"rate given for non-edge ({a}, {b})")
            if rate <= 0:
                raise ValueError("arrival rates must be positive")

    def directed_edges(self) -> set[tuple[int, int]]:
        return set(self._directed)

    def neighbors(self, node: int) -> list[int]:
        """Adjacent intersections in ascending id order."""
        return list(self._adjacent.get(node, ()))

    def degree(self, node: int) -> int:
        return len(self._adjacent.get(node, ()))

    def hop_for(self, a: int, b: int) -> Hop:
        """Hop along the directed edge (a, b).

        The branch degree counts the ways out of b other than turning back
        toward a, floored at one so dead ends still forward.  One Hop is
        built per edge and returned by every later call.
        """
        hop = self._hops.get((a, b))
        if hop is None:
            if (a, b) not in self._directed:
                raise ValueError(f"({a}, {b}) is not a road segment")
            rate = self.arrival_rates.get((a, b))
            if rate is None:
                raise ValueError(f"no arrival rate for edge ({a}, {b})")
            deg = max(1, self.degree(b) - 1)
            hop = self._hops[a, b] = Hop(arrival_rate=rate, deg=deg, rsu_id=str(b))
        return hop

    def path_route(self, nodes: Sequence[int]) -> Route:
        """Route following the given intersection sequence."""
        if len(nodes) < 2:
            raise ValueError("a route needs at least two intersections")
        hops = tuple(self.hop_for(a, b) for a, b in zip(nodes[:-1], nodes[1:]))
        return Route(
            hops=hops,
            source=str(nodes[0]),
            destination=str(nodes[-1]),
            nodes=tuple(int(n) for n in nodes),
        )


def _simple_paths(topology: Topology, source: int, dest: int, max_hops: int | None) -> Iterator[list[int]]:
    # Iterative DFS; neighbor order ascending, so paths come out in
    # lexicographic node-sequence order.
    stack: list[tuple[int, list[int]]] = [(source, [source])]
    while stack:
        node, path = stack.pop()
        if node == dest:
            yield path
            continue
        if max_hops is not None and len(path) - 1 >= max_hops:
            continue
        for nxt in reversed(topology.neighbors(node)):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))


def enumerate_routes(
    topology: Topology,
    source: int,
    dest: int,
    max_hops: int | None = None,
) -> list[Route]:
    """All loop-free routes from source to dest, lexicographic by node ids.

    Args:
        topology: the road network.
        source: starting intersection id.
        dest: destination intersection id.
        max_hops: optional cap on hop count; None enumerates everything.

    Raises:
        ValueError: coinciding endpoints, or a ``max_hops`` below 1.
        NoRouteError: when no loop-free path exists under the cap.
    """
    if source == dest:
        raise ValueError("source and destination coincide")
    if max_hops is not None and max_hops < 1:
        raise ValueError(f"max_hops must be at least 1, got {max_hops}")
    routes = [topology.path_route(p) for p in _simple_paths(topology, source, dest, max_hops)]
    if not routes:
        raise NoRouteError(f"no path from {source} to {dest}")
    return routes


def spr_route(topology: Topology, source: int, dest: int) -> Route:
    """Shortest path in hop count; ties follow the smallest intersection id.

    A breadth-first pass from the destination labels every node with its
    hop distance, then the walk from the source greedily descends those
    labels, taking the smallest-id neighbor at each step.
    """
    if source == dest:
        raise ValueError("source and destination coincide")
    dist = {dest: 0}
    queue = deque([dest])
    while queue:
        node = queue.popleft()
        for nxt in topology.neighbors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    if source not in dist:
        raise NoRouteError(f"no path from {source} to {dest}")
    path = [source]
    node = source
    while node != dest:
        node = min(n for n in topology.neighbors(node) if dist.get(n, math.inf) == dist[node] - 1)
        path.append(node)
    return topology.path_route(path)


def _unit_angle(frm: tuple[float, float], to: tuple[float, float]) -> float:
    return math.atan2(to[1] - frm[1], to[0] - frm[0])


def gpsr_route(topology: Topology, source: int, dest: int, max_steps: int = 10_000) -> Route:
    """Geographic greedy forwarding with right-hand perimeter recovery.

    Greedy mode forwards to the neighbor strictly closest to the
    destination; when no neighbor improves, the packet enters perimeter
    mode and walks faces by the right-hand rule until it reaches a node
    closer than where greedy failed.  Planar graphs only; a revisited
    directed edge in perimeter mode means the walk is looping.

    Raises:
        GreedyLoopError: perimeter mode revisited a directed edge.
        NoRouteError: the walk exceeded ``max_steps``.
    """
    if source == dest:
        raise ValueError("source and destination coincide")
    pos = topology.positions

    def dist_to_dest(n: int) -> float:
        return math.dist(pos[n], pos[dest])

    path = [source]
    node = source
    mode = "greedy"
    anchor = math.inf  # distance where greedy failed
    prev: int | None = None
    seen_directed: set[tuple[int, int]] = set()
    for _ in range(max_steps):
        if node == dest:
            return topology.path_route(path)
        nbrs = topology.neighbors(node)
        if mode == "greedy":
            best = min(nbrs, key=lambda n: (dist_to_dest(n), n))
            if dist_to_dest(best) < dist_to_dest(node):
                prev = node
                node = best
                path.append(node)
                continue
            mode = "perimeter"
            anchor = dist_to_dest(node)
            seen_directed.clear()
            # First perimeter edge: the first edge counterclockwise from the
            # line toward the destination.
            ref = _unit_angle(pos[node], pos[dest])
        else:
            ref = _unit_angle(pos[node], pos[prev]) if prev is not None else 0.0
        # Right-hand rule: sweep counterclockwise from the reference
        # direction and take the first outgoing edge.
        def ccw_key(n: int) -> float:
            ang = _unit_angle(pos[node], pos[n])
            delta = (ang - ref) % (2 * math.pi)
            return delta if delta > 1e-12 else 2 * math.pi

        nxt = min(nbrs, key=lambda n: (ccw_key(n), n))
        edge = (node, nxt)
        if edge in seen_directed:
            raise GreedyLoopError(f"perimeter walk loops at edge {edge}")
        seen_directed.add(edge)
        prev = node
        node = nxt
        path.append(node)
        if mode == "perimeter" and dist_to_dest(node) < anchor:
            mode = "greedy"
    raise NoRouteError(f"geographic forwarding did not reach {dest} in {max_steps} steps")


def global_routing(
    topology: Topology,
    source: int,
    dest: int,
    params: SystemParams,
    weight: float | None = None,
    max_hops: int | None = None,
    context: NormalizationContext | None = None,
) -> tuple[Route, OptimizationOutcome]:
    """Best route and shared window over all loop-free candidates."""
    routes = enumerate_routes(topology, source, dest, max_hops)
    outcome = solve_global(routes, params, weight=weight, context=context)
    return routes[outcome.route_index], outcome


def distributed_routing(
    topology: Topology,
    source: int,
    dest: int,
    params: SystemParams,
    weight: float | None = None,
    max_hops: int | None = None,
    context: NormalizationContext | None = None,
) -> tuple[Route, DistributedOutcome]:
    """Best route under per-hop window selection, on the shared scale."""
    routes = enumerate_routes(topology, source, dest, max_hops)
    outcome = solve_distributed(routes, params, weight=weight, context=context)
    return routes[outcome.route_index], outcome
