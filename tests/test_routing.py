"""Tests of the intersection graph, route enumeration, and the baselines."""

import math

import pytest

from v2xdelivery import (
    GreedyLoopError,
    NoRouteError,
    SystemParams,
    build_grid_scenario,
    build_normalization,
    distributed_routing,
    enumerate_routes,
    global_routing,
    gpsr_route,
    solve_global,
    spr_route,
)
from v2xdelivery.routing import Topology


def _line(*nodes):
    """Straight topology with unit arrival rates on every directed edge."""
    pos = {n: (float(i), 0.0) for i, n in enumerate(nodes)}
    edges = set(zip(nodes[:-1], nodes[1:]))
    rates = {}
    for a, b in edges:
        rates[(a, b)] = rates[(b, a)] = 0.1
    return Topology(positions=pos, edges=frozenset(edges), arrival_rates=rates)


class TestTopology:
    def test_rejects_edges_to_unknown_intersections(self):
        with pytest.raises(ValueError, match="unknown"):
            Topology(positions={0: (0, 0)}, edges=frozenset({(0, 1)}))

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(positions={0: (0, 0)}, edges=frozenset({(0, 0)}))

    def test_rejects_rates_off_the_road_network(self):
        with pytest.raises(ValueError, match="non-edge"):
            Topology(
                positions={0: (0, 0), 1: (1, 0), 2: (2, 0)},
                edges=frozenset({(0, 1)}),
                arrival_rates={(1, 2): 0.1},
            )

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ValueError, match="positive"):
            Topology(
                positions={0: (0, 0), 1: (1, 0)},
                edges=frozenset({(0, 1)}),
                arrival_rates={(0, 1): 0.0},
            )

    def test_neighbors_are_sorted_and_deduplicated(self, scenario):
        topo = scenario.topology
        assert topo.neighbors(4) == [1, 3, 5, 7]
        assert topo.neighbors(0) == [1, 3]
        assert topo.degree(4) == 4

    @pytest.mark.parametrize("size", [3, 4])
    def test_adjacency_matches_a_scan_of_the_edges(self, size):
        topo = build_grid_scenario(rows=size, cols=size, seed=0).topology
        directed = {(a, b) for a, b in topo.edges} | {(b, a) for a, b in topo.edges}
        assert topo.directed_edges() == directed
        for node in [*topo.positions, -1]:
            expected = sorted({b for a, b in directed if a == node})
            assert topo.neighbors(node) == expected
            assert topo.degree(node) == len(expected)

    def test_hop_branch_degree_discounts_the_entry_direction(self, scenario):
        topo = scenario.topology
        # Exit at an edge midpoint: three roads out, one is the way back.
        assert topo.hop_for(0, 1).deg == 2
        # Exit at the center intersection.
        assert topo.hop_for(1, 4).deg == 3
        # Exit at a corner: floor at one keeps dead ends forwarding.
        assert topo.hop_for(1, 2).deg == 1
        hop = topo.hop_for(0, 1)
        assert hop.rsu_id == "1"
        assert hop.arrival_rate == scenario.topology.arrival_rates[(0, 1)]

    def test_hop_for_rejects_non_edges_and_missing_rates(self, scenario):
        with pytest.raises(ValueError, match="not a road"):
            scenario.topology.hop_for(0, 8)
        bare = Topology(positions={0: (0, 0), 1: (1, 0)}, edges=frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="arrival rate"):
            bare.hop_for(0, 1)

    def test_path_route_carries_endpoints_and_nodes(self, scenario):
        route = scenario.topology.path_route([0, 1, 2, 5, 8])
        assert route.source == "0" and route.destination == "8"
        assert route.nodes == (0, 1, 2, 5, 8)
        assert [h.rsu_id for h in route.hops] == ["1", "2", "5", "8"]

    def test_path_route_needs_two_intersections(self, scenario):
        with pytest.raises(ValueError, match="two intersections"):
            scenario.topology.path_route([0])

    def test_revisiting_an_intersection_is_rejected(self, scenario):
        with pytest.raises(ValueError, match="loop-free"):
            scenario.topology.path_route([0, 1, 4, 1, 2])


class TestEnumerateRoutes:
    def test_stock_grid_has_twelve_corner_to_corner_routes(self, grid_routes):
        assert len(grid_routes) == 12
        lengths = sorted(len(r.hops) for r in grid_routes)
        assert lengths == [4] * 6 + [6] * 4 + [8] * 2

    def test_routes_come_out_in_lexicographic_node_order(self, grid_routes):
        sequences = [r.nodes for r in grid_routes]
        assert sequences == sorted(sequences)
        assert sequences[0] == (0, 1, 2, 5, 4, 3, 6, 7, 8)

    def test_every_route_is_loop_free_between_the_endpoints(self, grid_routes):
        for r in grid_routes:
            assert r.nodes[0] == 0 and r.nodes[-1] == 8
            assert len(set(r.nodes)) == len(r.nodes)

    @pytest.mark.parametrize("size", [3, 4])
    def test_routes_share_one_hop_per_directed_edge(self, size):
        # Every route through a directed edge holds the edge's one Hop, and
        # each route equals the route built from its intersections.
        scenario = build_grid_scenario(rows=size, cols=size, seed=2)
        topo = scenario.topology
        routes = enumerate_routes(topo, scenario.source, scenario.destination)
        assert routes == [topo.path_route(r.nodes) for r in routes]
        held = {}
        for r in routes:
            for edge, hop in zip(zip(r.nodes[:-1], r.nodes[1:]), r.hops):
                held.setdefault(edge, set()).add(id(hop))
        assert all(len(ids) == 1 for ids in held.values())
        assert len({id(h) for r in routes for h in r.hops}) == len(held) < sum(map(len, routes))

    def test_hop_cap_prunes_long_routes(self, scenario):
        topo = scenario.topology
        assert len(enumerate_routes(topo, 0, 8, max_hops=4)) == 6
        with pytest.raises(NoRouteError):
            enumerate_routes(topo, 0, 8, max_hops=3)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_is_rejected_by_name(self, scenario, cap):
        with pytest.raises(ValueError, match=f"max_hops must be at least 1, got {cap}"):
            enumerate_routes(scenario.topology, 0, 8, max_hops=cap)

    def test_two_node_line_has_one_route(self):
        routes = enumerate_routes(_line(0, 1), 0, 1)
        assert len(routes) == 1
        assert routes[0].nodes == (0, 1)

    def test_coincident_endpoints_are_rejected(self, scenario):
        with pytest.raises(ValueError, match="coincide"):
            enumerate_routes(scenario.topology, 3, 3)

    def test_disconnected_components_raise(self):
        topo = Topology(
            positions={0: (0, 0), 1: (1, 0), 2: (5, 0), 3: (6, 0)},
            edges=frozenset({(0, 1), (2, 3)}),
            arrival_rates={(0, 1): 0.1, (1, 0): 0.1, (2, 3): 0.1, (3, 2): 0.1},
        )
        with pytest.raises(NoRouteError):
            enumerate_routes(topo, 0, 3)
        with pytest.raises(NoRouteError):
            spr_route(topo, 0, 3)


class TestShortestPath:
    def test_stock_grid_staircase(self, scenario):
        route = spr_route(scenario.topology, 0, 8)
        assert route.nodes == (0, 1, 2, 5, 8)
        assert len(route.hops) == 4

    def test_matches_breadth_first_distance(self, scenario):
        for dest in (2, 4, 7, 8):
            route = spr_route(scenario.topology, 0, dest)
            best = min(len(r.hops) for r in enumerate_routes(scenario.topology, 0, dest))
            assert len(route.hops) == best

    def test_ties_follow_the_smallest_intersection_id(self, scenario):
        # From the center both 1 and 3 lead home in one step; 1 wins.
        route = spr_route(scenario.topology, 4, 0)
        assert route.nodes == (4, 1, 0)

    def test_coincident_endpoints_are_rejected(self, scenario):
        with pytest.raises(ValueError, match="coincide"):
            spr_route(scenario.topology, 5, 5)


class TestGeographicForwarding:
    def test_stock_grid_pure_greedy_descent(self, scenario):
        route = gpsr_route(scenario.topology, 0, 8)
        assert route.nodes == (0, 1, 4, 5, 8)

    def test_straight_line_is_followed_greedily(self):
        route = gpsr_route(_line(3, 1, 4, 2), 3, 2)
        assert route.nodes == (3, 1, 4, 2)

    def test_perimeter_mode_walks_around_a_concave_obstacle(self):
        # Greedy stalls one step in: every neighbor of 2 is farther from 5
        # than 2 itself, so the packet must hug the wall through 3 and 4.
        pos = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 2.0), 4: (3.0, 2.0), 5: (4.0, 0.0)}
        edges = {(1, 2), (2, 3), (3, 4), (4, 5)}
        rates = {}
        for a, b in edges:
            rates[(a, b)] = rates[(b, a)] = 0.1
        topo = Topology(positions=pos, edges=frozenset(edges), arrival_rates=rates)
        assert math.dist(pos[3], pos[5]) > math.dist(pos[2], pos[5])
        route = gpsr_route(topo, 1, 5)
        assert route.nodes == (1, 2, 3, 4, 5)

    def test_unreachable_destination_raises_on_the_looping_walk(self):
        # A closed ring with the destination off-network: the perimeter walk
        # must come back around and detect the repeated directed edge.
        pos = {0: (2.0, 0.0), 1: (1.5, 1.0), 2: (1.0, 0.0), 3: (1.5, -1.0), 9: (10.0, 0.0)}
        ring = {(0, 1), (1, 2), (2, 3), (3, 0)}
        rates = {}
        for a, b in ring:
            rates[(a, b)] = rates[(b, a)] = 0.1
        topo = Topology(positions=pos, edges=frozenset(ring), arrival_rates=rates)
        with pytest.raises(GreedyLoopError, match="loops"):
            gpsr_route(topo, 0, 9)

    def test_step_budget_exhaustion_raises(self, scenario):
        with pytest.raises(NoRouteError, match="steps"):
            gpsr_route(scenario.topology, 0, 8, max_steps=2)

    def test_coincident_endpoints_are_rejected(self, scenario):
        with pytest.raises(ValueError, match="coincide"):
            gpsr_route(scenario.topology, 2, 2)


class TestRoutingFrontends:
    def test_global_winner_matches_the_direct_solve(self, params, scenario, grid_routes):
        ctx = build_normalization(grid_routes, params)
        route, outcome = global_routing(scenario.topology, 0, 8, params, weight=0.5, context=ctx)
        direct = solve_global(grid_routes, params, weight=0.5, context=ctx, with_kkt=False)
        assert outcome.route_index == direct.route_index
        assert outcome.objective == pytest.approx(direct.objective, abs=0.0)
        assert route.nodes == grid_routes[direct.route_index].nodes

    def test_global_beats_both_baselines_on_their_own_terms(self, params, scenario, grid_routes):
        ctx = build_normalization(grid_routes, params)
        _, outcome = global_routing(scenario.topology, 0, 8, params, weight=0.5, context=ctx)
        for baseline in (spr_route, gpsr_route):
            candidate = baseline(scenario.topology, 0, 8)
            best = solve_global([candidate], params, weight=0.5, context=ctx, with_kkt=False)
            assert outcome.objective >= best.objective - 1e-12

    def test_distributed_frontend_reports_a_consistent_winner(self, params, scenario, grid_routes):
        route, outcome = distributed_routing(scenario.topology, 0, 8, params, weight=0.5)
        assert route.nodes == grid_routes[outcome.route_index].nodes
        assert len(outcome.windows) == len(route.hops)
        assert outcome.per_route[outcome.route_index][1] == outcome.objective
