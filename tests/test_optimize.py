"""Tests of normalization, the weighted objective, and both window solvers."""

import contextlib
import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from support import columns, count_table_builds, evaluators, is_mixed, make_route, prefix_tree_nodes, start_cold
from v2xdelivery import (
    Hop,
    Route,
    RouteEvaluator,
    SystemParams,
    build_grid_scenario,
    build_normalization,
    enumerate_routes,
    gpsr_route,
    kkt_stationarity_check,
    solve_distributed,
    solve_global,
    spr_route,
    verify_concavity,
)
from v2xdelivery import cli
from v2xdelivery.cli import run_command
import v2xdelivery.optimize as opt
from v2xdelivery.closedform import _pmf_rows, _RouteStack
from v2xdelivery.model import max_trials
from v2xdelivery.optimize import (
    NormalizationContext,
    _objective,
    _scan_grid,
    _trade_off,
    _winners,
)


def _objective_grid(routes, params, weight, context, n=10_000):
    """Objective readings of every route over a uniform window grid."""
    ts = np.linspace(0.0, params.hop_dwell, n)
    rows = [
        _objective(_RouteStack([r], params), 0, ts, dataclasses.astuple(context), weight)
        for r in routes
    ]
    return ts, np.vstack(rows)


class TestNormalizationContext:
    def test_extremes_map_to_unit_interval(self):
        ctx = NormalizationContext(10.0, 30.0, 0.5, 1.5)
        assert ctx.latency_norm(10.0) == 0.0
        assert ctx.latency_norm(30.0) == 1.0
        assert ctx.rate_norm(0.5) == 0.0
        assert ctx.rate_norm(1.5) == 1.0

    def test_degenerate_span_normalizes_to_zero(self):
        ctx = NormalizationContext(5.0, 5.0, 1.0, 1.0)
        assert ctx.latency_norm(5.0) == 0.0
        assert ctx.rate_norm(1.0) == 0.0
        arr = ctx.rate_norm(np.array([0.0, 1.0, 2.0]))
        assert np.all(arr == 0.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            (math.nan, 150.0, 0.0, 2.0),
            (50.0, math.inf, 0.0, 2.0),
            (150.0, 50.0, 0.0, 2.0),
            (50.0, 150.0, 0.0, math.nan),
            (50.0, 150.0, -math.inf, 2.0),
            (50.0, 150.0, 2.0, 0.0),
            (50.0, 150.0, np.array([0.0, 1.0]), 2.0),
            (50.0, "150", 0.0, 2.0),
        ],
    )
    def test_malformed_bounds_are_rejected(self, params, grid_routes, bounds):
        # A NaN, infinite or inverted bound would silently drop its term
        # from every objective, so such a context is never built: a solve
        # asked to score on one raises.
        with pytest.raises(ValueError):
            solve_global(grid_routes, params, weight=0.5, context=NormalizationContext(*bounds))
        with pytest.raises(ValueError):
            solve_distributed(grid_routes, params, weight=0.5, context=NormalizationContext(*bounds))

    def test_equal_and_integer_bounds_are_legal(self):
        assert NormalizationContext(5, 5, np.float64(1.0), 1.0).latency_norm(5.0) == 0.0

    def test_weighted_arithmetic(self):
        # A context spanning [0, 1] passes readings through unchanged.
        ctx = NormalizationContext(0.0, 1.0, 0.0, 1.0)
        value = 0.5 * ctx.rate_norm(0.9) - 0.5 * ctx.latency_norm(0.1)
        assert value == pytest.approx(0.40, abs=1e-15)


class TestBuildNormalization:
    def test_envelopes_bracket_all_readings(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        lat_span = ctx.latency_max - ctx.latency_min
        rate_span = ctx.rate_max - ctx.rate_min
        ts = np.linspace(0.0, params.hop_dwell, 2001)
        for route in grid_routes:
            out = RouteEvaluator(route, params).series(ts)
            assert out["latency"].min() >= ctx.latency_min - 1e-6 * lat_span
            assert out["latency"].max() <= ctx.latency_max + 1e-6 * lat_span
            for key in ("rate_closed", "hop_rate"):
                assert out[key].min() >= ctx.rate_min - 1e-6 * rate_span
                assert out[key].max() <= ctx.rate_max + 1e-6 * rate_span

    @pytest.mark.parametrize("seed", range(4))
    def test_no_rate_reading_leaves_the_box(self, seed):
        # Every route's rate_closed and every hop's rate on a 1e4-window
        # grid, and every hop's rate at its solve_distributed(weight=1)
        # window, lie inside [rate_min, rate_max]: the sampled envelope
        # missed interior peaks by up to 2.8e-5 at trial_time=1.
        scenario = build_grid_scenario(seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        for trial_time in (0.02, 0.1, 1.0):
            params = dataclasses.replace(scenario.params, trial_time=trial_time)
            ctx = build_normalization(routes, params)
            stack = _RouteStack(routes, params)
            rate = stack.grid(np.linspace(0.0, params.hop_dwell, 10_000))["rate_closed"]
            for name, rows in (("routes", rate[: len(routes)]), ("hops", rate[stack.hop_rows])):
                assert ctx.rate_min <= rows.min() and rows.max() <= ctx.rate_max, (trial_time, name)
            dist = solve_distributed(routes, params, weight=1.0, context=ctx)
            rates = [
                float(RouteEvaluator(route, params).hop_rates(t)[h])
                for route, (windows, _) in zip(routes, dist.per_route)
                for h, t in enumerate(windows)
            ]
            assert ctx.rate_min <= min(rates) and max(rates) <= ctx.rate_max, trial_time

    @pytest.mark.parametrize("seed", range(4))
    def test_a_peak_past_the_trial_rows_reads_alike_at_every_trial_time(self, seed):
        # Where the highest rate reading lies past trial piece L at the
        # coarsest trial time (8 s at 1 s trials), rate_max is the polished
        # peak, the same within 1e-12 at trial times 0.02, 0.1 and 1.
        scenario = build_grid_scenario(seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        ts = np.linspace(0.0, scenario.params.hop_dwell, 10_000)
        stack = _RouteStack(routes, scenario.params)
        rate = stack.grid(ts)["rate_closed"]
        top = np.maximum(rate[: len(routes)].max(axis=0), rate[stack.hop_rows].max(axis=0))
        assert ts[np.argmax(top)] > 8.0
        tops = [
            build_normalization(routes, dataclasses.replace(scenario.params, trial_time=tt)).rate_max
            for tt in (0.02, 0.1, 1.0)
        ]
        assert max(tops) - min(tops) <= 1e-12
        if seed == 0:
            assert tops == pytest.approx([1.63626477246519] * 3, abs=1e-13)

    def test_empty_route_list_rejected(self, params):
        with pytest.raises(ValueError):
            build_normalization([], params)

    def test_single_constant_route_is_degenerate(self, params):
        route = Route(hops=(Hop(0.1, 1, rsu_id="a"),))
        ctx = build_normalization([route], params)
        ev = RouteEvaluator(route, params)
        for t in (0.0, 8.0, 20.0):
            assert _objective(ev._stack, ev._col, t, dataclasses.astuple(ctx), 0.7)[0] == 0.0


class TestWeightedObjective:
    def test_composed_from_normalized_readings(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        ev = RouteEvaluator(grid_routes[0], params)
        for w, t in ((0.0, 4.0), (0.5, 8.0), (1.0, 16.0)):
            expected = w * ctx.rate_norm(ev.rate_closed(t)) - (1.0 - w) * ctx.latency_norm(
                ev.latency(t)
            )
            assert _objective(ev._stack, ev._col, t, dataclasses.astuple(ctx), w)[0] == pytest.approx(expected, abs=1e-15)

    def test_pure_latency_weight_ignores_rate(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        ev = RouteEvaluator(grid_routes[0], params)
        assert _objective(ev._stack, ev._col, 8.0, dataclasses.astuple(ctx), 0.0)[0] == pytest.approx(
            -ctx.latency_norm(ev.latency(8.0)), abs=1e-15
        )


class TestSolveGlobal:
    def test_input_validation(self, params, grid_routes):
        with pytest.raises(ValueError):
            solve_global([], params)
        with pytest.raises(ValueError):
            solve_global(grid_routes, params, weight=1.5)

    @pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
    def test_dominates_a_dense_grid(self, params, grid_routes, weight):
        ctx = build_normalization(grid_routes, params)
        out = solve_global(grid_routes, params, weight=weight, context=ctx, with_kkt=False)
        _, values = _objective_grid(grid_routes, params, weight, ctx)
        assert out.objective >= values.max() - 1e-12
        assert 0.0 <= out.t_star <= params.hop_dwell
        assert -1.0 <= out.objective <= 1.0

    def test_interior_optimum_sits_within_one_grid_step(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        out = solve_global(grid_routes, params, weight=0.5, context=ctx, with_kkt=False)
        ts, values = _objective_grid(grid_routes, params, 0.5, ctx)
        step = ts[1] - ts[0]
        near_max = ts[values.max(axis=0) >= values.max() - 1e-12]
        assert np.min(np.abs(near_max - out.t_star)) <= step + 1e-9

    def test_pure_latency_pushes_the_window_to_the_dwell(self, params):
        rng = np.random.default_rng(81)
        for _ in range(5):
            route = make_route(rng)
            out = solve_global([route], params, weight=0.0, with_kkt=False)
            assert out.t_star == pytest.approx(params.hop_dwell, abs=1e-6)

    def test_flat_objective_breaks_ties_toward_zero(self, params):
        hops = tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3))
        route = Route(hops=hops)
        out = solve_global([route], params, weight=0.5)
        assert out.t_star == 0.0
        assert out.objective == 0.0
        assert out.kkt["ok"]

    def test_identical_routes_tie_toward_the_first_index(self, params):
        rng = np.random.default_rng(82)
        route = make_route(rng)
        out = solve_global([route, route], params, weight=0.5, with_kkt=False)
        assert out.route_index == 0
        assert out.per_route_best[0][1] == pytest.approx(out.per_route_best[1][1], abs=0.0)

    def test_winner_reports_its_own_best(self, params, grid_routes):
        out = solve_global(grid_routes, params, weight=0.5, with_kkt=False)
        best_vals = [v for _, v in out.per_route_best]
        assert out.objective == max(best_vals)
        assert out.per_route_best[out.route_index][0] == out.t_star

    def test_argmax_invariant_under_consistent_rate_scaling(self, params, grid_routes):
        scale = 3.7
        scaled = dataclasses.replace(
            params,
            rate_v2v=params.rate_v2v * scale,
            rate_v2i=params.rate_v2i * scale,
            rate_cell=params.rate_cell * scale,
        )
        for weight in (0.5, 1.0):
            base = solve_global(grid_routes, params, weight=weight, with_kkt=False)
            moved = solve_global(grid_routes, scaled, weight=weight, with_kkt=False)
            assert moved.route_index == base.route_index
            assert moved.t_star == pytest.approx(base.t_star, abs=1e-6 * params.hop_dwell)
            assert moved.objective == pytest.approx(base.objective, abs=1e-9)


class TestSolveDistributed:
    def test_identical_hops_all_pick_the_single_hop_solution(self, params):
        hop_args = dict(arrival_rate=0.12, deg=3)
        hops = tuple(Hop(rsu_id=f"h{i}", **hop_args) for i in range(4))
        route = Route(hops=hops)
        single = Route(hops=(Hop(rsu_id="solo", **hop_args),))
        for weight in (0.0, 0.3, 0.5, 1.0):
            dist = solve_distributed([route], params, weight=weight)
            assert len(set(dist.windows)) == 1
            ref = solve_global([single], params, weight=weight, with_kkt=False)
            assert dist.windows[0] == pytest.approx(ref.t_star, abs=0.0)

    def test_forwarding_hop_keeps_a_zero_window(self, params):
        hops = (Hop(0.1, 3, rsu_id="a"), Hop(0.1, 1, rsu_id="b"), Hop(0.2, 2, rsu_id="c"))
        dist = solve_distributed([Route(hops=hops)], params, weight=0.5)
        assert dist.windows[1] == 0.0
        assert dist.windows[0] > 0.0 and dist.windows[2] > 0.0

    def test_hop_windows_dominate_their_own_grids(self, params):
        rng = np.random.default_rng(83)
        route = make_route(rng, k=4)
        ev = RouteEvaluator(route, params)
        weight = 0.5
        dist = solve_distributed([route], params, weight=weight)
        grid = _scan_grid(ev.params)
        scan = ev.series(grid.ts)
        dense = ev.series(np.linspace(0.0, params.hop_dwell, 10_000))
        for h, t_h in enumerate(dist.windows):
            # The hop's private normalization: its own reading range on the grid.
            lats, rates = scan["hop_latency"][h], scan["hop_rate"][h]
            ctx = NormalizationContext(lats.min(), lats.max(), rates.min(), rates.max())
            chosen = weight * ctx.rate_norm(float(ev.hop_rates(t_h)[h])) - (
                1.0 - weight
            ) * ctx.latency_norm(float(ev.hop_latencies(t_h)[h]))
            series = weight * ctx.rate_norm(dense["hop_rate"][h]) - (
                1.0 - weight
            ) * ctx.latency_norm(dense["hop_latency"][h])
            assert chosen >= series.max() - 1e-12

    def test_aggregates_score_on_the_shared_scale(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        dist = solve_distributed(grid_routes, params, weight=0.5, context=ctx)
        ev = RouteEvaluator(grid_routes[dist.route_index], params)
        lat = sum(float(ev.hop_latencies(t)[h]) for h, t in enumerate(dist.windows))
        rate = min(float(ev.hop_rates(t)[h]) for h, t in enumerate(dist.windows))
        assert dist.latency == pytest.approx(lat, abs=1e-12)
        assert dist.rate == pytest.approx(rate, abs=1e-12)
        expected = 0.5 * ctx.rate_norm(rate) - 0.5 * ctx.latency_norm(lat)
        assert dist.objective == pytest.approx(expected, abs=1e-12)

    def test_input_validation(self, params, grid_routes):
        with pytest.raises(ValueError):
            solve_distributed([], params)
        with pytest.raises(ValueError):
            solve_distributed(grid_routes, params, weight=-0.1)


class TestStationarityCheck:
    def test_boundary_maximum_at_the_dwell(self, params):
        route = make_route(np.random.default_rng(84))
        ctx = build_normalization([route], params)
        out = solve_global([route], params, weight=0.0, context=ctx)
        assert out.kkt["kind"] == "boundary_right"
        assert out.kkt["ok"]

    def test_flat_objective_passes_anywhere(self, params):
        route = Route(hops=(Hop(0.1, 1, rsu_id="a"),))
        ctx = build_normalization([route], params)
        ev = RouteEvaluator(route, params)
        for t in (0.0, 7.3, 20.0):
            assert kkt_stationarity_check(ev, t, ctx, weight=0.5)["ok"]

    def test_interior_optimum_has_a_vanishing_derivative(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        out = solve_global(grid_routes, params, weight=0.5, context=ctx)
        assert out.kkt["kind"] in ("interior", "piece_edge")
        assert out.kkt["ok"]

    def test_non_optimal_interior_point_fails(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        ev = RouteEvaluator(grid_routes[0], params)
        # Far from any optimum and away from piece edges.
        report = kkt_stationarity_check(ev, 2.037, ctx, weight=0.5)
        assert report["kind"] == "interior"
        assert not report["ok"]

    @pytest.mark.parametrize(
        "t_star, weight, message",
        [
            (-5.0, 0.5, "discovery window"),  # read as boundary_left, ok, before
            (25.0, 0.5, "discovery window"),  # read as boundary_right, ok, before
            (8.0, 3.0, "weight must"),
            (8.0, math.nan, "weight must"),
        ],
    )
    def test_inputs_outside_their_ranges_are_rejected(self, params, grid_routes, t_star, weight, message):
        ev = RouteEvaluator(grid_routes[0], params)
        ctx = NormalizationContext(50.0, 150.0, 0.0, 2.0)
        with pytest.raises(ValueError, match=message):
            kkt_stationarity_check(ev, t_star, ctx, weight)


class TestConcavityProbe:
    def test_pure_latency_is_concave_on_every_stock_route(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        for route in grid_routes:
            report = verify_concavity(RouteEvaluator(route, params), weight=0.0, context=ctx)
            assert report["concave"]
            assert report["fraction"] == 1.0

    def test_balanced_weight_is_concave_per_piece_on_stock_routes(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        for route in grid_routes:
            report = verify_concavity(RouteEvaluator(route, params), weight=0.5, context=ctx)
            assert report["concave"], report

    def test_flat_route_is_trivially_concave(self, params):
        route = Route(hops=(Hop(0.1, 1, rsu_id="a"),))
        report = verify_concavity(RouteEvaluator(route, params), weight=0.5)
        assert report["concave"]
        assert report["points"] > 0

    @pytest.mark.parametrize("weight", [3.0, math.nan])  # nan read as concave: False before
    def test_a_weight_outside_the_unit_interval_is_rejected(self, params, grid_routes, weight):
        ev = RouteEvaluator(grid_routes[0], params)
        with pytest.raises(ValueError, match="weight must lie in"):
            verify_concavity(ev, weight=weight)
        with pytest.raises(ValueError, match="weight must lie in"):
            verify_concavity(ev, weight=weight, context=NormalizationContext(50.0, 150.0, 0.0, 2.0))


def _scan_grid_per_piece(params):
    """The scan grid built one trial piece at a time, as it was before the
    tail went to Chebyshev nodes: the reference for the first L + 1 pieces
    of _scan_grid, and the dense-grid oracle for the solvers.  A piece
    holding its edge, 7 interiors and its inset starts a bracket at each of
    its first 7 samples."""
    T = params.hop_dwell
    h = 1e-4 * params.trial_time
    edges = RouteEvaluator(Route(hops=(Hop(0.1, 2, rsu_id="a"),)), params).breakpoints()
    ts, starts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = float(a), float(b)
        ts.append(a)
        if b - a >= 6 * h:
            starts.extend(range(len(ts) - 1, len(ts) + 6))
            for x in np.linspace(a + 2 * h, b - 2 * h, 7):
                ts.append(float(x))
        if b - h > a:
            ts.append(b - h)
    ts.append(T)
    return opt._ScanGrid(np.asarray(ts), np.asarray(starts, dtype=int), h)


def _winner_sequential(ts, values, T):
    """The tie-tolerant winner rule over every candidate, in order."""
    best_t, best_val, best_i = 0.0, -math.inf, -1
    for i, (t, v) in enumerate(zip(ts, values)):
        t = min(max(float(t), 0.0), T)
        v = float(v)
        if v > best_val + 1e-15 or (abs(v - best_val) <= 1e-15 and t < best_t):
            best_val, best_t, best_i = v, t, i
    return best_t, best_val, best_i


def _winner_row(ts, values, T):
    """``_winners`` on one row of candidates, as the sequential rule reports."""
    t, v, i = _winners(np.asarray(ts)[None], np.asarray(values)[None], T)
    return t.tolist()[0], v.tolist()[0], i.tolist()[0]


class TestBatchedScan:
    @pytest.mark.parametrize(
        "trial_time",
        [
            0.1,
            0.02,
            1.0,
            20.0,  # one piece: trial time equal to the dwell
            0.3,  # does not divide the dwell; last piece 0.2 s wide
            20.0 / (7 + 3e-4),  # last piece 3 probes wide: no interiors
            20.0 / (7 + 0.5e-4),  # last piece half a probe wide: no inset
        ],
    )
    def test_scan_grid_matches_the_per_piece_construction(self, trial_time):
        # Trial pieces 0..L keep their per-piece rows bit for bit; a grid
        # whose trial pieces end there is the per-piece grid, T included.
        params = SystemParams(trial_time=trial_time)
        grid = _scan_grid(params)
        ref = _scan_grid_per_piece(params)
        L = _pmf_rows(params, max_trials(params.hop_dwell, trial_time))
        edges = opt._breakpoints(params)
        assert grid.starts.dtype == ref.starts.dtype
        if len(edges) - 1 <= L + 1:
            assert grid.tail == ()
            assert grid.ts.tobytes() == ref.ts.tobytes()
            assert np.array_equal(grid.starts, ref.starts)
        else:
            n = np.searchsorted(ref.ts, edges[L + 1])  # the samples of pieces 0..L
            assert grid.ts[:n].tobytes() == ref.ts[:n].tobytes()
            assert np.array_equal(grid.starts[grid.starts < n], ref.starts[ref.starts < n])
            assert grid.ts[n] == (L + 1) * trial_time == grid.tail[0][0]
        assert grid.probe == 1e-4 * trial_time

    def test_scan_grid_covers_the_narrow_last_pieces(self):
        # The parametrized cases above do reach the narrow branches: the
        # last piece holds its edge and inset, or its edge alone, and starts
        # no bracket.
        for trial_time, present in ((20.0 / (7 + 3e-4), 2), (20.0 / (7 + 0.5e-4), 1)):
            params = SystemParams(trial_time=trial_time)
            grid = _scan_grid(params)
            last = opt._breakpoints(params)[-2]
            assert np.count_nonzero((grid.ts >= last) & (grid.ts < params.hop_dwell)) == present
            assert grid.ts[grid.starts + 2].max() < last

    @pytest.mark.parametrize("trial_time", [0.1, 0.02, 0.005, 1.0, 0.3])
    def test_the_tail_holds_lobatto_nodes_and_every_triple_starts_a_bracket(self, trial_time):
        params = SystemParams(trial_time=trial_time)
        grid = _scan_grid(params)
        T, h = params.hop_dwell, grid.probe
        ((a, b, n, nodes),) = grid.tail
        assert (b, n, len(nodes)) == (T, 32, 33)
        want = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
        assert np.max(np.abs(grid.ts[nodes] - want)) <= 1e-13 * T
        # The nodes, and an inset 2h inside each end: 35 windows, T last.
        first = nodes[0]
        assert len(grid.ts) - first == 35 and grid.ts[-1] == T
        assert np.array_equal(grid.ts[[first, first + 1, -2, -1]], [a, a + 2 * h, b - 2 * h, b])
        # Every three consecutive samples start a bracket, each once, the
        # last ending on T.
        starts = grid.starts
        assert np.array_equal(starts[starts >= first], np.arange(first, len(grid.ts) - 2))
        assert np.all(np.diff(starts) > 0)

    @pytest.mark.parametrize(
        "override, switches",
        [({}, []), ({"rate_cell": 0.6}, [20.0 / 3.0]), ({"rate_cell": 0.3}, [15.0]), ({"rate_cell": 2.5}, [])],
    )
    def test_the_tail_splits_where_the_rate_switches_form(self, override, switches):
        # Tail pieces meet at each switch and share its node; no bracket
        # straddles it.
        params = SystemParams(**override)
        grid = _scan_grid(params)
        assert [b for _, b, _, _ in grid.tail[:-1]] == pytest.approx(switches, abs=1e-12)
        assert np.all(np.diff(grid.starts) > 0)  # each start once, where pieces share a node too
        starts = set(grid.starts.tolist())
        for (a, b, n, nodes), (c, _, _, after) in zip(grid.tail, grid.tail[1:]):
            assert b == c == grid.ts[nodes[-1]] and nodes[-1] == after[0]
            assert nodes[-1] - 1 not in starts

    @pytest.mark.parametrize("seed", range(40))
    def test_winner_matches_the_sequential_rule_on_near_tie_staircases(self, seed):
        rng = np.random.default_rng(seed)
        T = 20.0
        n = int(rng.integers(2, 3000))
        top = float(rng.choice([0.0, 0.37, -0.8, 1.0, 3.0]))
        # Staircases descending or ascending in steps near the tie width,
        # shuffled in blocks, over a floor of clearly lower values.
        steps = rng.uniform(0.3e-15, 1.7e-15, size=n) * rng.choice([-1.0, 1.0])
        values = top + np.cumsum(steps)
        low = rng.random(n) < 0.5
        values[low] -= rng.uniform(0.0, 1e-12, size=int(low.sum()))
        values[rng.random(n) < 0.05] = top - 1.0
        ts = rng.uniform(-1e-9, T + 1e-9, size=n)
        ts[rng.random(n) < 0.3] = rng.choice(ts, size=1)
        assert _winner_row(ts, values, T) == _winner_sequential(ts, values, T)

    @pytest.mark.parametrize("seed", range(20))
    def test_winner_matches_the_sequential_rule_on_tie_ladders(self, seed):
        # Values rise by just under the tie width at rising windows, so the
        # rule moves on every second candidate: dropping the lowest one
        # flips which candidate it ends on.  Small magnitudes keep the steps
        # exact.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 600))
        values = float(rng.choice([0.0, -2e-13, 5e-14])) + np.arange(n) * 0.999e-15
        ts = np.sort(rng.uniform(0.0, 20.0, size=n))
        assert _winner_row(ts, values, 20.0) == _winner_sequential(ts, values, 20.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_winner_matches_the_sequential_rule_on_flat_runs(self, seed):
        # A flat run takes the shortcut: the first candidate at the smallest
        # clamped window.  Signed zeros, in values and windows, must come out
        # as the walk leaves them; a NaN value bars the shortcut and a -inf
        # one falls below the cut.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2000))
        values = np.full(n, float(rng.choice([0.0, 0.37, -0.8, 1e20])))
        if values[0] == 0.0:
            values[rng.random(n) < 0.5] = -0.0
        ts = rng.uniform(-1e-9, 20.0 + 1e-9, size=n)
        ts[rng.random(n) < 0.3] = rng.choice([0.0, -0.0, 20.0])
        ts[rng.random(n) < 0.1] = rng.choice(ts, size=1)
        odd = rng.integers(n)
        if seed % 3 == 1:
            values[odd] = math.nan
        elif seed % 3 == 2:
            values[odd] = -math.inf
        assert repr(_winner_row(ts, values, 20.0)) == repr(_winner_sequential(ts, values, 20.0))

    def test_winner_keeps_nan_and_flat_candidates(self):
        ts = np.array([3.0, 2.0, 1.0, 0.5])
        for values in ([0.5, 0.5, 0.5, 0.5], [0.5, math.nan, 0.4, 0.5], [-math.inf] * 4):
            values = np.array(values)
            assert _winner_row(ts, values, 20.0) == _winner_sequential(ts, values, 20.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_winners_walk_rows_of_every_kind_at_once(self, seed):
        # Staircases, ladders, flat runs, NaN and -inf rows share one call,
        # each row padded with -inf past its own candidates; a padded row
        # reads the winner its candidates alone read.
        rng = np.random.default_rng(seed)
        T, n = 20.0, 300
        ts = rng.uniform(-1e-9, T + 1e-9, size=(7, n))
        values = np.stack(
            [
                0.37 + np.cumsum(rng.uniform(0.3e-15, 1.7e-15, size=n) * rng.choice([-1.0, 1.0])),
                np.arange(n) * 0.999e-15,
                np.full(n, 0.5),
                np.where(rng.random(n) < 0.5, 0.0, -0.0),
                np.where(rng.random(n) < 0.1, math.nan, rng.choice([0.2, 0.2 + 1e-15], size=n)),
                np.full(n, -math.inf),
                rng.choice([0.1, 0.1 - 1e-15, 0.1 - 3e-15, -math.inf], size=n),
            ]
        )
        ts[1] = np.sort(ts[1])
        ts[3, rng.random(n) < 0.3] = rng.choice([0.0, -0.0, T])
        own = rng.integers(1, n + 1, size=len(values))  # each row's own candidate count
        values[np.arange(n) >= own[:, None]] = -math.inf
        picked = list(zip(*(x.tolist() for x in _winners(ts, values, T))))
        for row in range(len(values)):
            want = _winner_sequential(ts[row], values[row], T)
            assert repr(picked[row]) == repr(want)
            assert repr(_winner_row(ts[row, : own[row]], values[row, : own[row]], T)) == repr(want)

    @pytest.mark.parametrize("regime", ["stock", "cell0.3", "fast"])
    @pytest.mark.parametrize("weight", [0.0, 0.5, 0.8])
    def test_distributed_with_its_own_context_is_unchanged(self, weight, regime):
        # Also where the route rows refine the scan grid's tail: under a
        # binding cellular cap, and with arrival rates in [2, 4].
        interval = (2.0, 4.0) if regime == "fast" else (0.05, 0.3)
        scenario = build_grid_scenario(seed=0, arrival_interval=interval)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, rate_cell=0.3) if regime == "cell0.3" else scenario.params
        ctx = build_normalization(routes, params)
        with_ctx = solve_distributed(routes, params, weight=weight, context=ctx)
        without = solve_distributed(routes, params, weight=weight)
        assert with_ctx == without
        assert repr(with_ctx) == repr(without)

    def test_global_with_its_own_context_is_unchanged(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        assert repr(solve_global(grid_routes, params, context=ctx)) == repr(
            solve_global(grid_routes, params)
        )


class TestManyWeights:
    """One solve over many weights gives each weight's one-weight outcome,
    bit for bit: a window reads alike in any batch."""

    WEIGHTS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

    def _check(self, routes, params, own_context):
        coordinated = opt._solve_global(routes, params, self.WEIGHTS, None, True)
        distributed = opt._solve_distributed(routes, params, self.WEIGHTS, coordinated[0].context)
        assert len(coordinated) == len(distributed) == len(self.WEIGHTS)
        for weight, g, d in zip(self.WEIGHTS, coordinated, distributed):
            single = solve_global(routes, params, weight=weight)
            assert repr(g) == repr(single)
            assert repr(d) == repr(solve_distributed(routes, params, weight=weight, context=single.context))
        if own_context:
            for weight, d in zip(self.WEIGHTS, opt._solve_distributed(routes, params, self.WEIGHTS, None)):
                assert repr(d) == repr(solve_distributed(routes, params, weight=weight))

    @pytest.mark.parametrize("trial_time", [0.02, 0.1, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_outcomes_match_one_weight_solves(self, seed, trial_time):
        scenario = build_grid_scenario(seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        self._check(routes, dataclasses.replace(scenario.params, trial_time=trial_time), own_context=True)

    def test_outcomes_match_one_weight_solves_on_4x4(self):
        scenario = build_grid_scenario(rows=4, cols=4, seed=2)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        self._check(routes, dataclasses.replace(scenario.params, trial_time=1.0), own_context=False)

    @pytest.mark.parametrize("trial_time", [0.1, 1.0])
    def test_eleven_weights_match_one_weight_solves(self, params, grid_routes, trial_time):
        # The search takes its 11 x 12 tasks in blocks of up to 45 (1.0)
        # or 4 (0.1) grid rows; every weight reads its one-weight solve.
        params = dataclasses.replace(params, trial_time=trial_time)
        weights = [i / 10 for i in range(11)]
        many = opt._solve_global(grid_routes, params, weights, None, True)
        assert [repr(g) for g in many] == [repr(solve_global(grid_routes, params, weight=w)) for w in weights]

    @pytest.mark.parametrize(
        "solve", [lambda *a: opt._solve_global(*a, False), lambda *a: opt._solve_distributed(*a)]
    )
    def test_every_weight_is_checked(self, params, grid_routes, solve):
        for weights in ([0.5, 1.5], [math.nan], [-0.1, 0.5]):
            with pytest.raises(ValueError, match="weight"):
                solve(grid_routes, params, weights, None)
        with pytest.raises(ValueError, match="route"):
            solve([], params, [0.5], None)
        with pytest.raises(ValueError, match="need at least one weight"):
            solve(grid_routes, params, [], None)


def _polish_sign_change(deriv, lo, hi, tol, noise):
    """One bracket's polish, one derivative probe at a time: the reference
    for the lockstep ``optimize._polish``, step for step.  Precondition:
    the derivative changes sign in [lo, hi]; the function is smooth here."""
    p, q, r = lo, hi, lo
    fp = fq = fr = 0.0
    first, smooth, reach = hi - lo, False, 1.0
    for step in range(1, 81):
        if abs(q - p) < tol:
            break
        x = 0.5 * (p + q)
        short = near_p = False
        if step == 1:
            fp, fq = deriv(p), deriv(q)
            smooth = fp > noise and fq < -noise
        elif smooth and abs(q - p) <= first * 2.0 ** (4 - step):
            xi = (p - q) / (r - q)
            phi = (fp - fq) / (fr - fq) if fr != fq else math.inf
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = fp / (fq - fp) * fr / (fq - fr) + (r - p) / (q - p) * fp / (fr - fp) * fq / (fr - fq)
                edge = min(0.5 * tol * reach / abs(q - p), 0.5)
                short, near_p = t <= edge or t >= 1.0 - edge, t <= edge
                x = p + min(max(t, edge), 1.0 - edge) * (q - p)
        g = deriv(x)
        same = (g > 0.0) == (p < q)
        if short:
            reach = 2.0 * reach if same == near_p else 1.0
        r, fr = (p, fp) if same else (q, fq)
        if not same:
            q, fq = p, fp
        p, fp = x, g
    return 0.5 * (p + q)


def _bisect_lockstep(deriv, lo, hi, tol, noise):
    """Plain bisection of every bracket in lockstep, on the sign of the
    derivative at its midpoint, one read a step: an oracle for
    ``optimize._polish``, whose bits it gives where that never
    interpolates."""
    lo, hi = lo.copy(), hi.copy()
    active = np.arange(len(lo))
    for _ in range(80):
        active = active[~(hi[active] - lo[active] < tol)]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        up = deriv(active, mid) > 0.0
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
    return 0.5 * (lo + hi)


def _maximize_scan(grid, values, objective, T):
    """One route's best window from its grid values plus the polish of each
    interior sign change, every central-difference probe a 2-point read of
    ``objective`` at (x - h, x + h): the reference for the lockstep search."""
    h = grid.probe
    tol = 1e-9 * T
    noise = opt._NOISE / h

    def deriv(x):
        lo, hi = objective(np.array([x - h, x + h]))
        return (hi - lo) / (2 * h)

    d = np.diff(values)
    s = grid.starts
    peaks = []
    for i in s[(d[s] > 0.0) & (d[s + 1] <= 0.0)]:
        lo = max(float(grid.ts[i]), h)
        hi = min(float(grid.ts[i + 2]), T - h)
        if lo < hi:
            peaks.append(_polish_sign_change(deriv, lo, hi, tol, noise))
    if peaks:
        values = np.append(values, objective(np.array(peaks)))
    return _winner_sequential(np.append(grid.ts, peaks), values, T)[:2]


def _reference_search(stack, grid, reads, cols, bounds, weights):
    """``optimize._search`` task by task and probe by probe, each probe a
    read of its task's row alone."""
    best = []
    for col, scale, weight in zip(cols.tolist(), bounds.tolist(), weights.tolist()):
        rate, lat = reads[0][col], reads[1][col]

        def objective(ts, col=col, scale=scale, weight=weight):
            return _objective(stack, col, ts, scale, weight)

        values = _trade_off(rate, lat, scale, weight)
        best.append(_maximize_scan(grid, values, objective, stack.params.hop_dwell))
    return tuple(np.array(x, dtype=float) for x in zip(*best))


class TestLockstepSearch:
    """The lockstep search polishes every bracket to the per-probe
    reference's bits, so every solver outcome keeps its repr."""

    @staticmethod
    def _both(monkeypatch, solve):
        # Each side starts cold, so that each searches every task, and the
        # reference's tasks are not kept.
        lockstep = solve()
        start_cold()
        with monkeypatch.context() as m:
            m.setattr(opt, "_search", _reference_search)
            reference = solve()
        start_cold()
        return lockstep, reference

    @pytest.mark.parametrize("trial_time", [0.02, 0.3, 1.0, 20.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_outcomes_match_the_per_probe_reference(self, monkeypatch, seed, trial_time):
        scenario = build_grid_scenario(seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=trial_time)
        for weight in (0.0, 0.5, 1.0):
            lockstep, reference = self._both(monkeypatch, lambda: solve_global(routes, params, weight=weight))
            assert repr(lockstep) == repr(reference)
            lockstep, reference = self._both(
                monkeypatch, lambda: solve_distributed(routes, params, weight=weight)
            )
            assert repr(lockstep) == repr(reference)

    def test_outcomes_match_the_per_probe_reference_on_4x4(self, monkeypatch):
        # 184 routes of 6 to 14 hops: the stack pads up to 8 hops per route.
        scenario = build_grid_scenario(rows=4, cols=4, seed=2)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=1.0)
        assert len(routes) == 184
        lockstep, reference = self._both(monkeypatch, lambda: solve_global(routes, params, weight=0.5))
        assert repr(lockstep) == repr(reference)
        assert len(set(t for t, _ in lockstep.per_route_best)) > 1
        lockstep, reference = self._both(
            monkeypatch, lambda: solve_distributed(routes, params, weight=0.5, context=lockstep.context)
        )
        assert repr(lockstep) == repr(reference)

    def test_mixed_route_kinds_match_the_reference(self, monkeypatch, params, grid_routes):
        # One-hop and all-forward routes read no joint-outcome mixture.
        one_hop = Route(hops=(Hop(0.12, 3, rsu_id="solo"),))
        all_forward = Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3)))
        routes = [one_hop, *grid_routes[:4], all_forward]
        for weight in (0.3, 0.7):
            lockstep, reference = self._both(monkeypatch, lambda: solve_global(routes, params, weight=weight))
            assert repr(lockstep) == repr(reference)

    @pytest.mark.parametrize("trial_time", [0.1, 0.3])
    def test_many_weights_match_the_reference(self, monkeypatch, trial_time):
        # Every (route, weight) task of one solve shares the lockstep.
        scenario = build_grid_scenario(seed=1)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=trial_time)
        weights = [0.0, 0.3, 0.5, 0.8, 1.0]
        lockstep, reference = self._both(monkeypatch, lambda: opt._solve_global(routes, params, weights, None, True))
        assert repr(lockstep) == repr(reference)
        assert len({g.t_star for g in lockstep}) > 1
        ctx = lockstep[0].context
        lockstep, reference = self._both(monkeypatch, lambda: opt._solve_distributed(routes, params, weights, ctx))
        assert repr(lockstep) == repr(reference)

    def test_tasks_in_any_row_order_match_the_reference(self):
        # One search over tasks whose rows are not consecutive: descending,
        # repeated at other weights and bounds, and route rows mixed with
        # the one-hop rows after the routes.
        scenario = build_grid_scenario(seed=1)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        scan = opt._Scan(routes, dataclasses.replace(scenario.params, trial_time=0.3))
        n, rows = len(routes), len(scan.stack.ks)
        assert rows > n + 1
        cols = np.array([rows - 1, 5, 4, 3, n, 2, 2, n + 1, 0, rows - 1, n, 3, 3])
        weights = np.array([0.5, 0.0, 1.0, 0.3, 0.8, 0.5, 0.7, 0.2, 1.0, 0.9, 0.1, 0.3, 0.3])
        own = scan.scales[cols]
        shared = np.broadcast_to(dataclasses.astuple(scan.context), own.shape)
        bounds = np.where((np.arange(len(cols)) % 3 == 0)[:, None], shared, own)
        reads = scan.out["rate_closed"], scan.out["latency"]
        args = (scan.stack, scan.grid, reads, cols, bounds, weights)
        found, reference = opt._search(*args), _reference_search(*args)
        assert repr([x.tolist() for x in found]) == repr([x.tolist() for x in reference])
        # Task 12 repeats task 3, and reads alike; task 11 differs in its bounds alone.
        assert [x[12] for x in found] == [x[3] for x in found] != [x[11] for x in found]


def _best_hop_windows_reference(evaluator, grid, read, weight, scales):
    """Per-hop window search inside the route: each hop normalizes on its
    own scale, one of ``scales`` per hop, scores its rows of the route's
    hop-stage grid read and probes that stage."""
    T = evaluator.params.hop_dwell
    windows = []
    for hidx, (lats, rates, ctx) in enumerate(zip(read["hop_latency"], read["hop_rate"], scales)):

        def objective(ts, hidx=hidx, ctx=ctx):
            hop = evaluator._stack.hops(evaluator._col, ts)[2]
            return _trade_off(hop["hop_rate"][hidx], hop["hop_latency"][hidx], ctx, weight)

        t_h, _ = _maximize_scan(grid, _trade_off(rates, lats, ctx, weight), objective, T)
        windows.append(t_h)
    return tuple(windows)


class TestDenseGridOracle:
    """Both solvers on the scan grid against the same solvers on the
    per-trial grid of every piece, patched in as ``_scan_grid``: the same
    KKT kinds and verdicts, the coordinated per-route values within 1e-15,
    and the same routes and windows within two window tolerances, save
    across a tie: where the objective is flat to within the tie width the
    tie rule's window is a property of the sampled windows, so two windows
    further apart must read the same objective within twice that width.
    A hop window moved within the tolerance moves its routes' aggregate
    values to first order, so those are held to 1e-9, as in
    TestBisectionOracle."""

    OVERRIDES = {
        "stock": {},
        "cell0.3": {"rate_cell": 0.3},
        "cell0.6": {"rate_cell": 0.6},
        "cell2.5": {"rate_cell": 2.5},
        "decode0.3": {"decode_error": 0.3},
        "fast": {},  # arrival_interval=(2.0, 4.0)
    }
    WEIGHTS = (0.0, 0.5, 1.0)

    @staticmethod
    def _solve(routes, params, weights, context=None):
        coordinated = opt._solve_global(routes, params, weights, context, True)
        return coordinated, opt._solve_distributed(routes, params, weights, coordinated[0].context)

    @staticmethod
    def _tie(stack, cols, ts, context, weight):
        """Whether route cols[i] at window ts[i], every pair, reads one
        objective on ``context`` within twice the tie width."""
        bounds = dataclasses.astuple(context)
        return np.ptp(_objective(stack, np.repeat(cols, len(ts)), np.tile(ts, len(cols)), bounds, weight)) <= 2 * opt._TIE

    @pytest.mark.parametrize("override", list(OVERRIDES))
    @pytest.mark.parametrize("size, seed", [(3, seed) for seed in range(4)] + [(4, 2), (4, 3)])
    def test_both_solvers_match_the_dense_grid(self, monkeypatch, size, seed, override):
        interval = (2.0, 4.0) if override == "fast" else (0.05, 0.3)
        scenario = build_grid_scenario(rows=size, cols=size, seed=seed, arrival_interval=interval)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        grids = []
        read = opt._read

        def recording_read(stack, grid):
            out = read(stack, grid)
            grids.append(out[1])
            return out

        monkeypatch.setattr(opt, "_read", recording_read)
        for trial_time in (0.02, 0.1, 1.0):
            params = dataclasses.replace(scenario.params, trial_time=trial_time, **self.OVERRIDES[override])
            self._check(monkeypatch, routes, params)
        # Fast traffic needs more than 33 Lobatto nodes on the tail.
        if override == "fast":
            assert any(n != opt._TAIL_INTERVALS for grid in grids for _, _, n, _ in grid.tail)

    def test_a_piece_past_the_node_cap_falls_back_to_per_trial_rows(self, monkeypatch):
        # Arrival rates in [5, 10] under a binding cellular cap: 257 nodes
        # leave [0.8, 15] unresolved, so that piece reads the per-trial rows
        # of the dense grid, and both solvers match the dense grid.
        scenario = build_grid_scenario(seed=0, arrival_interval=(5.0, 10.0))
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, rate_cell=0.3)
        grid = opt._read(_RouteStack(routes, params), _scan_grid(params))[1]
        assert [(a, b, n) for a, b, n, _ in grid.tail] == [(0.8, 15.0, 0), (15.0, 20.0, 32)]
        ref = _scan_grid_per_piece(params)
        last = max(t for t in opt._breakpoints(params) if t < 15.0)
        assert grid.ts[(grid.ts >= 0.8) & (grid.ts < last)].tobytes() == ref.ts[(ref.ts >= 0.8) & (ref.ts < last)].tobytes()
        self._check(monkeypatch, routes, params)

    def _check(self, monkeypatch, routes, params):
        tol = 2 * opt._REL_T_TOL * params.hop_dwell
        sparse = self._solve(routes, params, self.WEIGHTS)
        start_cold()  # the dense solve keeps its own scan, dropped after it
        with monkeypatch.context() as m:
            m.setattr(opt, "_scan_grid", _scan_grid_per_piece)
            dense = self._solve(routes, params, self.WEIGHTS)
        start_cold()
        stack = _RouteStack(routes, params)
        hops = _RouteStack([Route(hops=(hop,)) for hop in stack.distinct], params)
        scales = opt._envelope(hops, *opt._read(hops, _scan_grid(params)))
        for w, g, b in zip(self.WEIGHTS, *(outcomes[0] for outcomes in (sparse, dense))):
            assert (g.kkt["kind"], g.kkt["ok"]) == (b.kkt["kind"], b.kkt["ok"])
            assert max(abs(x - y) for (_, x), (_, y) in zip(g.per_route_best, b.per_route_best)) <= 1e-15
            if g.route_index != b.route_index or abs(g.t_star - b.t_star) > tol:
                assert self._tie(stack, [g.route_index, b.route_index], [g.t_star, b.t_star], g.context, w)
        for w, d, e in zip(self.WEIGHTS, *(outcomes[1] for outcomes in (sparse, dense))):
            assert d.route_index == e.route_index
            assert max(abs(x - y) for (_, x), (_, y) in zip(d.per_route, e.per_route)) <= 1e-9
            # Each hop window that moved, read on its hop's own scale.
            moved = {
                (c, s, t)
                for i, ((u, _), (v, _)) in enumerate(zip(d.per_route, e.per_route))
                for c, s, t in zip(columns(stack, i).tolist(), u, v)
                if abs(s - t) > tol
            }
            if moved:
                c, s, t = (np.array(x) for x in zip(*sorted(moved)))
                f = _objective(hops, np.tile(c, 2), np.concatenate([s, t]), np.tile(scales[c], (2, 1)).T, w)
                assert np.max(np.abs(f[: len(c)] - f[len(c) :])) <= 2 * opt._TIE


class TestRowModel:
    """Each distinct hop of a route stack has one one-hop row: the first
    one-hop route over it, else a row after the routes, which the grid
    read and the envelope read as any other row."""

    @staticmethod
    def _cases():
        """(label, routes, params): 3x3 seed 0, also under a binding cap,
        4x4 seed 2, and routes holding one-hop routes, one of them a
        forwarding hop and one a hop that a later one-hop route repeats."""
        for size, seed, override in ((3, 0, {}), (3, 0, {"rate_cell": 0.3}), (4, 2, {"trial_time": 1.0})):
            scenario = build_grid_scenario(rows=size, cols=size, seed=seed)
            routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
            yield f"{size}x{size} seed {seed} {override}", routes, dataclasses.replace(scenario.params, **override)
        scenario = build_grid_scenario(seed=0)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        first = routes[0].hops[1]
        solo = [Route(hops=(first,)), Route(hops=(Hop(0.12, 3, rsu_id="solo"),)), Route(hops=(Hop(0.2, 1, "fwd"),))]
        routes = [routes[0], *solo, *routes[1:4], Route(hops=(Hop(first.arrival_rate, first.deg, "again"),))]
        yield "with one-hop routes", routes, scenario.params

    def test_every_distinct_hop_has_exactly_one_one_hop_row(self):
        for label, routes, params in self._cases():
            stack = _RouteStack(routes, params)
            d = len(stack.distinct)
            assert len(stack.hop_rows) == d and len(set(stack.hop_rows.tolist())) == d, label
            one_hop = {}
            for j, route in enumerate(routes):
                if len(route.hops) == 1:
                    one_hop.setdefault((route.hops[0].arrival_rate, route.hops[0].deg), j)
            extra = [c for c, h in enumerate(stack.distinct) if (h.arrival_rate, h.deg) not in one_hop]
            rows = len(stack.grid([0.0, params.hop_dwell])["latency"])
            assert rows == len(routes) + len(extra), label
            for c, (hop, row) in enumerate(zip(stack.distinct, stack.hop_rows.tolist())):
                key = (hop.arrival_rate, hop.deg)
                assert row == (one_hop[key] if key in one_hop else len(routes) + extra.index(c)), (label, c)
                assert columns(stack, row).tolist() == [c], (label, c)
            # The routes alone have views and folds.
            assert len(evaluators(stack)) == len(routes)
            assert stack.fold(np.ones(d), np.add, 0.0).tolist() == [float(len(r.hops)) for r in routes]
        assert "with one-hop routes" in label and len(extra) < d  # some hop's row is a route

    def test_one_hop_rows_read_as_a_one_hop_stack(self):
        # A stack's one-hop rows read the bits of a stack of the one-hop
        # routes alone, on the grid read's windows, and take the same
        # envelopes.
        for label, routes, params in self._cases():
            stack = _RouteStack(routes, params)
            hops = _RouteStack([Route(hops=(hop,)) for hop in stack.distinct], params)
            out, grid = opt._read(stack, _scan_grid(params))
            ref = hops.grid(grid.ts)
            for name in ("latency", "rate_closed"):
                assert np.array_equal(out[name][stack.hop_rows], ref[name]), (label, name)
            scales = opt._envelope(stack, out, grid)
            assert repr(scales[stack.hop_rows].tolist()) == repr(opt._envelope(hops, ref, grid).tolist()), label

    def test_an_envelope_makes_one_polish(self, monkeypatch, params, grid_routes):
        # Every row's maxima and minima share one lockstep; a solve without
        # a context makes one more, for its search.
        calls = []
        polish = opt._polish
        monkeypatch.setattr(opt, "_polish", lambda deriv, lo, *a: calls.append(len(lo)) or polish(deriv, lo, *a))
        stack = _RouteStack(grid_routes, params)
        opt._envelope(stack, *opt._read(stack, _scan_grid(params)))
        assert len(calls) == 1 and calls[0] > 0
        del calls[:]
        solve_global(grid_routes, params, weight=0.5, with_kkt=False)
        assert len(calls) == 2


class TestHopSearch:
    @staticmethod
    def _context_read(routes, params):
        """The route stack, the grid its read is taken on and every row's
        envelope: the read that forms the shared context."""
        stack = _RouteStack(routes, params)
        out, grid = opt._read(stack, _scan_grid(params))
        return stack, grid, opt._envelope(stack, out, grid)

    @pytest.mark.parametrize("seed, rate_cell", [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (0, 0.3)])
    def test_windows_match_the_per_hop_reference_bit_for_bit(self, params, seed, rate_cell):
        # Each hop scores on its own exact envelope, that of its one-hop row
        # of the route stack, over the grid the stack's read refines (at
        # rate_cell=0.3 the route rows refine its tail), as the distributed
        # solve takes it.
        params = dataclasses.replace(params, rate_cell=rate_cell)
        scenario = build_grid_scenario(params=params, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        stack, grid, scales = self._context_read(routes, params)
        assert (rate_cell == 1.0) == (grid.ts.tobytes() == _scan_grid(params).ts.tobytes())
        for weight in (0.0, 0.5, 1.0):
            dist = solve_distributed(routes, params, weight=weight)
            for j, (route, (windows, _)) in enumerate(zip(routes, dist.per_route)):
                ev = RouteEvaluator(route, params)
                own = scales[stack.hop_rows[columns(stack, j)]].tolist()
                ref = _best_hop_windows_reference(ev, grid, ev._stack.hops(ev._col, grid.ts)[2], weight, own)
                assert repr(windows) == repr(ref)

    def test_hops_are_searched_on_the_envelopes_of_the_context_read(self, monkeypatch):
        # The scales a distributed solve searches its hops on are the hop
        # rows' envelopes from the one read that also forms the shared
        # context, and its search reads that read's grid: under a binding
        # cap the route rows refine the grid, and a read of the hops alone
        # would give some hops other scales.
        scenario = build_grid_scenario(seed=0)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, rate_cell=0.3)
        stack, grid, scales = self._context_read(routes, params)
        searched = []
        search = opt._search
        monkeypatch.setattr(opt, "_search", lambda *a: searched.append(a) or search(*a))
        solve_distributed(routes, params, weight=0.5)
        ((_, search_grid, _, rows, bounds, _),) = searched
        assert search_grid.ts.tobytes() == grid.ts.tobytes()
        assert rows.tolist() == stack.hop_rows.tolist()
        assert repr(bounds.tolist()) == repr(scales[stack.hop_rows].tolist())


class TestBisectionOracle:
    """The interpolating polish against plain bisection, the polish it
    replaced, on 3x3 seeds 0-3 at trial times 0.02 and 0.1 and 4x4 seeds
    2-3 at 1: the same routes and optimality verdicts, windows within two
    window tolerances, and never more lockstep reads.  At weight 0 every
    bracket reads flat and bisects, so those outcomes keep their bits."""

    MATRIX = [(3, seed, tt) for seed in range(4) for tt in (0.02, 0.1)] + [(4, seed, 1.0) for seed in (2, 3)]

    @staticmethod
    def _both(monkeypatch, reads, solve):
        """The outcome and the lockstep read count of ``solve``, polished
        and bisected; ``reads`` records the lockstep's reads."""
        del reads[:]
        polished = solve()
        n = len(reads)
        start_cold()  # or the bisected solve would take the polished tasks kept
        with monkeypatch.context() as m:
            m.setattr(opt, "_polish", _bisect_lockstep)
            bisected = solve()
        start_cold()  # and the next polished solve the bisected ones
        return polished, bisected, n, len(reads) - n

    @pytest.mark.parametrize("size, seed, trial_time", MATRIX)
    def test_outcomes_match_bisection(self, monkeypatch, size, seed, trial_time):
        # The envelope polishes its rate extrema by _polish too; both
        # solves score on the envelope's polished context, so that the
        # search's polish alone differs.
        scenario = build_grid_scenario(rows=size, cols=size, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=trial_time)
        tol = 2 * opt._REL_T_TOL * params.hop_dwell
        ctx = build_normalization(routes, params)
        searched = _count_stack_reads(monkeypatch)["searched"]
        for weight in (0.0, 0.5, 1.0):
            g, b, reads, bisect_reads = self._both(
                monkeypatch, searched, lambda: solve_global(routes, params, weight=weight, context=ctx)
            )
            assert reads <= bisect_reads
            assert g.route_index == b.route_index
            assert (g.kkt["kind"], g.kkt["ok"]) == (b.kkt["kind"], b.kkt["ok"])
            assert abs(g.t_star - b.t_star) <= tol
            assert max(abs(x - y) for (_, x), (_, y) in zip(g.per_route_best, b.per_route_best)) <= 1e-15
            if weight == 0.0:
                assert repr(g) == repr(b)
            d, e, reads, bisect_reads = self._both(
                monkeypatch, searched, lambda: solve_distributed(routes, params, weight=weight, context=g.context)
            )
            assert reads <= bisect_reads
            assert d.route_index == e.route_index
            windows = [(x, y) for (u, _), (v, _) in zip(d.per_route, e.per_route) for x, y in zip(u, v)]
            assert max(abs(x - y) for x, y in windows) <= tol
            # A hop window moved within the tolerance moves its routes'
            # values to first order: at most 6.3e-11 on this matrix.
            assert max(abs(x - y) for (_, x), (_, y) in zip(d.per_route, e.per_route)) <= 1e-9
            if weight == 0.0:
                assert repr(d) == repr(e)


@contextlib.contextmanager
def _inside(seen: dict, where: str):
    """Mark the calls made while the block runs as made inside ``where``."""
    seen[where] = seen.get(where, 0) + 1
    try:
        yield
    finally:
        seen[where] -= 1


def _count_stack_reads(monkeypatch, seen: dict | None = None) -> dict:
    """Sizes of the route-stack reads made by the lockstep search
    (``searched``), by an envelope where one is marked (``enveloped``, see
    TestWorkCounts.counts) and of those made outside both (``direct``),
    from a cold start (see start_cold)."""
    start_cold()
    seen = {"searched": [], "enveloped": [], "direct": []} if seen is None else seen
    read, search = _RouteStack.read, opt._search

    def counting_read(self, cols, ts):  # records each read's cell count
        where = "searched" if seen.get("_search") else "enveloped" if seen.get("_envelope") else "direct"
        seen[where].append(np.broadcast(cols, ts).size)
        return read(self, cols, ts)

    def counting_search(*args):
        with _inside(seen, "_search"):
            return search(*args)

    monkeypatch.setattr(_RouteStack, "read", counting_read)
    monkeypatch.setattr(opt, "_search", counting_search)
    return seen


class TestWorkCounts:
    """Deterministic guard on how often a solve builds the grid and reads it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # reads: (windows, routes, stage rows) of each grid read; stages:
        # windows of each per-hop stage, and stage_rows its coefficient columns.
        # envelope_stages: the per-hop stages of the envelope's polish;
        # envelopes: the envelope calls; stacks: each route stack's route count.
        seen = {"grids": [], "reads": [], "stages": [], "stage_rows": [], "grid_stages": 0, "searched": [],
                "enveloped": [], "direct": [], "__init__": 0, "build_normalization": 0, "envelope_stages": 0,
                "envelopes": 0, "stacks": []}
        make_grid, grid, stage = opt._scan_grid, _RouteStack.grid, _RouteStack._stage
        build, envelope, init = opt.build_normalization, opt._envelope, _RouteStack.__init__

        def tally(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                seen[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        tally(RouteEvaluator, "__init__")
        # A module that imports the function by name holds its own reference.
        for key, module in list(sys.modules.items()):
            if key.startswith("v2xdelivery") and getattr(module, "build_normalization", None) is build:
                tally(module, "build_normalization")

        def counting_grid(p):
            scan = make_grid(p)
            seen["grids"].append(len(scan.ts))
            return scan

        def counting_grid_read(self, ts):
            first = len(seen["stages"])
            out = grid(self, ts)
            # A grid read takes its windows in blocks, each one stage of the
            # same distinct hops, and covers every window once.
            assert sum(seen["stages"][first:]) == len(ts)
            rows = sorted(set(seen["stage_rows"][first:]))
            seen["grid_stages"] += len(seen["stages"]) - first
            seen["reads"].append((len(ts), len(self.routes), rows))
            return out

        def counting_stage(self, coef, ts, ms):  # every reading passes through it
            seen["stages"].append(len(ts))
            seen["stage_rows"].append(coef.shape[1])
            seen["envelope_stages"] += bool(seen.get("_envelope"))
            return stage(self, coef, ts, ms)

        def counting_envelope(*args):
            seen["envelopes"] += 1
            with _inside(seen, "_envelope"):
                return envelope(*args)

        def counting_init(self, routes, p):
            seen["stacks"].append(len(routes))
            init(self, routes, p)

        monkeypatch.setattr(opt, "_envelope", counting_envelope)
        monkeypatch.setattr(_RouteStack, "__init__", counting_init)
        monkeypatch.setattr(opt, "_scan_grid", counting_grid)
        monkeypatch.setattr(_RouteStack, "grid", counting_grid_read)
        monkeypatch.setattr(_RouteStack, "_stage", counting_stage)
        _count_stack_reads(monkeypatch, seen)
        return seen

    @staticmethod
    def _grid_reads(seen):
        """Routes read by each grid read of the whole scan grid."""
        n = seen["grids"][0]
        return [routes for size, routes, _ in seen["reads"] if size == n]

    @staticmethod
    def _grid_stages(seen):
        """Stage rows of each grid read of the whole scan grid."""
        n = seen["grids"][0]
        return [rows for size, _, rows in seen["reads"] if size == n]

    @staticmethod
    def _distinct_hops(routes):
        assert min(len(r) for r in routes) > 1  # one-hop reads are the hop searches
        return len(set(h for r in routes for h in r.hops))

    def test_global_builds_one_grid_and_reads_it_once_per_route(self, counts, params, grid_routes):
        # One grid read of every route, whose per-hop stage runs once on the
        # 16 distinct hops, not once per hop of a route.
        assert self._distinct_hops(grid_routes) == 16
        solve_global(grid_routes, params, weight=0.5)
        assert len(counts["grids"]) == 1
        assert self._grid_reads(counts) == [len(grid_routes)]
        assert self._grid_stages(counts) == [[16]]

    def test_a_4x4_solve_stages_each_distinct_hop_once(self, counts):
        # 184 routes hold 1912 hops but 36 distinct ones: the grid read's
        # stage has 36 rows, in every block.
        scenario = build_grid_scenario(rows=4, cols=4, seed=2)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        assert (len(routes), sum(len(r) for r in routes), self._distinct_hops(routes)) == (184, 1912, 36)
        solve_global(routes, scenario.params, weight=0.5, with_kkt=False)
        assert self._grid_reads(counts) == [184]
        assert self._grid_stages(counts) == [[36]]

    def test_distributed_without_context_reads_the_same(self, counts, params, grid_routes):
        # The global solve's one stack and one grid read, whose rows hold
        # every distinct hop, serve the hop searches too, and one envelope
        # gives both the shared context and the hops' own scales; each
        # stage runs once per distinct hop.
        d = self._distinct_hops(grid_routes)
        assert d == 16
        solve_distributed(grid_routes, params, weight=0.5)
        assert counts["stacks"] == [len(grid_routes)]
        assert len(counts["grids"]) == 1
        assert self._grid_reads(counts) == [len(grid_routes)]
        assert self._grid_stages(counts) == [[d]]
        assert counts["envelopes"] == 1

    def test_a_given_context_reads_no_envelope(self, counts, params, grid_routes):
        # The coordinated solve takes no envelope from a given context.  The
        # distributed one still takes one, for its hops' own scales, from the
        # grid read the coordinated solve kept, which its hop searches read
        # too: it builds its own stack but reads no grid.
        d = self._distinct_hops(grid_routes)
        ctx = NormalizationContext(0.0, 1.0, 0.0, 1.0)
        solve_global(grid_routes, params, weight=0.5, context=ctx, with_kkt=False)
        assert counts["envelopes"] == 0
        solve_distributed(grid_routes, params, weight=0.5, context=ctx)
        assert counts["envelopes"] == 1
        assert counts["stacks"] == [len(grid_routes)] * 2
        assert len(counts["grids"]) == 1
        assert self._grid_reads(counts) == [len(grid_routes)]
        assert self._grid_stages(counts) == [[d]]

    def test_compare_reads_each_route_once(self, counts, monkeypatch, capsys, grid_routes):
        # n routes in the coordinated solve, plus the SPR and GPSR routes
        # scored on its scale: both are among the n routes, so their rows
        # are read from its search, and no other stack is built.  A solve's
        # routes are views of its stack, so no evaluator is built alone.
        stacked = []
        init = _RouteStack.__init__

        def counting_init(self, routes, params):
            stacked.append(len(routes))
            init(self, routes, params)

        monkeypatch.setattr(_RouteStack, "__init__", counting_init)
        assert run_command(["compare"]) == 0
        assert stacked == [len(grid_routes)]
        assert counts["__init__"] == 0
        assert self._grid_reads(counts) == [len(grid_routes)]

    def test_alpha_sweep_reads_each_route_once(self, counts, capsys, grid_routes):
        # One solve per solver serves every weight, and both solvers read one
        # scan: one stack of the n routes, one grid read of it, whose one
        # per-hop stage covers the d distinct hops, and one envelope.
        d = self._distinct_hops(grid_routes)
        assert run_command(["sweep", "--variable", "alpha", "--grid", "0,0.5,1"]) == 0
        assert counts["stacks"] == [len(grid_routes)]
        assert self._grid_reads(counts) == [len(grid_routes)]
        assert self._grid_stages(counts) == [[d]]
        assert counts["envelopes"] == 1
        assert counts["build_normalization"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--snapshots", "200"],
            ["sweep", "--variable", "t", "--points", "3", "--snapshots", "100"],
        ],
    )
    def test_simulate_and_sweep_t_stack_their_routes_once(self, counts, capsys, grid_routes, argv):
        # The winner is read again from the stack its solve read: one stack
        # of the n routes, and no evaluator or one-route stack.
        assert run_command(argv) == 0
        assert counts["stacks"] == [len(grid_routes)]
        assert counts["__init__"] == 0
        assert self._grid_reads(counts) == [len(grid_routes)]

    @pytest.mark.parametrize("weights", [[0.5], [0.0, 0.5, 1.0], [i / 10 for i in range(11)]])
    def test_distributed_aggregates_every_route_in_one_read(self, counts, params, grid_routes, weights):
        # Besides the one grid read of the stack (its routes and the d hops'
        # one-hop rows, one per-hop stage of the d hops), the polish of
        # every row's rate extrema for the hops' own scales (one lockstep of
        # stack reads, one per-hop stage each) and the lockstep of the hop
        # searches, one read of the hop rows at every (hop, weight) window
        # aggregates every route; no route is read on its own.
        d = self._distinct_hops(grid_routes)
        ctx = NormalizationContext(0.0, 1.0, 0.0, 1.0)
        opt._solve_distributed(grid_routes, params, weights, ctx)
        assert counts["stacks"] == [len(grid_routes)]
        assert counts["direct"] == [d * len(weights)]
        n = counts["grids"][0]
        assert counts["reads"] == [(n, len(grid_routes), [d])]
        assert counts["envelopes"] == 1
        assert 0 < counts["envelope_stages"] == len(counts["enveloped"]) <= 81
        searched = len(counts["stages"]) - counts["grid_stages"] - counts["envelope_stages"]
        assert searched == len(counts["searched"]) + 1

    def test_the_stock_grid_holds_the_same_windows_at_every_trial_time(self, counts, params, grid_routes):
        # Per-trial rows on trial pieces 0..L, L = 7, and 33 Lobatto nodes
        # plus two end insets on the tail, whatever the trial time; one
        # grid read covers it, with no node doubled.
        L = _pmf_rows(params, max_trials(params.hop_dwell, params.trial_time))
        assert L == 7
        for trial_time in (0.1, 0.02, 0.005):
            solve_global(grid_routes, dataclasses.replace(params, trial_time=trial_time), weight=0.5)
        assert counts["grids"] == [counts["grids"][0]] * 3
        assert counts["grids"][0] <= (L + 1) * 9 + opt._TAIL_INTERVALS + 1 + 2
        assert [size for size, _, _ in counts["reads"]] == counts["grids"]

    def test_analyze_reads_every_route_in_one_kernel_read(self, counts, monkeypatch, capsys, grid_routes):
        # One stack of all n routes, read once at the one window t, which
        # the read broadcasts; no evaluator is built.
        stacked, windows = [], []
        init, read = _RouteStack.__init__, _RouteStack.read

        def counting_init(self, routes, p):
            stacked.append(len(routes))
            init(self, routes, p)

        monkeypatch.setattr(_RouteStack, "__init__", counting_init)
        monkeypatch.setattr(_RouteStack, "read", lambda self, cols, ts: windows.append(ts) or read(self, cols, ts))
        assert run_command(["analyze"]) == 0
        assert stacked == [len(grid_routes)]
        assert windows == [10.0]
        assert counts["__init__"] == 0 and counts["reads"] == []
        assert counts["direct"] == counts["stages"] == [len(grid_routes)]

    @pytest.mark.parametrize("grid_size, trial_time", [(3, 0.1), (3, 0.02), (4, 1.0)])
    def test_a_solve_makes_at_most_81_bisection_reads(self, monkeypatch, grid_size, trial_time):
        # 80 lockstep steps and one read of every peak, for 12 routes or 184.
        scenario = build_grid_scenario(rows=grid_size, cols=grid_size, seed=1)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=trial_time)
        reads = _count_stack_reads(monkeypatch)["searched"]
        outcome = solve_global(routes, params, weight=0.5, with_kkt=False)
        interior = sum(0.0 < t < params.hop_dwell for t, _ in outcome.per_route_best)
        assert interior > 1  # many routes polished their brackets together
        assert 1 < len(reads) <= 81
        assert max(reads) >= 2 * interior
        del reads[:]
        solve_distributed(routes, params, weight=0.5, context=outcome.context)
        assert 1 < len(reads) <= 81

    @pytest.mark.parametrize("size, seed", [(3, 0), (4, 2)])
    def test_a_stock_solve_makes_at_most_13_lockstep_reads(self, monkeypatch, size, seed):
        # Bisection takes 21 steps here, and one more read of the peaks;
        # the interpolating polish closes every bracket within 12 steps.
        scenario = build_grid_scenario(rows=size, cols=size, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        reads = _count_stack_reads(monkeypatch)["searched"]
        outcome = solve_global(routes, scenario.params, weight=0.5, with_kkt=False)
        assert 1 < len(reads) <= 13
        del reads[:]
        solve_distributed(routes, scenario.params, weight=0.5, context=outcome.context)
        assert 1 < len(reads) <= 13

    @pytest.mark.parametrize("grid", [["--grid", "0,0.5,1"], []])
    def test_alpha_sweep_makes_at_most_81_bisection_reads_per_solver(self, monkeypatch, capsys, grid):
        # Every weight's brackets share each solver's lockstep, for the
        # 3 weights of a grid or the 11 of the default.
        reads = _count_stack_reads(monkeypatch)["searched"]
        assert run_command(["sweep", "--variable", "alpha", *grid]) == 0
        assert 2 < len(reads) <= 2 * 81

    @pytest.mark.parametrize("rate_cell, walks", [(1.0, 1), (0.3, 2)])
    def test_distributed_with_a_context_builds_no_joint_tables(
        self, monkeypatch, params, grid_routes, rate_cell, walks
    ):
        # With a context, solve_distributed still reads its route stack on
        # the grid, whose route rows decide the grid its hops are searched
        # on, so it builds the joint tables as solve_global does: J(1) and
        # E[max wait] in one node walk, which folds each node of the routes'
        # arrival-rate prefix tree once, and the mixture tables, from one
        # more walk, only where a cap binds: nowhere at stock, and at
        # rate_cell=0.3 wherever the cellular cap is below the fallback
        # supremum.  The aggregate and the hop searches read hop stages alone.
        import v2xdelivery.closedform as cf

        params = dataclasses.replace(params, rate_cell=rate_cell)
        ctx = build_normalization(grid_routes, params)
        mixed = [r for r in grid_routes if is_mixed(r)]
        built = count_table_builds(monkeypatch)
        for solve in (
            lambda: solve_distributed(grid_routes, params, weight=0.5, context=ctx),
            lambda: solve_global(grid_routes, params, weight=0.5, with_kkt=False),
        ):
            del built[:]
            start_cold()  # each solve walks as the process's first would
            solve()
            assert built.count("_node_walk") == walks
            assert built.count("_fold_hop") == walks * prefix_tree_nodes(grid_routes) < walks * sum(map(len, mixed))
            assert built.count("_mixture_table") == (walks - 1) * len(mixed)

    @pytest.mark.parametrize("change", [{"trial_time": 0.05}, {"decode_error": 0.3}, {"rate_cell": 0.3}])
    def test_solves_after_a_parameter_change_take_no_totals_walk(self, monkeypatch, params, grid_routes, change):
        # J(1) and E[max wait] depend on the dwell and the routes' arrival
        # rates alone, so once a stock solve has taken them, both solvers
        # and analyze's one read of every route, on the same routes after a
        # change of another parameter, take them from the kept totals and
        # read what each reads from an empty dict, field for field.  Only
        # the mixture tables, where a cap binds, take walks of their own:
        # at rate_cell=0.3, one for each stack that reads a mixed route,
        # the coordinated solve's and analyze's.  The distributed solve
        # reads the scan the coordinated one kept, and hop rows alone.
        import v2xdelivery.closedform as cf

        changed = dataclasses.replace(params, **change)
        cols = np.arange(len(grid_routes))
        solves = [
            lambda: solve_global(grid_routes, changed, weight=0.5),
            lambda: solve_distributed(grid_routes, changed, weight=0.5),
            lambda: {k: v.tobytes() for k, v in _RouteStack(grid_routes, changed).read(cols, 10.0).items()},
        ]
        built = count_table_builds(monkeypatch)
        cold = [start_cold() or solve() for solve in solves]
        start_cold()
        solve_global(grid_routes, params, weight=0.5)
        del built[:]
        totals = []
        original = cf._mixture_totals
        monkeypatch.setattr(cf, "_mixture_totals", lambda *a: totals.append(a) or original(*a))
        warm = [solve() for solve in solves]
        assert warm == cold and repr(warm) == repr(cold)
        assert totals == []
        mixed = [r for r in grid_routes if is_mixed(r)]
        walks = built.count("_node_walk")
        assert built.count("_mixture_table") == walks * len(mixed)
        assert walks == (2 if "rate_cell" in change else 0)  # one table walk a stack that reads a binding cap

    def test_a_scheme_beams_sweep_walks_its_routes_once(self, monkeypatch, capsys):
        # Its 25 solves differ in trial time alone: the first takes every
        # J(1) and E[max wait] in one node walk, and the other 24 read them
        # kept.
        built = count_table_builds(monkeypatch)
        solves = []
        monkeypatch.setattr(cli, "solve_global", lambda *a, **kw: solves.append(a) or solve_global(*a, **kw))
        assert run_command(["sweep", "--variable", "scheme_beams"]) == 0
        assert len(solves) == 25 and built.count("_node_walk") == 1

    @pytest.mark.parametrize("rate_cell, builds_tables", [(1.0, False), (0.3, True)])
    def test_global_builds_each_mixture_table_once(self, monkeypatch, params, grid_routes, rate_cell, builds_tables):
        # The envelope, the lockstep and the winner's reads share each mixed
        # route's J(1) and E[max wait], from one node walk, and, once a cap
        # binds, its table, from one more walk, the only other one made,
        # the tables straight into the stack's array.
        import v2xdelivery.closedform as cf

        params = dataclasses.replace(params, rate_cell=rate_cell)
        built = count_table_builds(monkeypatch)
        outs = []
        table = cf._mixture_table
        monkeypatch.setattr(cf, "_mixture_table", lambda *a, **kw: outs.append(kw.get("out")) or table(*a, **kw))
        mixed = [r for r in grid_routes if is_mixed(r)]
        assert len(mixed) > 1
        solve_global(grid_routes, params, weight=0.5)
        walk = ["_node_walk", *["_fold_hop"] * prefix_tree_nodes(grid_routes)]
        assert [name for name in built if name != "_mixture_table"] == walk * (1 + builds_tables)
        assert built.count("_mixture_table") == len(outs) == (len(mixed) if builds_tables else 0)
        assert all(out is not None for out in outs)

    def test_a_stock_4x4_solve_builds_no_mixture_table(self, monkeypatch):
        # No cap binds at stock, so the 184-route solve takes its mixed
        # routes' J(1) and E[max wait] from one node walk, which folds each
        # of the 732 nodes of their arrival-rate prefix tree once (1912 hops
        # in all), computes each distinct arrival rate's factors once, and
        # holds no (7, 4000) mixture table.
        import v2xdelivery.closedform as cf

        scenario = build_grid_scenario(rows=4, cols=4, seed=2)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        built = count_table_builds(monkeypatch)
        factors = []
        original_factors = cf._hop_factors
        monkeypatch.setattr(cf, "_hop_factors", lambda mu, *rest: factors.append(float(mu)) or original_factors(mu, *rest))
        tracemalloc.start()
        try:
            solve_global(routes, scenario.params, weight=0.5, with_kkt=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mixed = [r for r in routes if is_mixed(r)]
        assert len(mixed) > 100 and sum(map(len, mixed)) == 1912
        assert built == ["_node_walk", *["_fold_hop"] * 732]
        assert prefix_tree_nodes(routes) == 732
        assert sorted(factors) == sorted({h.arrival_rate for r in mixed for h in r.hops})
        assert peak <= 16e6

    @pytest.mark.parametrize("trial_time, bound", [(0.02, 6.32e6), (0.005, 25.18e6)])
    def test_a_fine_trial_solve_peaks_below_one_read_per_route(self, params, grid_routes, trial_time, bound):
        # The envelope's grid read takes its windows in blocks, so a solve
        # holds little beyond the grid rows its search keeps.  One read per
        # route, each holding its route's (hops, windows) rows, peaked at
        # 6.32 MB on the 9001-window grid and 25.18 MB on the 36001-window one.
        params = dataclasses.replace(params, trial_time=trial_time)
        tracemalloc.start()
        try:
            solve_global(grid_routes, params, weight=0.5, with_kkt=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_a_fine_trial_search_scores_a_block_at_a_time(self, params, grid_routes):
        # The search scores its tasks' grid values in blocks of about
        # _BLOCK_CELLS cells, one route's 36001 windows here, on views of
        # the grid read, and keeps none of them between its passes: the
        # solve peaks below 10 MB (9.3 MB when each task was scored alone).
        params = dataclasses.replace(params, trial_time=0.005)
        tracemalloc.start()
        try:
            solve_global(grid_routes, params, weight=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    @pytest.mark.parametrize("t_star", [0.0, 0.05, 8.0, 12.34, 20.0])
    def test_stationarity_check_reads_the_kernel_once(self, counts, params, grid_routes, t_star):
        # One read of the 64-point sweep's probe pairs and the three probes
        # at t*, in one block: one stage, and no grid read.
        ev = RouteEvaluator(grid_routes[0], params)
        ctx = NormalizationContext(50.0, 150.0, 0.0, 2.0)
        kkt_stationarity_check(ev, t_star, ctx)
        assert counts["reads"] == []
        assert counts["direct"] == counts["stages"] == [2 * 64 + 3]

    def test_concavity_probe_reads_the_kernel_once(self, counts, params, grid_routes):
        # One read of the three probe rows, whose blocks are every stage
        # made, and no grid read.
        ev = RouteEvaluator(grid_routes[0], params)
        ctx = NormalizationContext(50.0, 150.0, 0.0, 2.0)
        report = verify_concavity(ev, weight=0.5, context=ctx)
        assert counts["reads"] == []
        assert counts["direct"] == [sum(counts["stages"])] == [3 * report["points"]]


def _reachable(root) -> list:
    """Every object ``root`` holds, directly or through containers and
    instances, not looking into classes, modules or functions."""
    seen, todo = {}, [root]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            if not isinstance(x, (type, types.ModuleType, types.FunctionType)):
                todo.extend(gc.get_referents(x))
    return list(seen.values())


class TestKeptScan:
    """The last scan's grid read, bounds and solved tasks, kept under the
    parameters bar the weight, the route count and the stack's layout,
    serve later solves on the same key with the bits of a cold solve."""

    CASES = [(3, 0), (3, 1), (4, 2)]
    OVERRIDES = {
        "stock": {},
        "trial0.02": {"trial_time": 0.02},
        "decode0.3": {"decode_error": 0.3},
        "cell2.5-trial1": {"rate_cell": 2.5, "trial_time": 1.0},
    }

    @staticmethod
    def _routes(size, seed, override):
        scenario = build_grid_scenario(rows=size, cols=size, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        return scenario, routes, dataclasses.replace(scenario.params, **override)

    @staticmethod
    def _counting(monkeypatch) -> dict:
        """Grid reads, envelopes and lockstep reads, counted from a cold start."""
        seen = _count_stack_reads(monkeypatch)
        seen.update(grids=[], envelopes=[])
        grid, envelope = _RouteStack.grid, opt._envelope
        monkeypatch.setattr(_RouteStack, "grid", lambda self, ts: seen["grids"].append(len(ts)) or grid(self, ts))
        monkeypatch.setattr(opt, "_envelope", lambda *a: seen["envelopes"].append(a) or envelope(*a))
        return seen

    @staticmethod
    def _work(seen) -> tuple[int, int, int]:
        return len(seen["grids"]), len(seen["envelopes"]), len(seen["searched"])

    @pytest.mark.parametrize("override", list(OVERRIDES))
    @pytest.mark.parametrize("size, seed", CASES)
    def test_kept_solves_read_as_cold_ones(self, size, seed, override):
        # Both solvers at weights 0, 0.5 and 1, without a context and on
        # another route set's: one after another on the scan the first
        # kept, then all again from the kept tasks alone, each as a solve
        # from a cold start reads it.
        _, routes, params = self._routes(size, seed, self.OVERRIDES[override])
        other = build_normalization(routes[:2], params)
        solves = [
            (lambda w=w, c=c: solve_global(routes, params, weight=w, context=c))
            if solver == "global"
            else (lambda w=w, c=c: solve_distributed(routes, params, weight=w, context=c))
            for solver in ("global", "distributed")
            for w in (0.0, 0.5, 1.0)
            for c in (None, other)
        ]
        kept = [solve() for solve in solves]
        again = [solve() for solve in solves]
        cold = [start_cold() or solve() for solve in solves]
        assert repr(kept) == repr(again) == repr(cold)

    @pytest.mark.parametrize("size, seed", CASES)
    def test_a_repeated_solve_reads_no_grid_envelope_or_lockstep(self, monkeypatch, size, seed):
        _, routes, params = self._routes(size, seed, {})
        seen = self._counting(monkeypatch)
        first = solve_global(routes, params, weight=0.5), solve_distributed(routes, params, weight=0.5)
        assert self._work(seen)[0] == self._work(seen)[1] == 1 and self._work(seen)[2] > 2
        for key in ("grids", "envelopes", "searched"):
            del seen[key][:]
        again = solve_global(routes, params, weight=0.5), solve_distributed(routes, params, weight=0.5)
        assert self._work(seen) == (0, 0, 0)
        assert repr(again) == repr(first)

    def test_a_key_change_misses_and_a_weight_change_hits(self, monkeypatch, params, grid_routes):
        # Each step solves on the scan the step before it kept: a step that
        # changes the trial time, one hop's arrival rate or the route count
        # reads a grid, and one that changes the weight alone does not.
        # Either way it reads as a solve from a cold start.
        seen = self._counting(monkeypatch)
        first = grid_routes[0].hops[0]
        faster_hop = dataclasses.replace(first, arrival_rate=1.5 * first.arrival_rate)
        faster = Route(hops=(faster_hop, *grid_routes[0].hops[1:]))
        # A one-hop route over a hop takes the place of that hop's own row
        # after the routes: the layout stays, and the route count changes.
        solo = [*grid_routes, Route(hops=(first,))]
        assert all(map(opt._same_bits, _RouteStack(solo, params).layout, _RouteStack(grid_routes, params).layout))
        steps = [
            (grid_routes, params, 0.5, 1),
            (grid_routes, params, 0.3, 0),
            (grid_routes, dataclasses.replace(params, weight=0.9), None, 0),
            (grid_routes, dataclasses.replace(params, trial_time=0.05), 0.5, 1),
            (grid_routes, params, 0.5, 1),
            ([faster, *grid_routes[1:]], params, 0.5, 1),
            (grid_routes[:-1], params, 0.5, 1),
            (grid_routes, params, 0.5, 1),
            (solo, params, 0.5, 1),
        ]
        for routes, p, weight, grids in steps:
            del seen["grids"][:]
            outcome = solve_global(routes, p, weight=weight, with_kkt=False)
            assert len(seen["grids"]) == grids and len(opt._KEPT) == 1
            start_cold()
            assert repr(solve_global(routes, p, weight=weight, with_kkt=False)) == repr(outcome)

    def test_solves_in_threads_read_as_cold_ones(self, params, grid_routes):
        # Four threads solve on one kept key at once, each at weights of
        # its own, so their searches merge into the same kept pair of
        # tasks and results.  Each search reads the pair it took and
        # stores a whole one, so a store may drop another thread's tasks
        # but no outcome reads another task's window.
        solves = [(solver, w) for solver in (solve_global, solve_distributed) for w in np.linspace(0.0, 1.0, 6)]
        cold = [repr(start_cold() or solver(grid_routes, params, weight=w)) for solver, w in solves]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                start_cold()
                solve_global(grid_routes, params, weight=0.05)  # one kept entry, shared from the start
                got = [None] * len(solves)

                def run(k):
                    for i in range(k, len(solves), 4):
                        solver, w = solves[i]
                        got[i] = repr(solver(grid_routes, params, weight=w))

                threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert got == cold
        finally:
            sys.setswitchinterval(switch)

    def test_the_kept_entry_holds_no_route_stack(self, params, grid_routes):
        solve_global(grid_routes, params, weight=0.5)
        solve_distributed(grid_routes, params, weight=0.5)
        (kept,) = opt._KEPT
        held = _reachable(opt._KEPT)
        hop_rows = _RouteStack(grid_routes, params).hop_rows
        assert kept.scales is not None and len(kept.solved[0]) == len(grid_routes) + len(hop_rows)
        assert not any(isinstance(x, (_RouteStack, RouteEvaluator)) for x in held)
        arrays = [x for x in held if isinstance(x, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize(
        "seed, interval, override, refined, moved",
        [
            (0, (0.05, 0.3), {}, False, False),
            (1, (0.05, 0.3), {"trial_time": 0.02}, False, False),
            (2, (0.05, 0.3), {"decode_error": 0.3}, False, False),
            (0, (0.05, 0.3), {"rate_cell": 0.3}, True, False),
            (0, (2.0, 4.0), {"rate_cell": 0.6}, True, True),
            (2, (2.0, 4.0), {"rate_cell": 0.6}, True, True),
        ],
    )
    def test_baselines_read_as_solved_alone(self, seed, interval, override, refined, moved):
        # The SPR and GPSR routes are among the enumerated ones.  Where the
        # set's grid read refines a tail piece, a route alone may read a
        # coarser grid and another window (``moved``), so each is solved alone.
        scenario = build_grid_scenario(seed=seed, arrival_interval=interval)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, **override)
        scan = opt._Scan(routes, params)
        outcome = opt._solve_global(routes, params, [params.weight], None, False, scan)[0]
        assert any(n != opt._TAIL_INTERVALS for _, _, n, _ in scan.grid.tail) == refined
        rows = []
        for pick in (spr_route, gpsr_route):
            route = pick(scenario.topology, scenario.source, scenario.destination)
            alone = solve_global([route], params, context=outcome.context, with_kkt=False)
            assert repr(opt._baseline(scan, outcome, route)) == repr(alone)
            rows.append(outcome.per_route_best[routes.index(route)] != alone.per_route_best[0])
        assert any(rows) == moved

    def test_compare_reads_its_baselines_from_the_route_set(self, monkeypatch, scenario, grid_routes):
        stacked = []
        init = _RouteStack.__init__
        monkeypatch.setattr(_RouteStack, "__init__", lambda self, r, p: stacked.append(len(r)) or init(self, r, p))
        strategies = self._compare()
        assert stacked == [len(grid_routes)]
        self._check_baselines(scenario, strategies)

    def test_a_baseline_outside_the_route_set_is_solved_alone(self, monkeypatch, scenario, grid_routes):
        # With the SPR route left out of the enumeration, it is solved on
        # its own stack, as it always was, and GPSR still reads the set's.
        spr = spr_route(scenario.topology, scenario.source, scenario.destination)
        enumerate_all = cli.enumerate_routes
        monkeypatch.setattr(cli, "enumerate_routes", lambda *a: [r for r in enumerate_all(*a) if r != spr])
        stacked = []
        init = _RouteStack.__init__
        monkeypatch.setattr(_RouteStack, "__init__", lambda self, r, p: stacked.append(len(r)) or init(self, r, p))
        strategies = self._compare()
        assert stacked == [len(grid_routes) - 1, 1]
        self._check_baselines(scenario, strategies, [r for r in grid_routes if r != spr])

    @staticmethod
    def _compare() -> list[dict]:
        """The strategies of ``compare``'s record, unrounded."""
        args = cli._parser().parse_args(["compare"])
        return args.func(args)[0]["strategies"]

    @staticmethod
    def _check_baselines(scenario, strategies, routes=None):
        """The SPR and GPSR rows of ``compare``'s record, field for field,
        as solve_global on each route alone, on the coordinated context."""
        params = scenario.params
        routes = routes or enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        start_cold()
        context = solve_global(routes, params, with_kkt=False).context
        for record, pick in zip(strategies[1:], (spr_route, gpsr_route)):
            route = pick(scenario.topology, scenario.source, scenario.destination)
            alone = solve_global([route], params, context=context, with_kkt=False)
            fields = ("t_star", "objective", "latency", "rate")
            assert repr([record[f] for f in fields]) == repr([getattr(alone, f) for f in fields])
