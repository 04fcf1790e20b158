"""Tests of normalization, the weighted objective, and both window solvers."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from support import make_route
from v2xdelivery import (
    Hop,
    NormalizationContext,
    Route,
    RouteEvaluator,
    SystemParams,
    build_grid_scenario,
    build_normalization,
    enumerate_routes,
    kkt_stationarity_check,
    solve_distributed,
    solve_global,
    verify_concavity,
    weighted_objective,
)
from v2xdelivery.cli import run_command
import v2xdelivery.optimize as opt
from v2xdelivery.closedform import _RouteStack
from v2xdelivery.optimize import (
    _route_objective_series,
    _scan_grid,
    _trade_off,
    _winner,
)


def _objective_grid(routes, params, weight, context, n=10_000):
    """Objective readings of every route over a uniform window grid."""
    ts = np.linspace(0.0, params.hop_dwell, n)
    rows = [
        _route_objective_series(RouteEvaluator(r, params), ts, context, weight)
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

    def test_empty_route_list_rejected(self, params):
        with pytest.raises(ValueError):
            build_normalization([], params)

    def test_single_constant_route_is_degenerate(self, params):
        route = Route(hops=(Hop(0.1, 1, rsu_id="a"),))
        ctx = build_normalization([route], params)
        ev = RouteEvaluator(route, params)
        for t in (0.0, 8.0, 20.0):
            assert weighted_objective(ev, t, ctx, 0.7) == 0.0


class TestWeightedObjective:
    def test_composed_from_normalized_readings(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        ev = RouteEvaluator(grid_routes[0], params)
        for w, t in ((0.0, 4.0), (0.5, 8.0), (1.0, 16.0)):
            expected = w * ctx.rate_norm(ev.rate_closed(t)) - (1.0 - w) * ctx.latency_norm(
                ev.latency(t)
            )
            assert weighted_objective(ev, t, ctx, w) == pytest.approx(expected, abs=1e-15)

    def test_pure_latency_weight_ignores_rate(self, params, grid_routes):
        ctx = build_normalization(grid_routes, params)
        ev = RouteEvaluator(grid_routes[0], params)
        assert weighted_objective(ev, 8.0, ctx, 0.0) == pytest.approx(
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


def _scan_grid_per_piece(params):
    """The scan grid built one piece at a time: the reference for _scan_grid."""
    T = params.hop_dwell
    h = 1e-4 * params.trial_time
    edges = RouteEvaluator(Route(hops=(Hop(0.1, 2, rsu_id="a"),)), params).breakpoints()
    ts, rows = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = float(a), float(b)
        row = [-1] * 9
        row[0] = len(ts)
        ts.append(a)
        if b - a >= 6 * h:
            for i, x in enumerate(np.linspace(a + 2 * h, b - 2 * h, 7)):
                row[1 + i] = len(ts)
                ts.append(float(x))
        if b - h > a:
            row[-1] = len(ts)
            ts.append(b - h)
        rows.append(row)
    ts.append(T)
    return np.asarray(ts), np.asarray(rows, dtype=int)


def _winner_sequential(ts, values, T):
    """The tie-tolerant winner rule over every candidate, in order."""
    best_t, best_val = 0.0, -math.inf
    for t, v in zip(ts, values):
        t = min(max(float(t), 0.0), T)
        v = float(v)
        if v > best_val + 1e-15 or (abs(v - best_val) <= 1e-15 and t < best_t):
            best_val, best_t = v, t
    return best_t, best_val


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
        params = SystemParams(trial_time=trial_time)
        grid = _scan_grid(params)
        ts, pieces = _scan_grid_per_piece(params)
        assert grid.ts.tobytes() == ts.tobytes()
        assert grid.pieces.dtype == pieces.dtype
        assert np.array_equal(grid.pieces, pieces)
        assert grid.probe == 1e-4 * trial_time

    def test_scan_grid_covers_the_narrow_last_pieces(self):
        # The parametrized cases above do reach the narrow branches.
        for trial_time, present in ((20.0 / (7 + 3e-4), 2), (20.0 / (7 + 0.5e-4), 1)):
            last = _scan_grid(SystemParams(trial_time=trial_time)).pieces[-1]
            assert np.count_nonzero(last >= 0) == present

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
        assert _winner(ts, values, T) == _winner_sequential(ts, values, T)

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
        assert _winner(ts, values, 20.0) == _winner_sequential(ts, values, 20.0)

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
        assert repr(_winner(ts, values, 20.0)) == repr(_winner_sequential(ts, values, 20.0))

    def test_winner_keeps_nan_and_flat_candidates(self):
        ts = np.array([3.0, 2.0, 1.0, 0.5])
        for values in ([0.5, 0.5, 0.5, 0.5], [0.5, math.nan, 0.4, 0.5], [-math.inf] * 4):
            values = np.array(values)
            assert _winner(ts, values, 20.0) == _winner_sequential(ts, values, 20.0)

    @pytest.mark.parametrize("weight", [0.0, 0.5, 0.8])
    def test_distributed_with_its_own_context_is_unchanged(self, params, grid_routes, weight):
        ctx = build_normalization(grid_routes, params)
        with_ctx = solve_distributed(grid_routes, params, weight=weight, context=ctx)
        without = solve_distributed(grid_routes, params, weight=weight)
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

    @pytest.mark.parametrize(
        "solve", [lambda *a: opt._solve_global(*a, False), lambda *a: opt._solve_distributed(*a)]
    )
    def test_every_weight_is_checked(self, params, grid_routes, solve):
        for weights in ([0.5, 1.5], [math.nan], [-0.1, 0.5]):
            with pytest.raises(ValueError, match="weight"):
                solve(grid_routes, params, weights, None)
        with pytest.raises(ValueError, match="route"):
            solve([], params, [0.5], None)


def _bisect_sign_change(deriv, lo, hi, tol):
    """One bracket's bisection, one derivative probe at a time: the
    reference for the lockstep search.  Precondition: deriv(lo) > 0 >=
    deriv(hi); the function is smooth here."""
    for _ in range(80):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _maximize_scan(grid, values, objective, T):
    """One route's best window from its grid values plus bisection of each
    interior sign change, every central-difference probe a 2-point read of
    ``objective`` at (x - h, x + h): the reference for the lockstep search."""
    h = grid.probe
    tol = 1e-9 * T

    def deriv(x):
        lo, hi = objective(np.array([x - h, x + h]))
        return (hi - lo) / (2 * h)

    rows = grid.pieces[(grid.pieces >= 0).all(axis=1)]
    d = np.diff(values[rows], axis=1)
    peaks = []
    for r, i in zip(*np.nonzero((d[:, :-1] > 0.0) & (d[:, 1:] <= 0.0))):
        lo = max(float(grid.ts[rows[r, i]]), h)
        hi = min(float(grid.ts[rows[r, i + 2]]), T - h)
        if lo < hi:
            peaks.append(_bisect_sign_change(deriv, lo, hi, tol))
    if peaks:
        values = np.append(values, objective(np.array(peaks)))
    return _winner(np.append(grid.ts, peaks), values, T)


def _reference_search(stack, grid, reads, tasks):
    """``optimize._search`` task by task and probe by probe, each probe a
    ``series`` read of its task's route."""
    best = []
    evaluators = stack.evaluators()
    for col, scale, weight in tasks:
        ev, (rate, lat) = evaluators[col], reads[col]

        def objective(ts, ev=ev, scale=scale, weight=weight):
            return _route_objective_series(ev, ts, scale, weight)

        values = _trade_off(rate, lat, scale, weight)
        best.append(_maximize_scan(grid, values, objective, ev.params.hop_dwell))
    return best


class TestLockstepSearch:
    """The lockstep search polishes every bracket to the per-probe
    reference's bits, so every solver outcome keeps its repr."""

    @staticmethod
    def _both(monkeypatch, solve):
        lockstep = solve()
        with monkeypatch.context() as m:
            m.setattr(opt, "_search", _reference_search)
            reference = solve()
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


def _best_hop_windows_reference(evaluator, grid, read, weight):
    """Per-hop window search inside the route: each hop normalizes over its
    own rows of the route's hop-stage grid read and probes that stage."""
    T = evaluator.params.hop_dwell
    windows = []
    for hidx, (lats, rates) in enumerate(zip(read["hop_latency"], read["hop_rate"])):
        ctx = NormalizationContext(
            float(lats.min()), float(lats.max()), float(rates.min()), float(rates.max())
        )

        def objective(ts, hidx=hidx, ctx=ctx):
            hop = evaluator._hop_stage(ts)[2]
            return _trade_off(hop["hop_rate"][hidx], hop["hop_latency"][hidx], ctx, weight)

        t_h, _ = _maximize_scan(grid, _trade_off(rates, lats, ctx, weight), objective, T)
        windows.append(t_h)
    return tuple(windows)


class TestHopSearch:
    @pytest.mark.parametrize("seed", range(4))
    def test_windows_match_the_per_hop_reference_bit_for_bit(self, params, seed):
        scenario = build_grid_scenario(params=params, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        grid = _scan_grid(params)
        for weight in (0.0, 0.5, 1.0):
            dist = solve_distributed(routes, params, weight=weight)
            for route, (windows, _) in zip(routes, dist.per_route):
                ev = RouteEvaluator(route, params)
                ref = _best_hop_windows_reference(ev, grid, ev._hop_stage(grid.ts)[2], weight)
                assert repr(windows) == repr(ref)


class TestWorkCounts:
    """Deterministic guard on how often a solve builds the grid and reads it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import v2xdelivery.optimize as opt

        seen = {"grids": [], "reads": [], "stages": [], "__init__": 0, "build_normalization": 0}
        make_grid, series, hop_stage = opt._scan_grid, RouteEvaluator.series, RouteEvaluator._hop_stage
        build = opt.build_normalization

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
            grid = make_grid(p)
            seen["grids"].append(len(grid.ts))
            return grid

        def counting_series(self, ts):
            seen["reads"].append((len(ts), self.k))
            return series(self, ts)

        def counting_stage(self, ts):  # every reading passes through it
            seen["stages"].append(len(ts))
            return hop_stage(self, ts)

        monkeypatch.setattr(opt, "_scan_grid", counting_grid)
        monkeypatch.setattr(RouteEvaluator, "series", counting_series)
        monkeypatch.setattr(RouteEvaluator, "_hop_stage", counting_stage)
        return seen

    def _grid_reads(self, seen, k=None):
        """Grid-size series reads, only those of k-hop routes if k is given."""
        n = seen["grids"][0]
        return sum(1 for size, hops in seen["reads"] if size == n and k in (None, hops))

    def _stages_outside_series(self, seen):
        """Grid-size hop-stage reads not made by a series read."""
        return seen["stages"].count(seen["grids"][0]) - self._grid_reads(seen)

    @staticmethod
    def _distinct_hops(routes):
        assert min(len(r) for r in routes) > 1  # one-hop reads are the hop searches
        return len(set(h for r in routes for h in r.hops))

    def test_global_builds_one_grid_and_reads_it_once_per_route(self, counts, params, grid_routes):
        solve_global(grid_routes, params, weight=0.5)
        assert len(counts["grids"]) == 1
        assert self._grid_reads(counts) == len(grid_routes)

    def test_distributed_without_context_reads_the_same(self, counts, params, grid_routes):
        # The global solve's n route reads, plus one search per distinct hop.
        d = self._distinct_hops(grid_routes)
        assert d == 16
        solve_distributed(grid_routes, params, weight=0.5)
        assert len(counts["grids"]) == 1
        assert self._grid_reads(counts) == len(grid_routes) + d
        assert self._grid_reads(counts, k=1) == d
        assert self._stages_outside_series(counts) == 0

    def test_a_given_context_reads_no_envelope(self, counts, params, grid_routes):
        # No route read; each distinct hop is read once, for its own search.
        d = self._distinct_hops(grid_routes)
        ctx = NormalizationContext(0.0, 1.0, 0.0, 1.0)
        solve_distributed(grid_routes, params, weight=0.5, context=ctx)
        assert len(counts["grids"]) == 1
        assert self._grid_reads(counts) == self._grid_reads(counts, k=1) == d
        assert self._stages_outside_series(counts) == 0

    def test_compare_reads_each_route_once(self, counts, monkeypatch, capsys, grid_routes):
        # n routes in the coordinated solve, plus the SPR and GPSR routes
        # scored on its scale: each route is stacked once, and a solve's
        # routes are views of its stack, so no evaluator is built alone.
        stacked = []
        init = _RouteStack.__init__

        def counting_init(self, routes, params):
            stacked.append(len(routes))
            init(self, routes, params)

        monkeypatch.setattr(_RouteStack, "__init__", counting_init)
        assert run_command(["compare"]) == 0
        assert stacked == [len(grid_routes), 1, 1]
        assert counts["__init__"] == 0
        assert self._grid_reads(counts) == len(grid_routes) + 2

    def test_alpha_sweep_reads_each_route_once(self, counts, capsys, grid_routes):
        # One solve per solver serves every weight: n route reads for the
        # coordinated solve, one per distinct hop for the distributed one.
        d = self._distinct_hops(grid_routes)
        assert run_command(["sweep", "--variable", "alpha", "--grid", "0,0.5,1"]) == 0
        assert self._grid_reads(counts) == len(grid_routes) + d
        assert self._grid_reads(counts, k=1) == d
        assert self._stages_outside_series(counts) == 0
        assert counts["build_normalization"] == 0

    @pytest.mark.parametrize("weights", [[0.5], [0.0, 0.5, 1.0], [i / 10 for i in range(11)]])
    def test_distributed_aggregates_each_route_with_one_hop_stage_read(
        self, counts, params, grid_routes, weights
    ):
        # Besides the d one-hop grid reads of the hop searches, route i is
        # read once, at its k_i windows of every weight.
        import v2xdelivery.optimize as opt

        ctx = NormalizationContext(0.0, 1.0, 0.0, 1.0)
        opt._solve_distributed(grid_routes, params, weights, ctx)
        aggregates = [size for size in counts["stages"] if size != counts["grids"][0]]
        assert aggregates == [len(r) * len(weights) for r in grid_routes]

    def test_analyze_reads_the_kernel_once_per_route(self, counts, capsys, grid_routes):
        assert run_command(["analyze"]) == 0
        assert counts["__init__"] == len(counts["stages"]) == len(grid_routes)

    @pytest.mark.parametrize("grid_size, trial_time", [(3, 0.1), (3, 0.02), (4, 1.0)])
    def test_a_solve_makes_at_most_81_bisection_reads(self, monkeypatch, grid_size, trial_time):
        # 80 lockstep steps and one read of every peak, for 12 routes or 184.
        scenario = build_grid_scenario(rows=grid_size, cols=grid_size, seed=1)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=trial_time)
        reads = []
        read = _RouteStack.read

        def counting_read(self, cols, ts):
            reads.append(len(ts))
            return read(self, cols, ts)

        monkeypatch.setattr(_RouteStack, "read", counting_read)
        outcome = solve_global(routes, params, weight=0.5, with_kkt=False)
        interior = sum(0.0 < t < params.hop_dwell for t, _ in outcome.per_route_best)
        assert interior > 1  # many routes polished their brackets together
        assert 1 < len(reads) <= 81
        assert max(reads) >= 2 * interior
        del reads[:]
        solve_distributed(routes, params, weight=0.5, context=outcome.context)
        assert 1 < len(reads) <= 81

    @pytest.mark.parametrize("grid", [["--grid", "0,0.5,1"], []])
    def test_alpha_sweep_makes_at_most_81_bisection_reads_per_solver(self, monkeypatch, capsys, grid):
        # Every weight's brackets share each solver's lockstep, for the
        # 3 weights of a grid or the 11 of the default.
        reads = []
        read = _RouteStack.read

        def counting_read(self, cols, ts):
            reads.append(len(ts))
            return read(self, cols, ts)

        monkeypatch.setattr(_RouteStack, "read", counting_read)
        assert run_command(["sweep", "--variable", "alpha", *grid]) == 0
        assert 2 < len(reads) <= 2 * 81

    def test_distributed_with_a_context_builds_no_joint_tables(self, monkeypatch, params, grid_routes):
        # With a context, solve_distributed reads only hop stages: no mixture
        # table and no exact E[max wait] is built.
        import v2xdelivery.closedform as cf

        built = []
        for name in ("_mixture_table", "_expected_max_exponential_exact"):
            original = getattr(cf, name)
            monkeypatch.setattr(
                cf, name, lambda *a, name=name, original=original, **kw: built.append(name) or original(*a, **kw)
            )
        ctx = build_normalization(grid_routes, params)
        del built[:]
        solve_distributed(grid_routes, params, weight=0.5, context=ctx)
        assert built == []
        solve_global(grid_routes, params, weight=0.5, with_kkt=False)
        assert sorted(set(built)) == ["_expected_max_exponential_exact", "_mixture_table"]

    def test_global_builds_each_mixture_table_once(self, monkeypatch, params, grid_routes):
        # The envelope, the lockstep and the winner's reads share each mixed
        # route's table: one build per route, straight into the stack's array.
        import v2xdelivery.closedform as cf

        built = []
        original = cf._mixture_table
        monkeypatch.setattr(cf, "_mixture_table", lambda *a, **kw: built.append(kw) or original(*a, **kw))
        mixed = [r for r in grid_routes if len(r) > 1 and any(h.deg > 1 for h in r.hops)]
        assert len(mixed) > 1
        solve_global(grid_routes, params, weight=0.5)
        assert len(built) == len(mixed)
        assert all(kw.get("out") is not None for kw in built)

    @pytest.mark.parametrize("t_star", [0.0, 0.05, 8.0, 12.34, 20.0])
    def test_stationarity_check_reads_the_kernel_once(self, counts, params, grid_routes, t_star):
        ev = RouteEvaluator(grid_routes[0], params)
        ctx = NormalizationContext(50.0, 150.0, 0.0, 2.0)
        reads, stages = len(counts["reads"]), len(counts["stages"])
        kkt_stationarity_check(ev, t_star, ctx)
        assert (len(counts["reads"]) - reads, len(counts["stages"]) - stages) == (1, 1)

    def test_concavity_probe_reads_the_kernel_once(self, counts, params, grid_routes):
        ev = RouteEvaluator(grid_routes[0], params)
        ctx = NormalizationContext(50.0, 150.0, 0.0, 2.0)
        report = verify_concavity(ev, weight=0.5, context=ctx)
        assert (len(counts["reads"]), len(counts["stages"])) == (1, 1)
        assert counts["reads"][0][0] == 3 * report["points"]
