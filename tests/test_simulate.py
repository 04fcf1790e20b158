"""Tests of the snapshot simulator against the hop model's closed forms."""

import math

import numpy as np
import pytest

from v2xdelivery import (
    BackhaulConfig,
    Branch,
    Hop,
    Route,
    SimConfig,
    SystemParams,
    delta_t_for_scheme,
    expected_e2e_latency,
    expected_hop_rate,
    p_courier_forward,
    p_failure,
    p_success,
    physical_branch_probs,
    simulate_route,
    sweep_windows,
)

N = 100_000


def _se(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


class TestConfigValidation:
    def test_snapshot_count_must_be_positive(self):
        with pytest.raises(ValueError):
            SimConfig(snapshots=0)

    def test_mode_must_be_known(self):
        with pytest.raises(ValueError):
            SimConfig(mode="precise")

    def test_window_vector_shape_and_range(self, params):
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"), Hop(0.1, 3, rsu_id="b")))
        cfg = SimConfig(snapshots=10)
        with pytest.raises(ValueError):
            simulate_route(route, [1.0, 2.0, 3.0], params, cfg)
        with pytest.raises(ValueError):
            simulate_route(route, -1.0, params, cfg)
        with pytest.raises(ValueError):
            simulate_route(route, params.hop_dwell + 1.0, params, cfg)


class TestAnalyticModeMatchesTheModel:
    @pytest.mark.parametrize(
        "lam,deg,t", [(0.1, 2, 8.0), (0.3, 3, 2.5), (0.05, 2, 20.0), (0.2, 3, 0.35)]
    )
    def test_branch_frequencies(self, params, lam, deg, t):
        hop = Hop(lam, deg, rsu_id="h")
        cfg = SimConfig(snapshots=N, seed=11, mode="analytic")
        result = simulate_route(Route(hops=(hop,)), t, params, cfg)
        freq = result.branch_fractions[0]
        expect = (
            p_courier_forward(hop),
            p_success(hop, t, params),
            p_failure(hop, t, params),
        )
        for b, p in zip((Branch.COURIER_FORWARD, Branch.DISCOVERY_SUCCESS, Branch.DISCOVERY_FAILURE), expect):
            assert abs(freq[b] - p) <= 4.0 * _se(p, N) + 1e-12
        assert freq[Branch.BACKHAUL_FORWARD] == 0.0

    def test_route_latency(self, params, grid_routes):
        route = grid_routes[1]
        cfg = SimConfig(snapshots=N, seed=3, mode="analytic")
        for t in (0.0, 7.3, 20.0):
            result = simulate_route(route, t, params, cfg)
            closed = expected_e2e_latency(route, t, params)
            assert abs(result.mean_latency - closed) <= 4.0 * result.se_latency

    def test_single_hop_mean_substituted_rate(self, params):
        hop = Hop(0.22, 3, rsu_id="h")
        cfg = SimConfig(snapshots=N, seed=9, mode="analytic")
        result = simulate_route(Route(hops=(hop,)), 12.5, params, cfg)
        closed = expected_hop_rate(hop, 12.5, params)
        assert abs(result.mean_rate_mean_subst - closed) <= 4.0 * result.se_rate_mean_subst

    def test_zero_window_never_discovers(self, params):
        hop = Hop(0.3, 2, rsu_id="h")
        cfg = SimConfig(snapshots=5_000, seed=2, mode="analytic")
        result = simulate_route(Route(hops=(hop,)), 0.0, params, cfg)
        assert result.branch_counts[0][Branch.DISCOVERY_SUCCESS] == 0


class TestPhysicalMode:
    @pytest.mark.parametrize("lam,deg,t", [(0.2, 2, 8.25), (0.1, 3, 0.35), (0.3, 2, 19.0)])
    def test_branch_frequencies_match_the_slot_sum(self, params, lam, deg, t):
        hop = Hop(lam, deg, rsu_id="h")
        cfg = SimConfig(snapshots=N, seed=17, mode="physical")
        result = simulate_route(Route(hops=(hop,)), t, params, cfg)
        freq = result.branch_fractions[0]

        # Independent rebuild: a candidate landing in slot a has m - a + 1
        # trial opportunities left inside the window.
        dt = params.trial_time
        m = int(t / dt + 1e-9)
        q = 1.0 - params.decode_ok_pair
        succ_given = sum(
            (math.exp(-lam * (a - 1) * dt) - math.exp(-lam * a * dt)) * (1.0 - q ** (m - a + 1))
            for a in range(1, m + 1)
        )
        rest = 1.0 - 1.0 / deg
        expect = (1.0 / deg, rest * succ_given, rest * (1.0 - succ_given))
        probs = physical_branch_probs(hop, t, params)
        assert probs == pytest.approx(expect, rel=1e-12)
        for b, p in zip((Branch.COURIER_FORWARD, Branch.DISCOVERY_SUCCESS, Branch.DISCOVERY_FAILURE), expect):
            assert abs(freq[b] - p) <= 4.0 * _se(p, N) + 1e-12

    def test_late_arrivals_succeed_less_than_in_analytic_mode(self, params):
        hop = Hop(0.25, 2, rsu_id="h")
        t = 4.0
        _, s_phys, _ = physical_branch_probs(hop, t, params)
        assert s_phys < p_success(hop, t, params)

    def test_probs_validate_the_window(self, params):
        with pytest.raises(ValueError):
            physical_branch_probs(Hop(0.1, 2), params.hop_dwell * 1.5, params)


class TestDeterminism:
    def test_same_seed_reproduces_every_sample(self, params, grid_routes):
        route = grid_routes[0]
        a = simulate_route(route, 8.0, params, SimConfig(snapshots=2_000, seed=42))
        b = simulate_route(route, 8.0, params, SimConfig(snapshots=2_000, seed=42))
        assert np.array_equal(a.latencies, b.latencies)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.branch_counts, b.branch_counts)

    def test_different_seeds_differ(self, params, grid_routes):
        route = grid_routes[0]
        a = simulate_route(route, 8.0, params, SimConfig(snapshots=2_000, seed=1))
        b = simulate_route(route, 8.0, params, SimConfig(snapshots=2_000, seed=2))
        assert not np.array_equal(a.latencies, b.latencies)

    def test_sweep_shares_sample_paths_with_single_runs(self, params, grid_routes):
        route = grid_routes[2]
        cfg = SimConfig(snapshots=2_000, seed=7)
        swept = sweep_windows(route, [2.0, 9.5, 17.0], params, cfg)
        for t, entry in zip((2.0, 9.5, 17.0), swept):
            single = simulate_route(route, t, params, cfg)
            assert np.array_equal(entry.latencies, single.latencies)
            assert np.array_equal(entry.rates, single.rates)

    def test_scalar_window_equals_constant_vector(self, params, grid_routes):
        route = grid_routes[0]
        cfg = SimConfig(snapshots=2_000, seed=5)
        a = simulate_route(route, 6.0, params, cfg)
        b = simulate_route(route, [6.0] * len(route.hops), params, cfg)
        assert np.array_equal(a.latencies, b.latencies)
        assert a.windows == b.windows


class TestDegenerateRoutes:
    def test_pure_forwarding_route_is_deterministic(self, params):
        hops = tuple(Hop(0.1, 1, rsu_id=f"f{i}") for i in range(3))
        result = simulate_route(Route(hops=hops), 10.0, params, SimConfig(snapshots=500, seed=0))
        assert np.all(result.latencies == 3.0 * params.hop_dwell)
        assert result.se_latency == 0.0
        assert np.all(result.rates == params.rate_cell)
        assert result.branch_counts[:, Branch.COURIER_FORWARD].sum() == 3 * 500


class TestBackhaul:
    def test_wired_fallback_never_slows_a_snapshot(self, params, grid_routes):
        route = grid_routes[0]
        cfg = SimConfig(snapshots=5_000, seed=13)
        plain = simulate_route(route, 3.0, params, cfg)
        wired = simulate_route(route, 3.0, params, cfg, backhaul=BackhaulConfig())
        assert np.all(wired.latencies <= plain.latencies + 1e-12)
        assert wired.mean_latency < plain.mean_latency

    def test_empty_link_set_behaves_like_no_backhaul(self, params, grid_routes):
        route = grid_routes[0]
        cfg = SimConfig(snapshots=2_000, seed=13)
        plain = simulate_route(route, 3.0, params, cfg)
        unbacked = simulate_route(route, 3.0, params, cfg, backhaul=BackhaulConfig(links=frozenset()))
        assert np.array_equal(plain.latencies, unbacked.latencies)
        assert np.array_equal(plain.branch_counts, unbacked.branch_counts)

    def test_last_hop_never_uses_the_wire(self, params):
        hops = (Hop(0.4, 2, rsu_id="a"), Hop(0.4, 2, rsu_id="b"))
        cfg = SimConfig(snapshots=5_000, seed=21)
        result = simulate_route(Route(hops=hops), 0.0, params, cfg, backhaul=BackhaulConfig())
        assert result.branch_counts[0][Branch.DISCOVERY_FAILURE] == 0
        assert result.branch_counts[0][Branch.BACKHAUL_FORWARD] > 0
        assert result.branch_counts[1][Branch.BACKHAUL_FORWARD] == 0
        assert result.branch_counts[1][Branch.DISCOVERY_FAILURE] > 0

    def test_wired_latency_and_rate_are_exact(self, params):
        hops = (Hop(0.4, 2, rsu_id="a"), Hop(0.4, 1, rsu_id="b"))
        t = 0.0
        cfg = SimConfig(snapshots=2_000, seed=3)
        result = simulate_route(Route(hops=hops), t, params, cfg, backhaul=BackhaulConfig())
        T = params.hop_dwell
        # Hop 0 either forwards (latency T) or backhauls (latency exactly 2T);
        # hop 1 always forwards.  No sampled waits remain anywhere.
        n_wired = result.branch_counts[0][Branch.BACKHAUL_FORWARD]
        assert n_wired > 0
        assert set(np.unique(result.latencies)) == {2.0 * T, 3.0 * T}
        wire = BackhaulConfig().wire_rate(params)
        wired_rate = (min(params.rate_v2i, wire) * (T - t) + params.rate_cell * t) / (2.0 * T)
        assert set(np.unique(result.rates)) <= {wired_rate, params.rate_cell}

    def test_wire_rate_default_and_override(self, params):
        assert BackhaulConfig().wire_rate(params) == 4.0 * params.rate_v2i
        assert BackhaulConfig(rate=2.5).wire_rate(params) == 2.5

    def test_directed_link_membership(self):
        cfg = BackhaulConfig(links=frozenset({("a", "b")}))
        assert cfg.linked("a", "b")
        assert not cfg.linked("b", "a")


class TestSchemeTable:
    def test_stock_durations(self):
        assert delta_t_for_scheme("TD") == pytest.approx(0.1)
        assert delta_t_for_scheme("SD", beams=4) == pytest.approx(0.12)
        assert delta_t_for_scheme("FD", beams=4) == pytest.approx(0.14)
        assert delta_t_for_scheme("CD", beams=4) == pytest.approx(0.14)
        assert delta_t_for_scheme("sd", beams=2) == delta_t_for_scheme("SD", beams=2)

    def test_more_beams_never_probe_faster(self):
        for scheme in ("SD", "FD", "CD"):
            durations = [delta_t_for_scheme(scheme, beams=m) for m in (1, 2, 4, 8)]
            assert durations == sorted(durations)

    def test_invalid_requests(self):
        with pytest.raises(ValueError, match="beams"):
            delta_t_for_scheme("TD", beams=2)
        with pytest.raises(ValueError, match="unknown"):
            delta_t_for_scheme("XX")
        with pytest.raises(ValueError):
            delta_t_for_scheme("SD", beams=0)
        with pytest.raises(ValueError):
            delta_t_for_scheme("SD", beams=True)
