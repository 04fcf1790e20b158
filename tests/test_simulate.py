"""Tests of the snapshot simulator against the hop model's closed forms."""

import math

import numpy as np
import pytest

import v2xdelivery.simulate as simulate
from v2xdelivery import (
    BackhaulConfig,
    Branch,
    Hop,
    Route,
    SimConfig,
    SystemParams,
    delta_t_for_scheme,
    expected_hop_rate,
    p_courier_forward,
    p_failure,
    p_success,
    physical_branch_probs,
    simulate_route,
    sweep_windows,
)
from v2xdelivery.model import expected_e2e_latency

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

    @pytest.mark.parametrize("snapshots", [1.5, True, "10"])
    def test_snapshot_count_must_be_an_integer(self, snapshots):
        with pytest.raises(ValueError, match="snapshots"):
            SimConfig(snapshots=snapshots)

    @pytest.mark.parametrize("seed", [1.5, False, -1, 2**128])
    def test_seed_must_be_a_philox_key(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)

    def test_numpy_integers_and_the_largest_key_are_accepted(self):
        assert SimConfig(snapshots=np.int64(5), seed=np.uint64(3)).seed == 3
        assert SimConfig(seed=2**128 - 1).seed == 2**128 - 1

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_wire_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="wire rate"):
            BackhaulConfig(rate=rate)

    def test_window_vector_shape_and_range(self, params):
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"), Hop(0.1, 3, rsu_id="b")))
        cfg = SimConfig(snapshots=10)
        with pytest.raises(ValueError):
            simulate_route(route, [1.0, 2.0, 3.0], params, cfg)
        with pytest.raises(ValueError):
            simulate_route(route, -1.0, params, cfg)
        with pytest.raises(ValueError):
            simulate_route(route, params.hop_dwell + 1.0, params, cfg)

    @pytest.mark.parametrize("degs", [(2, 3), (1, 1)], ids=["with-candidates", "forward-only"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_windows_rejected(self, params, degs, bad):
        # The window rule reads every hop's window, a forward-only hop's
        # too, so NaN and inf fail with its one message.
        route = Route(hops=(Hop(0.1, degs[0], rsu_id="a"), Hop(0.1, degs[1], rsu_id="b")))
        cfg = SimConfig(snapshots=10)
        for t in (bad, [1.0, bad]):
            with pytest.raises(ValueError, match="discovery window t must lie in"):
                simulate_route(route, t, params, cfg)
            with pytest.raises(ValueError, match="discovery window t must lie in"):
                sweep_windows(route, [2.0, t], params, cfg)


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
        grid = [2.0, 9.5, 17.0, [1.0, 4.0, 12.5, 20.0]]
        for mode, backhaul in (("physical", None), ("analytic", None), ("physical", BackhaulConfig())):
            cfg = SimConfig(snapshots=2_000, seed=7, mode=mode)
            swept = sweep_windows(route, grid, params, cfg, backhaul=backhaul)
            for t, entry in zip(grid, swept):
                single = simulate_route(route, t, params, cfg, backhaul=backhaul)
                assert np.array_equal(entry.latencies, single.latencies)
                assert np.array_equal(entry.rates, single.rates)
                assert np.array_equal(entry.branch_counts, single.branch_counts)
                assert entry.mean_rate_mean_subst == single.mean_rate_mean_subst

    def test_sweep_results_own_their_snapshot_arrays(self, params, grid_routes):
        # A kept result must not keep the other windows' snapshots alive.
        swept = sweep_windows(grid_routes[0], [2.0, 8.0, 16.0], params, SimConfig(snapshots=1_000, seed=3))
        for entry in swept:
            for values in (entry.latencies, entry.rates):
                assert values.base is None or values.flags.owndata
                assert values.shape == (1_000,)

    def test_scalar_window_equals_constant_vector(self, params, grid_routes):
        route = grid_routes[0]
        cfg = SimConfig(snapshots=2_000, seed=5)
        a = simulate_route(route, 6.0, params, cfg)
        b = simulate_route(route, [6.0] * len(route.hops), params, cfg)
        assert np.array_equal(a.latencies, b.latencies)
        assert a.windows == b.windows


# Exact outputs of the 8-hop stock route 0 at 3000 snapshots, seed 29, as
# the per-window evaluation computed them: (mode, backhaul, t) ->
# ((mean_latency, se_latency, mean_rate, se_rate, mean_rate_mean_subst,
# se_rate_mean_subst), branch_counts).  t = 2.0 sits on a trial edge.  Any
# change to the draw order or to an elementwise operation shows here.
PINNED = {
    ("physical", False, 0.0): (
        (236.5288686628306, 0.68692612432268, 0.5711254162772692,
         0.002523547277525964, 0.5734083770666596, 0.0017080493542929295),
        [[1446, 0, 1554, 0], [3000, 0, 0, 0], [1481, 0, 1519, 0], [1048, 0, 1952, 0],
         [1507, 0, 1493, 0], [3000, 0, 0, 0], [1504, 0, 1496, 0], [3000, 0, 0, 0]],
    ),
    ("physical", False, 2.0): (
        (216.27920048396743, 0.6529740906218013, 0.5902450759143971,
         0.003128058514186634, 0.5867642025538976, 0.0025906329261219862),
        [[1446, 154, 1400, 0], [3000, 0, 0, 0], [1481, 650, 869, 0], [1048, 706, 1246, 0],
         [1507, 214, 1279, 0], [3000, 0, 0, 0], [1504, 652, 844, 0], [3000, 0, 0, 0]],
    ),
    ("physical", False, 8.0): (
        (186.81594819930382, 0.5241371657853118, 0.69186680990372,
         0.004783446487496776, 0.6544297628043353, 0.004278847119101973),
        [[1446, 512, 1042, 0], [3000, 0, 0, 0], [1481, 1361, 158, 0], [1048, 1674, 278, 0],
         [1507, 743, 750, 0], [3000, 0, 0, 0], [1504, 1343, 153, 0], [3000, 0, 0, 0]],
    ),
    ("physical", False, 20.0): (
        (170.34613002358964, 0.36553488853091703, 0.7163088884042936,
         0.005828346006268463, 0.505261579077962, 0.0066367235135176795),
        [[1446, 1026, 528, 0], [3000, 0, 0, 0], [1481, 1512, 7, 0], [1048, 1936, 16, 0],
         [1507, 1203, 290, 0], [3000, 0, 0, 0], [1504, 1492, 4, 0], [3000, 0, 0, 0]],
    ),
    ("analytic", False, 0.0): (
        (236.5288686628306, 0.68692612432268, 0.5711254162772692,
         0.002523547277525964, 0.5734083770666596, 0.0017080493542929295),
        [[1446, 0, 1554, 0], [3000, 0, 0, 0], [1481, 0, 1519, 0], [1048, 0, 1952, 0],
         [1507, 0, 1493, 0], [3000, 0, 0, 0], [1504, 0, 1496, 0], [3000, 0, 0, 0]],
    ),
    ("analytic", False, 2.0): (
        (216.27920048396743, 0.6529740906218013, 0.5902450759143971,
         0.003128058514186634, 0.5867642025538976, 0.0025906329261219862),
        [[1446, 154, 1400, 0], [3000, 0, 0, 0], [1481, 650, 869, 0], [1048, 706, 1246, 0],
         [1507, 214, 1279, 0], [3000, 0, 0, 0], [1504, 652, 844, 0], [3000, 0, 0, 0]],
    ),
    ("analytic", False, 8.0): (
        (186.81594819930382, 0.5241371657853118, 0.69186680990372,
         0.004783446487496776, 0.6544297628043353, 0.004278847119101973),
        [[1446, 512, 1042, 0], [3000, 0, 0, 0], [1481, 1361, 158, 0], [1048, 1674, 278, 0],
         [1507, 743, 750, 0], [3000, 0, 0, 0], [1504, 1343, 153, 0], [3000, 0, 0, 0]],
    ),
    ("analytic", False, 20.0): (
        (170.34613002358964, 0.36553488853091703, 0.8350056688205717,
         0.005102957748922256, 0.505261579077962, 0.0066367235135176795),
        [[1446, 1026, 528, 0], [3000, 0, 0, 0], [1481, 1512, 7, 0], [1048, 1936, 16, 0],
         [1507, 1203, 290, 0], [3000, 0, 0, 0], [1504, 1492, 4, 0], [3000, 0, 0, 0]],
    ),
    ("physical", True, 0.0): (
        (213.42666666666668, 0.4075498820711392, 0.7556666666666667,
         0.0006794647962342316, 0.7556666666666667, 0.0006794647962342316),
        [[1446, 0, 0, 1554], [3000, 0, 0, 0], [1481, 0, 0, 1519], [1048, 0, 0, 1952],
         [1507, 0, 0, 1493], [3000, 0, 0, 0], [1504, 0, 0, 1496], [3000, 0, 0, 0]],
    ),
    ("physical", True, 2.0): (
        (197.58666666666667, 0.3867494440222996, 0.7484666666666665,
         0.001402927545597311, 0.7484666666666665, 0.001402927545597311),
        [[1446, 154, 0, 1400], [3000, 0, 0, 0], [1481, 650, 0, 869], [1048, 706, 0, 1246],
         [1507, 214, 0, 1279], [3000, 0, 0, 0], [1504, 652, 0, 844], [3000, 0, 0, 0]],
    ),
    ("physical", True, 8.0): (
        (175.87333333333333, 0.27711655137541064, 0.78685,
         0.0031187232395455716, 0.7571848334431234, 0.00284482311240879),
        [[1446, 512, 0, 1042], [3000, 0, 0, 0], [1481, 1361, 0, 158], [1048, 1674, 0, 278],
         [1507, 743, 0, 750], [3000, 0, 0, 0], [1504, 1343, 0, 153], [3000, 0, 0, 0]],
    ),
    ("physical", True, 20.0): (
        (165.63333333333333, 0.17878993390384226, 0.7474533333333332,
         0.005217419624779303, 0.5395273450926925, 0.006464793783569336),
        [[1446, 1026, 0, 528], [3000, 0, 0, 0], [1481, 1512, 0, 7], [1048, 1936, 0, 16],
         [1507, 1203, 0, 290], [3000, 0, 0, 0], [1504, 1492, 0, 4], [3000, 0, 0, 0]],
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: "-".join(map(str, key)))
    def test_route_statistics_are_bit_identical(self, params, grid_routes, key):
        mode, wired, t = key
        route = grid_routes[0]
        assert len(route) == 8
        result = simulate_route(
            route, t, params, SimConfig(snapshots=3_000, seed=29, mode=mode),
            backhaul=BackhaulConfig() if wired else None,
        )
        stats = (
            result.mean_latency,
            result.se_latency,
            result.mean_rate,
            result.se_rate,
            result.mean_rate_mean_subst,
            result.se_rate_mean_subst,
        )
        assert stats == PINNED[key][0]
        assert result.branch_counts.tolist() == PINNED[key][1]


@pytest.fixture
def streams(monkeypatch):
    """Hop indices whose Philox stream a simulation opens, in order."""
    opened = []
    hop_stream = simulate._hop_stream

    def recording(seed, hop_index):
        opened.append(hop_index)
        return hop_stream(seed, hop_index)

    monkeypatch.setattr(simulate, "_hop_stream", recording)
    return opened


class TestDegenerateRoutes:
    def test_pure_forwarding_route_is_deterministic(self, params):
        hops = tuple(Hop(0.1, 1, rsu_id=f"f{i}") for i in range(3))
        result = simulate_route(Route(hops=hops), 10.0, params, SimConfig(snapshots=500, seed=0))
        assert np.all(result.latencies == 3.0 * params.hop_dwell)
        assert result.se_latency == 0.0
        assert np.all(result.rates == params.rate_cell)
        assert result.branch_counts[:, Branch.COURIER_FORWARD].sum() == 3 * 500

    @pytest.mark.parametrize("mode", ["physical", "analytic"])
    @pytest.mark.parametrize("backhaul", [None, BackhaulConfig()])
    def test_pure_forwarding_route_draws_nothing(self, params, streams, monkeypatch, mode, backhaul):
        allocated = []
        monkeypatch.setattr(simulate, "_hop_buffers", lambda *a: allocated.append(a))
        hops = tuple(Hop(0.1 * (i + 1), 1, rsu_id=f"f{i}") for i in range(3))
        n, T = 400, params.hop_dwell
        cfg = SimConfig(snapshots=n, seed=7, mode=mode)
        results = sweep_windows(Route(hops=hops), [0.0, [1.0, 5.0, 20.0], T], params, cfg, backhaul=backhaul)
        assert streams == [] and allocated == []
        for result in results:
            assert np.all(result.latencies == 3.0 * T)
            assert np.all(result.rates == params.rate_cell)
            assert (result.mean_latency, result.se_latency) == (3.0 * T, 0.0)
            assert (result.mean_rate, result.se_rate) == (params.rate_cell, 0.0)
            assert (result.mean_rate_mean_subst, result.se_rate_mean_subst) == (params.rate_cell, 0.0)
            assert result.branch_counts.tolist() == [[n, 0, 0, 0]] * 3

    @pytest.mark.parametrize("mode", ["physical", "analytic"])
    def test_only_hops_with_candidates_open_a_stream(self, params, grid_routes, streams, mode):
        route = grid_routes[0]
        assert [h for h, hop in enumerate(route.hops) if hop.deg > 1] == [0, 2, 3, 4, 6]
        cfg = SimConfig(snapshots=300, seed=29, mode=mode)
        simulate_route(route, 8.0, params, cfg)
        sweep_windows(route, [0.0, 8.0], params, cfg, backhaul=BackhaulConfig())
        assert streams == [0, 2, 3, 4, 6] * 2

    def test_a_forwarding_hop_moves_no_other_hop(self, params):
        # Each hop draws from its own stream, so what a forward-only hop
        # would have drawn shapes nothing: its arrival rate is never read.
        def route(lam):
            return Route(hops=(Hop(0.2, 2, rsu_id="a"), Hop(lam, 1, rsu_id="b"), Hop(0.1, 3, rsu_id="c")))

        cfg = SimConfig(snapshots=2_000, seed=4)
        a = sweep_windows(route(0.05), [0.0, 6.0, 20.0], params, cfg)
        b = sweep_windows(route(0.9), [0.0, 6.0, 20.0], params, cfg)
        for x, y in zip(a, b):
            assert repr(x) == repr(y)
            assert np.array_equal(x.latencies, y.latencies) and np.array_equal(x.rates, y.rates)


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

    def test_a_wired_forwarding_hop_never_uses_the_wire(self, params):
        hops = (Hop(0.4, 1, rsu_id="a"), Hop(0.4, 2, rsu_id="b"), Hop(0.4, 2, rsu_id="c"))
        cfg = SimConfig(snapshots=2_000, seed=8)
        result = simulate_route(Route(hops=hops), 0.0, params, cfg, backhaul=BackhaulConfig())
        assert result.branch_counts[0].tolist() == [2_000, 0, 0, 0]
        assert result.branch_counts[1][Branch.BACKHAUL_FORWARD] > 0

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
