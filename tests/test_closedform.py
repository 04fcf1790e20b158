"""Tests of the coefficient reformulations, order statistics, and route rates.

Every derived quantity is checked against an independent oracle: a frozen
hand computation, a sampling experiment, or a second implementation route
(quadrature vs. inclusion-exclusion, the model's branch-weighted scalars
and the quadrature forms vs. the evaluator's kernel).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from support import make_route, window_grid
from v2xdelivery import (
    Hop,
    Route,
    RouteEvaluator,
    SystemParams,
    build_grid_scenario,
    e2e_latency_closed,
    e2e_rate_closed,
    e2e_rate_min_of_means,
    enumerate_routes,
    expected_hop_latency,
    expected_hop_rate,
    expected_max_exponential,
    expected_max_trial_time,
    exponential_max_pdf,
    geometric_max_pmf,
    max_trials,
    rate_decomposition,
    scenario_probabilities,
)
from v2xdelivery import closedform
from v2xdelivery.closedform import (
    QuadratureError,
    _TABLE_COLUMNS,
    _TABLE_INTERVALS,
    _expected_max_exponential_exact,
    _mixture_integral,
    _mixture_table,
    _RouteStack,
    expectation_from_survival,
    expected_rate_all_failure,
    expected_rate_all_success,
    expected_rate_mixture,
)
from v2xdelivery.model import expected_e2e_latency
from v2xdelivery.optimize import NormalizationContext, _envelope, _scan_grid


class TestHopReformulation:
    """The evaluator's coefficient split must equal the direct branch-weighted forms."""

    def test_latency_identity(self, coarse_params):
        rng = np.random.default_rng(3)
        for _ in range(10):
            hop = Hop(float(rng.uniform(0.05, 0.3)), int(rng.choice([1, 2, 3])))
            ev = RouteEvaluator(Route(hops=(hop,)), coarse_params)
            for t in window_grid(coarse_params, 100):
                assert ev.hop_latencies(t)[0] == pytest.approx(
                    expected_hop_latency(hop, t, coarse_params), abs=1e-12
                )

    def test_rate_identity(self, coarse_params):
        rng = np.random.default_rng(4)
        for _ in range(10):
            hop = Hop(float(rng.uniform(0.05, 0.3)), int(rng.choice([1, 2, 3])))
            ev = RouteEvaluator(Route(hops=(hop,)), coarse_params)
            for t in window_grid(coarse_params, 100):
                assert ev.hop_rates(t)[0] == pytest.approx(
                    expected_hop_rate(hop, t, coarse_params), abs=1e-12
                )


class TestE2ELatencyClosed:
    def test_matches_hop_sum_on_breakpoint_grid(self, coarse_params):
        rng = np.random.default_rng(11)
        grid = window_grid(coarse_params, 100)
        for _ in range(8):
            route = make_route(rng)
            for t in grid:
                assert abs(
                    e2e_latency_closed(route, t, coarse_params)
                    - expected_e2e_latency(route, t, coarse_params)
                ) <= 1e-9

    def test_always_forwarding_route_costs_exactly_the_dwells(self, params):
        hops = tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(4))
        route = Route(hops=hops)
        for t in (0.0, 7.7, 20.0):
            assert e2e_latency_closed(route, t, params) == 4 * params.hop_dwell

    def test_zero_window_closed_form(self, params):
        # At t=0 every non-forwarding hop falls back with certainty.
        rng = np.random.default_rng(12)
        route = make_route(rng, k=3)
        expected = sum(
            params.hop_dwell
            + (1.0 - 1.0 / h.deg) * (params.hop_dwell + 1.0 / h.arrival_rate)
            for h in route.hops
        )
        assert e2e_latency_closed(route, 0.0, params) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t", [-0.5, 25.0, math.nan])
    def test_window_outside_the_dwell_rejected(self, params, grid_routes, t):
        # The route readings raise like the kernel and the hop model do.
        forward = Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3)))
        readings = (
            e2e_latency_closed,
            e2e_rate_closed,
            expected_rate_all_success,
            expected_rate_all_failure,
            expected_rate_mixture,
        )
        for route in (grid_routes[0], forward):
            for reading in readings:
                with pytest.raises(ValueError, match=r"discovery window t must lie in \[0, hop_dwell\]"):
                    reading(route, t, params)


class TestGeometricMaxPmf:
    def test_single_variable_reduces_to_geometric(self):
        assert geometric_max_pmf(3, 1, 0.5) == pytest.approx(0.125, abs=0.0)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.998001])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_pmf_sums_to_one(self, p, n):
        q = 1.0 - p
        hi = 1 if q == 0.0 else int(math.ceil(math.log(1e-12) / math.log(q))) + 1
        xs = np.arange(1, hi + 1)
        assert geometric_max_pmf(xs, n, p).sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_empirical_pmf_of_sampled_maxima(self):
        n, p, draws = 3, 0.36, 1_000_000
        rng = np.random.default_rng(2024)
        maxima = rng.geometric(p, size=(draws, n)).max(axis=1)
        for x in range(1, 9):
            freq = float(np.mean(maxima == x))
            prob = float(geometric_max_pmf(x, n, p))
            se = math.sqrt(prob * (1.0 - prob) / draws)
            assert abs(freq - prob) <= 3.0 * se + 1e-12


class TestExpectedMaxTrialTime:
    def test_error_free_trials_always_finish_first_round(self):
        # With certain decoding the maximum trial count is 1 for any k.
        assert expected_max_trial_time(1, 10, 1.0, 0.5) == pytest.approx(0.5)
        assert expected_max_trial_time(2, 10, 1.0, 0.5) == pytest.approx(0.5)

    def test_truncated_sum_matches_hand_computation(self):
        # k=2, p=0.64, m=2: f(1) = 0.64^2, f(2) = (1-0.36^2)^2 - 0.64^2.
        f1 = 0.64**2
        f2 = (1.0 - 0.36**2) ** 2 - f1
        expected = (1.0 * f1 + 2.0 * f2) * 0.5
        assert expected_max_trial_time(2, 2, 0.64, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_truncation_is_not_renormalized(self):
        # The truncated mean must stay below the full mean.
        full = expected_max_trial_time(3, 10_000, 0.64, 0.5)
        cut = expected_max_trial_time(3, 3, 0.64, 0.5)
        assert cut < full

    def test_matches_sampled_windowed_maxima(self):
        # Draws beyond the window contribute zero, mirroring the truncation.
        k, p, dt, m, draws = 3, 0.64, 0.5, 20, 1_000_000
        rng = np.random.default_rng(99)
        maxima = rng.geometric(p, size=(draws, k)).max(axis=1)
        vals = np.where(maxima <= m, maxima * dt, 0.0)
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - expected_max_trial_time(k, m, p, dt)) <= 3.0 * se


class TestExponentialMax:
    def test_single_rate_is_plain_exponential_density(self):
        for x in (0.0, 0.3, 2.0, 11.0):
            assert exponential_max_pdf([0.2], x) == pytest.approx(0.2 * math.exp(-0.2 * x))

    def test_density_normalizes_over_two_orders_of_magnitude(self):
        rates = [0.05, 0.1, 0.3, 1.0, 2.0, 5.0]
        val, err = integrate.quad(lambda x: exponential_max_pdf(rates, x), 0.0, 400.0, limit=200)
        assert err < 1e-8
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_iid_mean_matches_harmonic_identity(self):
        expected = (1.0 + 0.5 + 1.0 / 3.0) / 0.1
        assert expected_max_exponential([0.1, 0.1, 0.1]) == pytest.approx(
            expected, rel=1e-6
        )

    def test_dominates_each_individual_mean(self):
        rates = [0.05, 0.15, 0.3]
        assert expected_max_exponential(rates) >= 1.0 / min(rates)

    def test_quadrature_agrees_with_inclusion_exclusion(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rates = list(rng.uniform(0.05, 0.5, size=int(rng.integers(1, 7))))
            quad_val = expected_max_exponential(rates)
            exact = _expected_max_exponential_exact(rates)
            assert quad_val == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("k", range(1, 15))
    def test_exact_form_matches_the_subset_loop(self, k):
        rates = np.random.default_rng(100 + k).uniform(0.05, 0.5, size=k)
        # Reference: one pass per subset mask, rates added in bit order.
        total = 0.0
        for mask in range(1, 1 << k):
            members = [rates[i] for i in range(k) if mask >> i & 1]
            s = 0.0
            for mu in members:
                s += mu
            total += (1.0 if len(members) % 2 else -1.0) / s
        assert _expected_max_exponential_exact(rates) == total

    def test_exact_form_limited_to_twenty_rates(self):
        assert _expected_max_exponential_exact([0.1] * 20) > 0.0
        with pytest.raises(ValueError, match="limited to 20 rates"):
            _expected_max_exponential_exact([0.1] * 21)

    def test_matches_sampled_maxima(self):
        rates = np.array([0.05, 0.15, 0.3])
        draws = 1_000_000
        rng = np.random.default_rng(77)
        maxima = (rng.exponential(1.0, size=(draws, 3)) / rates).max(axis=1)
        se = maxima.std(ddof=1) / math.sqrt(draws)
        assert abs(maxima.mean() - expected_max_exponential(rates)) <= 3.0 * se


class TestExpectationFromSurvival:
    def test_exponential_mean(self):
        assert expectation_from_survival(
            lambda x: 1.0 - math.exp(-0.2 * x), math.log(1e9) / 0.2
        ) == pytest.approx(5.0, abs=1e-8)

    def test_degenerate_step(self):
        c = 3.7
        cdf = lambda x: 0.0 if x < c else 1.0
        assert expectation_from_survival(cdf, 10.0, points=[c]) == pytest.approx(c, abs=1e-8)

    def test_max_of_two_exponentials(self):
        lam = 0.1
        cdf = lambda x: (1.0 - math.exp(-lam * x)) ** 2
        upper = math.log(2e9) / lam
        assert expectation_from_survival(cdf, upper) == pytest.approx(15.0, abs=1e-6)

    def test_unresolvable_integrand_raises(self):
        cdf = lambda x: 0.5 + 0.5 * math.sin(4.0e5 * x * x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError):
                expectation_from_survival(cdf, 50.0)


class TestScenarioProbabilities:
    def test_sum_to_one_and_match_hop_products(self, params, grid_routes):
        for route in grid_routes[:4]:
            for t in (0.0, 3.3, 8.0, 20.0):
                p_as, p_af, p_mix = scenario_probabilities(route, t, params)
                assert p_as + p_af + p_mix == pytest.approx(1.0, abs=1e-12)
                from v2xdelivery import p_failure, p_success

                assert p_as == pytest.approx(
                    math.prod(p_success(h, t, params) for h in route.hops), abs=1e-12
                )
                assert p_af == pytest.approx(
                    math.prod(p_failure(h, t, params) for h in route.hops), abs=1e-12
                )

    def test_forwarding_hop_forces_the_mixed_outcome(self, params):
        route = Route(hops=(Hop(0.1, 1, rsu_id="a"), Hop(0.1, 3, rsu_id="b")))
        p_as, p_af, p_mix = scenario_probabilities(route, 8.0, params)
        assert p_as == 0.0 and p_af == 0.0 and p_mix == 1.0

    def test_zero_window_kills_all_success(self, params):
        rng = np.random.default_rng(21)
        route = make_route(rng, k=3)
        p_as, p_af, _ = scenario_probabilities(route, 0.0, params)
        assert p_as == 0.0
        assert p_af == pytest.approx(
            math.prod(1.0 - 1.0 / h.deg for h in route.hops), abs=1e-12
        )


class TestAllSuccessRate:
    def test_window_without_a_whole_trial_rejected(self, params):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            expected_rate_all_success(make_route(rng, k=2), 0.05, params)

    def test_single_hop_error_free(self):
        params = SystemParams(decode_error=0.0)
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"),))
        t, T, dt = 10.0, params.hop_dwell, params.trial_time
        expected = (params.rate_v2v * (T - dt) + params.rate_cell * (T - t)) / T
        assert expected_rate_all_success(route, t, params) == pytest.approx(expected, abs=1e-12)

    def test_two_hops_error_free_match_single_hop(self):
        params = SystemParams(decode_error=0.0)
        one = Route(hops=(Hop(0.1, 2, rsu_id="a"),))
        two = Route(hops=(Hop(0.1, 2, rsu_id="a"), Hop(0.2, 3, rsu_id="b")))
        assert expected_rate_all_success(two, 10.0, params) == pytest.approx(
            expected_rate_all_success(one, 10.0, params), abs=1e-12
        )

    def test_non_increasing_in_hop_count(self, params):
        t = 8.0
        vals = []
        for k in range(1, 7):
            hops = tuple(Hop(0.1, 2, rsu_id=f"h{i}") for i in range(k))
            vals.append(expected_rate_all_success(Route(hops=hops), t, params))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestAllFailureRate:
    def test_single_hop_closed_value(self, params):
        # Zero window: full dwell for the upload, mean wait 10 s.
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"),))
        assert expected_rate_all_failure(route, 0.0, params) == pytest.approx(0.6, rel=1e-6)

    def test_two_iid_hops_use_the_harmonic_max_wait(self, params):
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"), Hop(0.1, 2, rsu_id="b")))
        t = 5.0
        T = params.hop_dwell
        expected = (params.rate_v2i * (T - t) + params.rate_cell * t) / (2.0 * T + 15.0)
        assert expected_rate_all_failure(route, t, params) == pytest.approx(expected, rel=1e-7)

    def test_matches_sampled_maxima(self, params):
        lams = np.array([0.05, 0.15, 0.3])
        hops = tuple(Hop(float(l), 2, rsu_id=f"h{i}") for i, l in enumerate(lams))
        route = Route(hops=hops)
        t, T = 8.0, params.hop_dwell
        draws = 1_000_000
        rng = np.random.default_rng(55)
        maxima = (rng.exponential(1.0, size=(draws, 3)) / lams).max(axis=1)
        amount = params.rate_v2i * (T - t) + params.rate_cell * t
        denom_mean = 2.0 * T + maxima.mean()
        se = maxima.std(ddof=1) / math.sqrt(draws)
        lo = amount / (denom_mean + 3.0 * se)
        hi = amount / (denom_mean - 3.0 * se)
        assert lo <= expected_rate_all_failure(route, t, params) <= hi


class TestMixtureRate:
    def test_single_hop_rejected(self, params):
        with pytest.raises(ValueError):
            expected_rate_mixture(Route(hops=(Hop(0.1, 2, rsu_id="a"),)), 8.0, params)

    def test_zero_cellular_rate_gives_zero(self):
        params = SystemParams(rate_cell=0.0)
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"), Hop(0.2, 3, rsu_id="b")))
        assert expected_rate_mixture(route, 8.0, params) == pytest.approx(0.0, abs=1e-12)

    def test_generous_cap_leaves_the_bottlenecks_in_charge(self):
        # With a huge carrying rate the value is E[min of the two families].
        params = SystemParams(rate_cell=50.0)
        route = Route(hops=(Hop(0.1, 2, rsu_id="a"), Hop(0.2, 3, rsu_id="b")))
        val = expected_rate_mixture(route, 8.0, params)
        assert 0.0 < val < 10.0  # far below the cap: the families bind

    @pytest.mark.parametrize("t", [1.0, 8.0])
    def test_matches_direct_sampling(self, params, grid_routes, t):
        route = Route(hops=grid_routes[0].hops[:2])
        T = params.hop_dwell
        m = max_trials(t, params.trial_time)
        k = len(route.hops)
        lams = np.array([h.arrival_rate for h in route.hops])
        draws = 1_000_000
        rng = np.random.default_rng(404)
        xi = rng.geometric(params.decode_ok_pair, size=(draws, k)).max(axis=1)
        s_rate = np.where(
            xi <= m,
            params.rate_v2v * (T - xi * params.trial_time) / T
            + params.rate_cell * (T - t) / T,
            np.inf,
        )
        eta = (rng.exponential(1.0, size=(draws, k)) / lams).max(axis=1)
        amount = params.rate_v2i * (T - t) + params.rate_cell * t
        f_rate = amount / (2.0 * T + eta)
        vals = np.minimum(np.minimum(s_rate, f_rate), params.rate_cell)
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - expected_rate_mixture(route, t, params)) <= 3.0 * se


class TestE2ERateClosed:
    def test_always_forwarding_route_carries_at_cellular_rate(self, params):
        hops = tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3))
        route = Route(hops=hops)
        for t in (0.0, 8.0, 20.0):
            assert e2e_rate_closed(route, t, params) == params.rate_cell

    def test_single_hop_equals_the_hop_mean(self, params):
        hop = Hop(0.12, 3, rsu_id="solo")
        route = Route(hops=(hop,))
        for t in (0.0, 2.5, 10.0, 20.0):
            assert e2e_rate_closed(route, t, params) == pytest.approx(
                expected_hop_rate(hop, t, params), abs=1e-12
            )

    def test_zero_window_has_no_all_success_scenario(self, params):
        route = make_route(np.random.default_rng(71), k=3)
        dec = rate_decomposition(route, 0.0, params)
        assert dec.p_all_success == 0.0
        # Only the fallback and mixed terms remain.
        assert dec.p_all_failure * dec.rate_all_failure > 0.0
        assert e2e_rate_closed(route, 0.0, params) == pytest.approx(
            dec.p_all_failure * dec.rate_all_failure + dec.p_mixture * dec.rate_mixture,
            rel=1e-9,
        )

    def test_decomposition_reassembles_the_rate(self, params, grid_routes):
        one_hop = [
            Route(hops=(Hop(lam, deg, rsu_id="a"),)) for lam, deg in ((0.15, 3), (0.06, 2), (0.2, 1))
        ]
        all_forward = Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3)))
        for route in [*grid_routes[:3], *one_hop, all_forward]:
            for t in (0.5, 8.0, 20.0):
                dec = rate_decomposition(route, t, params)
                assert dec.p_all_success + dec.p_all_failure + dec.p_mixture == pytest.approx(
                    1.0, abs=1e-12
                )
                assert e2e_rate_closed(route, t, params) == pytest.approx(
                    dec.e2e_rate, rel=1e-9
                )


class TestRouteEvaluator:
    def test_breakpoints_cover_the_window_range(self, coarse_params):
        rng = np.random.default_rng(61)
        ev = RouteEvaluator(make_route(rng), coarse_params)
        edges = ev.breakpoints()
        assert edges[0] == 0.0 and edges[-1] == coarse_params.hop_dwell
        assert np.all(np.diff(edges) > 0)

    def test_scalar_calls_match_canonical_functions(self, params, grid_routes):
        rng = np.random.default_rng(64)
        all_forward = Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3)))
        single = Route(hops=(Hop(0.12, 3, rsu_id="solo"),))
        stock_ts = (0.0, 0.05, 3.7, 8.0, 19.99, 20.0)
        # (params, routes, extra windows): the stock case plus the parameter
        # extremes whose degenerate branches the one-window readings now take.
        cases = [
            (params, grid_routes[:3], stock_ts),
            (SystemParams(decode_error=0.0), [grid_routes[0]], stock_ts),
            (SystemParams(trial_time=20.0), [grid_routes[0], single], (0.05, 10.0, 19.99)),
            (SystemParams(rate_v2i=0.0), [grid_routes[0]], stock_ts),
            (SystemParams(rate_cell=0.0), [grid_routes[0]], stock_ts),
            (params, [all_forward, single], stock_ts),
            (SystemParams(trial_time=2.5), [make_route(rng, k=4)], (1.0, 12.6)),
        ]
        for case_params, routes, extra in cases:
            for route in routes:
                ev = RouteEvaluator(route, case_params)
                # Every whole-trial edge once the trials are coarse, a sample
                # of them otherwise; the edges include both window ends.
                edges = ev.breakpoints()
                ts = np.union1d(edges[:: max(1, len(edges) // 8)], list(extra) + [float(edges[-1])])
                for t in ts:
                    t = float(t)
                    assert ev.latency(t) == pytest.approx(
                        expected_e2e_latency(route, t, case_params), abs=1e-9
                    )
                    assert ev.rate_closed(t) == pytest.approx(
                        e2e_rate_closed(route, t, case_params), rel=1e-9, abs=1e-12
                    )
                    assert ev.rate_min_of_means(t) == pytest.approx(
                        e2e_rate_min_of_means(route, t, case_params), abs=1e-12
                    )

    @pytest.mark.parametrize("decode_error", [1e-3, 0.3])
    @pytest.mark.parametrize("k", [1, 8, 14])
    def test_a_window_reads_the_same_bits_in_any_batch(self, k, decode_error):
        # decode_error=0.3 gives a 53-row mixture table, the stock one 7 rows.
        params = SystemParams(decode_error=decode_error)
        ev = RouteEvaluator(make_route(np.random.default_rng(90 + k), k=k), params)
        ts = np.union1d(np.linspace(0.0, params.hop_dwell, 41), [0.05, 0.1, 0.75, 1.2, 19.95])
        batch = ev.series(ts)
        for i, t in enumerate(ts):
            one = ev.series([t])
            for name, values in batch.items():
                assert values[..., i].tobytes() == one[name][..., 0].tobytes(), (name, t)

    def test_series_matches_scalar_calls(self, params):
        rng = np.random.default_rng(62)
        route = make_route(rng)
        ev = RouteEvaluator(route, params)
        # Mix of arbitrary points and exact whole-trial edges.
        ts = np.union1d(np.linspace(0.0, 20.0, 111), np.arange(0.0, 20.5, 2.5))
        out = ev.series(ts)
        for i, t in enumerate(ts.tolist()):
            assert out["latency"][i] == pytest.approx(expected_e2e_latency(route, t, params), abs=1e-12)
            assert out["rate_closed"][i] == pytest.approx(
                e2e_rate_closed(route, t, params), rel=1e-9, abs=1e-12
            )
            assert out["rate_min_means"][i] == pytest.approx(
                e2e_rate_min_of_means(route, t, params), abs=1e-12
            )
            np.testing.assert_allclose(
                out["hop_latency"][:, i], [expected_hop_latency(h, t, params) for h in route.hops], atol=1e-12
            )
            np.testing.assert_allclose(
                out["hop_rate"][:, i], [expected_hop_rate(h, t, params) for h in route.hops], atol=1e-12
            )

    def test_one_read_across_the_binding_split(self):
        # At rate_cell=0.6 the fallback supremum (30 - 0.9 t) / 40 exceeds
        # the cellular cap below t = 20/3 and no cap binds above it, so one
        # read holds cells of both kinds; a one-window read builds the
        # mixture table only below the split.
        params = SystemParams(rate_cell=0.6)
        route = make_route(np.random.default_rng(71), k=5)
        ts = np.union1d(np.linspace(0.0, params.hop_dwell, 21), [6.6, 6.66, 6.67, 6.7])
        batch = RouteEvaluator(route, params).series(ts)
        for i, t in enumerate(ts.tolist()):
            ev = RouteEvaluator(route, params)
            one = ev.series([t])
            assert ("_mixture" in vars(ev._stack)) == (t < 20.0 / 3.0), t
            for name, values in batch.items():
                assert values[..., i].tobytes() == one[name][..., 0].tobytes(), (name, t)
            assert one["rate_closed"][0] == pytest.approx(e2e_rate_closed(route, t, params), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("override, t", [({"rate_v2i": 0.0}, 0.0), ({"rate_cell": 0.0}, 20.0)])
    def test_zero_fallback_supremum_raises_no_warning(self, override, t):
        # The mixture's table lookup divides by the fallback rate's supremum,
        # which is zero here; the kernel must skip it rather than mask it.
        params = SystemParams(**override)
        route = make_route(np.random.default_rng(63), k=3)
        ev = RouteEvaluator(route, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ev.series(np.array([t, 10.0]))
            value = ev.rate_closed(t)
        assert out["rate_closed"][0] == value
        assert value == pytest.approx(e2e_rate_closed(route, t, params), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("t", [-0.5, 20.5, math.nan])
    def test_window_outside_the_dwell_rejected(self, params, t):
        ev = RouteEvaluator(make_route(np.random.default_rng(65), k=3), params)
        with pytest.raises(ValueError):
            ev.series(np.array([0.0, t]))
        with pytest.raises(ValueError):
            ev.latency(t)

    def test_hop_readings_match_the_hop_model(self, params, grid_routes):
        route = grid_routes[0]
        ev = RouteEvaluator(route, params)
        for t in (0.0, 8.0, 20.0):
            expected_lat = [expected_hop_latency(h, t, params) for h in route.hops]
            expected_rate = [expected_hop_rate(h, t, params) for h in route.hops]
            np.testing.assert_allclose(ev.hop_latencies(t), expected_lat, atol=1e-12)
            np.testing.assert_allclose(ev.hop_rates(t), expected_rate, atol=1e-12)


def _count_table_builds(monkeypatch) -> list[str]:
    """Names of the joint-outcome table builders called, one entry a call."""
    built = []
    for name in ("_mixture_table", "_mixture_j1", "_expected_max_exponential_exact"):
        original = getattr(closedform, name)
        monkeypatch.setattr(
            closedform, name, lambda *a, name=name, original=original, **kw: built.append(name) or original(*a, **kw)
        )
    return built


class TestRouteStack:
    """A route-stacked read reads every window with the bits of its route's
    own one-route ``series`` read."""

    @staticmethod
    def _routes():
        rng = np.random.default_rng(66)
        return [
            Route(hops=(Hop(0.12, 3, rsu_id="solo"),)),
            make_route(rng, k=2),
            make_route(rng, k=14),
            Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3))),  # every deg = 1
            make_route(rng, k=8, degs=(1, 2, 3)),
            Route(hops=(Hop(0.2, 1, rsu_id="fwd"),)),
            make_route(rng, k=5),
        ]

    @pytest.mark.parametrize(
        "override",
        [{}, {"decode_error": 0.3}, {"trial_time": 2.5}, {"trial_time": 20.0}, {"rate_v2i": 0.0}],
    )
    @pytest.mark.parametrize("order", ["by_route", "shuffled"])
    def test_stacked_read_matches_one_route_series_bit_for_bit(self, override, order):
        params = SystemParams(**override)
        T = params.hop_dwell
        routes = self._routes()
        evaluators = [RouteEvaluator(r, params) for r in routes]
        rng = np.random.default_rng(67)
        edges = RouteEvaluator(routes[0], params).breakpoints()
        # Both window ends, piece edges and their insets, and random windows.
        ts = np.concatenate([[0.0, T], edges, np.maximum(edges - 1e-4 * params.trial_time, 0.0)])
        ts = np.concatenate([ts, rng.uniform(0.0, T, size=40)])
        cols = np.repeat(np.arange(len(routes)), len(ts))
        ts = np.tile(ts, len(routes))
        if order == "shuffled":
            perm = rng.permutation(len(ts))
            cols, ts = cols[perm], ts[perm]
        stack = _RouteStack(routes, params)
        # Each view of the stack reads its route's bits, its first read
        # building every route's tables at once.
        grid = np.unique(ts)
        for view, ev in zip(stack.evaluators(), evaluators):
            alone, stacked = ev.series(grid), view.series(grid)
            assert stacked.keys() == alone.keys()
            for name, values in alone.items():
                assert stacked[name].tobytes() == values.tobytes(), (name, ev.k)
        out = stack.read(cols, ts)
        k_max = max(ev.k for ev in evaluators)
        assert out["hop_latency"].shape == out["hop_rate"].shape == (k_max, len(ts))
        for i, (c, t) in enumerate(zip(cols.tolist(), ts.tolist())):
            ev = evaluators[c]
            one = ev.series([t])
            for name in ("latency", "rate_closed", "rate_min_means"):
                assert out[name][i].tobytes() == one[name][0].tobytes(), (name, c, t)
            for name in ("hop_latency", "hop_rate"):
                assert out[name][: ev.k, i].tobytes() == one[name][:, 0].tobytes(), (name, c, t)
            # Padded hops are neutral.
            assert np.all(out["hop_latency"][ev.k :, i] == 0.0)
            assert np.all(out["hop_rate"][ev.k :, i] == np.inf)

    @pytest.mark.parametrize("rate_cell, table", [(1.0, []), (0.3, ["_mixture_table"])])
    def test_per_hop_readers_build_no_joint_tables(self, monkeypatch, rate_cell, table):
        # The joint-outcome tables wait for the first read that needs them;
        # all-forward and one-hop routes never need them.  The mixture table
        # waits for a read where a cap binds: none does at stock, and at
        # rate_cell=0.3 the cellular cap binds at t = 8.
        params = SystemParams(rate_cell=rate_cell)
        built = _count_table_builds(monkeypatch)
        rng = np.random.default_rng(68)
        mixed = RouteEvaluator(make_route(rng, k=4), params)
        mixed.hop_rates(8.0)
        mixed.latency(8.0)
        assert built == []
        mixed.rate_closed(8.0)
        assert sorted(built) == sorted(["_expected_max_exponential_exact", "_mixture_j1", *table])
        del built[:]
        mixed.series(np.linspace(0.0, params.hop_dwell, 11))
        assert built == []
        for route in (
            Route(hops=(Hop(0.12, 3, rsu_id="solo"),)),
            Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3))),
        ):
            ev = RouteEvaluator(route, params)
            ev.series(np.linspace(0.0, params.hop_dwell, 11))
        assert built == []

    def test_a_view_reads_only_through_its_stack(self, monkeypatch, params):
        # The stack's two reads are the kernel's entries, and both run the
        # one per-hop stage: every reading of a view is one call of either
        # read, or of the per-window read's per-hop half, at the view's
        # column, and makes one stage; no other copy of the kernel is left.
        assert not hasattr(_RouteStack, "rate") and not hasattr(closedform, "_hop_rows")
        calls = []
        for name in ("read", "hops", "grid"):
            original = getattr(_RouteStack, name)

            def counted(self, *args, name=name, original=original, **kwargs):
                cols = args[0] if name != "grid" else args[1]
                calls.append((name, np.atleast_1d(cols).tolist()))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(_RouteStack, name, counted)
        stage = _RouteStack._stage
        monkeypatch.setattr(_RouteStack, "_stage", lambda *a: calls.append("_stage") or stage(*a))
        view = _RouteStack(self._routes(), params).evaluators()[4]
        t = 8.0
        readings = {
            "series": lambda: view.series([t]),
            "rate_closed": lambda: view.rate_closed(t),
            "latency": lambda: view.latency(t),
            "rate_min_of_means": lambda: view.rate_min_of_means(t),
            "hop_latencies": lambda: view.hop_latencies(t),
            "hop_rates": lambda: view.hop_rates(t),
        }
        for reading, call in readings.items():
            del calls[:]
            call()
            if reading == "series":
                assert calls == [("grid", [4]), "_stage"], reading
            else:
                entry = [("read", [4])] if reading == "rate_closed" else []
                assert calls == entry + [("hops", [4]), "_stage"], reading

    @pytest.mark.parametrize("rate_cell", [1.0, 0.3])
    def test_one_route_index_reads_every_window(self, rate_cell):
        # One index broadcasts against the windows, as the per-hop stage
        # broadcasts it; at rate_cell=0.3 the mixture caps bind.
        params = SystemParams(rate_cell=rate_cell)
        ts = np.linspace(0.0, params.hop_dwell, 41)
        stack = _RouteStack(self._routes(), params)
        for j in range(len(stack.routes)):
            one, ref = stack.read(j, ts), stack.read(np.full(len(ts), j), ts)
            assert one.keys() == ref.keys()
            for name, values in ref.items():
                assert one[name].tobytes() == values.tobytes(), (j, name)

    @pytest.mark.parametrize("rate_cell", [1.0, 0.3])
    def test_a_window_just_past_the_dwell_reads_the_dwell(self, rate_cell):
        # Windows up to T(1 + 1e-12) pass the check and read as T, in both
        # reads; past that bound they are rejected.
        params = SystemParams(rate_cell=rate_cell)
        T = params.hop_dwell
        past = T * (1 + 5e-13)
        assert past > T
        stack = _RouteStack(self._routes(), params)
        cols = np.arange(len(stack.routes))
        for read in (lambda t: stack.read(cols, np.full(len(cols), t)), lambda t: stack.grid([0.0, t])):
            at, beyond = read(T), read(past)
            assert at.keys() == beyond.keys()
            for name, values in at.items():
                assert beyond[name].tobytes() == values.tobytes(), name
        with pytest.raises(ValueError, match="hop_dwell"):
            stack.read(cols, np.full(len(cols), T * (1 + 2e-12)))

    @staticmethod
    def _grid_cases():
        """(label, scenario routes plus a one-hop, an all-forward and a
        mixed route with deg = 1 hops, params) of every grid-read identity
        case.  The mixed route holds one (arrival rate, deg) at two hops."""
        extra = [
            Route(hops=(Hop(0.12, 3, rsu_id="solo"),)),
            Route(hops=tuple(Hop(0.1, 1, rsu_id=f"d{i}") for i in range(3))),
            Route(hops=(Hop(0.15, 1, "m0"), Hop(0.2, 3, "m1"), Hop(0.08, 2, "m2"), Hop(0.15, 1, "m3"))),
        ]
        scenarios = [(3, seed, tt) for seed in range(3) for tt in (0.02, 0.1, 1.0)] + [(4, 2, 1.0)]
        for size, seed, trial_time in scenarios:
            scenario = build_grid_scenario(rows=size, cols=size, seed=seed)
            routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination) + extra
            for override in ({}, {"rate_cell": 0.3}, {"decode_error": 0.3}):
                params = dataclasses.replace(scenario.params, trial_time=trial_time, **override)
                yield f"{size}x{size} seed {seed} trial {trial_time} {override}", routes, params

    def test_a_grid_read_holds_the_bits_of_per_window_reads(self):
        # Every cell of a grid read of all routes, and of each route's own
        # one-route grid read (series), reads the bits of a per-window read
        # of that route at that window; each route's hop-rate range is the
        # range of its per-window hop rows.
        for label, routes, params in self._grid_cases():
            stack = _RouteStack(routes, params)
            ts = _scan_grid(params).ts
            out = stack.grid(ts)
            for j, view in enumerate(stack.evaluators()):
                ref = stack.read(np.full(len(ts), j), ts)
                one = view.series(ts)
                for name in ("latency", "rate_closed"):
                    assert np.array_equal(out[name][j], ref[name]), (label, j, name)
                for name in ("latency", "rate_closed", "rate_min_means", "hop_latency", "hop_rate"):
                    assert np.array_equal(one[name], ref[name]), (label, j, name)
                assert out["hop_rate_min"][j] == ref["hop_rate"].min(), (label, j)
                assert out["hop_rate_max"][j] == ref["hop_rate"].max(), (label, j)

    def test_the_envelope_matches_one_read_per_route(self):
        # The reference is the envelope as one per-window read per route
        # computed it; the grid read's scales must print the same.
        def per_route_envelope(stack, ts):
            scales = []
            for j in range(len(stack.routes)):
                out = stack.read(np.full(len(ts), j), ts)
                lat, rate, hop_rate = out["latency"], out["rate_closed"], out["hop_rate"]
                scales.append(
                    NormalizationContext(
                        float(lat.min()),
                        float(lat.max()),
                        min(float(rate.min()), float(hop_rate.min())),
                        max(float(rate.max()), float(hop_rate.max())),
                    )
                )
            return scales

        for label, routes, params in self._grid_cases():
            stack = _RouteStack(routes, params)
            ts = _scan_grid(params).ts
            assert repr(_envelope(stack, ts)[0]) == repr(per_route_envelope(stack, ts)), label


class TestMixtureTable:
    """The Hermite table's J(c) = integral of W over [0, c] against adaptive
    quadrature of W itself, W(v) = prod_h (1 - exp(-lam_h 2T(1 - v)/v))."""

    @staticmethod
    def _survival(lam, T):
        def W(v):
            return 1.0 if v <= 0.0 else float(np.prod(-np.expm1(-lam * 2.0 * T * (1.0 - v) / v)))

        return W

    @pytest.mark.parametrize("k", [2, 8, 14])
    @pytest.mark.parametrize("rates", ["slow", "fast", "spread", "random"])
    def test_integral_matches_quadrature(self, params, k, rates):
        T = params.hop_dwell
        rng = np.random.default_rng(69)
        lam = {
            "slow": np.full(k, 0.01),
            "fast": np.full(k, 2.0),
            "spread": np.geomspace(0.01, 2.0, k),
            "random": rng.uniform(0.01, 2.0, k),
        }[rates]
        n = _TABLE_INTERVALS
        nodes = np.arange(0, n + 1, 40) / n
        mids = (np.arange(0, n, 40) + 0.5) / n
        near_one = 1.0 - np.arange(1, 21) / (3 * n)  # where fast rates make W steep
        cs = np.unique(np.concatenate([[0.0, 1.0], nodes, mids, near_one, rng.uniform(0.0, 1.0, 40)]))
        assert len(cs) >= 200
        got = _mixture_integral(_mixture_table(lam, T), np.zeros(1, dtype=np.intp), cs)
        # Quadrature piece by piece between consecutive points, summed exactly.
        W = self._survival(lam, T)
        pieces = [integrate.quad(W, a, b, epsabs=1e-15, epsrel=0.0, limit=200)[0] for a, b in zip(cs[:-1], cs[1:])]
        want = np.array([math.fsum(pieces[:i]) for i in range(len(cs))])
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_table_rows_join_up(self, params):
        # Each row read at s = 1 lands on the next row's J.
        table = _mixture_table(np.array([0.05, 0.3, 2.0]), params.hop_dwell)
        ends = table[0] + table[1:].sum(axis=0)
        np.testing.assert_allclose(ends[:-1], table[0, 1:], rtol=0.0, atol=1e-15)
        assert table[0, 0] == 0.0

    @pytest.mark.parametrize("rate_cell, tables", [(1.0, 0), (0.3, 3)])
    def test_a_stack_holds_one_copy_its_routes_read(self, monkeypatch, rate_cell, tables):
        # A stack computes its mixed routes' J(1) once, on the first read
        # that needs it, and every view reads it.  The mixture tables wait
        # for the first read where a cap binds (none does at stock; at
        # rate_cell=0.3 the cellular cap binds at t = 8), and are then built
        # once, side by side in one array.
        params = SystemParams(rate_cell=rate_cell)
        rng = np.random.default_rng(70)
        routes = [make_route(rng, k=k) for k in (2, 5, 9)]
        routes.insert(1, Route(hops=(Hop(0.12, 3, rsu_id="solo"),)))
        before = RouteEvaluator(routes[2], params).rate_closed(8.0)  # its own stack's tables
        built = _count_table_builds(monkeypatch)
        stack = _RouteStack(routes, params)
        views = stack.evaluators()
        assert views[2].rate_closed(8.0) == before
        want = ["_expected_max_exponential_exact"] * 3 + ["_mixture_j1"] * 3 + ["_mixture_table"] * tables
        assert sorted(built) == sorted(want)
        for view in views:
            view.series(np.linspace(0.0, params.hop_dwell, 11))
        assert sorted(built) == sorted(want)
        assert ("_mixture" in vars(stack)) == (tables > 0)
        if tables:
            mixture = stack._mixture
            assert mixture.shape == (_TABLE_COLUMNS, 3 * _TABLE_INTERVALS)
            for row, j in enumerate((0, 2, 3)):
                lam = np.array([h.arrival_rate for h in routes[j].hops])
                part = mixture[:, row * _TABLE_INTERVALS : (row + 1) * _TABLE_INTERVALS]
                assert part.tobytes() == _mixture_table(lam, params.hop_dwell).tobytes()
                assert stack._tables.first[j] == row * _TABLE_INTERVALS
            assert stack._tables.first[1] == 0

    def test_a_stack_reads_j1_as_the_table_reads_c_1(self, params):
        # Each mixed route's J(1), read without its table, is the table's
        # reading at c = 1 bit for bit, also where routes share hops and so
        # share their factors.
        rng = np.random.default_rng(72)
        hops = make_route(rng, k=14).hops
        routes = [Route(hops=hops[:2]), Route(hops=hops[3:11]), Route(hops=hops), Route(hops=hops[5:7])]
        stack = _RouteStack(routes, params)
        for j, route in enumerate(routes):
            lam = np.array([h.arrival_rate for h in route.hops])
            want = _mixture_integral(_mixture_table(lam, params.hop_dwell), np.zeros(1, dtype=np.intp), np.ones(1))
            assert stack._tables.j1[j].tobytes() == want[0].tobytes(), len(lam)


def test_joint_rate_sits_below_the_bottleneck_of_means(params, grid_routes):
    """The joint-outcome average weighs in slow scenarios that the per-hop
    bottleneck reading ignores, so it reads systematically lower."""
    route = grid_routes[0]
    for t in (4.0, 8.0, 16.0):
        assert e2e_rate_closed(route, t, params) < min(
            expected_hop_rate(h, t, params) for h in route.hops
        )
