"""Tests of the coefficient reformulations, order statistics, and route rates.

Every derived quantity is checked against an independent oracle: a frozen
hand computation, a sampling experiment, or a second implementation route
(quadrature and inclusion-exclusion vs. the kernel's node sums, the model's
branch-weighted scalars and the quadrature forms vs. the evaluator's kernel).
"""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from support import (
    columns,
    count_table_builds,
    evaluators,
    fold_alone,
    is_mixed,
    make_route,
    table_alone,
    totals_alone,
    window_grid,
)
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
from v2xdelivery import closedform, model
from v2xdelivery.closedform import (
    QuadratureError,
    _TABLE_COLUMNS,
    _TABLE_INTERVALS,
    _mixture_integral,
    _RouteStack,
    expectation_from_survival,
    expected_rate_all_failure,
    expected_rate_all_success,
    expected_rate_mixture,
)
from v2xdelivery.model import expected_e2e_latency
from v2xdelivery.optimize import _envelope, _read, _scan_grid


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


def _subset_loop_expected_max(rates) -> float:
    """E[max] of independent exponentials by inclusion-exclusion: one pass
    per subset mask, rates added in bit order."""
    k = len(rates)
    total = 0.0
    for mask in range(1, 1 << k):
        members = [rates[i] for i in range(k) if mask >> i & 1]
        s = 0.0
        for mu in members:
            s += mu
        total += (1.0 if len(members) % 2 else -1.0) / s
    return total


@functools.lru_cache(maxsize=None)
def _exact_expected_max(rates: tuple[float, ...]) -> Fraction:
    """E[max] of independent exponentials by inclusion-exclusion, exactly,
    in rationals: each subset's term as a Fraction of the float rates."""
    rates = [Fraction(mu) for mu in rates]
    total = Fraction(0)
    for r in range(1, len(rates) + 1):
        sign = 1 if r % 2 else -1
        total += sum((Fraction(sign) / sum(subset) for subset in itertools.combinations(rates, r)), Fraction(0))
    return total


def _stack_expected_max(rates, params=SystemParams()) -> float:
    """The kernel's E[max wait] of a mixed route whose hops arrive at ``rates``."""
    route = Route(hops=tuple(Hop(float(mu), 2, rsu_id=f"r{i}") for i, mu in enumerate(rates)))
    return float(_RouteStack([route], params)._tables.exp_max_wait[0])


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
            exact = _subset_loop_expected_max(rates)
            assert quad_val == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("k", range(2, 15))
    def test_node_pass_matches_the_subset_loop(self, k):
        rates = np.random.default_rng(100 + k).uniform(0.05, 0.5, size=k)
        assert _stack_expected_max(rates) == pytest.approx(_subset_loop_expected_max(rates), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", range(15, 25))
    def test_node_pass_matches_quadrature_past_fourteen_hops(self, k):
        # The node sums have no hop limit.  The subset loop is too slow to
        # check them past 14 hops; the quadrature oracle is not, and its own
        # truncation error stays near 1e-9 there.
        rates = np.random.default_rng(100 + k).uniform(0.05, 0.5, size=k)
        assert _stack_expected_max(rates) == pytest.approx(expected_max_exponential(rates), rel=1e-8, abs=0.0)

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

    @pytest.mark.parametrize("rate_cell", [1.0, 0.3])
    @pytest.mark.parametrize("k", [21, 24])
    def test_a_route_past_twenty_hops_reads_its_rate(self, k, rate_cell):
        # No hop count walls the kernel off.  At rate_cell=0.3 the cellular
        # cap binds below t = 15, so t = 20 reads J(1) and the rest a table.
        params = SystemParams(rate_cell=rate_cell)
        route = make_route(np.random.default_rng(73), k=k)
        ev = RouteEvaluator(route, params)
        for t in (0.0, 2.0, 8.0, 20.0):
            assert ev.rate_closed(t) == pytest.approx(e2e_rate_closed(route, t, params), rel=1e-9, abs=0.0), t

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
        singles = [RouteEvaluator(r, params) for r in routes]
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
        for view, ev in zip(evaluators(stack), singles):
            alone, stacked = ev.series(grid), view.series(grid)
            assert stacked.keys() == alone.keys()
            for name, values in alone.items():
                assert stacked[name].tobytes() == values.tobytes(), (name, ev.k)
        out = stack.read(cols, ts)
        k_max = max(ev.k for ev in singles)
        assert out["hop_latency"].shape == out["hop_rate"].shape == (k_max, len(ts))
        for i, (c, t) in enumerate(zip(cols.tolist(), ts.tolist())):
            ev = singles[c]
            one = ev.series([t])
            for name in ("latency", "rate_closed", "rate_min_means"):
                assert out[name][i].tobytes() == one[name][0].tobytes(), (name, c, t)
            for name in ("hop_latency", "hop_rate"):
                assert out[name][: ev.k, i].tobytes() == one[name][:, 0].tobytes(), (name, c, t)
            # Padded hops are neutral.
            assert np.all(out["hop_latency"][ev.k :, i] == 0.0)
            assert np.all(out["hop_rate"][ev.k :, i] == np.inf)

    @pytest.mark.parametrize("rate_cell, walks", [(1.0, 1), (0.3, 2)])
    def test_per_hop_readers_build_no_joint_tables(self, monkeypatch, rate_cell, walks):
        # The joint-outcome tables wait for the first read that needs them;
        # all-forward and one-hop routes never need them.  A mixed route's
        # J(1) and E[max wait] take one node walk, which folds its 4 hops;
        # the mixture table, with a walk of its own, waits for a read where
        # a cap binds: none does at stock, and at rate_cell=0.3 the cellular
        # cap binds at t = 8.
        params = SystemParams(rate_cell=rate_cell)
        built = count_table_builds(monkeypatch)
        rng = np.random.default_rng(68)
        mixed = RouteEvaluator(make_route(rng, k=4), params)
        mixed.hop_rates(8.0)
        mixed.latency(8.0)
        assert built == []
        mixed.rate_closed(8.0)
        walk = ["_node_walk", *["_fold_hop"] * 4]
        assert built == walk + (walk + ["_mixture_table"]) * (walks - 1)
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
        # one per-hop stage: every reading of a view is one call of the
        # per-window read, or of its per-hop half, at the view's column,
        # and makes one stage; the grid read serves the envelope alone, and
        # no other copy of the kernel is left.
        assert not hasattr(_RouteStack, "rate") and not hasattr(closedform, "_hop_rows")
        assert not hasattr(RouteEvaluator, "_hop_stage")
        calls = []
        for name in ("read", "hops", "grid"):
            original = getattr(_RouteStack, name)

            def counted(self, *args, name=name, original=original, **kwargs):
                calls.append((name, np.atleast_1d(args[0]).tolist() if name != "grid" else None))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(_RouteStack, name, counted)
        stage = _RouteStack._stage
        monkeypatch.setattr(_RouteStack, "_stage", lambda *a: calls.append("_stage") or stage(*a))
        view = evaluators(_RouteStack(self._routes(), params))[4]
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
            entry = [("read", [4])] if reading in ("series", "rate_closed") else []
            assert calls == entry + [("hops", [4]), "_stage"], reading

    @pytest.mark.parametrize("rate_cell", [1.0, 0.3])
    def test_one_route_index_reads_every_window(self, monkeypatch, rate_cell):
        # Route indices and windows broadcast both ways: one index reads
        # every window, and one window every route.  An empty read builds
        # no joint-outcome tables.  At rate_cell=0.3 the mixture caps bind.
        params = SystemParams(rate_cell=rate_cell)
        ts = np.linspace(0.0, params.hop_dwell, 41)
        stack = _RouteStack(self._routes(), params)
        n = len(stack.routes)
        built = count_table_builds(monkeypatch)
        empty = stack.read([], [])
        assert built == []
        assert {name: v.shape for name, v in empty.items()} == {
            "latency": (0,), "rate_min_means": (0,), "hop_latency": (1, 0), "hop_rate": (1, 0), "rate_closed": (0,)
        }
        cases = [((j, ts), (np.full(len(ts), j), ts)) for j in range(n)]
        cases += [((np.arange(3), 8.0), (np.arange(3), np.full(3, 8.0)))]
        cases += [((np.arange(n), 8.0), (np.arange(n), np.full(n, 8.0)))]
        for (cols, windows), (ref_cols, ref_ts) in cases:
            one, ref = stack.read(cols, windows), stack.read(ref_cols, ref_ts)
            assert one.keys() == ref.keys()
            for name, values in ref.items():
                assert one[name].tobytes() == values.tobytes(), (cols, name)

    def test_a_long_read_holds_little_beyond_its_output(self, params, grid_routes):
        # A read takes its cells in blocks, so 2e5 windows of the stock
        # 8-hop route peak near the 30 MB they return.  Its rows are the
        # grid read's and the per-hop stage's, byte for byte.
        route = max(grid_routes, key=len)
        assert len(route) == 8
        ts = np.linspace(0.0, params.hop_dwell, 200_000)
        stack = _RouteStack([route], params)
        stack.read(0, 8.0)  # the joint-outcome tables, which every read shares
        tracemalloc.start()
        try:
            out = stack.read(0, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(v.nbytes for v in out.values())
        series = RouteEvaluator(route, params).series(ts)
        grid, hops = _RouteStack([route], params).grid(ts), stack.hops(0, ts)[2]
        for name, values in series.items():
            assert values.tobytes() == out[name].tobytes(), name
        for name in ("latency", "rate_closed"):
            assert series[name].tobytes() == grid[name][0].tobytes(), name
        for name in ("hop_latency", "hop_rate"):
            assert series[name].tobytes() == hops[name].tobytes(), name

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
        # Every cell of a grid read of all rows, routes and one-hop rows,
        # and of each route's ``series`` (one read at one route index),
        # reads the bits of a per-window read of that row at that window;
        # each distinct hop's one-hop row holds its per-window hop rows.
        for label, routes, params in self._grid_cases():
            stack = _RouteStack(routes, params)
            ts = _scan_grid(params).ts
            out = stack.grid(ts)
            assert out.keys() == {"latency", "rate_closed"}
            rows = len(out["latency"])
            assert out["rate_closed"].shape == (rows, len(ts)) and rows >= len(routes)
            for j in range(rows):
                ref = stack.read(np.full(len(ts), j), ts)
                for name in ("latency", "rate_closed"):
                    assert np.array_equal(out[name][j], ref[name]), (label, j, name)
            for j, view in enumerate(evaluators(stack)):
                ref = stack.read(np.full(len(ts), j), ts)
                one = view.series(ts)
                for name in ("latency", "rate_closed", "rate_min_means", "hop_latency", "hop_rate"):
                    assert np.array_equal(one[name], ref[name]), (label, j, name)
                hops = stack.hop_rows[columns(stack, j)]
                assert np.array_equal(out["latency"][hops], ref["hop_latency"][: len(hops)]), (label, j)
                assert np.array_equal(out["rate_closed"][hops], ref["hop_rate"][: len(hops)]), (label, j)

    def test_the_envelope_holds_every_per_window_read(self):
        # The envelope of each row, routes and one-hop rows, against one
        # per-window read per row over the scan grid: latency at its ends,
        # bit for bit, within an ulp of the grid's range; a rate range that
        # holds the row's readings there and on a 4001-window grid, and
        # exceeds them only by what those samples miss of a peak.  A
        # route's hops read their rates inside their one-hop rows' ranges.
        for label, routes, params in self._grid_cases():
            stack = _RouteStack(routes, params)
            out, grid = _read(stack, _scan_grid(params))
            ts = grid.ts
            assert (ts[0], ts[-1]) == (0.0, params.hop_dwell)
            dense = stack.grid(np.linspace(0.0, params.hop_dwell, 4001))
            scales = _envelope(stack, out, grid)
            assert scales.shape == (len(out["latency"]), 4)
            for j, (lat_min, lat_max, rate_min, rate_max) in enumerate(scales.tolist()):
                ref = stack.read(np.full(len(ts), j), ts)
                lat = ref["latency"]
                assert (lat_min, lat_max) == (lat[-1], lat[0]), (label, j)
                assert lat_min <= lat.min() and lat.max() <= lat_max * (1 + 1e-15), (label, j)
                rates = np.concatenate([ref["rate_closed"], dense["rate_closed"][j]])
                assert 0.0 <= rates.min() - rate_min < 1e-6, (label, j)
                assert 0.0 <= rate_max - rates.max() < 1e-6, (label, j)
                if j < len(routes):
                    for c, rates in zip(columns(stack, j), ref["hop_rate"]):
                        _, _, own_min, own_max = scales[stack.hop_rows[c]]
                        assert own_min <= rates.min() and rates.max() <= own_max, (label, j, c)

    def test_a_fold_walks_each_route_in_hop_order(self, params):
        # Row j of a fold is route j's hops' rows folded in hop order, the
        # same bits with or without the routes' columns named.
        routes = self._routes()
        stack = _RouteStack(routes, params)
        d = len(stack.distinct)
        rows = np.random.default_rng(5).uniform(0.5, 2.0, size=(d, 3))
        for op, pad in ((np.add, 0.0), (np.multiply, 1.0), (np.minimum, np.inf), (np.maximum, -np.inf)):
            out = stack.fold(rows, op, pad)
            assert out.shape == (len(routes), 3)
            for j, route in enumerate(routes):
                cols = columns(stack, j)
                named = [(stack.distinct[i].arrival_rate, stack.distinct[i].deg) for i in cols]
                assert named == [(h.arrival_rate, h.deg) for h in route.hops]
                ref = rows[cols[0]].copy()
                for i in cols[1:]:
                    op(ref, rows[i], out=ref)
                assert out[j].tobytes() == ref.tobytes(), (op, j)
                assert stack.fold(rows, op, pad, [j])[0].tobytes() == ref.tobytes(), (op, j)

    def test_a_gather_lays_each_route_end_to_end_in_hop_order(self, params):
        routes = self._routes()
        stack = _RouteStack(routes, params)
        rows = np.random.default_rng(6).uniform(0.5, 2.0, size=(len(stack.distinct), 3))
        out = stack.gather(rows)
        ref = np.concatenate([rows[columns(stack, j)] for j in range(len(routes))])
        assert out.shape == (sum(len(r.hops) for r in routes), 3) and out.tobytes() == ref.tobytes()

    def test_the_joint_tables_are_kept_per_hop_count(self):
        # The geometric-max tables depend on the hop count alone, so 4x4
        # seed 2 at trial_time=0.005 (184 routes of 6 to 14 hops, 4000
        # trials a window) keeps one column per hop count: under 1 MB, where
        # one column per route kept 5.92 MB.
        scenario = build_grid_scenario(rows=4, cols=4, seed=2)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        params = dataclasses.replace(scenario.params, trial_time=0.005)
        stack = _RouteStack(routes, params)
        _RouteStack(routes[:1], params)._tables  # whatever a first build imports is not kept by the tables
        tracemalloc.start()
        try:
            tables = stack._tables
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(routes) == 184 and tables.leftover.shape == (4001, 15)
        assert kept < 1 << 20


class TestTrialJumps:
    """Past trial L, the row count of the geometric-max table, a reading
    moves with the trial count m only through the all-fail chance
    theta = (1 - p)^m, which drops by at most (1 - p)^L p at an edge.  Each
    hop's miss chance z moves by (1 - exp(-lam t)) times that, so a route's
    latency jumps by at most that times sum_h (1 - 1/deg)(T + 1/lam), and
    its rate, whose joint-outcome weights and leftover mass each move by at
    most k times it, by at most that times k (rate_v2v + rate_cell +
    2 max(rate_v2i, rate_cell)); the scan grid's tail rests on that."""

    @pytest.mark.parametrize(
        "override, L",
        [({}, 7), ({"decode_error": 0.3}, 53), ({"decode_error": 0.0}, 1), ({"trial_time": 0.005}, 7)],
    )
    def test_a_jump_past_L_stays_below_its_bound(self, monkeypatch, override, L):
        scenario = build_grid_scenario(seed=0)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        routes += [Route(hops=(Hop(0.12, 3, rsu_id="solo"),)), Route(hops=(Hop(0.1, 1, "f0"), Hop(0.2, 1, "f1")))]
        params = dataclasses.replace(scenario.params, **override)
        T, dt = params.hop_dwell, params.trial_time
        assert closedform._pmf_rows(params, max_trials(T, dt)) == L
        edges = np.arange(L + 1, max_trials(T, dt) + 1) * dt
        assert len(edges) > 100
        stack = _RouteStack(routes, params)
        right = stack.grid(edges)
        # Routes, then the one-hop rows of the hops that no one-hop route reads.
        rows = len(right["latency"])
        ks = np.array([len(r.hops) for r in routes] + [1] * (rows - len(routes)))
        # The left limit at an edge: the same window, one trial fewer.
        windows = closedform._windows
        with monkeypatch.context() as m:
            m.setattr(closedform, "_windows", lambda ts, p: (lambda t, n: (t, n - 1))(*windows(ts, p)))
            left = stack.grid(edges)
        q = 1.0 - params.decode_ok_pair
        lam, deg = (np.array(x) for x in zip(*[(h.arrival_rate, h.deg) for h in stack.distinct]))
        sensitivity = {
            "latency": stack.fold((1.0 - 1.0 / deg) * (T + 1.0 / lam), np.add, 0.0, np.arange(rows)),
            "rate_closed": ks * (params.rate_v2v + params.rate_cell + 2.0 * max(params.rate_v2i, params.rate_cell)),
        }
        assert sorted(set(stack.hop_rows.tolist()) | set(range(len(routes)))) == list(range(rows))
        for name, scale in sensitivity.items():
            jump = np.abs(right[name] - left[name])
            # The reading's own rounding, four ulps, comes on top.
            bound = q**L * scale[:, None] + 4.0 * np.spacing(np.abs(right[name]))
            assert (jump <= bound).all(), name
            if q == 0.0:
                assert not jump.any(), name


class TestMixtureTable:
    """The Hermite table's J(c) = integral of W over [0, c] against adaptive
    quadrature of W itself, W(v) = prod_h (1 - exp(-lam_h 2T(1 - v)/v))."""

    @staticmethod
    def _survival(lam, T):
        def W(v):
            return 1.0 if v <= 0.0 else float(np.prod(-np.expm1(-lam * 2.0 * T * (1.0 - v) / v)))

        return W

    @staticmethod
    def _rates(kind, k, rng):
        return {
            "slow": lambda: np.full(k, 0.01),
            "fast": lambda: np.full(k, 2.0),
            "spread": lambda: np.geomspace(0.01, 2.0, k),
            "random": lambda: rng.uniform(0.01, 2.0, k),
        }[kind]()

    @pytest.mark.parametrize("k", [2, 8, 14])
    @pytest.mark.parametrize("rates", ["slow", "fast", "spread", "random"])
    def test_integral_matches_quadrature(self, params, k, rates):
        T = params.hop_dwell
        rng = np.random.default_rng(69)
        lam = self._rates(rates, k, rng)
        n = _TABLE_INTERVALS
        nodes = np.arange(0, n + 1, 40) / n
        mids = (np.arange(0, n, 40) + 0.5) / n
        near_one = 1.0 - np.arange(1, 21) / (3 * n)  # where fast rates make W steep
        cs = np.unique(np.concatenate([[0.0, 1.0], nodes, mids, near_one, rng.uniform(0.0, 1.0, 40)]))
        assert len(cs) >= 200
        got = _mixture_integral(table_alone(lam, T), np.zeros(1, dtype=np.intp), cs)
        # Quadrature piece by piece between consecutive points, summed exactly.
        W = self._survival(lam, T)
        pieces = [integrate.quad(W, a, b, epsabs=1e-15, epsrel=0.0, limit=200)[0] for a, b in zip(cs[:-1], cs[1:])]
        want = np.array([math.fsum(pieces[:i]) for i in range(len(cs))])
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("k", [2, 8, 14, 24])
    @pytest.mark.parametrize("rates", ["slow", "fast", "spread", "random"])
    def test_totals_read_j1_of_quadrature(self, params, k, rates):
        # J(1) as the Hermite rule's total, one sum over the nodes, against
        # quadrature of W piece by piece; the node sums raise no warning.
        T = params.hop_dwell
        lam = self._rates(rates, k, np.random.default_rng(73))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j1, _ = totals_alone(lam, T)
        n = _TABLE_INTERVALS
        edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), 1.0 - np.arange(1, 21) / (3 * n)]))
        W = self._survival(lam, T)
        pieces = [integrate.quad(W, a, b, epsabs=1e-15, epsrel=0.0, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])]
        assert abs(j1 - math.fsum(pieces)) <= 1e-14

    @pytest.mark.parametrize("T", [5.0, 20.0])
    @pytest.mark.parametrize("rates", ["slow", "fast", "spread", "random"])
    def test_totals_read_exp_max_wait_within_8_ulps_of_inclusion_exclusion(self, T, rates):
        # E[max wait] by the trapezoid rule and its end terms, against the
        # exact mean in rationals, sum over nonempty hop sets S of
        # (-1)^(|S|+1) / sum_S lam, for 2 to 12 hops.
        lams = [self._rates(rates, k, np.random.default_rng(76 + k)) for k in range(2, 13)]
        assert max(self._exp_max_ulps(lams, T)) <= 8.0

    @pytest.mark.parametrize("T, interval", [(20.0, (2.0, 4.0)), (60.0, (0.01, 2.0)), (60.0, (2.0, 2.0))])
    def test_totals_read_exp_max_wait_within_16_ulps_in_fast_traffic(self, T, interval):
        # Where 2T lam reaches 160 to 240, the end terms in h^8 and h^10
        # count: without them the totals of 6 to 9 hops drift by hundreds
        # to thousands of ulps.
        lams = [np.random.default_rng(78 + k).uniform(*interval, k) for k in range(2, 13)]
        assert max(self._exp_max_ulps(lams, T)) <= 16.0

    @staticmethod
    def _exp_max_ulps(lams, T) -> list[float]:
        """Each route's E[max wait] off its exact mean, in ulps of the mean."""
        ulps = []
        for lam in lams:
            _, wait_max = totals_alone(lam, T)
            exact = _exact_expected_max(tuple(lam.tolist()))
            ulps.append(float(abs(Fraction(wait_max) - exact) / Fraction(np.spacing(float(exact)))))
        return ulps

    @pytest.mark.parametrize("k", [2, 14])
    @pytest.mark.parametrize("interval", [(0.05, 0.3), (2.0, 4.0)])
    def test_tables_keep_the_bits_of_the_walk_that_took_m_and_q(self, params, k, interval):
        # The mixture table of a stock and a fast route against a reference
        # that folds W, A and B hop by hop, takes m and q from them at the
        # nodes as the walk took them before the totals moved to their own
        # rule, and assembles the Hermite table: byte for byte.
        T, n = params.hop_dwell, _TABLE_INTERVALS
        lam = np.random.default_rng(77).uniform(*interval, k).tolist()
        v = np.arange(1, n) / n
        wait, dwait = 2.0 * T * (1.0 - v) / v, -2.0 * T / v**2
        W, A, B = np.ones(n - 1), np.zeros(n - 1), np.zeros(n - 1)
        for mu in lam:
            with np.errstate(over="ignore"):
                a = mu / np.expm1(mu * wait)
            W, A, B = W / (1.0 + a / mu), A + a, B + a * (a + mu)
        m = W * A * dwait / n
        q = W * ((A * A - B) * dwait**2 - 2.0 * A * dwait / v) / n**2
        q_end = 8.0 * T * T * lam[0] * lam[1] / n**2 if k == 2 else 0.0
        W = np.concatenate([[1.0], W, [0.0]])
        m = np.concatenate([[0.0], m, [0.0]])
        q = np.concatenate([[0.0], q, [q_end]])
        area = 0.5 * (W[:-1] + W[1:]) + (m[:-1] - m[1:]) / 10.0 + (q[:-1] + q[1:]) / 120.0
        inside = np.cumsum((area / n).reshape(-1, 80), axis=1)
        before = np.concatenate([[0.0], np.cumsum(inside[:-1, -1])])
        y0, y1, m0, m1, q0, q1 = W[:-1], W[1:], m[:-1], m[1:], q[:-1], q[1:]
        rise = y1 - y0
        want = np.array(
            [
                np.concatenate([[0.0], (before[:, None] + inside).ravel()[:-1]]),
                y0 / n,
                m0 / (2 * n),
                q0 / (6 * n),
                (10.0 * rise - 6.0 * m0 - 4.0 * m1 - 1.5 * q0 + 0.5 * q1) / (4 * n),
                (-15.0 * rise + 8.0 * m0 + 7.0 * m1 + 1.5 * q0 - q1) / (5 * n),
                (6.0 * rise - 3.0 * m0 - 3.0 * m1 - 0.5 * q0 + 0.5 * q1) / (6 * n),
            ]
        )
        assert table_alone(lam, T).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [2, 3])
    def test_the_totals_keep_their_bits_with_node_rows_taken_once(self, seed):
        # The w' row is taken once a walk, and the end terms once for every
        # route walked; each route's J(1) and E[max wait] read the bits of
        # the trapezoid sums over its own W row, folded alone, with g =
        # 2T(1 - W)/v^2 taken per route, plus its own end terms alone.
        def totals_per_route(lam, T):
            n = _TABLE_INTERVALS
            (W,) = fold_alone(lam, T, 1)
            v = np.arange(1, n) / n
            g = 2.0 * T / v**2 * (1.0 - W)
            ends = closedform._end_terms([lam], T)[:, 0]
            return float((0.5 + W.sum() + ends[0]) / n), float((g.sum() + T + ends[1]) / n)

        scenario = build_grid_scenario(rows=4, cols=4, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        stack = _RouteStack(routes, scenario.params)
        T = scenario.params.hop_dwell
        mixed = np.flatnonzero(stack.mixed).tolist()
        ref = np.array([totals_per_route([h.arrival_rate for h in routes[j].hops], T) for j in mixed])
        assert len(mixed) > 100 and min(len(routes[j].hops) for j in mixed) < closedform._END_TERMS
        assert stack._tables.j1[mixed].tobytes() == ref[:, 0].tobytes()
        assert stack._tables.exp_max_wait[mixed].tobytes() == ref[:, 1].tobytes()

    @staticmethod
    def _reads_each_route_alone(routes, params):
        # The stack's walk gives every route the bits of a stack of that
        # route alone: J(1), E[max wait] and, where a cap binds, its table.
        stack = _RouteStack(routes, params)
        tables, mixture, n = stack._tables, stack._mixture, _TABLE_INTERVALS
        alone = [_RouteStack([route], params) for route in routes]
        for name in ("j1", "exp_max_wait"):
            assert np.array_equal(getattr(tables, name), [getattr(a._tables, name)[0] for a in alone]), name
        for j in np.flatnonzero(stack.mixed).tolist():
            first = tables.first[j]
            assert np.array_equal(mixture[:, first : first + n], alone[j]._mixture), j

    @pytest.mark.parametrize("size, seed", [(3, 0), (4, 2)])
    @pytest.mark.parametrize("order", ["enumeration", "reversed", "shuffled"])
    def test_the_walk_reads_each_route_alone(self, size, seed, order):
        # Any order of routes reads the same bits; depth-first order, as
        # enumeration gives it, shares the most folds.
        scenario = build_grid_scenario(rows=size, cols=size, seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        if order == "reversed":
            routes = routes[::-1]
        elif order == "shuffled":
            routes = [routes[i] for i in np.random.default_rng(74).permutation(len(routes))]
        self._reads_each_route_alone(routes, dataclasses.replace(scenario.params, rate_cell=0.3))

    def test_routes_sharing_rates_but_not_degrees_share_folds(self, monkeypatch):
        # The walk keys on arrival rates alone: routes whose hops share a
        # rate prefix but not their degrees share its folds, and a route
        # whose rates repeat the route before it folds nothing, whether the
        # route after it shares all of them or none.  An all-forward route
        # and a one-hop route are not walked.
        routes = [
            Route(hops=(Hop(0.1, 2), Hop(0.2, 3), Hop(0.15, 2))),
            Route(hops=(Hop(0.1, 3), Hop(0.2, 2), Hop(0.3, 2))),  # shares 2 rates: 1 fold
            Route(hops=(Hop(0.1, 1), Hop(0.2, 1))),  # all forward
            Route(hops=(Hop(0.1, 2), Hop(0.2, 2))),  # a prefix: no fold
            Route(hops=(Hop(0.25, 3),)),  # one hop
            Route(hops=(Hop(0.1, 3), Hop(0.2, 3))),  # the same rates again: no fold
            Route(hops=(Hop(0.1, 2), Hop(0.2, 2), Hop(0.15, 3), Hop(0.25, 2))),  # 2 folds
            Route(hops=(Hop(0.1, 3), Hop(0.2, 2), Hop(0.15, 2), Hop(0.25, 3))),  # the same rates, last
        ]
        params = SystemParams(rate_cell=0.3)
        built = count_table_builds(monkeypatch)
        _RouteStack(routes, params)._tables
        assert built == ["_node_walk", *["_fold_hop"] * 6]
        monkeypatch.undo()
        self._reads_each_route_alone(routes, params)

    def test_table_rows_join_up(self, params):
        # Each row read at s = 1 lands on the next row's J.
        table = table_alone([0.05, 0.3, 2.0], params.hop_dwell)
        ends = table[0] + table[1:].sum(axis=0)
        np.testing.assert_allclose(ends[:-1], table[0, 1:], rtol=0.0, atol=1e-15)
        assert table[0, 0] == 0.0

    @pytest.mark.parametrize("rate_cell, tables", [(1.0, 0), (0.3, 3)])
    def test_a_stack_holds_one_copy_its_routes_read(self, monkeypatch, rate_cell, tables):
        # A stack computes its mixed routes' J(1) and E[max wait] once, in
        # one node walk that folds their 2 + 5 + 9 hops (no two share a
        # rate), on the first read that needs them, and every view reads
        # them.  The mixture tables wait for the first read where a cap
        # binds (none does at stock; at rate_cell=0.3 the cellular cap binds
        # at t = 8), and are then built once, side by side in one array,
        # from one more walk.
        params = SystemParams(rate_cell=rate_cell)
        rng = np.random.default_rng(70)
        routes = [make_route(rng, k=k) for k in (2, 5, 9)]
        routes.insert(1, Route(hops=(Hop(0.12, 3, rsu_id="solo"),)))
        before = RouteEvaluator(routes[2], params).rate_closed(8.0)  # its own stack's tables
        built = count_table_builds(monkeypatch)
        stack = _RouteStack(routes, params)
        views = evaluators(stack)
        assert views[2].rate_closed(8.0) == before
        want = ["_node_walk"] + ["_fold_hop"] * 16
        if tables:  # each table is built as the walk reaches its route
            want += ["_node_walk"] + [name for k in (2, 5, 9) for name in ["_fold_hop"] * k + ["_mixture_table"]]
        assert built == want
        for view in views:
            view.series(np.linspace(0.0, params.hop_dwell, 11))
        assert built == want
        assert ("_mixture" in vars(stack)) == (tables > 0)
        if tables:
            mixture = stack._mixture
            assert mixture.shape == (_TABLE_COLUMNS, 3 * _TABLE_INTERVALS)
            for row, j in enumerate((0, 2, 3)):
                lam = np.array([h.arrival_rate for h in routes[j].hops])
                part = mixture[:, row * _TABLE_INTERVALS : (row + 1) * _TABLE_INTERVALS]
                assert part.tobytes() == table_alone(lam, params.hop_dwell).tobytes()
                assert stack._tables.first[j] == row * _TABLE_INTERVALS
            assert stack._tables.first[1] == 0

    def test_a_stack_reads_j1_as_the_table_reads_c_1(self, monkeypatch):
        # Every mixture row capped at c = 1 reads its route's J(1), as a free
        # cell does, bit for bit, and not the table at c = 1; also where
        # routes share hops and so share their factors.  At rate_cell=0.3
        # alone every binding cap is the cellular one and no row reaches 1;
        # the slow V2V link makes the success cap bind where the cellular
        # one reaches the fallback supremum (t >= 15), and there the
        # leftover row and the small trial counts read c = 1.
        params = SystemParams(rate_cell=0.3, rate_v2v=0.2)
        T, n = params.hop_dwell, _TABLE_INTERVALS
        rng = np.random.default_rng(72)
        hops = make_route(rng, k=14).hops
        routes = [Route(hops=hops[:2]), Route(hops=hops[3:11]), Route(hops=hops), Route(hops=hops[5:7])]
        ts, ms = model._windows(np.tile(np.linspace(0.0, T, 400), len(routes)), params)
        cols = np.repeat(np.arange(len(routes)), 400)
        none = np.zeros(len(ts))  # p_as = p_af = 0: the mixture rate alone
        late = params.rate_cell >= (params.rate_v2i * (T - ts) + params.rate_cell * ts) / (2.0 * T)
        assert 0 < np.count_nonzero(late) < len(ts)
        stack, blind = _RouteStack(routes, params), _RouteStack(routes, params)
        want = stack._mixed_rate(cols, ts, ms, none, none)
        # Each route's last table interval, which a read at c = 1 takes, is
        # NaN in the blind stack: every cell keeps its bits.
        reads = []
        read = closedform._mixture_integral
        monkeypatch.setattr(closedform, "_mixture_integral", lambda t, f, c: reads.append(c.ravel()) or read(t, f, c))
        blind._mixture = stack._mixture.copy()
        blind._mixture[:, n - 1 :: n] = np.nan
        assert blind._mixed_rate(cols, ts, ms, none, none).tobytes() == want.tobytes()
        caps = np.concatenate(reads)
        assert np.count_nonzero(caps == 1.0) > 100
        assert not np.any((caps >= 1.0 - 1.0 / n) & (caps < 1.0))  # no other read takes the last interval
        # With J(1) NaN, exactly the cells from t = 15 on, free or binding,
        # turn NaN, and the rest keep their bits.
        blind._tables = dataclasses.replace(stack._tables, j1=np.full(len(routes), np.nan))
        got = blind._mixed_rate(cols, ts, ms, none, none)
        assert np.array_equal(np.isnan(got), late)
        assert got[~late].tobytes() == want[~late].tobytes()
        for j, route in enumerate(routes):
            # The table's running sum lands within a few ulp of the rule's total.
            lam = np.array([h.arrival_rate for h in route.hops])
            j1 = stack._tables.j1[j]
            table = _mixture_integral(table_alone(lam, T), np.zeros(1, dtype=np.intp), np.ones(1))
            assert abs(table[0] - j1) <= 4 * np.spacing(j1), len(lam)


class TestKeptTotals:
    """J(1) and E[max wait] are kept by (dwell, hop-ordered arrival rates)
    in ``closedform._TOTALS``: a table build walks only the sequences it
    does not hold, and leaves it holding exactly its own."""

    @staticmethod
    def _sequences(routes, T):
        return {(T, tuple(h.arrival_rate for h in r.hops)) for r in routes if is_mixed(r)}

    def test_a_new_dwell_or_reversed_rates_walk_again(self, monkeypatch, params):
        # The key is the dwell and the rates in hop order: the same rates
        # again fold nothing, even on other degrees, and a new dwell or the
        # rates reversed walk again.  Every total is the float of a cold walk.
        lam = (0.1, 0.2, 0.15, 0.25)
        route = Route(hops=tuple(Hop(mu, 2) for mu in lam))
        built = count_table_builds(monkeypatch)
        first = _RouteStack([route], params)._tables
        assert built == ["_node_walk", *["_fold_hop"] * 4]
        del built[:]
        again = _RouteStack([Route(hops=tuple(Hop(mu, 3) for mu in lam))], params)._tables
        assert built == []
        assert (again.j1.tobytes(), again.exp_max_wait.tobytes()) == (first.j1.tobytes(), first.exp_max_wait.tobytes())
        longer = dataclasses.replace(params, hop_dwell=25.0)
        cases = [(route, longer, lam), (Route(hops=route.hops[::-1]), params, lam[::-1])]
        for other, other_params, rates in cases:
            del built[:]
            tables = _RouteStack([other], other_params)._tables
            assert built == ["_node_walk", *["_fold_hop"] * 4]
            T = other_params.hop_dwell
            cold = totals_alone(rates, T)
            assert (tables.j1[0], tables.exp_max_wait[0]) == cold

    def test_the_dict_holds_exactly_the_last_walking_builds_sequences(self, monkeypatch, params, grid_routes):
        # A build that walks leaves its own distinct sequences, and one that
        # walks nothing leaves the dict as it was; the dict is filled in
        # place, never rebound.
        kept = closedform._TOTALS
        built = count_table_builds(monkeypatch)
        T = params.hop_dwell
        _RouteStack(grid_routes, params)._tables
        assert kept.keys() == self._sequences(grid_routes, T)
        before = dict(kept)
        del built[:]
        _RouteStack(grid_routes[3:7], params)._tables  # every sequence held: no walk
        assert built == [] and kept == before
        rng = np.random.default_rng(75)
        fresh = [make_route(rng, k=3), grid_routes[5], make_route(rng, k=2), grid_routes[5]]
        _RouteStack(fresh, params)._tables
        assert built.count("_node_walk") == 1
        assert kept.keys() == self._sequences(fresh, T) and len(kept) == 3
        assert closedform._TOTALS is kept


def test_joint_rate_sits_below_the_bottleneck_of_means(params, grid_routes):
    """The joint-outcome average weighs in slow scenarios that the per-hop
    bottleneck reading ignores, so it reads systematically lower."""
    route = grid_routes[0]
    for t in (4.0, 8.0, 16.0):
        assert e2e_rate_closed(route, t, params) < min(
            expected_hop_rate(h, t, params) for h in route.hops
        )
