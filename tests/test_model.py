"""Unit tests of the per-hop branch model and its latency/rate expectations."""

import dataclasses
import math

import numpy as np
import pytest

from support import make_route, window_grid
from v2xdelivery import (
    Hop,
    RegimeWarning,
    Route,
    RouteEvaluator,
    SimConfig,
    SystemParams,
    build_normalization,
    e2e_latency_closed,
    e2e_rate_closed,
    e2e_rate_min_of_means,
    expected_hop_latency,
    expected_hop_rate,
    kkt_stationarity_check,
    max_trials,
    p_courier_forward,
    p_failure,
    p_success,
    physical_branch_probs,
    rate_decomposition,
    simulate_route,
    sweep_windows,
)
from v2xdelivery.model import _windows, expected_e2e_latency, mean_rates


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hop_dwell": 0.0},
            {"hop_dwell": -1.0},
            {"trial_time": 0.0},
            {"trial_time": 25.0},  # longer than the dwell
            {"decode_error": 1.0},
            {"decode_error": -0.1},
            {"rate_v2v": -1.0},
            {"weight": 1.5},
            # Non-finite values, which every range check above lets through
            # somewhere: NaN rates compare as non-negative, inf dwells pass
            # "positive".
            {"hop_dwell": math.inf},
            {"hop_dwell": math.nan},
            {"trial_time": math.nan},
            {"decode_error": math.nan},
            {"rate_v2v": math.nan},
            {"rate_v2v": math.inf},
            {"rate_v2i": math.nan},
            {"rate_v2i": math.inf},
            {"rate_cell": math.nan},
            {"rate_cell": math.inf},
            {"weight": math.nan},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_integer_params_are_stored_as_floats(self):
        # An int rate_cell once filled an int64 simulator buffer.
        p = SystemParams(hop_dwell=20, rate_v2v=2, rate_cell=1, weight=0)
        assert all(type(v) is float for v in vars(p).values())
        assert repr(p) == repr(SystemParams(hop_dwell=20.0, rate_v2v=2.0, rate_cell=1.0, weight=0.0))

    @pytest.mark.parametrize("name, value", [("weight", True), ("rate_cell", False), ("hop_dwell", "20")])
    def test_non_numbers_are_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            SystemParams(**{name: value})

    @pytest.mark.parametrize(
        "kwargs",
        [{"arrival_rate": 0.0}, {"arrival_rate": -0.1}, {"arrival_rate": math.inf}, {"arrival_rate": math.nan}],
    )
    def test_bad_arrival_rate_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hop(deg=2, **kwargs)

    # True is an int subclass: a YAML "deg: true" must not read as 1.
    @pytest.mark.parametrize("deg", [0, -1, 1.5, True])
    def test_bad_deg_rejected(self, deg):
        with pytest.raises(ValueError):
            Hop(arrival_rate=0.1, deg=deg)

    # Each bad input is a ValueError naming its field, not a TypeError.
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"arrival_rate": True, "deg": 2}, "arrival_rate"),
            ({"arrival_rate": "0.1", "deg": 2}, "arrival_rate"),
            ({"arrival_rate": None, "deg": 2}, "arrival_rate"),
            ({"arrival_rate": 0.1, "deg": "2"}, "deg"),
            ({"arrival_rate": 0.1, "deg": 2.0}, "deg"),
            ({"arrival_rate": 0.1, "deg": np.bool_(True)}, "deg"),
        ],
    )
    def test_bad_hop_input_is_named(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            Hop(**kwargs)

    def test_hop_stores_a_float_rate_and_an_int_degree(self):
        hop = Hop(np.float32(0.25), np.int64(2))
        assert type(hop.arrival_rate) is float and hop.arrival_rate == 0.25
        assert type(hop.deg) is int and hop.deg == 2
        assert hop == Hop(0.25, 2) and hash(hop) == hash(Hop(0.25, 2))
        assert type(Hop(1, 3).arrival_rate) is float

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            Route(hops=())

    def test_route_revisiting_an_rsu_rejected(self):
        hop = Hop(arrival_rate=0.1, deg=2, rsu_id="x")
        with pytest.raises(ValueError, match="loop-free"):
            Route(hops=(hop, hop))

    # NaN fails every comparison: it must fail the window check itself, not
    # a float-to-int conversion further on.
    @pytest.mark.parametrize("t", [-0.5, 20.1, math.nan, math.inf, -math.inf])
    def test_window_outside_dwell_rejected(self, params, t):
        for reading in (p_success, p_failure, expected_hop_latency, expected_hop_rate):
            with pytest.raises(ValueError, match=r"discovery window t must lie in \[0, hop_dwell\]"):
                reading(Hop(0.1, 2), t, params)

    def test_decode_ok_pair(self, params):
        assert params.decode_ok_pair == pytest.approx((1.0 - 1e-3) ** 2, abs=0.0)


class TestMaxTrials:
    def test_exact_multiples_not_truncated(self):
        # 8.0 / 0.1 lands a hair below 80 in binary floats.
        assert max_trials(8.0, 0.1) == 80
        assert max_trials(20.0, 0.1) == 200
        assert max_trials(7.0, 0.7) == 10

    def test_partial_trials_dropped(self):
        assert max_trials(0.05, 0.1) == 0
        assert max_trials(0.19, 0.1) == 1
        assert max_trials(0.0, 0.1) == 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            max_trials(-1.0, 0.1)

    def test_nan_window_rejected(self):
        # Not "cannot convert float NaN to integer" from deep inside.
        with pytest.raises(ValueError, match="t must be non-negative"):
            max_trials(math.nan, 0.1)

    @pytest.mark.parametrize("t, trial_time", [(math.inf, 0.1), (1e308, 1e-10)])
    def test_non_finite_trial_count_rejected(self, t, trial_time):
        # Not "cannot convert float infinity to integer" from deep inside.
        with pytest.raises(ValueError, match="t / trial_time must be finite"):
            max_trials(t, trial_time)


class TestWindowRule:
    """Every entry point reads its windows through the one rule in
    ``model._windows``: a window up to hop_dwell * (1 + 1e-12) reads as
    hop_dwell, and anything else outside [0, hop_dwell] is rejected."""

    MESSAGE = r"discovery window t must lie in \[0, hop_dwell\]"

    @staticmethod
    def _readings(routes, params):
        route, hop = routes[0], routes[0].hops[0]
        ev = RouteEvaluator(route, params)
        context = build_normalization(routes, params)
        config = SimConfig(snapshots=200, seed=1)
        per_hop = lambda t: [1.0] * (len(route) - 1) + [t]
        return {
            "p_success": lambda t: p_success(hop, t, params),
            "mean_rates": lambda t: mean_rates(hop, t, params),
            "e2e_latency_closed": lambda t: e2e_latency_closed(route, t, params),
            "e2e_rate_closed": lambda t: e2e_rate_closed(route, t, params),
            "rate_decomposition": lambda t: rate_decomposition(route, t, params),
            "evaluator.latency": ev.latency,
            "evaluator.rate_closed": ev.rate_closed,
            "evaluator.rate_min_of_means": ev.rate_min_of_means,
            "evaluator.hop_latencies": ev.hop_latencies,
            "evaluator.hop_rates": ev.hop_rates,
            "evaluator.series": lambda t: ev.series([t]),
            "simulate_route": lambda t: simulate_route(route, t, params, config),
            "simulate_route per hop": lambda t: simulate_route(route, per_hop(t), params, config),
            "sweep_windows": lambda t: sweep_windows(route, [3.0, per_hop(t), t], params, config),
            "physical_branch_probs": lambda t: physical_branch_probs(hop, t, params),
            "kkt_stationarity_check": lambda t: kkt_stationarity_check(ev, t, context, 0.5),
        }

    @staticmethod
    def _bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if dataclasses.is_dataclass(value):
            value = [getattr(value, f.name) for f in dataclasses.fields(value)]
        if isinstance(value, dict):
            return {key: TestWindowRule._bits(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [TestWindowRule._bits(v) for v in value]
        return repr(value)

    def test_every_entry_point_reads_the_one_rule(self, params, grid_routes):
        T = params.hop_dwell
        for name, reading in self._readings(grid_routes, params).items():
            assert self._bits(reading(T * (1 + 5e-13))) == self._bits(reading(T)), name
            for t in (T * (1 + 2e-12), -1e-300):
                with pytest.raises(ValueError, match=self.MESSAGE):
                    reading(t)
            # The simulator names a non-finite window before the range.
            for t in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{self.MESSAGE}|windows must be finite"):
                    reading(t)

    @pytest.mark.parametrize("trial_time", [0.1, 0.02, 0.3])
    def test_trial_counts_match_max_trials(self, trial_time):
        params = SystemParams(trial_time=trial_time)
        ts = np.linspace(0.0, params.hop_dwell, 200_001)
        windows, counts = _windows(ts, params)
        assert windows.tobytes() == ts.tobytes()
        assert counts.tolist() == [max_trials(t, trial_time) for t in ts.tolist()]


@pytest.mark.parametrize("lam", [0.05, 0.12, 0.3])
@pytest.mark.parametrize("deg", [1, 2, 3])
@pytest.mark.parametrize("t", [0.0, 0.1, 3.7, 10.0, 20.0])
def test_branch_probabilities_sum_to_one(params, lam, deg, t):
    hop = Hop(lam, deg)
    total = p_courier_forward(hop) + p_success(hop, t, params) + p_failure(hop, t, params)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= p_success(hop, t, params) < 1.0
    assert 0.0 <= p_failure(hop, t, params) <= 1.0


def test_success_probability_monotone_in_window(params):
    hop = Hop(0.1, 3)
    grid = window_grid(params, 300)
    vals = [p_success(hop, t, params) for t in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_success_probability_monotone_in_arrival_rate(params):
    for t in (0.5, 5.0, 20.0):
        vals = [p_success(Hop(lam, 2), t, params) for lam in (0.05, 0.1, 0.2, 0.3)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_success_probability_decreases_with_decode_error():
    hop = Hop(0.1, 2)
    vals = [
        p_success(hop, 10.0, SystemParams(decode_error=eps))
        for eps in (0.0, 1e-3, 0.1, 0.5, 0.9)
    ]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_always_forwarding_hop_is_deterministic(params):
    hop = Hop(0.1, 1)
    assert p_courier_forward(hop) == 1.0
    for t in (0.0, 10.0, 20.0):
        assert p_success(hop, t, params) == 0.0
        assert p_failure(hop, t, params) == 0.0
        assert expected_hop_latency(hop, t, params) == params.hop_dwell
        assert expected_hop_rate(hop, t, params) == params.rate_cell


def test_hop_latency_bounds_and_monotonicity(params):
    hop = Hop(0.08, 3)
    grid = window_grid(params, 300)
    T = params.hop_dwell
    vals = [expected_hop_latency(hop, t, params) for t in grid]
    assert all(T <= v <= 2 * T + 1.0 / hop.arrival_rate for v in vals)
    # A longer window can only lower the chance of the costly fallback.
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_hop_rate_stays_in_physical_envelope(params):
    cap = max(params.rate_cell, params.rate_v2v + params.rate_cell, params.rate_v2i)
    rng = np.random.default_rng(7)
    for _ in range(20):
        hop = Hop(float(rng.uniform(0.05, 0.3)), int(rng.choice([1, 2, 3])))
        for t in (0.0, 1.3, 10.0, 20.0):
            assert 0.0 <= expected_hop_rate(hop, t, params) <= cap


def test_mean_rates_warn_when_wait_exceeds_dwell(params):
    # 1 / 0.04 = 25 s of expected candidate wait against a 20 s dwell.
    with pytest.warns(RegimeWarning):
        mean_rates(Hop(0.04, 2), 5.0, params)
    with pytest.warns(RegimeWarning):
        expected_hop_rate(Hop(0.04, 2), 5.0, params)


def test_branch_probabilities_and_latency_match_sampling(params):
    """Monte Carlo oracle: resample the three branch events from scratch."""
    hop = Hop(0.1, 2)
    t = 10.0
    n = 1_000_000
    rng = np.random.default_rng(1234)
    m = max_trials(t, params.trial_time)
    fwd = rng.random(n) < p_courier_forward(hop)
    arrival = rng.exponential(1.0 / hop.arrival_rate, n)
    first_ok = rng.geometric(params.decode_ok_pair, n)
    succ = ~fwd & (arrival <= t) & (first_ok <= m)
    fail = ~fwd & ~succ
    wait = rng.exponential(1.0 / hop.arrival_rate, n)
    T = params.hop_dwell
    lat = np.where(fail, 2.0 * T + wait, T)

    for flag, p in ((fwd, p_courier_forward(hop)), (succ, p_success(hop, t, params)), (fail, p_failure(hop, t, params))):
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(flag.mean() - p) <= 4.0 * se
    se_lat = lat.std(ddof=1) / math.sqrt(n)
    assert abs(lat.mean() - expected_hop_latency(hop, t, params)) <= 4.0 * se_lat


def test_route_level_values_aggregate_hop_values(params):
    rng = np.random.default_rng(42)
    for _ in range(5):
        route = make_route(rng)
        for t in (0.0, 4.2, 20.0):
            lat = sum(expected_hop_latency(h, t, params) for h in route.hops)
            assert expected_e2e_latency(route, t, params) == pytest.approx(lat, abs=0.0)
            rate = min(expected_hop_rate(h, t, params) for h in route.hops)
            assert e2e_rate_min_of_means(route, t, params) == pytest.approx(rate, abs=0.0)


def test_min_of_means_picks_the_congested_hop(params):
    fast = Hop(0.3, 2, rsu_id="a")
    slow = Hop(0.05, 2, rsu_id="b")
    route = Route(hops=(fast, slow), nodes=("0", "1", "2"))
    t = 10.0
    assert e2e_rate_min_of_means(route, t, params) == pytest.approx(
        expected_hop_rate(slow, t, params)
    )
