"""Per-hop probabilistic model of store-carry-forward data delivery.

A data packet rides a courier vehicle along a route of road segments (hops).
While crossing a hop the courier probes for a candidate vehicle that is about
to turn into the next hop; the probing budget is the first ``t`` seconds of
the hop dwell time.  Three things can happen on every hop:

* the courier itself already heads to the next hop and simply carries the
  packet onward (``CourierForward``),
* a candidate shows up and one of the handshake trials succeeds
  (``DiscoverySuccess``),
* nobody usable shows up, or every trial fails, and the packet falls back to
  the roadside unit which waits for the next vehicle heading the right way
  (``DiscoveryFailure``).

This module evaluates the branch probabilities and the resulting expected
latency and service rate of a single hop and of a whole route.  The expected
rates substitute the mean candidate wait for the random wait; the Monte Carlo
counterpart in :mod:`v2xdelivery.simulate` keeps the randomness.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegimeWarning",
    "SystemParams",
    "Hop",
    "Route",
    "p_courier_forward",
    "max_trials",
    "p_success",
    "p_failure",
    "expected_hop_latency",
    "expected_e2e_latency",
    "expected_hop_rate",
    "e2e_rate_min_of_means",
]

class RegimeWarning(UserWarning):
    """Parameters left the regime the analytical shortcuts assume."""


@dataclass(frozen=True)
class SystemParams:
    """Scenario-wide constants shared by every hop.

    Attributes:
        hop_dwell: seconds a vehicle needs to cross one hop.  Written ``T``
            in the formulas below.
        trial_time: duration of one discovery handshake trial, seconds.
        decode_error: probability that a single beacon or feedback message
            fails to decode.
        rate_v2v: vehicle-to-vehicle link rate (any consistent unit).
        rate_v2i: vehicle-to-infrastructure link rate.
        rate_cell: fallback cellular rate available while carrying.
        weight: default rate/latency trade-off weight used by optimizers
            when the caller does not pass one explicitly.
    """

    hop_dwell: float = 20.0
    trial_time: float = 0.1
    decode_error: float = 1e-3
    rate_v2v: float = 2.0
    rate_v2i: float = 1.5
    rate_cell: float = 1.0
    weight: float = 0.5

    def __post_init__(self) -> None:
        # Every field is stored as a float, so an integer-valued recipe reads
        # as its float twin; bool is an int subclass, so ``weight: true`` is
        # named, not read as 1.
        for name, value in list(vars(self).items()):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(value))
        if not self.hop_dwell > 0:
            raise ValueError("hop_dwell must be positive")
        if not 0 < self.trial_time <= self.hop_dwell:
            raise ValueError("trial_time must lie in (0, hop_dwell]")
        if not 0 <= self.decode_error < 1:
            raise ValueError("decode_error must lie in [0, 1)")
        for name in ("rate_v2v", "rate_v2i", "rate_cell"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.weight <= 1:
            raise ValueError("weight must lie in [0, 1]")

    @property
    def decode_ok_pair(self) -> float:
        """Probability that one trial's beacon and feedback both decode."""
        return (1.0 - self.decode_error) ** 2


@dataclass(frozen=True)
class Hop:
    """One road segment of a route.

    Attributes:
        arrival_rate: Poisson rate of candidate vehicles entering this hop
            and heading toward the next one, per second.
        deg: number of ways out of the hop's exit intersection, U-turn
            excluded.  The courier picks one uniformly, so ``1 / deg`` is the
            chance it already carries the packet the right way.
        rsu_id: identifier of the roadside unit at the exit intersection.
    """

    arrival_rate: float
    deg: int
    rsu_id: str = ""

    def __post_init__(self) -> None:
        # Stored as a float and an int; bool is an int subclass, so a YAML
        # ``deg: true`` is named.  Exact types skip the slower ABC checks.
        rate, deg = self.arrival_rate, self.deg
        real = type(rate) is float or isinstance(rate, numbers.Real) and not isinstance(rate, bool)
        if not (real and 0 < rate < math.inf):
            raise ValueError(f"arrival_rate must be a positive, finite real number, got {rate!r}")
        whole = type(deg) is int or isinstance(deg, numbers.Integral) and not isinstance(deg, bool)
        if not (whole and deg >= 1):
            raise ValueError(f"deg must be an integer >= 1, got {deg!r}")
        object.__setattr__(self, "arrival_rate", float(rate))
        object.__setattr__(self, "deg", int(deg))


@dataclass(frozen=True)
class Route:
    """An ordered sequence of hops from a source to a destination RSU."""

    hops: tuple[Hop, ...]
    source: str = ""
    destination: str = ""
    nodes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise ValueError("a route needs at least one hop")
        ids = [h.rsu_id for h in self.hops if h.rsu_id]
        if len(set(ids)) != len(ids):
            raise ValueError("route revisits an RSU; routes must be loop-free")

    def __len__(self) -> int:
        return len(self.hops)


def p_courier_forward(hop: Hop) -> float:
    """Probability the courier already drives toward the next hop."""
    return 1.0 / hop.deg


def _floor_trials(t, trial_time: float):
    """floor(t / trial_time), a float or an array of floats.  Binary floats
    make exact multiples like 8.0 / 0.1 land a hair below the integer; an
    absolute nudge of 1e-9 keeps a window of 8 s worth exactly 80 trials of
    0.1 s."""
    return np.floor(t / trial_time + 1e-9)


def max_trials(t: float, trial_time: float) -> int:
    """Number of whole discovery trials that fit into a window of t seconds.

    Args:
        t: discovery window length, seconds, >= 0 and finite.
        trial_time: duration of one trial, seconds, > 0.

    Returns:
        floor(t / trial_time) as an int, with a tiny nudge so windows that
        are exact multiples of the trial duration are not truncated by
        floating-point representation.
    """
    # Written so that NaN fails it too.
    if not t >= 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    if not trial_time > 0:
        raise ValueError("trial_time must be positive")
    trials = _floor_trials(t, trial_time)
    if not math.isfinite(trials):
        raise ValueError(f"t / trial_time must be finite, got t={t!r}, trial_time={trial_time!r}")
    return int(trials)


def _windows(ts, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The window rule, which every closed form, both solvers and the
    simulator read: each window in [0, hop_dwell * (1 + 1e-12)], clamped to
    hop_dwell (one inside [0, hop_dwell] comes back unchanged), and its
    whole-trial count.  Any other window, NaN included, is a ValueError."""
    ts = np.asarray(ts, dtype=float)
    # Written so that NaN fails it too.
    if not np.all((ts >= 0.0) & (ts <= params.hop_dwell * (1 + 1e-12))):
        raise ValueError("discovery window t must lie in [0, hop_dwell]")
    ts = np.minimum(ts, params.hop_dwell)
    return ts, _floor_trials(ts, params.trial_time).astype(int)


def _window(t: float, params: SystemParams) -> tuple[float, int]:
    """:func:`_windows` of one window: t clamped to hop_dwell, its trial count."""
    ts, ms = _windows(t, params)
    return ts.item(), ms.item()


def _p_all_trials_fail(m: int, params: SystemParams) -> float:
    # Each trial needs beacon and feedback to decode; q is the chance one
    # trial fails outright.  q ** 0 == 1 covers the no-trials window.
    q = 1.0 - params.decode_ok_pair
    return q**m


def p_success(hop: Hop, t: float, params: SystemParams) -> float:
    """Probability that candidate discovery succeeds on this hop.

    Success needs three independent things: the courier is not already
    heading the right way, at least one candidate arrives within the window,
    and at least one of the trials that fit in the window decodes in both
    directions.

    Args:
        hop: the hop under consideration.
        t: discovery window, seconds, within [0, hop_dwell].
        params: scenario constants.

    Returns:
        A probability in [0, 1).
    """
    t, m = _window(t, params)
    p_arrival = 1.0 - math.exp(-hop.arrival_rate * t)
    p_trials = 1.0 - _p_all_trials_fail(m, params)
    return (1.0 - p_courier_forward(hop)) * p_arrival * p_trials


def p_failure(hop: Hop, t: float, params: SystemParams) -> float:
    """Probability that the hop falls back to the roadside unit.

    Either no candidate arrives within the window, or one does but every
    trial in the window fails to decode.
    """
    t, m = _window(t, params)
    no_arrival = math.exp(-hop.arrival_rate * t)
    all_fail = _p_all_trials_fail(m, params)
    return (1.0 - p_courier_forward(hop)) * ((1.0 - no_arrival) * all_fail + no_arrival)


def expected_hop_latency(hop: Hop, t: float, params: SystemParams) -> float:
    """Expected time for the packet to advance past one hop.

    Forwarding and successful discovery both cost one dwell time T.  A
    fallback costs two dwells plus the mean wait 1 / arrival_rate until the
    roadside unit sees a vehicle heading the right way.

    Returns:
        Expected latency in seconds, inside [T, 2T + 1/arrival_rate].
    """
    T = params.hop_dwell
    p_f = p_failure(hop, t, params)
    p_rest = 1.0 - p_f
    return p_rest * T + p_f * (2.0 * T + 1.0 / hop.arrival_rate)


def expected_e2e_latency(route: Route, t: float, params: SystemParams) -> float:
    """Sum of the expected hop latencies along the route."""
    return sum(expected_hop_latency(h, t, params) for h in route.hops)


def mean_rates(hop: Hop, t: float, params: SystemParams) -> tuple[float, float, float]:
    """Per-branch service rates with the candidate wait replaced by its mean.

    Returns:
        (forward, success, failure) rates.  Forwarding just keeps the
        cellular rate.  Success splits the dwell between a V2V transfer that
        starts after the mean wait and cellular service outside the window.
        Failure pushes the data through the roadside unit: a V2I upload in
        the remainder of the dwell plus cellular service during the window,
        spread over two dwells and the mean RSU wait.
    """
    t, _ = _window(t, params)
    T = params.hop_dwell
    mean_wait = 1.0 / hop.arrival_rate
    if T - mean_wait < 0:
        warnings.warn(
            "mean candidate wait exceeds the hop dwell "
            f"(arrival_rate={hop.arrival_rate}, hop_dwell={T}); "
            "the mean-substituted success rate goes negative",
            RegimeWarning,
            stacklevel=2,
        )
    c_forward = params.rate_cell
    c_success = params.rate_v2v * (T - mean_wait) / T + params.rate_cell * (T - t) / T
    c_failure = (params.rate_v2i * (T - t) + params.rate_cell * t) / (2.0 * T + mean_wait)
    return c_forward, c_success, c_failure


def expected_hop_rate(hop: Hop, t: float, params: SystemParams) -> float:
    """Expected service rate of one hop, branch-weighted.

    Uses the mean-substituted per-branch rates from :func:`mean_rates`.
    """
    c_fwd, c_s, c_f = mean_rates(hop, t, params)
    return (
        p_courier_forward(hop) * c_fwd
        + p_success(hop, t, params) * c_s
        + p_failure(hop, t, params) * c_f
    )


def e2e_rate_min_of_means(route: Route, t: float, params: SystemParams) -> float:
    """End-to-end rate as the bottleneck of the expected hop rates.

    This takes the minimum over hops of the per-hop expectation.  It is one
    of two route-rate readings this package offers; the other, in
    :mod:`v2xdelivery.closedform`, averages the minimum over joint branch
    outcomes and is systematically lower.  Both are kept because they answer
    different questions and neither dominates the simulated truth.
    """
    return min(expected_hop_rate(h, t, params) for h in route.hops)

