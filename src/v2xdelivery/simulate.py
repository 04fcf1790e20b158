"""Monte Carlo snapshot simulator for multihop delivery routes.

Every snapshot samples each hop's branch independently: the courier keeps
the content and drives on, a discovered candidate relays it, or the hop
falls back to its roadside unit and waits for the next outbound vehicle.
Per-snapshot end-to-end latency sums the hop latencies; the end-to-end rate
is the weakest hop's realized rate.

Two discovery timings are available:

* ``physical``: a candidate arriving at time A can only start probing at
  the next whole trial boundary, so late arrivals inside the window may run
  out of trials.
* ``analytic``: the trial count is decoupled from the arrival instant,
  matching the independence assumptions of the closed forms exactly; use
  this mode to validate them.

Sampling uses counter-based Philox streams, one jump per hop, and draws a
fixed block of variates per hop that has candidates, regardless of branch
outcomes.  Evaluations at different windows therefore share sample paths,
which makes sweep curves smooth and paired comparisons exact.  A hop with
``deg = 1`` always forwards, so it draws nothing: every snapshot adds the
dwell to its latency and caps its rate at ``rate_cell``, and no other hop's
stream moves.

Each hop with candidates is drawn and its window-independent arrays
prepared once per call, into buffers every such hop of the call reuses; a
window then costs two comparisons for its branch masks and one gather per
reading from the hop's branch tables.  Each window's result owns its
snapshot arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

from .model import _window, _windows, Hop, Route, SystemParams

__all__ = [
    "Branch",
    "SimConfig",
    "BackhaulConfig",
    "SimulationResult",
    "simulate_route",
    "sweep_windows",
    "physical_branch_probs",
    "delta_t_for_scheme",
]


class Branch(IntEnum):
    """Outcome of one hop in one snapshot."""

    COURIER_FORWARD = 0
    DISCOVERY_SUCCESS = 1
    DISCOVERY_FAILURE = 2
    BACKHAUL_FORWARD = 3


@dataclass(frozen=True)
class SimConfig:
    """Sampling settings.

    Attributes:
        snapshots: number of independent route snapshots, a positive
            integer.
        seed: Philox key, an integer in [0, 2**128); equal seeds give
            identical sample paths.
        mode: ``physical`` or ``analytic`` discovery timing.
    """

    snapshots: int = 10_000
    seed: int = 0
    mode: str = "physical"

    def __post_init__(self):
        for name in ("snapshots", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.snapshots < 1:
            raise ValueError("snapshots must be positive")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must lie in [0, 2**128)")
        if self.mode not in ("physical", "analytic"):
            raise ValueError("mode must be 'physical' or 'analytic'")


@dataclass(frozen=True)
class BackhaulConfig:
    """Wired links between consecutive roadside units.

    A hop that falls back while its RSU has a wired link to the next hop's
    RSU skips the wait for an outbound vehicle entirely: the upload window
    still costs a dwell, the wait is zero.  The last hop has no next RSU,
    so it never uses the wire.

    Attributes:
        links: directed (rsu_a, rsu_b) pairs that are wired, any iterable
            of 2-item pairs, kept as a frozenset of tuples; None wires every
            consecutive pair of the simulated route.
        rate: wire throughput, positive and finite; None defaults to four
            times the V2I rate.
    """

    links: frozenset | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.links is not None:
            # Stored as a frozenset of 2-tuples, so that a list of lists wires
            # the pairs it names; a string, a pair of another length or
            # anything not iterable is an error.
            try:
                if isinstance(self.links, str):
                    raise TypeError
                pairs = [None if isinstance(p, str) else tuple(p) for p in self.links]
                if any(p is None or len(p) != 2 for p in pairs):
                    raise TypeError
                links = frozenset(pairs)
            except TypeError:
                raise ValueError(f"links must be an iterable of (rsu_a, rsu_b) pairs, got {self.links!r}") from None
            object.__setattr__(self, "links", links)
        if self.rate is not None and not 0.0 < self.rate < math.inf:
            raise ValueError(f"wire rate must be positive and finite, got {self.rate!r}")

    def wire_rate(self, params: SystemParams) -> float:
        return 4.0 * params.rate_v2i if self.rate is None else self.rate

    def linked(self, rsu_a: str, rsu_b: str) -> bool:
        return self.links is None or (rsu_a, rsu_b) in self.links


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates of one simulated window position.

    ``branch_counts`` has one row per hop with columns indexed by
    :class:`Branch`.  ``mean_rate_mean_subst`` replaces each realized wait
    by its mean before taking the per-snapshot bottleneck, mirroring the
    per-hop closed forms; the gap to ``mean_rate`` is the cost of that
    substitution.
    """

    windows: tuple[float, ...]
    snapshots: int
    mode: str
    mean_latency: float
    se_latency: float
    mean_rate: float
    se_rate: float
    mean_rate_mean_subst: float
    se_rate_mean_subst: float
    branch_counts: np.ndarray
    latencies: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)

    @property
    def branch_fractions(self) -> np.ndarray:
        """Per-hop branch frequencies, rows summing to one."""
        return self.branch_counts / self.snapshots


def _hop_stream(seed: int, hop_index: int) -> np.random.Generator:
    # One Philox jump (2**128 counter steps) per hop keeps streams disjoint
    # for any realistic draw volume.
    return np.random.Generator(np.random.Philox(key=seed).jumped(hop_index))


@dataclass(frozen=True)
class _HopBuffers:
    """Snapshot-length arrays every hop of one call that has candidates is
    drawn, prepared and read into.

    Allocated once per call, only if some hop has ``deg > 1``, and reused
    hop after hop.  Freed and allocated again per hop, arrays this size can
    go back to the system and be faulted in afresh, which at 3e5 snapshots
    costs more than the arithmetic on them.

    After :func:`_prepare_hop`, the first block holds the hop's
    window-independent arrays.  A candidate (a snapshot whose courier does
    not forward) succeeds at window t iff it arrives by t and
    ``need <= max_trials(t)``; ``need`` is the trial count in analytic mode
    and the arrival slot plus the trial count minus one in physical mode.
    Per-snapshot values are read from branch-major tables of three rows of
    n, in :class:`Branch` order (forward, success, failure): snapshot i's
    entry on its branch sits at ``base[i] + n * failure[i]``.  The second
    block is :func:`_add_window`'s scratch.
    """

    draw: np.ndarray  # the direction variate, then the RSU wait
    candidate: np.ndarray
    arrival: np.ndarray
    need: np.ndarray
    # i + n for a candidate, i for a forward: its success or forward entry.
    base: np.ndarray
    # Latency table: T, T, and 2T + rsu_wait (2T on a wired hop); on an
    # unwired hop the failure row is also the failure-rate divisor.
    latency: np.ndarray
    # rate_v2v * (T - need * dt): the V2V share of a success's rate numerator.
    v2v: np.ndarray
    index: np.ndarray  # 0, 1, ..., n - 1
    success: np.ndarray
    failure: np.ndarray
    pick: np.ndarray  # each snapshot's entry in the branch tables
    rate: np.ndarray  # rate table; its forward row holds rate_cell
    value: np.ndarray  # the gathered entries


def _hop_buffers(n: int, params: SystemParams) -> _HopBuffers:
    latency = np.empty(3 * n)
    latency[: 2 * n] = params.hop_dwell
    return _HopBuffers(
        draw=np.empty(n),
        candidate=np.empty(n, dtype=bool),
        arrival=np.empty(n),
        need=np.empty(n),
        base=np.empty(n, dtype=np.intp),
        latency=latency,
        v2v=np.empty(n),
        index=np.arange(n),
        success=np.empty(n, dtype=bool),
        failure=np.empty(n, dtype=bool),
        pick=np.empty(n, dtype=np.intp),
        rate=np.full(3 * n, params.rate_cell),
        value=np.empty(n),
    )


def _prepare_hop(
    gen: np.random.Generator,
    hop: Hop,
    params: SystemParams,
    mode: str,
    wire_rate: float | None,
    buffers: _HopBuffers,
) -> int:
    """Draw one hop's block into ``buffers`` and do its window-independent
    work once; the arrays live in ``buffers`` until the next hop.  Returns
    the number of snapshots whose courier forwards."""
    T = params.hop_dwell
    dt = params.trial_time
    n = len(buffers.index)
    # The fixed draw block, in stream order: direction, arrival, trials,
    # RSU wait.  An exponential is drawn standard and scaled in place, the
    # same product numpy's exponential(scale) forms.
    u = gen.random(out=buffers.draw)
    candidate = np.less(u, 1.0 / hop.deg, out=buffers.candidate)
    np.logical_not(candidate, out=candidate)
    arrival = gen.standard_exponential(out=buffers.arrival)
    arrival *= 1.0 / hop.arrival_rate
    trials = gen.geometric(p=params.decode_ok_pair, size=n)
    rsu_wait = gen.standard_exponential(out=buffers.draw)
    rsu_wait *= 1.0 / hop.arrival_rate
    latency = buffers.latency
    if wire_rate is None:
        np.add(2.0 * T, rsu_wait, out=latency[2 * n :])
    else:
        latency[2 * n :] = 2.0 * T
    need = buffers.need
    if mode == "physical":
        np.divide(arrival, dt, out=need)
        np.ceil(need, out=need)
        need += trials
        need -= 1
    else:
        need[:] = trials
    del trials
    v2v = np.multiply(need, dt, out=buffers.v2v)
    np.subtract(T, v2v, out=v2v)
    v2v *= params.rate_v2v
    base = np.multiply(candidate, n, dtype=np.intp, out=buffers.base)
    base += buffers.index
    return n - int(np.count_nonzero(candidate))


def _add_window(
    buffers: _HopBuffers,
    hop: Hop,
    wire_rate: float | None,
    t: float,
    m: int,
    params: SystemParams,
    lat_sum: np.ndarray,
    rate_min: np.ndarray,
    rate_ms_min: np.ndarray,
) -> int:
    """Fold one prepared hop at window t, of m whole trials, into one
    window's sums and minima.

    ``wire_rate`` is the throughput of the hop's wire to the next RSU, None
    on an unwired hop.  Returns the number of successes.
    """
    n = len(buffers.index)
    T = params.hop_dwell
    cell = params.rate_cell
    mean_wait = 1.0 / hop.arrival_rate

    success, failure, pick, value = buffers.success, buffers.failure, buffers.pick, buffers.value
    np.less_equal(buffers.arrival, t, out=success)
    np.less_equal(buffers.need, m, out=failure)
    success &= failure
    success &= buffers.candidate
    # success implies candidate, so xor leaves candidate & ~success.
    np.logical_xor(buffers.candidate, success, out=failure)
    np.multiply(failure, n, out=pick, dtype=np.intp)
    pick += buffers.base

    # Every index is in range by construction; "clip" skips the check.
    buffers.latency.take(pick, out=value, mode="clip")
    lat_sum += value

    succ_row, fail_row = buffers.rate[n : 2 * n], buffers.rate[2 * n :]
    np.add(buffers.v2v, cell * (T - t), out=succ_row)
    succ_row /= T
    if wire_rate is None:
        np.divide(params.rate_v2i * (T - t) + cell * t, buffers.latency[2 * n :], out=fail_row)
        fail_ms = (params.rate_v2i * (T - t) + cell * t) / (2.0 * T + mean_wait)
    else:
        fail_ms = (min(params.rate_v2i, wire_rate) * (T - t) + cell * t) / (2.0 * T)
        fail_row.fill(fail_ms)
    buffers.rate.take(pick, out=value, mode="clip")
    np.minimum(rate_min, value, out=rate_min)

    succ_row.fill(params.rate_v2v * (T - mean_wait) / T + cell * (T - t) / T)
    fail_row.fill(fail_ms)
    buffers.rate.take(pick, out=value, mode="clip")
    np.minimum(rate_ms_min, value, out=rate_ms_min)
    return int(np.count_nonzero(success))


def _as_window_vector(t, k: int, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """One window per hop and its whole-trial count, by the window rule."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        ts = np.full(k, float(ts))
    if ts.shape != (k,):
        raise ValueError(f"expected a scalar window or one per hop ({k}), got shape {ts.shape}")
    return _windows(ts, params)


def _summary(
    windows: np.ndarray,
    config: SimConfig,
    lat_sum: np.ndarray,
    rate_min: np.ndarray,
    rate_ms_min: np.ndarray,
    counts: np.ndarray,
) -> SimulationResult:
    n = config.snapshots
    se = lambda x: float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(
        windows=tuple(float(w) for w in windows),
        snapshots=n,
        mode=config.mode,
        mean_latency=float(lat_sum.mean()),
        se_latency=se(lat_sum),
        mean_rate=float(rate_min.mean()),
        se_rate=se(rate_min),
        mean_rate_mean_subst=float(rate_ms_min.mean()),
        se_rate_mean_subst=se(rate_ms_min),
        branch_counts=counts,
        latencies=lat_sum,
        rates=rate_min,
    )


def _simulate_windows(
    route: Route,
    window_rows: Sequence[tuple[np.ndarray, np.ndarray]],
    params: SystemParams,
    config: SimConfig,
    backhaul: BackhaulConfig | None,
) -> list[SimulationResult]:
    n = config.snapshots
    k = len(route.hops)
    nt = len(window_rows)
    # One array per window, so a kept result holds only its own snapshots.
    lat_sum = [np.zeros(n) for _ in range(nt)]
    rate_min = [np.full(n, np.inf) for _ in range(nt)]
    rate_ms_min = [np.full(n, np.inf) for _ in range(nt)]
    counts = np.zeros((nt, k, len(Branch)), dtype=np.int64)
    if any(hop.deg > 1 for hop in route.hops):
        buffers = _hop_buffers(n, params)
    for h, hop in enumerate(route.hops):
        if hop.deg == 1:
            # Every snapshot forwards (random() < 1 always holds): latency T
            # and rate rate_cell, the values the gathers would read.  The
            # hop's stream is never opened; other hops' streams do not move.
            counts[:, h, Branch.COURIER_FORWARD] = n
            for i in range(nt):
                lat_sum[i] += params.hop_dwell
                np.minimum(rate_min[i], params.rate_cell, out=rate_min[i])
                np.minimum(rate_ms_min[i], params.rate_cell, out=rate_ms_min[i])
            continue
        wired = (
            backhaul is not None
            and h + 1 < k
            and backhaul.linked(hop.rsu_id, route.hops[h + 1].rsu_id)
        )
        wire_rate = backhaul.wire_rate(params) if wired else None
        forwards = _prepare_hop(_hop_stream(config.seed, h), hop, params, config.mode, wire_rate, buffers)
        fallback = Branch.BACKHAUL_FORWARD if wired else Branch.DISCOVERY_FAILURE
        counts[:, h, Branch.COURIER_FORWARD] = forwards
        for i, (row, trials) in enumerate(window_rows):
            successes = _add_window(
                buffers, hop, wire_rate, float(row[h]), int(trials[h]), params,
                lat_sum[i], rate_min[i], rate_ms_min[i],
            )
            counts[i, h, Branch.DISCOVERY_SUCCESS] = successes
            counts[i, h, fallback] = n - forwards - successes
    return [
        _summary(row, config, lat_sum[i], rate_min[i], rate_ms_min[i], counts[i])
        for i, (row, _) in enumerate(window_rows)
    ]


def simulate_route(
    route: Route,
    t: float | Sequence[float],
    params: SystemParams,
    config: SimConfig | None = None,
    backhaul: BackhaulConfig | None = None,
) -> SimulationResult:
    """Simulate one route at one window assignment.

    Args:
        route: the hops to traverse.
        t: discovery window shared by every hop, or one window per hop.
        params: scenario parameters.
        config: sampling settings; defaults to 10k snapshots, seed 0,
            physical timing.
        backhaul: optional wired fallback between consecutive RSUs.

    Returns:
        Aggregated :class:`SimulationResult` for the window assignment.
    """
    cfg = config or SimConfig()
    row = _as_window_vector(t, len(route.hops), params)
    return _simulate_windows(route, [row], params, cfg, backhaul)[0]


def sweep_windows(
    route: Route,
    ts: Sequence[float | Sequence[float]],
    params: SystemParams,
    config: SimConfig | None = None,
    backhaul: BackhaulConfig | None = None,
) -> list[SimulationResult]:
    """Simulate one route over a grid of window assignments.

    The same snapshots are reused for every grid entry, so differences
    between entries carry no resampling noise.
    """
    cfg = config or SimConfig()
    rows = [_as_window_vector(t, len(route.hops), params) for t in ts]
    return _simulate_windows(route, rows, params, cfg, backhaul)


def physical_branch_probs(hop: Hop, t: float, params: SystemParams) -> tuple[float, float, float]:
    """Exact branch probabilities under physical discovery timing.

    A candidate arriving in trial slot a (the interval ((a-1) dt, a dt])
    first probes at slot a and succeeds within the window iff its geometric
    trial count fits into the m - a + 1 remaining slots.

    Returns:
        (forward, success, failure) probabilities.
    """
    t, m = _window(t, params)
    dt = params.trial_time
    lam = hop.arrival_rate
    q = 1.0 - params.decode_ok_pair
    p_fwd = 1.0 / hop.deg
    rest = 1.0 - p_fwd
    p_succ_given = 0.0
    for a in range(1, m + 1):
        slot_mass = math.exp(-lam * (a - 1) * dt) - math.exp(-lam * a * dt)
        p_succ_given += slot_mass * (1.0 - q ** (m - a + 1))
    p_succ = rest * p_succ_given
    p_fail = rest - p_succ
    return p_fwd, p_succ, p_fail


# Trial duration per discovery scheduling scheme, as (base, per_beam)
# pairs: duration = base * (1 + per_beam * beams).  Synthetic values; TD is
# the fastest and FD and CD pair.
_SCHEME_TABLE = {
    "TD": (0.1, 0.0),
    "SD": (0.1, 0.05),
    "FD": (0.1, 0.1),
    "CD": (0.1, 0.1),
}


def delta_t_for_scheme(scheme: str, beams: int = 1) -> float:
    """Per-trial duration of a discovery scheduling scheme.

    Args:
        scheme: ``TD``, ``SD``, ``FD`` or ``CD``, case-insensitive.
        beams: antenna beam count, a positive integer; ``TD`` sweeps beams
            one at a time and therefore accepts only ``beams=1``.

    Returns:
        The trial duration in seconds.
    """
    if not isinstance(beams, int) or isinstance(beams, bool) or beams < 1:
        raise ValueError("beams must be a positive integer")
    s = scheme.upper()
    if s not in _SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(_SCHEME_TABLE)}")
    if s == "TD" and beams != 1:
        raise ValueError("TD probes a single beam; beams must be 1")
    base, per_beam = _SCHEME_TABLE[s]
    return base * (1.0 + per_beam * beams)
