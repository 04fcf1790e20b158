"""Closed-form route expectations and the order statistics behind them.

The hop model in :mod:`v2xdelivery.model` weighs each hop independently.
This module reorganizes the same model so a whole route can be evaluated
directly:

* the end-to-end latency collapses to one term per hop
  (:func:`e2e_latency_closed`), algebraically identical to summing
  :func:`v2xdelivery.model.expected_hop_latency`;
* the end-to-end rate is decomposed over three joint outcomes, every hop
  succeeding, every hop falling back, or a mixture
  (:func:`e2e_rate_closed`), with the bottleneck rate of each outcome
  obtained from the maximum of per-hop waits: a maximum of geometric trial
  counts when all hops succeed, a maximum of exponential RSU waits when all
  hops fall back, and a capped minimum across both families for the mixture.

The one runtime implementation of the per-hop and joint-outcome algebra is
a route stack (:class:`_RouteStack`), which reads many routes in one array
pass.  Its rows are its routes and a one-hop row per distinct hop.  It owns
every coefficient and table of its routes: one per-hop coefficient column
per distinct hop, built with the stack; the mixed routes' geometric-max
sums and their J(1) and E[max wait], built on the first read that needs
them; and their mixture tables, built on the first read where a cap on the
mixture binds.  Both read each route's rows on the v grid from one walk
over the mixed routes in stack order (:func:`_node_walk`), which folds a
hop prefix that routes share once.  J(1) and E[max wait] depend on the
dwell and the route's arrival rates alone, so they are kept across stacks
(:func:`_route_totals`).  The stack has two reads, which run one per-hop
stage: :meth:`_RouteStack.read` serves every reading at given (row, window)
cells, in bounded blocks; :meth:`_RouteStack.grid`, the envelope's read,
takes every row over one shared window grid.  :class:`RouteEvaluator` is a
view of one route of a stack: every reading of a view is a read of its
stack at the view's column.
The quadrature forms above are independent oracles: the runtime never calls
them, and the test suite checks the kernel against them.  They alone need
scipy, and import it on first call.  The kernel integrates on one v grid:
J(1) and E[max wait] by the trapezoid rule with closed-form Euler-Maclaurin
end terms at v = 1 (:func:`_mixture_totals`), and the mixture integral where
a cap binds below 1 from a quintic Hermite table of its running integral
(:func:`_mixture_table`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import (
    _window,
    _windows,
    Route,
    SystemParams,
    expected_hop_rate,
    max_trials,
    mean_rates,
    p_courier_forward,
    p_failure,
    p_success,
)

__all__ = [
    "QuadratureError",
    "RateDecomposition",
    "e2e_latency_closed",
    "geometric_max_pmf",
    "expected_max_trial_time",
    "exponential_max_pdf",
    "expected_max_exponential",
    "expectation_from_survival",
    "scenario_probabilities",
    "expected_rate_all_success",
    "expected_rate_all_failure",
    "expected_rate_mixture",
    "e2e_rate_closed",
    "rate_decomposition",
    "RouteEvaluator",
]

# Quadrature settings shared by every integral in this module.
_QUAD_ABS_TOL = 1e-8
_QUAD_LIMIT = 200
# Integration domains are truncated where the integrand's survival mass
# drops below this.
_SURVIVAL_CUTOFF = 1e-9
# Probability mass below which further geometric-max support is ignored.
_PMF_TAIL_CUTOFF = 1e-15


class QuadratureError(RuntimeError):
    """A numerical integral failed to reach the requested tolerance."""


def e2e_latency_closed(route: Route, t: float, params: SystemParams) -> float:
    """Route latency: k dwells plus each hop's weighted failure excess.

    Each hop adds T plus (1 - 1/deg)(T + 1/arrival_rate) z, where z is the
    chance that discovery misses once the courier is not forwarding: nobody
    arrives within the window, or somebody does and every trial fails.
    Algebraically identical to summing the branch-weighted hop latencies;
    the identity is enforced to 1e-9 by the acceptance suite.
    """
    t, m = _window(t, params)
    T = params.hop_dwell
    theta = (1.0 - params.decode_ok_pair) ** m
    total = 0.0
    for hop in route.hops:
        beta = math.exp(-hop.arrival_rate * t)
        z = beta + theta - beta * theta
        total += T + (1.0 - p_courier_forward(hop)) * (T + 1.0 / hop.arrival_rate) * z
    return total


def geometric_max_pmf(x: int | np.ndarray, n: int, p: float) -> float | np.ndarray:
    """PMF of the maximum of n iid geometric(p) trial counts.

    Args:
        x: support point(s), integers >= 1.
        n: number of independent geometric variables, >= 1.
        p: per-trial success probability in (0, 1].

    Returns:
        P(max = x) = (1 - (1-p)**x)**n - (1 - (1-p)**(x-1))**n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 1):
        raise ValueError("support starts at 1")
    q = 1.0 - p
    out = (1.0 - q**xs) ** n - (1.0 - q ** (xs - 1.0)) ** n
    return float(out) if np.isscalar(x) else out


def expected_max_trial_time(k: int, m: int, p: float, trial_time: float) -> float:
    """Expected slowest successful-trial time across k hops, truncated at m.

    Sums x * P(max = x) * trial_time for x = 1..m only; the tail beyond m
    is deliberately dropped rather than renormalized, because the joint
    success outcome already conditions every hop on finishing within the
    window's m trials.
    """
    if m < 1:
        raise ValueError("needs at least one trial in the window")
    xs = np.arange(1, m + 1, dtype=float)
    f = geometric_max_pmf(xs, k, p)
    return float(np.sum(xs * f) * trial_time)


def exponential_max_pdf(rates: Sequence[float], x: float | np.ndarray) -> float | np.ndarray:
    """Density of the maximum of independent exponential waits.

    Args:
        rates: the exponential rates, all positive.
        x: evaluation point(s) >= 0.

    Returns:
        sum_i rate_i exp(-rate_i x) prod_{j != i} (1 - exp(-rate_j x)).
    """
    mus = np.asarray(rates, dtype=float)
    if mus.ndim != 1 or len(mus) < 1 or np.any(mus <= 0):
        raise ValueError("rates must be a non-empty sequence of positives")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    terms = mus[:, None] * np.exp(-mus[:, None] * xs[None, :])
    cdfs = 1.0 - np.exp(-mus[:, None] * xs[None, :])
    out = np.zeros_like(xs)
    for i in range(len(mus)):
        others = np.prod(np.delete(cdfs, i, axis=0), axis=0) if len(mus) > 1 else 1.0
        out += terms[i] * others
    out = np.where(xs < 0, 0.0, out)
    return float(out[0]) if np.isscalar(x) else out


def _exp_max_upper(rates: Sequence[float]) -> float:
    # Union bound: survival <= sum exp(-mu x) <= k exp(-mu_min x).
    mus = np.asarray(rates, dtype=float)
    return float(math.log(len(mus) / _SURVIVAL_CUTOFF) / mus.min())


def expected_max_exponential(rates: Sequence[float]) -> float:
    """E[max] of independent exponentials by integrating x times the density.

    The domain is truncated where the survival of the maximum falls below
    1e-9; the quadrature is adaptive Gauss-Kronrod with absolute tolerance
    1e-8.
    """
    from scipy import integrate  # the oracles alone need scipy; the runtime never loads it

    upper = _exp_max_upper(rates)
    val, err = integrate.quad(
        lambda x: x * exponential_max_pdf(rates, x),
        0.0,
        upper,
        epsabs=_QUAD_ABS_TOL,
        limit=_QUAD_LIMIT,
    )
    if err > 100 * _QUAD_ABS_TOL * max(1.0, abs(val)):
        raise QuadratureError(f"E[max exponential] error estimate {err:g} too large")
    return val


def expectation_from_survival(
    cdf: Callable[[float], float],
    upper: float,
    points: Sequence[float] | None = None,
) -> float:
    """E[X] of a non-negative variable as the integral of its survival.

    Args:
        cdf: the distribution function; must be non-decreasing with
            cdf(x) -> 1 fast enough that mass beyond ``upper`` is below 1e-9.
        upper: truncation point of the integral.
        points: optional interior breakpoints (step discontinuities) to pass
            to the quadrature.

    Returns:
        integral of (1 - cdf(x)) over [0, upper].
    """
    if upper < 0:
        raise ValueError("upper must be non-negative")
    if upper == 0:
        return 0.0
    from scipy import integrate

    pts = [p for p in (points or []) if 0.0 < p < upper] or None
    val, err = integrate.quad(
        lambda x: 1.0 - cdf(x),
        0.0,
        upper,
        epsabs=_QUAD_ABS_TOL,
        limit=_QUAD_LIMIT,
        points=pts,
    )
    if err > 100 * _QUAD_ABS_TOL * max(1.0, abs(val)):
        raise QuadratureError(f"survival integral error estimate {err:g} too large")
    return val


@dataclass(frozen=True)
class RateDecomposition:
    """Joint-outcome split of the end-to-end rate of one route at one window."""

    p_all_success: float
    p_all_failure: float
    p_mixture: float
    rate_all_success: float
    rate_all_failure: float
    rate_mixture: float

    @property
    def e2e_rate(self) -> float:
        return (
            self.p_all_success * self.rate_all_success
            + self.p_all_failure * self.rate_all_failure
            + self.p_mixture * self.rate_mixture
        )


def scenario_probabilities(route: Route, t: float, params: SystemParams) -> tuple[float, float, float]:
    """(all hops succeed, all hops fall back, anything else) probabilities."""
    p_as = math.prod(p_success(h, t, params) for h in route.hops)
    p_af = math.prod(p_failure(h, t, params) for h in route.hops)
    return p_as, p_af, 1.0 - p_as - p_af


def expected_rate_all_success(route: Route, t: float, params: SystemParams) -> float:
    """Bottleneck rate when every hop's discovery succeeds.

    The binding wait is the slowest hop's successful trial; its expectation
    comes from the truncated geometric-max sum.  Raises ValueError when the
    window holds no whole trial, because the all-success outcome then has
    probability zero.
    """
    t, m = _window(t, params)
    if m < 1:
        raise ValueError("window shorter than one trial: all-success outcome impossible")
    T = params.hop_dwell
    wait = expected_max_trial_time(len(route.hops), m, params.decode_ok_pair, params.trial_time)
    return (params.rate_v2v * (T - wait) + params.rate_cell * (T - t)) / T


def expected_rate_all_failure(route: Route, t: float, params: SystemParams) -> float:
    """Bottleneck rate when every hop falls back to its roadside unit.

    The binding wait is the slowest RSU's wait for an outbound vehicle, the
    maximum of the hops' exponential waits, evaluated by quadrature.
    """
    t, _ = _window(t, params)
    T = params.hop_dwell
    wait = expected_max_exponential([h.arrival_rate for h in route.hops])
    return (params.rate_v2i * (T - t) + params.rate_cell * t) / (2.0 * T + wait)


def _success_support(k: int, m: int, t: float, params: SystemParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Support and weights of the all-success bottleneck rate.

    Returns (rates descending in trial count, their probabilities, leftover
    mass of trial counts beyond the window).
    """
    T = params.hop_dwell
    if m < 1:
        return np.empty(0), np.empty(0), 1.0
    p = params.decode_ok_pair
    q = 1.0 - p
    xs = np.arange(1, _pmf_rows(params, m) + 1, dtype=float)
    f = geometric_max_pmf(xs, k, p)
    # cdf of the max at m equals (1-q^m)^k; anything beyond is "no success".
    leftover = 1.0 - (1.0 - q**m) ** k
    rates = params.rate_v2v * (T - xs * params.trial_time) / T + params.rate_cell * (T - t) / T
    return rates, f, leftover


def _failure_min_survival(route: Route, t: float, params: SystemParams) -> tuple[Callable[[float], float], float]:
    """Survival function of the bottleneck fallback rate, plus its sup.

    The slowest fallback hop has rate A / (2T + max-wait); the survival of
    that rate at x equals the CDF of the max-wait at A/x - 2T.
    """
    T = params.hop_dwell
    mus = np.array([h.arrival_rate for h in route.hops], dtype=float)
    amount = params.rate_v2i * (T - t) + params.rate_cell * t
    sup = amount / (2.0 * T)

    def survival(x: float) -> float:
        if x <= 0.0:
            return 1.0
        if x >= sup:
            return 0.0
        wait = amount / x - 2.0 * T
        return float(np.prod(1.0 - np.exp(-mus * wait)))

    return survival, sup


def expected_rate_mixture(route: Route, t: float, params: SystemParams) -> float:
    """Expected bottleneck rate when hop outcomes are mixed.

    Treats the two wait families as independent over all hops: the success
    family's bottleneck from the geometric trial maxima, the fallback
    family's from the exponential wait maxima, the whole thing capped by the
    carrying (cellular) rate contributed by forwarded hops.  Evaluates the
    expectation of min(cellular rate, success bottleneck, fallback
    bottleneck) through the survival integral.
    """
    if len(route.hops) < 2:
        raise ValueError("mixture outcome needs at least two hops")
    t, m = _window(t, params)
    T = params.hop_dwell
    s_rates, s_probs, s_leftover = _success_support(len(route.hops), m, t, params)
    f_survival, f_sup = _failure_min_survival(route, t, params)
    cap = params.rate_cell

    def success_survival(x: float) -> float:
        # P(success bottleneck > x): mass of trial counts small enough to
        # beat x, plus the "no success within the window" leftover.
        return float(s_probs[s_rates > x].sum()) + s_leftover

    def capped_cdf(x: float) -> float:
        if x >= cap:
            return 1.0
        return 1.0 - success_survival(x) * f_survival(x)

    upper = min(cap, f_sup) if f_sup > 0 else 0.0
    pts = sorted(set(float(v) for v in s_rates if 0.0 < v < upper))
    return expectation_from_survival(capped_cdf, upper, points=pts)


def e2e_rate_closed(route: Route, t: float, params: SystemParams) -> float:
    """End-to-end rate averaged over the three joint outcomes.

    Degenerate corners are taken directly: a route whose every hop always
    forwards just carries at the cellular rate, and a single-hop route has
    no mixed outcome beyond plain forwarding.
    """
    t, _ = _window(t, params)
    if all(h.deg == 1 for h in route.hops):
        return params.rate_cell
    if len(route.hops) == 1:
        # One hop: the leftover probability is the courier-forward branch,
        # not a mixture, so the hop-level mean reading is the whole value.
        return expected_hop_rate(route.hops[0], t, params)
    p_as, p_af, p_mix = scenario_probabilities(route, t, params)
    total = 0.0
    if p_as > 0.0:
        total += p_as * expected_rate_all_success(route, t, params)
    if p_af > 0.0:
        total += p_af * expected_rate_all_failure(route, t, params)
    if p_mix > 0.0:
        total += p_mix * expected_rate_mixture(route, t, params)
    return total


def rate_decomposition(route: Route, t: float, params: SystemParams) -> RateDecomposition:
    """Full joint-outcome breakdown of the route rate at one window.

    A single hop takes its success and failure rates from
    :func:`v2xdelivery.model.mean_rates`, as its closed-form rate does.
    """
    t, m = _window(t, params)
    p_as, p_af, p_mix = scenario_probabilities(route, t, params)
    if len(route.hops) == 1:
        _, c_as, c_af = mean_rates(route.hops[0], t, params)
        return RateDecomposition(p_as, p_af, p_mix, c_as, c_af, params.rate_cell)
    c_as = expected_rate_all_success(route, t, params) if (p_as > 0 and m >= 1) else 0.0
    c_af = expected_rate_all_failure(route, t, params) if p_af > 0 else 0.0
    if all(h.deg == 1 for h in route.hops):
        c_mix = params.rate_cell
    else:
        c_mix = expected_rate_mixture(route, t, params)
    return RateDecomposition(p_as, p_af, p_mix, c_as, c_af, c_mix)


def _sum_rows(rows, op=np.add) -> np.ndarray:
    """The rows of ``rows`` (an array or an iterable of arrays) folded in
    place, one at a time and in order, by ``op``, a sum unless told
    otherwise: a column's bits never depend on the batch."""
    rows = iter(rows)
    total = np.array(next(rows))
    for row in rows:
        op(total, row, out=total)
    return total


def _pmf_rows(params: SystemParams, m: int) -> int:
    """Rows of the truncated geometric-max table for windows of up to m
    whole trials: min(m, L), at least 1, where L is the first trial count
    past which the tail mass of one hop's trial count, (1 - p)^(L - 1), is
    below _PMF_TAIL_CUTOFF (1 if a trial never fails).  L is 7 at the stock
    decode error, 53 at decode_error=0.3.  Past trial piece L the kernel's
    readings move with the trial count only through (1 - p)^m."""
    q = 1.0 - params.decode_ok_pair
    tail = int(math.ceil(math.log(_PMF_TAIL_CUTOFF) / math.log(q))) + 1 if q > 0.0 else 1
    return max(1, min(m, tail))


def _rate_switches(params: SystemParams) -> np.ndarray:
    """Windows in (0, T) where a cell of the joint-outcome rate switches
    between its free and binding forms, or a binding cell's trial-count row
    kinks, once the window holds more than L = _pmf_rows trials, so that
    every row of the table counts.  With cap = rate_cell, the fallback
    supremum sup(t) = (rate_v2i (T - t) + rate_cell t) / 2T and row x's
    success rate s_x(t) = rate_v2v (T - x dt) / T + rate_cell (T - t) / T,
    each is the root of a condition linear in t:

    * sup = 0, cap = sup, or s_L = sup (the lowest row, x = L): a cell
      switches between free and binding;
    * s_x = cap or s_x = sup, x = 1..L: a row's cap kinks, kept only where
      the cell binds, since a free cell reads no row.

    Between two consecutive switches and trial edges the rate is smooth
    (see _RouteStack._mixed_rate)."""
    T, dt = params.hop_dwell, params.trial_time
    v2v, v2i, cap = (np.float64(x) for x in (params.rate_v2v, params.rate_v2i, params.rate_cell))
    L = _pmf_rows(params, max_trials(T, dt))
    row = v2v * (T - np.arange(1, L + 1) * dt)  # T s_x(t) = row_x + cap (T - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        at_cap = row / cap
        at_sup = (2.0 * row + (2.0 * cap - v2i) * T) / (3.0 * cap - v2i)
        cells = np.array([v2i * T / (v2i - cap), T * (2.0 * cap - v2i) / (cap - v2i), at_sup[-1]])
        rows = np.concatenate([at_cap, at_sup[:-1]])
        sup = (v2i * (T - rows) + cap * rows) / (2.0 * T)
        lowest = (row[-1] + cap * (T - rows)) / T
    binds = (sup > 0.0) & ((cap < sup) | (lowest < sup))
    roots = np.concatenate([cells, rows[binds]])
    roots = np.sort(roots[np.isfinite(roots) & (roots > 0.0) & (roots < T)])
    return roots[np.concatenate([[True], roots[1:] != roots[:-1]])] if len(roots) else roots


def _breakpoints(params: SystemParams) -> np.ndarray:
    """Window values where a new whole trial fits; includes 0 and T."""
    T = params.hop_dwell
    js = np.arange(max_trials(T, params.trial_time) + 1, dtype=float) * params.trial_time
    js = np.minimum(js, T)
    if js[-1] < T:
        js = np.append(js, T)
    return js[np.concatenate([[True], js[1:] != js[:-1]])]  # sorted: each first of its run


#: Most cells one array of a read's block, or of a binding mixture pass, holds.
_BLOCK_CELLS = 1 << 13
#: Intervals of the mixture table's v grid, v_i = i / _TABLE_INTERVALS.
_TABLE_INTERVALS = 4000
#: Rows of a mixture table: J at each interval's left node, six coefficients.
_TABLE_COLUMNS = 7
#: Taylor coefficients at v = 1, u^0 to u^9, that the totals' end terms read,
#: and the trapezoid rule's Euler-Maclaurin weights B_2j / 2j of c_1, c_3, ..., c_9.
_END_TERMS = 10
_EM_WEIGHTS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132)


def _hop_factors(mu: float, wait: np.ndarray, rows: int) -> np.ndarray:
    """One hop's factors of W, W' and W'' at the interior nodes of the v grid,
    (rows, nodes): the first ``rows`` of 1 + a / mu, a and a (a + mu), with
    a = mu / expm1(mu w)."""
    with np.errstate(over="ignore"):  # expm1 overflows to inf where a hop's factor is 1
        a = mu / np.expm1(mu * wait)
    survival = 1.0 + a / mu  # 1 - exp(-x) = 1 / (1 + 1 / expm1(x))
    return survival[None] if rows == 1 else np.array([survival, a, a * (a + mu)])


def _v_nodes(T: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interior nodes v_i = i / n, 0 < i < n = _TABLE_INTERVALS, of the
    v grid, the wait w = 2T(1 - v)/v there and its derivative w' = -2T/v^2."""
    v = np.arange(1, _TABLE_INTERVALS) / _TABLE_INTERVALS
    return v, 2.0 * T * (1.0 - v) / v, -2.0 * T / v**2


def _fold_hop(before: np.ndarray, after: np.ndarray, factors: np.ndarray) -> None:
    """One hop folded into a walk's state: ``after``, (rows, nodes), takes the
    rows of ``before``, which it may be or which broadcast against it, W over
    the hop's first factor and A and B, if folded, plus the other two."""
    np.divide(before[0], factors[0], out=after[0])
    if len(after) > 1:
        np.add(before[1:], factors[1:], out=after[1:])


def _node_walk(lams: Sequence[Sequence[float]], wait: np.ndarray, rows: int) -> Iterator[np.ndarray]:
    """The first ``rows`` of W, A and B on the v grid's interior nodes, (rows,
    nodes), of each route in turn, given as the arrival rates ``lams`` of its
    hops: W alone for J(1) and E[max wait] (:func:`_route_totals`), all three
    for a mixture table (:func:`_mixture_table`), on ``wait``, :func:`_v_nodes`'s.

    W is the product of the hops' survival factors and A and B the sums of
    their a and a (a + mu), each folded in hop order, one
    :func:`_fold_hop` a hop.  A route folds only the hops past the
    arrival-rate prefix it shares with the route before it, so routes in
    depth-first order, as enumeration gives them, fold each node of their
    prefix tree once.  The rows at a depth the next route resumes from keep
    a buffer of their own, one per depth up to the longest shared prefix;
    past that depth a route folds in place, in one scratch buffer.  A
    rate's factors (:func:`_hop_factors`) are computed at its first fold
    and dropped after the last route that holds it.  Every route's rows
    take the IEEE operations of folding its hops alone, so any order of
    routes reads the same bits; an order that is not depth first only
    shares less.  The yielded rows are views of the buffers, valid until
    the next route is taken.
    """
    shared = [0]  # hops each route shares with the one before it
    for prev, lam in zip(lams, lams[1:]):
        d = 0
        while d < len(prev) and d < len(lam) and prev[d] == lam[d]:
            d += 1
        shared.append(d)
    # Depth 0, no hop, broadcasts W = 1 and A = B = 0 over the nodes.
    state = [np.array([[1.0], [0.0], [0.0]])[:rows]] + [np.empty((rows, wait.size)) for _ in range(max(shared) + 1)]
    scratch = state[-1]
    last = {mu: i for i, lam in enumerate(lams) for mu in lam}
    expire = [[] for _ in lams]
    for mu, i in last.items():
        expire[i].append(mu)
    factors = {}
    for lam, start, keep, done in zip(lams, shared, shared[1:] + [0], expire):
        top = max(start, keep)  # the route's rows to this depth have buffers of their own
        for d in range(start, len(lam)):
            if lam[d] not in factors:
                factors[lam[d]] = _hop_factors(lam[d], wait, rows)
            _fold_hop(state[d] if d <= top else scratch, state[d + 1] if d < keep else scratch, factors[lam[d]])
        for mu in done:
            del factors[mu]
        yield state[len(lam)] if len(lam) <= top else scratch


def _end_terms(lams: Sequence[Sequence[float]], T: float) -> np.ndarray:
    """The Euler-Maclaurin end terms over h of J(1) and E[max wait],
    (2, routes), of each route given as the arrival rates ``lams`` of its
    hops (see :func:`_mixture_totals`): the sum over j of _EM_WEIGHTS[j]
    h^(2j + 1) c_(2j + 1), c_i the u^i Taylor coefficient at v = 1.  Hop h's
    factor of W, 1 - exp(-a u/(1 - u)) with a = 2T lam_h, has coefficients
    -L_i^(-1)(a) past u^0, Laguerre polynomials (Abramowitz and Stegun
    22.9.15) by their recurrence.  W is O(u^k), zero to u^9 past 9 hops;
    the rest take the product of their factors, one pass a hop for all.
    g's series is 2T(1 - W(u))/(1 - u)^2.  Each route reads its bits alone.
    """
    n, N = _TABLE_INTERVALS, _END_TERMS
    short = [j for j, lam in enumerate(lams) if len(lam) < N]
    index = {mu: i for i, mu in enumerate(dict.fromkeys(mu for j in short for mu in lams[j]))}
    a = 2.0 * T * np.array(list(index), dtype=float)
    L = [np.ones_like(a), -a]
    for i in range(1, N - 1):
        L.append(((2 * i - a) * L[i] - (i - 1) * L[i - 1]) / (i + 1))
    one = np.eye(N)[0]
    factor = np.vstack([one - np.array(L).T, one])  # the series 1 pads a route past its last hop
    W, series = np.zeros((len(lams), N)), np.tile(one, (len(short), 1))
    for d in range(max((len(lams[j]) for j in short), default=0)):
        s, before = factor[[index[lams[j][d]] if d < len(lams[j]) else -1 for j in short]], series
        series = np.zeros_like(before)
        for i in range(N):
            series[:, i:] += before[:, i : i + 1] * s[:, : N - i]
    W[short] = series
    g = 2.0 * T * np.cumsum(np.cumsum(one - W, axis=1), axis=1)
    ends = np.zeros((2, len(lams)))
    for j, weight in zip(range(N - 1, 0, -2), _EM_WEIGHTS[::-1]):
        ends = ends / (n * n) + weight * np.array([W[:, j], g[:, j]])
    return ends / n


def _mixture_totals(W: np.ndarray, ends: np.ndarray, T: float, dwait: np.ndarray) -> tuple[float, float]:
    """J(1) and E[max wait] of a mixed route by the trapezoid rule on the v
    grid, one sum over the interior nodes each, plus closed-form end terms
    at v = 1 (Euler-Maclaurin; Davis and Rabinowitz, Methods of Numerical
    Integration, 2nd ed., 1984).  With h = 1/n, f's derivatives zero at
    v = 0 and c_j its u^j Taylor coefficient at v = 1 (u = 1 - v),

        int_0^1 f = h (f(0)/2 + sum_i f(v_i) + f(1)/2) + h^2 c_1/12 - h^4 c_3/120 + ... + h^10 c_9/132,

    the next term in h^12.  J(1) integrates W, with W(0) = 1, W(1) = 0, and
    E[max wait], the integral over w > 0 of 1 - prod_h (1 - exp(-lam_h w)),
    is in v the integral of g = -w'(1 - W) = 2T(1 - W)/v^2, with g(0) = 0,
    g(1) = 2T.  ``W`` is the route's row from :func:`_node_walk`, ``ends``
    its :func:`_end_terms` and ``dwait`` the w' row of :func:`_v_nodes`.
    """
    n = _TABLE_INTERVALS
    g = (W - 1.0) * dwait  # bit for bit -w'(1 - W)
    return float((0.5 + W.sum() + ends[0]) / n), float((g.sum() + T + ends[1]) / n)


#: J(1) and E[max wait] by (dwell T, a mixed route's arrival rates in hop
#: order), as the last table build that walked left them: that build's own
#: distinct sequences, no more.  Filled in place, never rebound.
_TOTALS: dict[tuple[float, tuple[float, ...]], tuple[float, float]] = {}


def _route_totals(lams: Sequence[tuple[float, ...]], T: float) -> list[tuple[float, float]]:
    """J(1) and E[max wait] of each mixed route in turn, given as the
    arrival rates ``lams`` of its hops, at dwell T (see :func:`_mixture_totals`).

    Totals depend on T and the rate sequence alone, so solves that share
    routes and dwell, whatever their trial time, decode error, rates or
    weight, share them through :data:`_TOTALS`.  Only the sequences it does
    not hold are walked, once each and in the order given, so they still
    share their hop prefixes; the walk folds W alone, and it and the end
    terms read the bits of each route alone (see :func:`_node_walk` and
    :func:`_end_terms`), so a kept total is the float a fresh walk gives.
    A build that walks leaves :data:`_TOTALS` holding exactly its own
    sequences, and one that does not leaves it as it was, so it never holds
    more than the largest stack built.
    """
    totals = {(T, lam): _TOTALS.get((T, lam)) for lam in lams}
    misses = [key for key, kept in totals.items() if kept is None]
    if misses:
        _, wait, dwait = _v_nodes(T)
        walked = [lam for _, lam in misses]
        walk = zip(misses, _node_walk(walked, wait, 1), _end_terms(walked, T).T)
        totals.update((key, _mixture_totals(W, ends, T, dwait)) for key, (W,), ends in walk)
        _TOTALS.clear()
        _TOTALS.update(totals)
    return [totals[T, lam] for lam in lams]


def _mixture_table(folded: np.ndarray, lam: Sequence[float], T: float, nodes: tuple, out=None) -> np.ndarray:
    """Hermite table of J(c), the integral over [0, c] of the fallback survival W.

    W(v) = prod_h (1 - exp(-lam_h w)), w = 2T(1 - v)/v, is the survival of a
    route's fallback bottleneck rate in coordinates v = rate / supremum,
    where it does not depend on the window.  J integrates W's quintic
    Hermite interpolant on the v grid, which matches W, W' and W'' at every
    node.  Both derivatives are analytic, so no linear solve is needed (de
    Boor, A Practical Guide to Splines, 1978): with a_h = lam_h / expm1(lam_h w),

        W' = W A w',   W'' = W ((A^2 - B) w'^2 + A w''),   A = sum_h a_h,   B = sum_h a_h (a_h + lam_h),

    w' = -2T/v^2 and w'' = 4T/v^3, taken in the unit coordinate s = n v of
    an interval as m and q.  At v = 0 both vanish; at v = 1, where W ~
    prod_h lam_h w^k, so does W' (k >= 2 hops), and W'' = 8 T^2 lam_1 lam_2
    for k = 2, 0 for more.  J at every node is the running sum of the
    Hermite interval areas in blocks of 80, offset by the running sum of
    the block totals, so about 130 roundings lie on any path, not 4000.
    Column i holds J(v_i) and the coefficients of
    J(v_i + s / _TABLE_INTERVALS) - J(v_i), a sextic in s in [0, 1] with no
    constant term, lowest power first; :func:`_mixture_integral` reads it.
    ``folded`` is the route's W, A and B rows from :func:`_node_walk`,
    ``lam`` its hops' arrival rates, ``nodes`` :func:`_v_nodes` of T, and
    ``out``, if given, receives the (_TABLE_COLUMNS, _TABLE_INTERVALS) table.
    """
    out = np.empty((_TABLE_COLUMNS, _TABLE_INTERVALS)) if out is None else out
    n = _TABLE_INTERVALS
    v, _, dwait = nodes
    W, A, B = folded
    m = W * A * dwait / n
    q = W * ((A * A - B) * dwait**2 - 2.0 * A * dwait / v) / n**2
    q_end = 8.0 * T * T * lam[0] * lam[1] / n**2 if len(lam) == 2 else 0.0
    W = np.concatenate([[1.0], W, [0.0]])
    m = np.concatenate([[0.0], m, [0.0]])
    q = np.concatenate([[0.0], q, [q_end]])
    area = 0.5 * (W[:-1] + W[1:]) + (m[:-1] - m[1:]) / 10.0 + (q[:-1] + q[1:]) / 120.0
    inside = np.cumsum((area / n).reshape(-1, 80), axis=1)
    before = np.concatenate([[0.0], np.cumsum(inside[:-1, -1])])
    y0, y1, m0, m1, q0, q1 = W[:-1], W[1:], m[:-1], m[1:], q[:-1], q[1:]
    rise = y1 - y0
    out[0, 0] = 0.0
    out[0, 1:] = (before[:, None] + inside).ravel()[:-1]
    out[1] = y0 / n
    out[2] = m0 / (2 * n)
    out[3] = q0 / (6 * n)
    out[4] = (10.0 * rise - 6.0 * m0 - 4.0 * m1 - 1.5 * q0 + 0.5 * q1) / (4 * n)
    out[5] = (-15.0 * rise + 8.0 * m0 + 7.0 * m1 + 1.5 * q0 - q1) / (5 * n)
    out[6] = (6.0 * rise - 3.0 * m0 - 3.0 * m1 - 0.5 * q0 + 0.5 * q1) / (6 * n)
    return out


def _mixture_integral(table: np.ndarray, first: np.ndarray, c: np.ndarray) -> np.ndarray:
    """J(c) of a route stack's mixture tables: one index for every cell,
    gathered from each coefficient row, then Horner.

    ``table`` holds the routes' :func:`_mixture_table` tables side by side,
    (_TABLE_COLUMNS, routes * _TABLE_INTERVALS); cell c[..., j] reads the
    route whose table starts at column ``first[j]``, and c lies in [0, 1].
    """
    u = c * _TABLE_INTERVALS
    i = np.minimum(u.astype(np.intp), _TABLE_INTERVALS - 1)
    at, s = first + i, u - i
    poly = table[-1].take(at)
    for j in range(_TABLE_COLUMNS - 2, 0, -1):
        poly *= s
        poly += table[j].take(at)
    return table[0].take(at) + s * poly


@dataclass(frozen=True)
class _JointTables:
    """Joint-outcome tables of a route stack, zeros where no mixed route
    reads them.  The geometric-max tables depend on the hop count alone:
    one column per hop count k, read at ``ks[cols]``.  J(1) and E[max wait]
    hold one entry per route, both from :func:`_route_totals`, which walks
    only the mixed routes whose totals it does not keep; the mixture
    tables themselves, read only where a cap binds below 1, are the
    stack's separate ``_mixture``.
    """

    support: np.ndarray  # (pieces,) trial counts x of the geometric-max table
    pmf: np.ndarray  # (pieces, k_max + 1) P(max of k trial counts = x)
    xf_cum: np.ndarray  # (pieces + 1, k_max + 1) prefix sums of x * pmf
    leftover: np.ndarray  # (max_trials(T) + 1, k_max + 1) mass of the max trial count beyond m
    exp_max_wait: np.ndarray  # (routes,) E[max] of the hops' exponential waits
    j1: np.ndarray  # (routes,) J(1), the integral of each route's fallback survival W
    first: np.ndarray  # (routes,) each route's first column in _RouteStack._mixture, 0 if it has none


class RouteEvaluator:
    """Vectorized evaluator of one route's closed forms over many windows.

    An evaluator is a view of one route of a :class:`_RouteStack`, which
    owns every coefficient and table the view reads.  Built alone, it is
    the one route of its own stack; a solve binds views of the stack of
    all its routes to its winners, so a route's grid reads, its stacked
    reads and its one-window reads share one copy of its tables.
    :meth:`series` is one read of the stack at the view's column (see
    :class:`_RouteStack`), and the one-window readings (:meth:`latency`,
    :meth:`rate_closed`, ...) are one-window reads of it.  Agreement with
    the direct quadrature forms is pinned by tests.
    """

    def __init__(self, route: Route, params: SystemParams):
        self._bind(_RouteStack((route,), params), 0)

    def _bind(self, stack: _RouteStack, col: int) -> RouteEvaluator:
        self.route = stack.routes[col]
        self.params = stack.params
        self.k = len(self.route.hops)
        self._stack = stack
        self._col = col
        return self

    # -- window pieces -----------------------------------------------------

    def breakpoints(self) -> np.ndarray:
        """Window values where a new whole trial fits; includes 0 and T."""
        return _breakpoints(self.params)

    # -- one-window readings: size-1 reads of the kernel ---------------------
    # The per-hop readings stop at the per-hop stage, so they build no
    # joint-outcome tables.

    def hop_latencies(self, t: float) -> np.ndarray:
        return self._stack.hops(self._col, [t])[2]["hop_latency"][:, 0]

    def hop_rates(self, t: float) -> np.ndarray:
        return self._stack.hops(self._col, [t])[2]["hop_rate"][:, 0]

    def latency(self, t: float) -> float:
        return float(self._stack.hops(self._col, [t])[2]["latency"][0])

    def rate_min_of_means(self, t: float) -> float:
        return float(self._stack.hops(self._col, [t])[2]["rate_min_means"][0])

    def rate_closed(self, t: float) -> float:
        """Joint-outcome route rate; agrees with e2e_rate_closed within the oracle tolerance."""
        return float(self._stack.read(self._col, t)["rate_closed"][0])

    def series(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate latency and both rate readings over a window grid.

        Args:
            ts: array of window values inside [0, hop_dwell].

        Returns:
            dict with route-level arrays under ``latency``,
            ``rate_min_means`` and ``rate_closed``, and per-hop (k, len(ts))
            arrays under ``hop_latency``, ``hop_rate``.
        """
        return self._stack.read(self._col, ts)


class _RouteStack:
    """Several routes read by one kernel, which owns every closed-form
    coefficient and table of its routes, and their layout.

    The stack records its distinct hops by (arrival rate, deg), one
    coefficient column each (``distinct``), plus one padding column.  Its
    rows are its routes, then a one-hop row for each distinct hop that no
    one-hop route reads, so every distinct hop has one one-hop row
    (``hop_rows``); ``routes``, the views, :meth:`gather` and :meth:`fold`,
    through which other modules reach the layout, cover the routes alone.
    ``at`` (k_max, rows) holds each row's column at every hop; a row
    shorter than k_max reads the padding column past its last hop.  Padded
    hops are neutral: they add 0 to the latency sum, 1 to the survival
    products and +inf to the minimum, and the sums and products run row by
    row in hop order, so a padded row reads the same bits as its route alone.

    There are two reads, and both run one per-hop stage (:meth:`_stage`) on
    coefficient columns.  :meth:`read` takes window i of row cols[i]: it
    serves every reading at given windows (the lockstep searches, the
    optimality checks, ``analyze`` and :meth:`RouteEvaluator.series`), and
    its per-hop stage :meth:`hops` is the first half of it.  :meth:`grid`
    takes every row over one shared window grid, for the envelope alone: it
    runs the per-hop stage once on the stack's distinct hops, and folds
    their rows into routes.  A cell reads the same bits in either.

    The joint-outcome tables of every mixed route are built on the first
    read that needs them, straight into stacked arrays (see _JointTables),
    each from one :func:`_node_walk` over the mixed routes in stack order,
    which folds each node of their arrival-rate prefix tree once and reads
    the bits of each route alone.  A window whose mixture caps do not bind,
    as every window does at the stock rates, reads its route's J(1); the
    mixture tables wait for the first window where a cap binds, and each of
    its (trial-count row, window) cells then takes its coefficients through
    one index, save a row capped at 1, which reads J(1) as a free window does.
    """

    def __init__(self, routes: Sequence[Route], params: SystemParams):
        self.routes = tuple(routes)
        self.params = params
        T = params.hop_dwell
        first = {}
        for route in self.routes:
            for h in route.hops:
                first.setdefault((h.arrival_rate, h.deg), h)
        self.distinct = list(first.values())
        column = {key: i for i, key in enumerate(first)}
        rows = [[column[h.arrival_rate, h.deg] for h in route.hops] for route in self.routes]
        # Each distinct hop's one-hop row: its first one-hop route, else a row after the routes.
        single = {r[0]: j for j, r in reversed(list(enumerate(rows))) if len(r) == 1}
        rows += [[c] for c in column.values() if c not in single]
        single.update((r[0], j) for j, r in enumerate(rows[len(self.routes) :], len(self.routes)))
        self.hop_rows = np.array([single[c] for c in column.values()])
        self.ks = np.array([len(r) for r in rows])
        self.at = np.full((self.ks.max(), len(rows)), len(column))
        for j, r in enumerate(rows):
            self.at[: len(r), j] = r
        # The padding column holds lam = deg = 1, finite rows that the reads override.
        lam, deg = np.array([*column, (1.0, 1)], dtype=float).T
        fwd = 1.0 / deg
        mean_wait = 1.0 / lam
        # Per-hop coefficient rows, (8, distinct hops + 1), in the order _stage unpacks them.
        self.coef = np.array(
            [
                lam,
                fwd,
                1.0 - fwd,  # the hop does not forward
                T + mean_wait,  # failure excess
                params.rate_v2v * (T - mean_wait) / T + params.rate_cell,  # success rate at t = 0
                np.full(lam.shape, -params.rate_cell / T),  # ... and its slope in t
                params.rate_v2i * T / (2.0 * T + mean_wait),  # fallback rate at t = 0
                (params.rate_cell - params.rate_v2i) / (2.0 * T + mean_wait),  # ... and its slope
            ]
        )
        # All-forward routes carry at the cellular rate and a one-hop route
        # at its hop's mean; the rest read the joint-outcome mixture.
        self.forward = np.all((deg == 1)[self.at], axis=0)
        self.mixed = ~self.forward & (self.ks > 1)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Rows of the distinct hops, (d, ...), taken along every route's hops
        in hop order, route after route: (the routes' hop count, ...)."""
        n = len(self.routes)
        return rows[self.at[:, :n].T[np.arange(len(self.at)) < self.ks[:n, None]]]

    def fold(self, rows, op, pad, cols=None) -> np.ndarray:
        """Rows of the distinct hops, (d, ...), folded by ``op`` along the
        hops of every route, or of row cols[i], in hop order, with ``pad``
        past a row's last hop (see _sum_rows): (routes, ...) or (len(cols), ...)."""
        at = self.at[:, : len(self.routes)] if cols is None else self.at[: self.ks[cols].max(initial=1), cols]
        rows = np.concatenate([rows, np.full_like(rows[:1], pad)])
        return _sum_rows((rows[i] for i in at), op)

    @functools.cached_property
    def _tables(self) -> _JointTables:
        params = self.params
        T = params.hop_dwell
        trial_fail = 1.0 - params.decode_ok_pair
        max_m = max_trials(T, params.trial_time)
        # Geometric-max table, truncated where the tail mass dies.
        support = np.arange(1, _pmf_rows(params, max_m) + 1, dtype=float) if max_m >= 1 else np.empty(0)
        n = len(self.routes)  # a one-hop row after the routes is never mixed
        width = self.ks.max() + 1
        pmf = np.zeros((len(support), width))
        xf_cum = np.zeros((len(support) + 1, width))
        leftover = np.zeros((max_m + 1, width))
        exp_max_wait = np.zeros(n)
        j1 = np.zeros(n)
        mixed = np.flatnonzero(self.mixed)
        # Mass beyond every m the kernel takes, by Python's scalar **
        # (NumPy's array ** can differ in the last bit): one hop's success
        # within m trials, raised to each hop count below.
        within = [1.0 - trial_fail**m for m in range(max_m + 1)]
        # The tables of the geometric max depend on the hop count alone.
        for k in sorted(set(self.ks[mixed].tolist())):
            f = geometric_max_pmf(support, k, params.decode_ok_pair)
            pmf[:, k] = f
            xf_cum[1:, k] = np.cumsum(support * f)
            leftover[:, k] = [1.0 - w**k for w in within]
        for j, totals in zip(mixed.tolist(), _route_totals(self._rates(), T)):
            j1[j], exp_max_wait[j] = totals
        return _JointTables(
            support=support,
            pmf=pmf,
            xf_cum=xf_cum,
            leftover=leftover,
            exp_max_wait=exp_max_wait,
            j1=j1,
            first=np.maximum(np.cumsum(self.mixed) - 1, 0) * _TABLE_INTERVALS,
        )

    @functools.cached_property
    def _mixture(self) -> np.ndarray:
        """The mixed routes' :func:`_mixture_table` tables side by side,
        (_TABLE_COLUMNS, mixed * _TABLE_INTERVALS), built on the first read
        where a cap binds."""
        T = self.params.hop_dwell
        nodes, lams = _v_nodes(T), self._rates()
        tables = np.empty((_TABLE_COLUMNS, len(lams), _TABLE_INTERVALS))
        for r, (lam, folded) in enumerate(zip(lams, _node_walk(lams, nodes[1], 3))):
            _mixture_table(folded, lam, T, nodes, out=tables[:, r])
        return tables.reshape(_TABLE_COLUMNS, -1)

    def _rates(self) -> list[tuple[float, ...]]:
        """Each mixed route's arrival rates in hop order, in stack order;
        routes share the float objects of their distinct hops' rates."""
        lam = self.coef[0].tolist()
        mixed = np.flatnonzero(self.mixed)
        at, ks = self.at[:, mixed].T.tolist(), self.ks[mixed].tolist()
        return [tuple(lam[c] for c in cols[:k]) for cols, k in zip(at, ks)]

    def _stage(self, coef, ts, ms) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The per-hop algebra: each hop's latency, probabilities of discovery
        success and of fallback, and mean rate, for coefficient columns
        ``coef`` (8, ...) broadcast against windows ``ts`` and their
        whole-trial counts ``ms``, as the window rule reads them."""
        params = self.params
        T = params.hop_dwell
        lam, fwd, rest, failure_excess, succ_base, succ_slope, fail_base, fail_slope = coef
        theta = (1.0 - params.decode_ok_pair) ** ms  # all m trials fail
        beta = np.exp(-lam * ts)
        z = beta + theta - beta * theta  # discovery misses, given no forward
        hop_lat = T + rest * failure_excess * z
        success = rest * (1.0 - z)
        failure = rest * z
        hop_rates = (
            fwd * params.rate_cell
            + success * (succ_base + succ_slope * ts)
            + failure * (fail_base + fail_slope * ts)
        )
        return hop_lat, success, failure, hop_rates

    def hops(self, cols, ts) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], dict[str, np.ndarray]]:
        """Per-hop stage of the kernel at window ts[i] of route cols[i].

        The coefficient columns are gathered for the longest route read, or
        once for all windows where every cell reads one route, and padded
        hops, which read 0 latency, +inf rate and probabilities 1, are
        overridden only where that slice holds any.  Returns the windows and
        their whole-trial counts as the window rule
        (:func:`v2xdelivery.model._windows`) reads them, each hop's
        probabilities of discovery success and of fallback, and every
        reading of ``read`` except ``rate_closed``; per-hop callers stop
        here and never pay for the joint-outcome mixture.
        """
        ts, ms = _windows(ts, self.params)
        cols = np.atleast_1d(cols)
        k = self.ks[cols].max(initial=1)  # every route has a hop; 1 serves an empty read
        if cols.size and (cols == cols[0]).all():
            cols = cols[:1]  # one route: its (k, 1) columns, gathered once, broadcast over the windows
        at = self.at[:k, cols]
        hop_lat, success, failure, hop_rates = self._stage(self.coef[:, at], ts, ms)
        pad = at == len(self.distinct)
        if pad.any():
            hop_lat[pad] = 0.0
            hop_rates[pad] = np.inf
            success[pad] = 1.0
            failure[pad] = 1.0
        return (ts, ms), (success, failure), {
            "latency": np.add.accumulate(hop_lat)[-1],  # row by row, in hop order
            "rate_min_means": hop_rates.min(axis=0),
            "hop_latency": hop_lat,
            "hop_rate": hop_rates,
        }

    def read(self, cols, ts) -> dict[str, np.ndarray]:
        """Every reading of ``series`` at window ts[i] of route cols[i]: the
        per-hop stage (see hops), then the joint-outcome route rate.

        ``cols`` and ``ts`` broadcast against each other, so one route
        index reads every window and one window every route.  Per-hop
        arrays are (k, len(ts)), k the longest route read, and include its
        padded hops.  The cells are taken in blocks of about _BLOCK_CELLS
        per-hop entries, so a read holds little beyond what it returns; a
        read of one block returns that block's arrays, and a longer one
        writes each block into its outputs.
        """
        cols, ts = np.broadcast_arrays(
            np.atleast_1d(np.asarray(cols, dtype=np.intp)), np.atleast_1d(np.asarray(ts, dtype=float))
        )
        n = len(ts)
        k = self.ks[cols].max(initial=1)
        step = max(1, _BLOCK_CELLS // k)
        if n <= step:
            return self._block(cols, ts)
        out = {
            "latency": np.empty(n),
            "rate_min_means": np.empty(n),
            "hop_latency": np.zeros((k, n)),  # padded hops read 0 latency ...
            "hop_rate": np.full((k, n), np.inf),  # ... and +inf rate
            "rate_closed": np.empty(n),
        }
        for a in range(0, n, step):
            b = slice(a, a + step)
            for name, values in self._block(cols[b], ts[b]).items():
                out[name][..., b][: len(values)] = values  # a hop array takes the block's k rows
        return out

    def _block(self, cols, ts) -> dict[str, np.ndarray]:
        """One block of :meth:`read`: the per-hop stage, then the route rate."""
        (t, m), (success, failure), block = self.hops(cols, ts)
        rate = np.where(self.forward[cols], self.params.rate_cell, block["hop_rate"][0])
        sel = np.flatnonzero(self.mixed[cols])
        if sel.size:
            p_as, p_af = (np.multiply.accumulate(p[:, sel])[-1] for p in (success, failure))
            rate[sel] = self._mixed_rate(cols[sel], t[sel], m[sel], p_as, p_af)
        block["rate_closed"] = rate
        return block

    def grid(self, ts) -> dict[str, np.ndarray]:
        """Every row of the stack over one shared window grid ``ts``: the
        envelope's read.

        The per-hop stage runs once on the stack's distinct hops, and their
        trial counts once on the grid.  A one-hop row takes its hop's rows;
        every other route folds its hops' latency rows, and each mixed
        route their success and failure rows, and the joint-outcome rate
        reads (mixed routes x windows) cells.  The grid is taken in blocks
        of windows, each scratch array of a block about _BLOCK_CELLS cells;
        every cell reads the bits of its one-window ``read``.

        Returns (rows, len(ts)) arrays under ``latency`` and ``rate_closed``,
        the routes' rows first.
        """
        params = self.params
        ts, ms = _windows(ts, params)
        coef = self.coef[:, :-1, None]  # the distinct hops, without the padding column
        single, multi = np.flatnonzero(self.ks == 1), np.flatnonzero(self.ks > 1)
        live = single[~self.forward[single]]
        mixed = np.flatnonzero(self.mixed)
        if mixed.size:
            self._tables  # built, and its scratch freed, before the rows below exist
        n = len(ts)
        rows = len(self.ks)
        latency = np.empty((rows, n))
        rate = np.empty((rows, n))
        rate[self.forward] = params.rate_cell
        blocks = max(1, -(-n * max(coef.shape[1], rows) // _BLOCK_CELLS))
        step = max(1, -(-n // blocks))
        for a in range(0, n, step):
            b = slice(a, a + step)
            hop_lat, success, failure, hop_rate = self._stage(coef, ts[b], ms[b])
            latency[single, b] = hop_lat[self.at[0, single]]
            latency[multi, b] = self.fold(hop_lat, np.add, 0.0, multi)
            rate[live, b] = hop_rate[self.at[0, live]]
            if mixed.size:
                p_as, p_af = (self.fold(p, np.multiply, 1.0, mixed) for p in (success, failure))
                rate[mixed, b] = self._mixed_rate(mixed[:, None], ts[b], ms[b], p_as, p_af)
        return {"latency": latency, "rate_closed": rate}

    def _mixed_rate(self, cols, ts, ms, p_as, p_af) -> np.ndarray:
        """Joint-outcome rate of mixed route cols[i] at window ts[i], given
        the window's trial count and its route's success and failure
        products.  ``cols`` broadcasts against the windows, a column of
        routes against a row of windows for a block, and each term takes
        the shape it depends on: the window terms are taken once a window."""
        params = self.params
        T = params.hop_dwell
        tables = self._tables
        p_mix = 1.0 - p_as - p_af
        # all-success term; mm is a window's last trial count the pmf table counts
        mm = np.minimum(ms, len(tables.support))
        waits = tables.xf_cum[mm, self.ks[cols]] * params.trial_time
        c_as = (params.rate_v2v * (T - waits) + params.rate_cell * (T - ts)) / T
        c_as = np.where(ms >= 1, c_as, 0.0)
        # all-failure term
        amount = params.rate_v2i * (T - ts) + params.rate_cell * ts
        c_af = amount / (2.0 * T + tables.exp_max_wait[cols])
        # Mixture: row x of a cell caps the success bottleneck at x trials
        # and counts where x <= m; the last row caps the leftover mass.  The
        # windows fall in three classes, alike for every route of a block.
        # Where the fallback rate's supremum is zero the mixture rate is
        # zero, and nothing divides by the supremum.  Where no cap binds (the
        # cellular rate and the success rate at the last counted trial, the
        # lowest of the counted rows, both reach the supremum) every row
        # reads J(1), and the rows' weights, the pmf up to m and the leftover
        # mass, add up to 1 (less the pmf table's dropped tail, at most
        # k * 1e-15), so each cell reads its route's J(1).  The cells of the
        # rest read the mixture tables, every trial-count row of a cell in
        # one table gather, in passes of at most _BLOCK_CELLS (row, cell)
        # pairs, and a row capped at 1 reads J(1) as a free cell does.
        cap = params.rate_cell
        sup = amount / (2.0 * T)
        lowest = params.rate_v2v * (T - mm * params.trial_time) / T + params.rate_cell * (T - ts) / T
        live = sup > 0.0
        free = live & (cap >= sup) & ((mm == 0) | (lowest >= sup))
        c_mix = np.where(free, sup * tables.j1[cols], 0.0)
        bind = live & ~free
        if bind.any():  # the cells of binding windows, flattened
            bind = np.flatnonzero(np.broadcast_to(bind, c_mix.shape))
            sup, ms, ts, cols = (np.broadcast_to(x, c_mix.shape).ravel() for x in (sup, ms, ts, cols))
            flat = c_mix.reshape(-1)
            xs = tables.support[:, None]
            step = max(1, _BLOCK_CELLS // (len(xs) + 1))
            for a in range(0, bind.size, step):
                cells = bind[a : a + step]
                s, m, owner = sup[cells], ms[cells], cols[cells]
                k = self.ks[owner]
                s_rates = (
                    params.rate_v2v * (T - xs * params.trial_time) / T
                    + params.rate_cell * (T - ts[cells][None, :]) / T
                )
                caps = np.vstack([np.clip(np.minimum(s_rates, cap), 0.0, s) / s, np.minimum(cap / s, 1.0)])
                integral = _mixture_integral(self._mixture, tables.first[owner], caps)
                integral = np.where(caps == 1.0, tables.j1[owner], integral)
                terms = np.where(xs <= m, tables.pmf[:, k] * integral[:-1], 0.0)
                flat[cells] = s * (_sum_rows(terms) + tables.leftover[m, k] * integral[-1])
        return p_as * c_as + p_af * c_af + p_mix * c_mix
