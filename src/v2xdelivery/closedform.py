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
pass.  It owns every coefficient and table of its routes: one per-hop
coefficient column per distinct hop, built with the stack; the mixed
routes' joint-outcome sums and J(1), built into stacked arrays on the first
read that needs them; and their mixture tables, built only on the first
read where a cap on the mixture binds.  It has two reads, which run one
per-hop stage: :meth:`_RouteStack.read` takes (route, window) probes, one
route per window, with its per-hop stage :meth:`_RouteStack.hops` as the
first half; :meth:`_RouteStack.grid` takes routes over one shared window
grid, runs the per-hop stage once per distinct hop, and builds each
route's sums and products from those rows.
:class:`RouteEvaluator` is a view of one route of a stack: every reading of
a view is a read of its stack at the view's column.
The quadrature forms above are independent oracles: the runtime never calls
them, and the test suite checks the kernel against them.  They alone need
scipy, and import it on first call; the kernel's mixture integral is J(1)
where no cap binds and a native Hermite table (:func:`_mixture_table`)
where one does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    _FLOOR_NUDGE,
    _check_window,
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
    t = _check_window(t, params)
    T = params.hop_dwell
    theta = (1.0 - params.decode_ok_pair) ** max_trials(t, params.trial_time)
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


def _expected_max_exponential_exact(rates: Sequence[float]) -> float:
    # Inclusion-exclusion over subsets; exact, used by RouteEvaluator and as
    # a cross-check of the quadrature route.  O(2^k) in time and memory.
    mus = list(rates)
    if len(mus) > 20:
        raise ValueError("inclusion-exclusion limited to 20 rates")
    # Entry `mask` belongs to the subset of mask's set bits: its rate sum,
    # added in increasing bit order, and its inclusion-exclusion sign.
    sums = np.zeros(1)
    signs = -np.ones(1)
    for mu in mus:
        sums = np.concatenate([sums, sums + mu])
        signs = np.concatenate([signs, -signs])
    # cumsum adds the terms one at a time in mask order.
    return float(np.cumsum(signs[1:] / sums[1:])[-1]) if mus else 0.0


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
    t = _check_window(t, params)
    m = max_trials(t, params.trial_time)
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
    t = _check_window(t, params)
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
    # Drop support whose max-PMF tail mass is negligible.
    if q > 0.0:
        tail_cut = int(math.ceil(math.log(_PMF_TAIL_CUTOFF) / math.log(q))) + 1
        hi = min(m, max(tail_cut, 1))
    else:
        hi = 1
    xs = np.arange(1, hi + 1, dtype=float)
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
    t = _check_window(t, params)
    T = params.hop_dwell
    m = max_trials(t, params.trial_time)
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
    _check_window(t, params)
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
    p_as, p_af, p_mix = scenario_probabilities(route, t, params)
    if len(route.hops) == 1:
        _, c_as, c_af = mean_rates(route.hops[0], t, params)
        return RateDecomposition(p_as, p_af, p_mix, c_as, c_af, params.rate_cell)
    m = max_trials(t, params.trial_time)
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


def _breakpoints(params: SystemParams) -> np.ndarray:
    """Window values where a new whole trial fits; includes 0 and T."""
    T = params.hop_dwell
    js = np.arange(max_trials(T, params.trial_time) + 1, dtype=float) * params.trial_time
    js = np.minimum(js, T)
    if js[-1] < T:
        js = np.append(js, T)
    return np.unique(js)


#: Most cells one array of a grid read's block, or of a binding mixture pass, holds.
_BLOCK_CELLS = 1 << 13
#: Intervals of the mixture table's v grid, v_i = i / _TABLE_INTERVALS.
_TABLE_INTERVALS = 4000
#: Rows of a mixture table: J at each interval's left node, six coefficients.
_TABLE_COLUMNS = 7


def _hop_factors(mu: float, wait: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One hop's factors of W, W' and W'' at the interior nodes of the v grid:
    1 + a / mu, a and a (a + mu), with a = mu / expm1(mu w)."""
    with np.errstate(over="ignore"):  # expm1 overflows to inf where a hop's factor is 1
        a = mu / np.expm1(mu * wait)
    return 1.0 + a / mu, a, a * (a + mu)  # 1 - exp(-x) = 1 / (1 + 1 / expm1(x))


def _mixture_nodes(lam: np.ndarray, T: float, factors: dict) -> tuple[np.ndarray, ...]:
    """The node pass of a mixture table: W, W' and W'' at the nodes, and J at
    each interval's left node (see :func:`_mixture_table`).

    ``factors`` maps an arrival rate to its :func:`_hop_factors`; a rate
    missing from it is computed and added, so routes that share a rate
    share its factors.
    """
    n = _TABLE_INTERVALS
    v = np.arange(1, n) / n  # the interior nodes
    wait = 2.0 * T * (1.0 - v) / v
    dwait = -2.0 * T / v**2
    W = np.zeros(n + 1)
    W[:-1] = 1.0
    A = np.zeros(n - 1)
    B = np.zeros(n - 1)
    for mu in lam:
        if mu not in factors:
            factors[mu] = _hop_factors(mu, wait)
        f, a, b = factors[mu]
        W[1:-1] /= f
        A += a
        B += b
    # Derivatives in the unit coordinate s = n v of each interval.
    m = np.zeros(n + 1)
    q = np.zeros(n + 1)
    m[1:-1] = W[1:-1] * A * dwait / n
    q[1:-1] = W[1:-1] * ((A * A - B) * dwait**2 - 2.0 * A * dwait / v) / n**2
    if len(lam) == 2:
        q[-1] = 8.0 * T * T * lam[0] * lam[1] / n**2
    area = 0.5 * (W[:-1] + W[1:]) + (m[:-1] - m[1:]) / 10.0 + (q[:-1] + q[1:]) / 120.0
    # Running sums in blocks of 80 intervals, offset by the running sum of
    # the block totals: about 130 roundings on any path, not 4000.
    inside = np.cumsum((area / n).reshape(-1, 80), axis=1)
    before = np.concatenate([[0.0], np.cumsum(inside[:-1, -1])])
    J = np.zeros(n)
    J[1:] = (before[:, None] + inside).ravel()[:-1]
    return W, m, q, J


def _hermite_rows(W: np.ndarray, m: np.ndarray, q: np.ndarray, J: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the table columns of the intervals between
    consecutive nodes of W, m and q, whose left nodes hold J."""
    n = _TABLE_INTERVALS
    y0, y1, m0, m1, q0, q1 = W[:-1], W[1:], m[:-1], m[1:], q[:-1], q[1:]
    rise = y1 - y0
    out[0] = J
    out[1] = y0 / n
    out[2] = m0 / (2 * n)
    out[3] = q0 / (6 * n)
    out[4] = (10.0 * rise - 6.0 * m0 - 4.0 * m1 - 1.5 * q0 + 0.5 * q1) / (4 * n)
    out[5] = (-15.0 * rise + 8.0 * m0 + 7.0 * m1 + 1.5 * q0 - q1) / (5 * n)
    out[6] = (6.0 * rise - 3.0 * m0 - 3.0 * m1 - 0.5 * q0 + 0.5 * q1) / (6 * n)
    return out


def _mixture_table(
    lam: np.ndarray, T: float, out: np.ndarray | None = None, factors: dict | None = None
) -> np.ndarray:
    """Hermite table of J(c), the integral over [0, c] of the fallback survival W.

    W(v) = prod_h (1 - exp(-lam_h w)), w = 2T(1 - v)/v, is the survival of a
    route's fallback bottleneck rate in coordinates v = rate / supremum,
    where it does not depend on the window.  J integrates W's quintic
    Hermite interpolant on the v grid, which matches W, W' and W'' at every
    node.  Both derivatives are analytic, so no linear solve is needed (de
    Boor, A Practical Guide to Splines, 1978): with a_h = lam_h / expm1(lam_h w)
    and A = sum_h a_h,

        W' = W A w',   W'' = W ((A^2 - sum_h a_h (a_h + lam_h)) w'^2 + A w''),

    w' = -2T/v^2 and w'' = 4T/v^3.  At v = 0 both vanish; at v = 1, where
    W ~ prod_h lam_h w^k, so does W' (k >= 2 hops), and W'' = 8 T^2 lam_1
    lam_2 for k = 2, 0 for more.  Column i holds J(v_i) and the coefficients
    of J(v_i + s / _TABLE_INTERVALS) - J(v_i), a sextic in s in [0, 1] with
    no constant term, lowest power first; :func:`_mixture_integral` reads
    it.  ``out``, if given, receives the (_TABLE_COLUMNS, _TABLE_INTERVALS)
    table; ``factors`` is as in :func:`_mixture_nodes`.
    """
    out = np.empty((_TABLE_COLUMNS, _TABLE_INTERVALS)) if out is None else out
    return _hermite_rows(*_mixture_nodes(lam, T, {} if factors is None else factors), out)


def _mixture_j1(lam: np.ndarray, T: float, factors: dict) -> float:
    """J(1) of ``_mixture_table(lam, T)``, read from its last interval as
    :func:`_mixture_integral` reads c = 1, without building the table."""
    W, m, q, J = _mixture_nodes(lam, T, factors)
    last = _hermite_rows(W[-2:], m[-2:], q[-2:], J[-1:], np.empty((_TABLE_COLUMNS, 1)))
    return float(_hermite_read(last, np.zeros(1, dtype=np.intp), 1.0)[0])


def _mixture_integral(table: np.ndarray, first: np.ndarray, c: np.ndarray) -> np.ndarray:
    """J(c) of a route stack's mixture tables: one index for every cell,
    gathered from each coefficient row, then Horner.

    ``table`` holds the routes' :func:`_mixture_table` tables side by side,
    (_TABLE_COLUMNS, routes * _TABLE_INTERVALS); cell c[..., j] reads the
    route whose table starts at column ``first[j]``, and c lies in [0, 1].
    """
    u = c * _TABLE_INTERVALS
    i = np.minimum(u.astype(np.intp), _TABLE_INTERVALS - 1)
    return _hermite_read(table, first + i, u - i)


def _hermite_read(table: np.ndarray, at: np.ndarray, s) -> np.ndarray:
    """Table columns ``at`` read at s in [0, 1] of their intervals, by Horner."""
    poly = table[-1].take(at)
    for j in range(_TABLE_COLUMNS - 2, 0, -1):
        poly *= s
        poly += table[j].take(at)
    return table[0].take(at) + s * poly


@dataclass(frozen=True)
class _JointTables:
    """Joint-outcome tables of a route stack, routes along the last axis;
    routes without a mixture read none of them and hold zeros.

    They hold what every mixed cell reads, J(1) of each route among it; the
    mixture tables themselves, read only where a cap binds, are the stack's
    separate ``_mixture``.
    """

    support: np.ndarray  # (pieces,) trial counts x of the geometric-max table
    pmf: np.ndarray  # (pieces, routes) P(max trial count = x)
    xf_cum: np.ndarray  # (pieces + 1, routes) prefix sums of x * pmf
    leftover: np.ndarray  # (m_top + 1, routes) mass of the max trial count beyond m
    exp_max_wait: np.ndarray  # (routes,) exact E[max] of the hops' exponential waits
    j1: np.ndarray  # (routes,) J(1) of each route's _mixture_table
    pmf_j1_cum: np.ndarray  # (pieces + 1, routes) prefix sums of pmf * j1, added row by row
    first: np.ndarray  # (routes,) each route's first column in _RouteStack._mixture, 0 if it has none


class RouteEvaluator:
    """Vectorized evaluator of one route's closed forms over many windows.

    An evaluator is a view of one route of a :class:`_RouteStack`, which
    owns every coefficient and table the view reads.  Built alone, it is
    the one route of its own stack; a solve reads the views of one stack of
    all its routes (:meth:`_RouteStack.evaluators`), so a route's grid
    reads, its stacked reads and its one-window reads share one copy of its
    tables.  :meth:`series` is the one-route case of the stack's grid read
    (see :class:`_RouteStack`); the one-window readings (:meth:`latency`,
    :meth:`rate_closed`, ...) are one-window reads of the stack.  Agreement
    with the direct quadrature forms is pinned by tests.
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

    def hop_latencies(self, t: float) -> np.ndarray:
        return self._hop_stage([t])[2]["hop_latency"][:, 0]

    def hop_rates(self, t: float) -> np.ndarray:
        return self._hop_stage([t])[2]["hop_rate"][:, 0]

    def latency(self, t: float) -> float:
        return float(self._hop_stage([t])[2]["latency"][0])

    def rate_min_of_means(self, t: float) -> float:
        return float(self._hop_stage([t])[2]["rate_min_means"][0])

    def rate_closed(self, t: float) -> float:
        """Joint-outcome route rate, identical in value to e2e_rate_closed."""
        return float(self._stack.read(self._col, [t])["rate_closed"][0])

    # -- the kernel, one route: reads of this route's stack column ----------

    def _hop_stage(self, ts) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], dict[str, np.ndarray]]:
        """Per-hop stage of this route's kernel read (see _RouteStack.hops)."""
        return self._stack.hops(self._col, ts)

    def series(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate latency and both rate readings over a window grid.

        Args:
            ts: array of window values inside [0, hop_dwell].

        Returns:
            dict with route-level arrays under ``latency``, ``rate_closed``,
            ``rate_min_means`` and per-hop (k, len(ts)) arrays under
            ``hop_latency``, ``hop_rate``.
        """
        out = self._stack.grid(ts, [self._col], keep_hops=True)
        rows = out["hop_index"][:, 0]
        hop_rate = out["hop_rate"][rows]
        return {
            "latency": out["latency"][0],
            "rate_min_means": hop_rate.min(axis=0),
            "hop_latency": out["hop_latency"][rows],
            "hop_rate": hop_rate,
            "rate_closed": out["rate_closed"][0],
        }


class _RouteStack:
    """Several routes read by one kernel, which owns every closed-form
    coefficient and table of its routes.

    The stack records its distinct hops by (arrival rate, deg), one
    coefficient column each (``distinct``), plus one padding column, and
    each route's column at every hop, ``at`` (k_max, routes); a route
    shorter than k_max reads the padding column past its last hop.  Padded hops are neutral:
    they add 0 to the latency sum, 1 to the survival products and +inf to
    the minimum, and the sums and products run row by row in hop order, so
    a padded route reads the same bits as its route alone.

    There are two reads, and both run one per-hop stage (:meth:`_stage`) on
    coefficient columns.  :meth:`read` takes window i of route cols[i] (the
    lockstep search and ``analyze``); its per-hop stage :meth:`hops` is the
    first half of it.  :meth:`grid` takes routes over one shared window
    grid (the envelope, and :meth:`RouteEvaluator.series`): it runs the
    per-hop stage once on the distinct hops those routes hold, and each
    route adds and multiplies its hops' rows.  A cell reads the same bits
    in either.

    The joint-outcome tables of every mixed route are built on the first
    read that needs them, straight into stacked arrays (see _JointTables),
    sharing each distinct arrival rate's factors.  A window whose mixture
    caps do not bind, as every window does at the stock rates, reads its
    route's J(1) through a prefix sum; the mixture tables wait for the
    first window where a cap binds, and each of its (trial-count row,
    window) cells then takes its coefficients through one index.
    """

    def __init__(self, routes: Sequence[Route], params: SystemParams):
        self.routes = tuple(routes)
        self.params = params
        T = params.hop_dwell
        self.ks = np.array([len(r.hops) for r in self.routes])
        first = {}
        for route in self.routes:
            for h in route.hops:
                first.setdefault((h.arrival_rate, h.deg), h)
        self.distinct = list(first.values())
        column = {key: i for i, key in enumerate(first)}
        self.at = np.full((self.ks.max(), len(self.ks)), len(column))
        for j, route in enumerate(self.routes):
            self.at[: self.ks[j], j] = [column[h.arrival_rate, h.deg] for h in route.hops]
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
        pad = self.at == len(column)
        self.pad = pad if pad.any() else None
        # All-forward routes carry at the cellular rate and a one-hop route
        # at its hop's mean; the rest read the joint-outcome mixture.
        self.forward = np.all((deg == 1)[self.at], axis=0)
        self.mixed = ~self.forward & (self.ks > 1)

    def evaluators(self) -> list[RouteEvaluator]:
        """A view of every route, in order; each reads this stack's tables."""
        return [RouteEvaluator.__new__(RouteEvaluator)._bind(self, j) for j in range(len(self.routes))]

    def _arrival_rates(self, j: int) -> np.ndarray:
        """Route j's arrival rates, in hop order."""
        return self.coef[0, self.at[: self.ks[j], j]]

    @functools.cached_property
    def _tables(self) -> _JointTables:
        params = self.params
        T = params.hop_dwell
        trial_fail = 1.0 - params.decode_ok_pair
        max_m = max_trials(T, params.trial_time)
        # Geometric-max table, truncated where the tail mass dies.
        if trial_fail > 0.0:
            tail = int(math.ceil(math.log(_PMF_TAIL_CUTOFF) / math.log(trial_fail))) + 1
            hi = max(1, min(max_m, tail))
        else:
            hi = 1
        support = np.arange(1, hi + 1, dtype=float) if max_m >= 1 else np.empty(0)
        m_top = max_trials(T * (1 + 1e-12), params.trial_time)
        n = len(self.routes)
        pmf = np.zeros((len(support), n))
        xf_cum = np.zeros((len(support) + 1, n))
        leftover = np.zeros((m_top + 1, n))
        exp_max_wait = np.zeros(n)
        j1 = np.zeros(n)
        mixed = np.flatnonzero(self.mixed)
        # The tables of the geometric max depend on the hop count alone.
        for k in np.unique(self.ks[mixed]).tolist():
            cols = mixed[self.ks[mixed] == k]
            f = geometric_max_pmf(support, k, params.decode_ok_pair)
            pmf[:, cols] = f[:, None]
            xf_cum[1:, cols] = np.cumsum(support * f)[:, None]
            # Mass beyond every m the kernel takes, by Python's scalar **
            # (NumPy's array ** can differ in the last bit).
            leftover[:, cols] = np.array([1.0 - (1.0 - trial_fail**m) ** k for m in range(m_top + 1)])[:, None]
        factors = {}
        for j in mixed.tolist():
            lam = self._arrival_rates(j)
            exp_max_wait[j] = _expected_max_exponential_exact(lam)
            j1[j] = _mixture_j1(lam, T, factors)
        pmf_j1_cum = np.zeros_like(xf_cum)
        pmf_j1_cum[1:] = np.cumsum(pmf * j1, axis=0)
        return _JointTables(
            support=support,
            pmf=pmf,
            xf_cum=xf_cum,
            leftover=leftover,
            exp_max_wait=exp_max_wait,
            j1=j1,
            pmf_j1_cum=pmf_j1_cum,
            first=np.maximum(np.cumsum(self.mixed) - 1, 0) * _TABLE_INTERVALS,
        )

    @functools.cached_property
    def _mixture(self) -> np.ndarray:
        """The mixed routes' :func:`_mixture_table` tables side by side,
        (_TABLE_COLUMNS, mixed * _TABLE_INTERVALS), built on the first read
        where a cap binds."""
        mixed = np.flatnonzero(self.mixed)
        tables = np.empty((_TABLE_COLUMNS, len(mixed), _TABLE_INTERVALS))
        factors = {}
        for r, j in enumerate(mixed.tolist()):
            _mixture_table(self._arrival_rates(j), self.params.hop_dwell, out=tables[:, r], factors=factors)
        return tables.reshape(_TABLE_COLUMNS, -1)

    def _windows(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Checked windows, their whole-trial counts m and theta = (1 - p)^m.

        A window passes up to hop_dwell * (1 + 1e-12) and is then clamped to
        hop_dwell, as the one-window checks and the simulator clamp it, so
        it reads the bits of hop_dwell; a window inside [0, hop_dwell]
        comes back unchanged.
        """
        params = self.params
        ts = np.asarray(ts, dtype=float)
        if not np.all((ts >= 0.0) & (ts <= params.hop_dwell * (1 + 1e-12))):
            raise ValueError("discovery window t must lie in [0, hop_dwell]")
        ts = np.minimum(ts, params.hop_dwell)
        ms = np.floor(ts / params.trial_time + _FLOOR_NUDGE).astype(int)
        return ts, ms, (1.0 - params.decode_ok_pair) ** ms

    def _stage(self, coef, ts, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The per-hop algebra: each hop's latency, probabilities of discovery
        success and of fallback, and mean rate, for coefficient columns
        ``coef`` (8, ...) broadcast against windows ``ts`` and their theta."""
        params = self.params
        T = params.hop_dwell
        lam, fwd, rest, failure_excess, succ_base, succ_slope, fail_base, fail_slope = coef
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

        The coefficient columns are gathered for the longest route read, and
        padded hops, which read 0 latency, +inf rate and probabilities 1,
        are overridden only where that slice holds any.  Returns the
        checked windows and the whole-trial count of every window, each
        hop's probabilities of discovery success and of fallback, and every
        reading of ``read`` except ``rate_closed``; per-hop callers stop
        here and never pay for the joint-outcome mixture.
        """
        ts, ms, theta = self._windows(ts)
        cols = np.atleast_1d(cols)
        k = self.ks[cols].max(initial=1)  # every route has a hop; 1 serves an empty read
        hop_lat, success, failure, hop_rates = self._stage(self.coef[:, self.at[:k, cols]], ts, theta)
        pad = None if self.pad is None else self.pad[:k, cols]
        if pad is not None and pad.any():
            hop_lat[pad] = 0.0
            hop_rates[pad] = np.inf
            success[pad] = 1.0
            failure[pad] = 1.0
        return (ts, ms), (success, failure), {
            "latency": _sum_rows(hop_lat),
            "rate_min_means": hop_rates.min(axis=0),
            "hop_latency": hop_lat,
            "hop_rate": hop_rates,
        }

    def read(self, cols, ts) -> dict[str, np.ndarray]:
        """Every reading of ``series`` at window ts[i] of route cols[i]: the
        per-hop stage (see hops), then the joint-outcome route rate.

        Per-hop arrays are (k, len(ts)), k the longest route read, and
        include its padded hops.  One route index reads every window.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        cols = np.broadcast_to(cols, ts.shape)
        (ts, ms), (success, failure), out = self.hops(cols, ts)
        rate = np.where(self.forward[cols], self.params.rate_cell, out["hop_rate"][0])
        mixed = self.mixed[cols]
        sel = slice(None) if mixed.all() else np.flatnonzero(mixed)
        if isinstance(sel, slice) or sel.size:
            p_as, p_af = (_sum_rows(p[:, sel], np.multiply) for p in (success, failure))
            rate[sel] = self._mixed_rate(cols[sel], ts[sel], ms[sel], p_as, p_af)
        out["rate_closed"] = rate
        return out

    def grid(self, ts, cols=None, keep_hops: bool = False) -> dict[str, np.ndarray]:
        """Routes ``cols`` (default: all) over one shared window grid ``ts``.

        The per-hop stage runs once on the distinct hops those routes hold,
        and their trial counts and theta once on the grid.  Each route then
        adds its hops' latency rows and multiplies their success and
        failure rows in place, in hop order, and each hop's rate row is
        reduced to its min and max as it is computed.  The grid is taken
        in blocks of windows, so each scratch array of a block holds about
        _BLOCK_CELLS cells; every cell reads the bits of its own one-window
        ``read``.

        Returns (routes, len(ts)) arrays under ``latency`` and
        ``rate_closed``, and each route's lowest and highest hop rate over
        the grid under ``hop_rate_min`` and ``hop_rate_max``.  With
        ``keep_hops`` it also returns the (hops, len(ts)) rows of the
        distinct hops read under ``hop_latency`` and ``hop_rate``: hop h of
        route r is row ``hop_index[h, r]``.
        """
        params = self.params
        ts, ms, theta = self._windows(ts)
        cols = np.arange(len(self.routes)) if cols is None else np.asarray(cols)
        ks = self.ks[cols]
        # The distinct hops read, and the padding column last: hop h of
        # route r is row index[h, r] of the stage.
        hops = np.union1d(self.at[: ks.max(), cols], [self.coef.shape[1] - 1])
        index = np.searchsorted(hops, self.at[: ks.max(), cols])
        coef = self.coef[:, hops, None]
        single = np.flatnonzero(~self.forward[cols] & (ks == 1))
        mixed = np.flatnonzero(self.mixed[cols])
        mixed_index = index[: ks[mixed].max(initial=1), mixed]
        if mixed.size:
            self._tables  # built, and its scratch freed, before the rows below exist
        n = len(ts)
        latency = np.empty((len(cols), n))
        rate = np.empty((len(cols), n))
        rate[self.forward[cols]] = params.rate_cell
        low = np.full(len(hops), np.inf)
        high = np.full(len(hops), -np.inf)
        kept = [np.empty((len(hops), n)), np.empty((len(hops), n))] if keep_hops else []
        blocks = max(1, -(-n * max(len(hops), len(cols)) // _BLOCK_CELLS))
        step = max(1, -(-n // blocks))
        for a in range(0, n, step):
            b = slice(a, a + step)
            hop_lat, success, failure, hop_rate = self._stage(coef, ts[b], theta[b])
            hop_lat[-1], success[-1], failure[-1], hop_rate[-1] = 0.0, 1.0, 1.0, np.inf  # the padding row
            np.minimum(low[:-1], hop_rate[:-1].min(axis=1), out=low[:-1])
            np.maximum(high[:-1], hop_rate[:-1].max(axis=1), out=high[:-1])
            for rows, row in zip(kept, (hop_lat, hop_rate)):
                rows[:, b] = row
            latency[:, b] = _sum_rows(hop_lat[i] for i in index)
            rate[single, b] = hop_rate[index[0, single]]
            if mixed.size:
                p_as, p_af = (_sum_rows((p[i] for i in mixed_index), np.multiply) for p in (success, failure))
                w = p_as.shape[1]
                rate[mixed, b] = self._mixed_rate(
                    np.repeat(cols[mixed], w), np.tile(ts[b], len(mixed)), np.tile(ms[b], len(mixed)),
                    p_as.ravel(), p_af.ravel(),
                ).reshape(len(mixed), w)
        out = {
            "latency": latency,
            "rate_closed": rate,
            "hop_rate_min": low[index].min(axis=0),
            "hop_rate_max": high[index].max(axis=0),
        }
        if keep_hops:
            out.update(hop_latency=kept[0], hop_rate=kept[1], hop_index=index)
        return out

    def _mixed_rate(self, cols, ts, ms, p_as, p_af) -> np.ndarray:
        """Joint-outcome rate of mixed route cols[i] at window ts[i], given
        the window's trial count and its route's success and failure
        products."""
        params = self.params
        T = params.hop_dwell
        tables = self._tables
        p_mix = 1.0 - p_as - p_af
        # all-success term; mm is a window's last trial count the pmf table counts
        mm = np.minimum(ms, len(tables.support))
        waits = tables.xf_cum[mm, cols] * params.trial_time
        c_as = (params.rate_v2v * (T - waits) + params.rate_cell * (T - ts)) / T
        c_as = np.where(ms >= 1, c_as, 0.0)
        # all-failure term
        c_af = (params.rate_v2i * (T - ts) + params.rate_cell * ts) / (2.0 * T + tables.exp_max_wait[cols])
        # Mixture: row x of a cell caps the success bottleneck at x trials
        # and counts where x <= m; the last row caps the leftover mass.  The
        # cells fall in three classes.  Where the fallback rate's supremum
        # is zero the mixture rate is zero, and nothing divides by the
        # supremum.  Where no cap binds (the cellular rate and the success
        # rate at the last counted trial, the lowest of the counted rows,
        # both reach the supremum) every row reads J(1), so the cell reads
        # its route's prefix sum of pmf * J(1).  The rest read the mixture
        # tables, every trial-count row of a cell in one table gather, in
        # passes of at most _BLOCK_CELLS (row, cell) pairs.
        c_mix = np.zeros_like(ts)
        cap = params.rate_cell
        amount = params.rate_v2i * (T - ts) + params.rate_cell * ts
        sup = amount / (2.0 * T)
        lowest = params.rate_v2v * (T - mm * params.trial_time) / T + params.rate_cell * (T - ts) / T
        live = sup > 0.0
        free = live & (cap >= sup) & ((mm == 0) | (lowest >= sup))
        owner = cols[free]
        c_mix[free] = sup[free] * (
            tables.pmf_j1_cum[mm[free], owner] + tables.leftover[ms[free], owner] * tables.j1[owner]
        )
        bind = np.flatnonzero(live & ~free)
        xs = tables.support[:, None]
        step = max(1, _BLOCK_CELLS // (len(xs) + 1))
        for a in range(0, bind.size, step):
            cells = bind[a : a + step]
            s, m = sup[cells], ms[cells]
            owner = cols[cells]
            s_rates = (
                params.rate_v2v * (T - xs * params.trial_time) / T
                + params.rate_cell * (T - ts[cells][None, :]) / T
            )
            caps = np.vstack([np.clip(np.minimum(s_rates, cap), 0.0, s) / s, np.minimum(cap / s, 1.0)])
            integral = _mixture_integral(self._mixture, tables.first[owner], caps)
            terms = np.where(xs <= m, tables.pmf[:, owner] * integral[:-1], 0.0)
            c_mix[cells] = s * (_sum_rows(terms) + tables.leftover[m, owner] * integral[-1])
        return p_as * c_as + p_af * c_af + p_mix * c_mix
