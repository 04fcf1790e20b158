"""Window optimization over one or many candidate routes.

The decision variable is the discovery window t, shared by every hop of a
route in the coordinated setting or chosen per hop in the distributed one.
The objective trades the end-to-end rate against the end-to-end latency:

    F(t) = weight * rate_norm(t) - (1 - weight) * latency_norm(t)

where both readings are min-max normalized over a shared context so the
trade-off weight is meaningful across routes.  F is written once, as a
vectorized function of the readings, whether for a whole scan grid or one
window.  There is one search: the distributed solve runs it over every
distinct hop at once, each hop a one-hop route on its own scale.  The
objective is piecewise smooth in t: every multiple of the trial time admits
one more whole trial into the window, which moves probability mass between
branches in a jump.  The pieces depend only on the parameters, so a solve
builds one scan grid (piece edges, interiors, insets) for every route and
reads all its routes over it in one grid read of their stack, which runs
the per-hop stage once per distinct hop; that read serves the envelope and
the search alike.  None of that depends on the weight, so one solve serves
many weights: a search task is a (route, scale, weight) triple, and every
task reads the same grid read.  Derivative-sign changes are bracketed over all
pieces in one array pass per task, and every bracket of every task is
polished by one bisection in lockstep: a step reads the central-difference
probes of all open brackets in one route-stacked kernel call, so a solve
makes at most 81 such calls whatever its route and weight count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closedform import RouteEvaluator, _breakpoints, _RouteStack, _sum_rows
from .model import _check_window, Route, SystemParams

__all__ = [
    "NormalizationContext",
    "OptimizationOutcome",
    "DistributedOutcome",
    "build_normalization",
    "solve_global",
    "solve_distributed",
    "kkt_stationarity_check",
    "verify_concavity",
]

# Window values closer than this (relative to the dwell) are considered equal.
_REL_T_TOL = 1e-9
# Step used by derivative probes, relative to the trial time.
_REL_PROBE = 1e-4
# Interior sample count per smooth piece in the scan grids.
_PIECE_SAMPLES = 7
# Objective values closer than this tie in the solvers' selection rules.
_TIE = 1e-15
# Sample count per smooth piece in the concavity probe.
_CONCAVITY_SAMPLES = 16


@dataclass(frozen=True)
class NormalizationContext:
    """Min-max envelopes that map raw readings onto [0, 1].

    Built once from the candidate routes and reused for every evaluation so
    objective values stay comparable.  Degenerate envelopes (max == min)
    normalize to zero.
    """

    latency_min: float
    latency_max: float
    rate_min: float
    rate_max: float

    def latency_norm(self, value):
        return _unit(value, self.latency_min, self.latency_max)

    def rate_norm(self, value):
        return _unit(value, self.rate_min, self.rate_max)


def _unit(value, low, high):
    """(value - low) / (high - low), or 0 where that span is not positive.

    The bounds may be arrays, one pair per value: a lockstep search scores
    each probe on its own route's scale.
    """
    span = high - low
    if np.ndim(span):
        return np.divide(value - low, span, out=np.zeros(np.shape(span)), where=span > 0.0)
    if span <= 0.0:
        return np.zeros_like(value, dtype=float) if isinstance(value, np.ndarray) else 0.0
    return (value - low) / span


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of a shared-window search over candidate routes."""

    t_star: float
    objective: float
    route_index: int
    latency: float
    rate: float
    per_route_best: tuple[tuple[float, float], ...] = ()
    kkt: dict = field(default_factory=dict)
    context: NormalizationContext | None = None  # the scale every objective was scored on


@dataclass(frozen=True)
class DistributedOutcome:
    """Result of per-hop window selection, reported against the shared scale."""

    windows: tuple[float, ...]
    objective: float
    route_index: int
    latency: float
    rate: float
    per_route: tuple[tuple[tuple[float, ...], float], ...] = ()


@dataclass(frozen=True)
class _ScanGrid:
    """Piecewise sample grid over [0, T]: edges, insets, interiors."""

    ts: np.ndarray
    pieces: np.ndarray  # (pieces, _PIECE_SAMPLES + 2) indices, -1 where absent
    probe: float


def _scan_grid(params: SystemParams) -> _ScanGrid:
    """Sample grid holding, per smooth piece [a, b): the left edge a, up to
    _PIECE_SAMPLES interior points, and the inset b - probe standing in for
    the left limit at b; plus the domain end T.  It depends only on the
    parameters, so one grid serves every route of a solve."""
    h = _REL_PROBE * params.trial_time
    edges = _breakpoints(params)
    a, b = edges[:-1], edges[1:]
    # Row = [edge, interiors..., inset] so sign-change bracketing sees the
    # whole piece; a peak between the edge and the first interior sample
    # would otherwise never produce a rising difference.
    wide = b - a >= 6 * h
    samples = np.empty((len(a), _PIECE_SAMPLES + 2))
    samples[:, 0] = a
    samples[wide, 1:-1] = np.linspace(a[wide] + 2 * h, b[wide] - 2 * h, _PIECE_SAMPLES, axis=1)
    samples[:, -1] = b - h
    present = np.ones(samples.shape, dtype=bool)
    present[:, 1:-1] = wide[:, None]
    present[:, -1] = b - h > a
    pieces = np.where(present, np.cumsum(present).reshape(present.shape) - 1, -1)
    return _ScanGrid(ts=np.append(samples[present], params.hop_dwell), pieces=pieces, probe=h)


def _envelope(
    stack: _RouteStack, ts: np.ndarray, cols: Sequence[int] | None = None
) -> tuple[list[NormalizationContext], list[tuple[np.ndarray, np.ndarray]]]:
    """The envelope over ``ts`` of each route of ``stack`` (or of ``cols``),
    see build_normalization, from one grid read, and each route's
    (rate_closed, latency) rows, all a search keeps of that read."""
    out = stack.grid(ts, cols)
    rate, lat = out["rate_closed"], out["latency"]
    scales = [
        NormalizationContext(float(lt.min()), float(lt.max()), min(float(rt.min()), lo), max(float(rt.max()), hi))
        for lt, rt, lo, hi in zip(lat, rate, out["hop_rate_min"].tolist(), out["hop_rate_max"].tolist())
    ]
    return scales, list(zip(rate, lat))


def _hull(scales: Sequence[NormalizationContext]) -> NormalizationContext:
    """The smallest envelope holding every one of ``scales``."""
    return NormalizationContext(
        min(s.latency_min for s in scales),
        max(s.latency_max for s in scales),
        min(s.rate_min for s in scales),
        max(s.rate_max for s in scales),
    )


def build_normalization(routes: Sequence[Route], params: SystemParams) -> NormalizationContext:
    """Min-max envelopes over all candidate routes and the whole window range.

    Latency extremes sit at the window ends, but the grid keeps every piece
    edge anyway.  The rate envelope is widened to cover the per-hop
    bottleneck readings as well, so distributed aggregates normalize into
    the same [0, 1] box: no hop anywhere reads below the lower end or above
    the upper end.
    """
    if not routes:
        raise ValueError("need at least one route")
    return _hull(_envelope(_RouteStack(routes, params), _scan_grid(params).ts)[0])


def _trade_off(rate, latency, context: NormalizationContext, weight):
    """F = weight * rate_norm - (1 - weight) * latency_norm, elementwise.

    ``weight`` may be an array, one per value: the same IEEE operations
    as one weight for all, so a probe reads alike either way.
    """
    return weight * context.rate_norm(rate) - (1.0 - weight) * context.latency_norm(latency)


def _route_objective_series(
    evaluator: RouteEvaluator,
    ts: np.ndarray,
    context: NormalizationContext,
    weight: float,
) -> np.ndarray:
    """Route objective over a window grid: one kernel call."""
    out = evaluator.series(ts)
    return _trade_off(out["rate_closed"], out["latency"], context, weight)


def _brackets(
    grid: _ScanGrid, rows: np.ndarray, values: np.ndarray, T: float
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets (lo, hi) of the interior maxima in one route's grid values.

    A bracket spans two first differences of a piece's samples, rising then
    not rising; ``rows`` are the pieces holding every sample, all bracketed
    in one array pass.  The bracket stays one probe inside the domain so the
    central difference never reads past it; the raw samples already cover a
    peak hiding in that sliver.
    """
    h = grid.probe
    d = np.diff(values[rows], axis=1)
    r, i = np.nonzero((d[:, :-1] > 0.0) & (d[:, 1:] <= 0.0))
    lo = np.maximum(grid.ts[rows[r, i]], h)
    hi = np.minimum(grid.ts[rows[r, i + 2]], T - h)
    keep = lo < hi
    return lo[keep], hi[keep]


def _winner(ts: np.ndarray, values: np.ndarray, T: float) -> tuple[float, float]:
    """Window and value the tie-tolerant rule picks from candidates in order.

    The rule walks the candidates and moves to one that beats the best so
    far by more than _TIE, or ties it within _TIE at a smaller window.  It
    runs on the candidates within (N + 2)(_TIE + d) of the top value M alone,
    N being the candidate count and d a few ulps at M that absorb rounding.
    Exact: at most N kept values split that width into at most N spans, so
    one span, wider than _TIE + d, holds no value inside.  Every value above
    it beats every value below it, and none below ties or beats one above;
    so both walks, once at their first value above it, move only among the
    values above it, alike.  A NaN value or cut keeps every candidate.

    When the kept values are all equal and finite (a hop that always
    forwards reads one value at every window) the walk moves only to a
    strictly smaller window, so it ends on the first candidate at the
    smallest clamped window, and that is read off without the walk.
    """
    top = np.max(values)
    cut = top - (len(values) + 2) * (_TIE + 4 * np.spacing(abs(top) + 1.0))
    keep = ~(values < cut)
    kept = values[keep]
    if np.isfinite(kept[0]) and (kept == kept[0]).all():
        # Clamped as the walk clamps: min(max(t, 0.0), T) keeps a -0.0 window.
        clamped = np.where(ts[keep] < 0.0, 0.0, ts[keep])
        clamped = np.where(clamped > T, T, clamped)
        i = int(np.argmin(clamped))
        return float(clamped[i]), float(kept[i])
    best_t, best_val = 0.0, -math.inf
    for t, v in zip(ts[keep].tolist(), kept.tolist()):
        t = min(max(t, 0.0), T)
        if v > best_val + _TIE or (abs(v - best_val) <= _TIE and t < best_t):
            best_val, best_t = v, t
    return best_t, best_val


def _search(
    stack: _RouteStack,
    grid: _ScanGrid,
    reads: Sequence[tuple[np.ndarray, np.ndarray]],
    tasks: Sequence[tuple[int, NormalizationContext, float]],
) -> list[tuple[float, float]]:
    """Best (window, value) of every task (col, scale, weight): route col of
    ``stack`` scored on ``scale`` at ``weight``.

    ``reads`` are the routes' (rate_closed, latency) grid rows, which every
    task of a route shares.  Interior maxima are bracketed per task and
    polished by one bisection over every bracket of every task in lockstep:
    each step reads the derivative probes (mid - h, mid + h) of all brackets
    still open in one stacked kernel call, and one more call reads every
    peak, so a search makes at most 81 such calls whatever its route and
    weight count.  A bracket closes once narrower than the window tolerance
    or after 80 steps.
    """
    T = stack.params.hop_dwell
    h = grid.probe
    # Rows with an absent sample hold at most two, too few to bracket.
    rows = grid.pieces[(grid.pieces >= 0).all(axis=1)]

    def grid_values(task: tuple[int, NormalizationContext, float]) -> np.ndarray:
        col, scale, weight = task
        rate, lat = reads[col]
        return _trade_off(rate, lat, scale, weight)

    # Grid values are computed again for the winners rather than kept: one
    # per task would hold (routes x weights x grid) floats through the search.
    lo, hi = zip(*(_brackets(grid, rows, grid_values(task), T) for task in tasks))
    owner = np.repeat(np.arange(len(tasks)), [len(a) for a in lo])
    lo, hi = np.concatenate(lo), np.concatenate(hi)

    cols = np.array([col for col, _, _ in tasks])
    bounds = np.array([(s.latency_min, s.latency_max, s.rate_min, s.rate_max) for _, s, _ in tasks])
    weights = np.array([weight for _, _, weight in tasks], dtype=float)

    def objective(owners: np.ndarray, ts: np.ndarray) -> np.ndarray:
        out = stack.read(cols[owners], ts)
        scales = NormalizationContext(*bounds[owners].T)
        return _trade_off(out["rate_closed"], out["latency"], scales, weights[owners])

    tol = _REL_T_TOL * T
    active = np.arange(len(lo))
    for _ in range(80):
        active = active[~(hi[active] - lo[active] < tol)]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        f = objective(np.repeat(owner[active], 2), np.column_stack([mid - h, mid + h]).ravel())
        up = (f[1::2] - f[::2]) / (2 * h) > 0.0
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
    peaks = 0.5 * (lo + hi)
    # One read polishes them all; a window reads alike in any batch.
    peak_values = objective(owner, peaks) if peaks.size else peaks
    cut = np.searchsorted(owner, np.arange(len(tasks) + 1))
    return [
        _winner(np.append(grid.ts, peaks[a:b]), np.append(grid_values(task), peak_values[a:b]), T)
        for task, a, b in zip(tasks, cut[:-1], cut[1:])
    ]


def _check_weight(weight: float) -> None:
    if not 0.0 <= weight <= 1.0:  # NaN fails it too
        raise ValueError("weight must lie in [0, 1]")


def _check_inputs(routes: Sequence[Route], weights: Sequence[float]) -> None:
    if not routes:
        raise ValueError("need at least one route")
    for w in weights:
        _check_weight(w)


def solve_global(
    routes: Sequence[Route],
    params: SystemParams,
    weight: float | None = None,
    context: NormalizationContext | None = None,
    with_kkt: bool = True,
) -> OptimizationOutcome:
    """Coordinated search: one shared window per route, best route wins.

    Ties between routes break toward the smaller window and then the lower
    route index.  The returned outcome carries a first-order optimality
    report for the winning point.
    """
    w = params.weight if weight is None else weight
    return _solve_global(routes, params, [w], context, with_kkt)[0]


def _solve_global(
    routes: Sequence[Route],
    params: SystemParams,
    weights: Sequence[float],
    context: NormalizationContext | None,
    with_kkt: bool,
) -> list[OptimizationOutcome]:
    """:func:`solve_global` at each of ``weights``, one outcome per weight.

    The route stack, its tables, the scan grid and the route envelope
    serve every weight; each (route, weight) pair is one task of one
    lockstep search.  The grid read, the lockstep and the one read of all
    the winners read the stack, so each mixed route's tables are built once.
    """
    _check_inputs(routes, weights)
    stack = _RouteStack(routes, params)
    evaluators = stack.evaluators()
    grid = _scan_grid(params)
    scales, reads = _envelope(stack, grid.ts)
    ctx = context or _hull(scales)
    n = len(evaluators)
    found = _search(stack, grid, reads, [(i, ctx, w) for w in weights for i in range(n)])
    del reads
    per_weight = [tuple(found[j * n : (j + 1) * n]) for j in range(len(weights))]
    winners = []
    for per_route in per_weight:
        best = (-math.inf, math.inf, -1)  # value, window, index
        for i, (t_i, val_i) in enumerate(per_route):
            if val_i > best[0] + _TIE or (abs(val_i - best[0]) <= _TIE and (t_i, i) < (best[1], best[2])):
                best = (val_i, t_i, i)
        winners.append(best)
    # One read of the stack gives every winner's latency and rate.
    _, t_stars, cols = zip(*winners)
    out = stack.read(list(cols), list(t_stars))
    readings = zip(out["latency"].tolist(), out["rate_closed"].tolist())
    return [
        OptimizationOutcome(
            t_star=t_star,
            objective=val,
            route_index=idx,
            latency=lat,
            rate=rate,
            per_route_best=per_route,
            kkt=kkt_stationarity_check(evaluators[idx], t_star, ctx, w) if with_kkt else {},
            context=ctx,
        )
        for w, per_route, (val, t_star, idx), (lat, rate) in zip(weights, per_weight, winners, readings)
    ]


def solve_distributed(
    routes: Sequence[Route],
    params: SystemParams,
    weight: float | None = None,
    context: NormalizationContext | None = None,
) -> DistributedOutcome:
    """Uncoordinated search: every hop picks its own window locally.

    A hop knows nothing of the rest of its route, so its window is the
    coordinated search on that hop alone, as a one-hop route on its own
    scale; each distinct hop is searched once.  The route-level outcome
    aggregates the hops' choices (latency sums, rate is the weakest hop's
    mean reading) and is scored on the shared context, so it can be
    compared with the coordinated solution.
    """
    w = params.weight if weight is None else weight
    return _solve_distributed(routes, params, [w], context)[0]


def _solve_distributed(
    routes: Sequence[Route],
    params: SystemParams,
    weights: Sequence[float],
    context: NormalizationContext | None,
) -> list[DistributedOutcome]:
    """:func:`solve_distributed` at each of ``weights``, one outcome per weight.

    The scan grid, the route envelope, the distinct hops and their envelope
    serve every weight; each (hop, weight) pair is one task of one lockstep
    search.  One read of the hop stack at every (hop, weight) window then
    aggregates every route at every weight.  The route stack names the
    distinct hops and indexes each route's hops into them; it is read only
    for the envelope, when no context is given.
    """
    _check_inputs(routes, weights)
    grid = _scan_grid(params)
    stack = _RouteStack(routes, params)
    if context is None:
        context = _hull(_envelope(stack, grid.ts)[0])
    # Every distinct hop is a one-hop route on its own scale.
    d = len(stack.distinct)
    hop_stack = _RouteStack([Route(hops=(hop,)) for hop in stack.distinct], params)
    scales, reads = _envelope(hop_stack, grid.ts)
    tasks = [(i, scale, w) for w in weights for i, scale in enumerate(scales)]
    found = np.array([t for t, _ in _search(hop_stack, grid, reads, tasks)]).reshape(len(weights), d)
    out = hop_stack.read(np.tile(np.arange(d), len(weights)), found.ravel())
    # Route i reads its hops through the stack's columns at[:, i], in hop
    # order; the padding column d is neutral (0 latency, +inf rate).  Sums
    # add row by row.
    at = stack.at
    lat = np.vstack([out["latency"].reshape(found.shape).T, np.zeros(len(weights))])[at]
    rate = np.vstack([out["rate_min_means"].reshape(found.shape).T, np.full(len(weights), np.inf)])[at]
    lat, rate = _sum_rows(lat), rate.min(axis=0)  # (routes, weights)
    outcomes = []
    for j, w in enumerate(weights):
        windows = [tuple(found[j, at[: len(r.hops), i]].tolist()) for i, r in enumerate(routes)]
        values = _trade_off(rate[:, j], lat[:, j], context, w).tolist()
        best = (-math.inf, -1)
        for i, val in enumerate(values):
            if val > best[0] + _TIE:
                best = (val, i)
        val, idx = best
        outcomes.append(
            DistributedOutcome(
                windows=windows[idx],
                objective=val,
                route_index=idx,
                latency=float(lat[idx, j]),
                rate=float(rate[idx, j]),
                per_route=tuple(zip(windows, values)),
            )
        )
    return outcomes


def kkt_stationarity_check(
    evaluator: RouteEvaluator,
    t_star: float,
    context: NormalizationContext,
    weight: float | None = None,
) -> dict:
    """First-order optimality report for a solved window.

    Interior points away from trial-count jumps must have a vanishing
    derivative; jump points and the domain ends are checked through
    one-sided differences and local value comparison instead.  The report
    carries the classification, the measured derivatives, and a boolean
    verdict under ``ok``.  A weight outside [0, 1] or a window outside
    [0, hop_dwell] is a ValueError.
    """
    params = evaluator.params
    w = params.weight if weight is None else weight
    _check_weight(w)
    _check_window(t_star, params)
    T = params.hop_dwell
    h = _REL_PROBE * params.trial_time

    edges = evaluator.breakpoints()
    near_edge = bool(np.any(np.abs(edges - t_star) < 2.5 * h))
    at_left = t_star < 2.5 * h
    at_right = t_star > T - 2.5 * h

    # Derivative scale from a coarse sweep, so the tolerance tracks the
    # objective's actual variation.  One read serves the sweep and the
    # probes F(t* - h), F(t*), F(t* + h), clamped into the domain.
    sweep = np.linspace(2 * h, T - 2 * h, 64)
    probes = [min(max(t, 0.0), T) for t in (t_star - h, t_star, t_star + h)]
    values = _route_objective_series(evaluator, np.concatenate([sweep - h, sweep + h, probes]), context, w)
    lo, hi = values[:64], values[64:128]
    f_left, f_mid, f_right = values[128:].tolist()
    scale = float(np.max(np.abs((hi - lo) / (2 * h))))
    tol = 1e-6 * max(scale, 1e-12)

    report: dict = {"t_star": t_star, "weight": w, "scale": scale, "tolerance": tol}
    if at_left:
        # t = 0 is also a trial-count edge; a value comparison is the robust
        # boundary condition there.
        d_right = (f_right - f_mid) / h
        ok = f_mid >= f_right - tol
        report.update(kind="boundary_left", derivative=d_right, ok=bool(ok))
    elif at_right:
        d_left = (f_mid - f_left) / h
        report.update(kind="boundary_right", derivative=d_left, ok=bool(d_left >= -tol))
    elif near_edge:
        # Jump point: the point must beat its immediate neighborhood on both
        # sides; a two-sided derivative across the jump is meaningless.
        left_ok = f_mid >= f_left - tol
        right_ok = f_mid >= f_right - tol
        d_left = (f_mid - f_left) / h
        d_right = (f_right - f_mid) / h
        report.update(
            kind="piece_edge",
            derivative_left=d_left,
            derivative_right=d_right,
            ok=bool(left_ok and right_ok),
        )
    else:
        d = (f_right - f_left) / (2 * h)
        report.update(kind="interior", derivative=d, ok=bool(abs(d) < tol))
    return report


def verify_concavity(
    evaluator: RouteEvaluator,
    weight: float | None = None,
    context: NormalizationContext | None = None,
) -> dict:
    """Second-difference probe of the trade-off inside each smooth piece.

    Informational: reports the fraction of interior sample points whose
    second central difference stays at or below +1e-9 (a per-piece concavity
    witness) along with the worst offender.  The objective is only piecewise
    concave at best; jumps between pieces are excluded by construction.
    A weight outside [0, 1] is a ValueError.
    """
    params = evaluator.params
    w = params.weight if weight is None else weight
    _check_weight(w)
    ctx = context or _hull(_envelope(evaluator._stack, _scan_grid(params).ts, [evaluator._col])[0])
    edges = evaluator.breakpoints()
    h = _REL_PROBE * params.trial_time
    xs = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 8 * h:
            continue
        xs.append(np.linspace(float(a) + 2 * h, float(b) - 2 * h, _CONCAVITY_SAMPLES))
    if not xs:
        return {
            "max_second_difference": -math.inf,
            "at": math.nan,
            "fraction": 1.0,
            "points": 0,
            "concave": True,
        }
    x = np.concatenate(xs)
    # One read of the three probe rows; a window reads alike in any batch.
    f0, f1, f2 = _route_objective_series(evaluator, np.concatenate([x - h, x, x + h]), ctx, w).reshape(3, -1)
    second = f2 - 2 * f1 + f0
    i = int(np.argmax(second))
    fraction = float(np.mean(second <= 1e-9))
    return {
        "max_second_difference": float(second[i]),
        "at": float(x[i]),
        "fraction": fraction,
        "points": int(second.size),
        "concave": bool(fraction == 1.0),
    }
