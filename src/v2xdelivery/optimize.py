"""Window optimization over one or many candidate routes.

The decision variable is the discovery window t, shared by every hop of a
route in the coordinated setting or chosen per hop in the distributed one.
The objective trades the end-to-end rate against the end-to-end latency:

    F(t) = weight * rate_norm(t) - (1 - weight) * latency_norm(t)

where both readings are min-max normalized over a shared context so the
trade-off weight is meaningful across routes.  F is written once, as a
vectorized function of the readings, whether for a whole scan grid or one
window.  There is one search: the distributed solve runs it over every
distinct hop at once, each hop its one-hop row of the route stack on that
row's own envelope.  The objective is piecewise smooth in t: every multiple
of the trial time admits one more whole trial into the window, which moves
probability mass between branches in a jump, but past trial L, the row
count of the kernel's geometric-max table (7 at stock), a jump is below
(1 - p)^L times the reading's sensitivity.  So the scan grid
(:func:`_scan_grid`) holds per-trial rows (edge, interiors, inset) on trial
pieces 0..L only, and Chebyshev-Lobatto nodes on the smooth tail past them,
split where the joint-outcome rate switches form: 107 windows at stock
whatever the trial time.  It depends only on the parameters, so one scan of
a route set (:class:`_Scan`) builds one grid and reads every row of its
route stack over it at once: the routes, and each distinct hop as a one-hop
row.  The read checks the tail's smoothness from the rows' Chebyshev
coefficients and doubles the nodes of a piece they do not resolve, or falls
back to its per-trial rows (:func:`_read`).  None of that depends on the
weight or the solver, so one scan serves both solvers at many weights: the
envelope (:func:`_envelope`) is one array of every row's bounds, and a
search takes each task's row, bounds and weight as arrays.  The envelope
and the search find their peaks alike (:func:`_peaks`):
derivative-sign changes are bracketed over the grid in one array pass per
block of tasks, and every bracket of every task is polished in lockstep
(:func:`_polish`): a step reads the probes of all open brackets in one
stacked kernel call, so a lockstep makes at most 81 such calls whatever its
task count, and a search 6 to 12 on the stock grids at weight 0.5.  Those
probes, the optimality checks and ``sweep --variable t`` score given
windows through one objective read of the stack (:func:`_objective`).  One
tie-tolerant winner rule (:func:`_winners`) picks every answer, each row
of candidates in one array walk: a task's window from its grid windows and
peaks, and each solver's route, one row per weight.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closedform import _BLOCK_CELLS, RouteEvaluator, _breakpoints, _pmf_rows, _rate_switches, _RouteStack
from .model import _window, max_trials, Route, SystemParams

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
# Interior sample count per trial piece in the scan grids.
_PIECE_SAMPLES = 7
# Chebyshev-Lobatto intervals of a smooth tail piece at first, and the most
# it doubles to before it falls back to per-trial rows.
_TAIL_INTERVALS = 32
_TAIL_MAX_INTERVALS = 256
# A tail piece is resolved once the last quarter of each row's Chebyshev
# coefficients there lies below this, relative to the row's largest: the
# rounding floor is 1e-15 at 32 intervals and 7e-15 at 256.
_TAIL_TOL = 1e-12
# Objective values closer than this tie in the winner rule (see _winners).
_TIE = 1e-15
# Sample count per smooth piece in the concavity probe.
_CONCAVITY_SAMPLES = 16
# Central differences within this much of 0, over the probe step, are the
# rounding noise of an objective of order one.
_NOISE = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class NormalizationContext:
    """Min-max envelopes that map raw readings onto [0, 1].

    Built once from the candidate routes and reused for every evaluation so
    objective values stay comparable.  Degenerate envelopes (max == min)
    normalize to zero.  Each bound must be a finite real number, and each
    min at most its max: a ValueError otherwise.
    """

    latency_min: float
    latency_max: float
    rate_min: float
    rate_max: float

    def __post_init__(self) -> None:
        bounds = dataclasses.astuple(self)
        finite = all(isinstance(b, numbers.Real) and math.isfinite(b) for b in bounds)
        if not (finite and self.latency_min <= self.latency_max and self.rate_min <= self.rate_max):
            raise ValueError(f"normalization bounds must be finite reals, each min at most its max: {bounds!r}")

    def latency_norm(self, value):
        return _unit(value, self.latency_min, self.latency_max)

    def rate_norm(self, value):
        return _unit(value, self.rate_min, self.rate_max)


def _unit(value, low, high):
    """(value - low) / (high - low), or 0 where that span is not positive,
    elementwise: the bounds may be arrays, one pair per value."""
    span, shift = high - low, value - low
    if np.all(span > 0.0):  # the same bits without the slower masked divide
        shift /= span
        return shift
    return np.divide(shift, span, out=np.zeros(np.broadcast(shift, span).shape), where=span > 0.0)[()]


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
    """Sample grid over [0, T], T its last window: the windows ``ts``,
    ascending, and the ``starts``, ascending, of the runs of three
    consecutive samples that may bracket a peak, none straddling a jump or
    a kink."""

    ts: np.ndarray
    starts: np.ndarray  # indices into ts
    probe: float
    # Each smooth tail piece (a, b, n, nodes): n Chebyshev-Lobatto intervals
    # on [a, b], read at ts[nodes]; n = 0, and no nodes, where the piece is
    # sampled per trial piece instead.
    tail: tuple[tuple[float, float, int, np.ndarray], ...] = ()


def _per_trial(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples of the trial pieces [a, b): per piece its left edge a, up to
    _PIECE_SAMPLES interior points, and the inset b - h standing in for the
    left limit at b; and where a bracket may start, the first
    _PIECE_SAMPLES samples of each piece that holds all of them.  A piece
    too narrow for interiors holds at most two samples, too few to bracket.
    """
    # Edge, interiors and inset so that sign-change bracketing sees the
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
    count = present.sum(axis=1)
    edge = np.cumsum(count) - count  # each piece's edge among the samples
    return samples[present], (edge[wide, None] + np.arange(_PIECE_SAMPLES)).ravel()


def _lobatto(a: float, b: float, n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples of a smooth piece [a, b]: its n + 1 Chebyshev-Lobatto nodes,
    node j of n intervals being node 2j of 2n bit for bit, and the insets
    a + 2h and b - 2h where they fall inside the end intervals; where a
    bracket may start, every sample but the last two; and the nodes'
    positions among the samples.  The insets let a peak between an end and
    its neighbouring node read a rising then falling difference, as a
    per-trial piece's edge and inset do.
    """
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
    x[0], x[-1] = a, b
    insets = np.array([a + 2 * h, b - 2 * h])
    inside = (insets > x[[0, -2]]) & (insets < x[[1, -1]])
    samples = np.sort(np.concatenate([x, insets[inside]]))
    return samples, np.arange(len(samples) - 2), np.searchsorted(samples, x)


def _scan_grid(params: SystemParams) -> _ScanGrid:
    """The scan grid, which depends only on the parameters, so one grid
    serves every route of a solve.

    Past trial piece L (7 at stock) the kernel jumps at a trial edge by at
    most (1 - p)^L times its sensitivity to the all-fail chance, so the
    window axis splits in two.  Trial pieces 0..L hold their edge,
    _PIECE_SAMPLES interior points and inset each (see _per_trial).
    The tail [(L + 1) dt, T], split where the rate switches form, holds
    _TAIL_INTERVALS + 1 Chebyshev-Lobatto nodes a piece and an inset at
    each end (see _lobatto): 107 windows at stock whatever the trial time.
    The tail's smoothness is checked on every grid read, not assumed (see
    _read).  The domain end T is the last window.
    """
    T, dt = params.hop_dwell, params.trial_time
    start = (_pmf_rows(params, max_trials(T, dt)) + 1) * dt
    if not start < T:
        return _layout(params, np.empty(0), [])
    switches = _rate_switches(params)
    edges = np.concatenate([[start], switches[switches > start], [T]])
    return _layout(params, edges, [_TAIL_INTERVALS] * (len(edges) - 1))


def _layout(params: SystemParams, edges: np.ndarray, intervals: Sequence[int]) -> _ScanGrid:
    """The scan grid with tail piece [edges[i], edges[i + 1]] on
    intervals[i] Chebyshev-Lobatto intervals, or per trial piece where
    that is 0.  A piece whose first window is the last one before it
    shares that sample."""
    h = _REL_PROBE * params.trial_time
    trials = _breakpoints(params)
    head = trials if not len(edges) else trials[: np.searchsorted(trials, edges[0]) + 1]
    parts = [(*_per_trial(head[:-1], head[1:], h), np.empty(0, dtype=np.intp))]
    for a, b, n in zip(edges[:-1].tolist(), edges[1:].tolist(), intervals):
        if n:
            parts.append(_lobatto(a, b, n, h))
        else:
            cuts = np.concatenate([[a], trials[(trials > a) & (trials < b)], [b]])
            parts.append((*_per_trial(cuts[:-1], cuts[1:], h), np.empty(0, dtype=np.intp)))
    ts, starts, tail, size = [], [], [], 0
    for i, (x, first, nodes) in enumerate(parts):
        shift = size
        if size and x[0] == ts[-1][-1]:
            x, shift = x[1:], size - 1
        if i:
            tail.append((float(edges[i - 1]), float(edges[i]), int(intervals[i - 1]), nodes + shift))
        ts.append(x)
        starts.append(first + shift)
        size += len(x)
    if ts[-1][-1] != params.hop_dwell:
        ts.append([params.hop_dwell])
    return _ScanGrid(np.concatenate(ts), np.concatenate(starts), h, tuple(tail))


@functools.lru_cache(maxsize=None)
def _chebyshev(n: int) -> np.ndarray:
    """(n + 1, n + 1) map from a row's values at the n + 1 Lobatto nodes of
    a piece to its Chebyshev coefficients, up to their signs (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013, ch. 3)."""
    j = np.arange(n + 1)
    m = np.cos(np.pi * np.outer(j, j) / n) * (2.0 / n)
    m[[0, -1]] *= 0.5
    m[:, [0, -1]] *= 0.5
    m.flags.writeable = False  # one copy serves every caller
    return m


def _refine(params: SystemParams, grid: _ScanGrid, rows: np.ndarray) -> _ScanGrid | None:
    """The grid with each tail piece that ``rows`` (rows x windows) do not
    resolve on twice its Chebyshev-Lobatto intervals, which keeps every
    node it had, or with per-trial rows once that would pass
    _TAIL_MAX_INTERVALS; None where every tail piece is resolved."""
    intervals = [n for _, _, n, _ in grid.tail]
    for i, (_, _, n, nodes) in enumerate(grid.tail):
        if n:
            c = np.abs(rows[:, nodes] @ _chebyshev(n))
            if (c[:, 3 * n // 4 :].max(axis=1) > _TAIL_TOL * c.max(axis=1)).any():
                intervals[i] = 2 * n if 2 * n <= _TAIL_MAX_INTERVALS else 0
    if intervals == [n for _, _, n, _ in grid.tail]:
        return None
    return _layout(params, np.array([a for a, _, _, _ in grid.tail] + [grid.tail[-1][1]]), intervals)


def _read(stack: _RouteStack, grid: _ScanGrid) -> tuple[dict[str, np.ndarray], _ScanGrid]:
    """One grid read of every row of ``stack`` (see _RouteStack.grid), and
    the grid it is read on.

    The Chebyshev coefficients of each latency and rate row on each smooth
    tail piece check that the piece's nodes resolve it; a piece that fails
    is refined (:func:`_refine`) and only its new windows are read, until
    every piece passes.  At stock every piece passes at once.
    """
    out = stack.grid(grid.ts)
    while (finer := _refine(stack.params, grid, np.vstack(list(out.values())))) is not None:
        # The windows already read keep their columns; one read takes the rest.
        at = np.minimum(np.searchsorted(grid.ts, finer.ts), len(grid.ts) - 1)
        known = grid.ts[at] == finer.ts
        fresh = stack.grid(finer.ts[~known])
        for name, rows in out.items():
            out[name] = np.empty((len(rows), len(finer.ts)))
            out[name][:, known] = rows[:, at[known]]
            out[name][:, ~known] = fresh[name]
        grid = finer
    return out, grid


def _envelope(stack: _RouteStack, out: dict[str, np.ndarray], grid: _ScanGrid) -> np.ndarray:
    """The envelope of each row of ``stack``, its routes then the rest of
    its one-hop rows, from its grid read ``out`` over ``grid`` (see _read):
    (rows, 4) bounds, each row's in NormalizationContext's field order.

    Latency falls with the window, so its extremes are the two ends.  A
    rate row's extremes are its grid samples and its interior extrema,
    bracketed on the grid and polished in one lockstep of stack reads for
    every row (:func:`_peaks`), then widened by the rounding noise of a
    reading; an all-forward row's rate is flat.
    """
    lat, rate = out["latency"], out["rate_closed"]
    # Within rounding: where no trial fits, a hop's miss chance reads 1 give or take an ulp.
    assert not (np.diff(lat, axis=1) > _NOISE * lat[:, 1:]).any(), "latency rises with the window"

    # Task i is the maximum of row rows[i], and task n + i its minimum.
    live = np.flatnonzero(~stack.forward)
    n = len(live)
    rows = np.concatenate([live, live])
    sign = np.repeat([1.0, -1.0], n)
    step = max(1, _BLOCK_CELLS // len(grid.ts))
    blocks = ((a + base, s * rate[live[a : a + step]]) for a in range(0, n, step) for base, s in ((0, 1.0), (n, -1.0)))
    owner, _, found = _peaks(grid, blocks, lambda tasks, x: sign[tasks] * stack.read(rows[tasks], x)["rate_closed"])
    # Windows on a flat top read a few ulps apart, so a polished extremum
    # is widened by the rounding noise of a reading: none there leaves it.
    found *= sign[owner]
    found += sign[owner] * _NOISE * np.abs(found)
    bounds = np.column_stack([lat[:, -1], lat[:, 0], rate.min(axis=1), rate.max(axis=1)])
    up = owner < n
    np.maximum.at(bounds[:, 3], rows[owner[up]], found[up])
    np.minimum.at(bounds[:, 2], rows[owner[~up]], found[~up])
    return bounds


class _Scan:
    """A route set read on the scan grid: its route ``stack``, the stack's
    grid read ``out`` and the ``grid`` it is read on (see _read), and, taken
    on first use, every row's bounds (``scales``, see _envelope) and the
    ``context``: the routes' latency range and every row's rate range."""

    def __init__(self, routes: Sequence[Route], params: SystemParams):
        self.stack = _RouteStack(routes, params)
        self.out, self.grid = _read(self.stack, _scan_grid(params))

    @functools.cached_property
    def scales(self) -> np.ndarray:
        return _envelope(self.stack, self.out, self.grid)

    @functools.cached_property
    def context(self) -> NormalizationContext:
        s, n = self.scales, len(self.stack.routes)
        return NormalizationContext(*np.array([s[:n, 0].min(), s[:n, 1].max(), s[:, 2].min(), s[:, 3].max()]).tolist())


def build_normalization(routes: Sequence[Route], params: SystemParams) -> NormalizationContext:
    """Min-max envelopes over all candidate routes and the whole window range.

    The latency envelope is the routes' readings at t = T and t = 0.  The
    rate envelope covers every route's rate and every hop's mean rate, the
    rate of its one-hop row, so distributed aggregates normalize into the
    same [0, 1] box.  Its extremes are the grid's samples and every interior
    extremum polished to the window tolerance (see _envelope).
    """
    if not routes:
        raise ValueError("need at least one route")
    return _Scan(routes, params).context


def _trade_off(rate, latency, bounds, weight):
    """F = weight * rate_norm - (1 - weight) * latency_norm, elementwise, on
    ``bounds``: four in NormalizationContext's field order, as ``astuple``
    gives a context's.  Each bound and ``weight`` may be an array, one per
    value: the same IEEE operations as one for all, so a probe reads alike
    either way."""
    lat_min, lat_max, rate_min, rate_max = bounds
    return weight * _unit(rate, rate_min, rate_max) - (1.0 - weight) * _unit(latency, lat_min, lat_max)


def _objective(stack: _RouteStack, cols, ts, bounds, weight) -> np.ndarray:
    """Objective of route cols[i] of ``stack`` at window ts[i]: one read.

    ``cols`` and ``ts`` broadcast as :meth:`_RouteStack.read` takes them;
    ``bounds`` and ``weight`` as :func:`_trade_off` takes them.
    """
    out = stack.read(cols, ts)
    return _trade_off(out["rate_closed"], out["latency"], bounds, weight)


def _brackets(grid: _ScanGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets (task, lo, hi) of the interior maxima in the grid values of
    a block of tasks, (tasks, windows), task by task in window order.

    A bracket spans two first differences of consecutive samples, rising
    then not rising, that start at one of the grid's ``starts``; the
    differences are taken along the grid, all bracketed in one array pass.
    The bracket stays one probe inside the domain so the central difference
    never reads past it; the raw samples already cover a peak hiding in that
    sliver.
    """
    h, starts = grid.probe, grid.starts
    d = np.diff(values, axis=1)
    rise = ((d[:, :-1] > 0.0) & (d[:, 1:] <= 0.0))[:, starts]
    task, i = np.divmod(np.flatnonzero(rise), len(starts))
    lo = np.maximum(grid.ts[starts[i]], h)
    hi = np.minimum(grid.ts[starts[i] + 2], grid.ts[-1] - h)
    keep = lo < hi
    return task[keep], lo[keep], hi[keep]


def _peaks(grid: _ScanGrid, blocks, read) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interior maxima of many tasks over ``grid``: each bracket's task,
    its polished peak, and the task's value there.

    ``blocks`` yields (first, values), the (tasks, windows) grid values of
    tasks first, first + 1, ..., each block bracketed in one array pass
    (:func:`_brackets`); ``read(tasks, x)`` is the value of task tasks[i] at
    window x[i].  Every bracket of every task is polished in lockstep
    (:func:`_polish`): each step reads the derivative probes (x - h, x + h)
    of all brackets still open in one call of ``read``, and one more call
    reads every peak, so at most 81 calls whatever the task count.
    """
    owner, lo, hi = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]
    for first, values in blocks:
        task, a, z = _brackets(grid, values)
        owner.append(task + first)
        lo.append(a)
        hi.append(z)
    owner, lo, hi = (np.concatenate(x) for x in (owner, lo, hi))
    h = grid.probe

    def deriv(which: np.ndarray, x: np.ndarray) -> np.ndarray:
        f = read(owner[np.repeat(which, 2)], np.column_stack([x - h, x + h]).ravel())
        return (f[1::2] - f[::2]) / (2 * h)

    peaks = _polish(deriv, lo, hi, _REL_T_TOL * grid.ts[-1], _NOISE / h)
    return owner, peaks, read(owner, peaks)


def _pack(row: np.ndarray, n: int, entries, pad) -> tuple[np.ndarray, np.ndarray]:
    """``entries`` (fields x entries), listed by ascending ``row``, packed
    to the front of ``n`` rows, empty slots holding ``pad`` (one per field);
    and each row's entry count."""
    count = np.bincount(row, minlength=n)
    packed = np.full((len(pad), n, count.max(initial=0)), np.reshape(pad, (-1, 1, 1)))
    packed[:, row, np.arange(len(row)) - (np.cumsum(count) - count)[row]] = entries
    return packed, count


def _winners(ts: np.ndarray, values: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window, value and column (-1 if none is above -inf) of the candidate
    the tie-tolerant rule picks in each row of ``values``, (rows x
    candidates), at windows ``ts``, which broadcast against it.

    The rule walks a row's candidates in order and moves to one that beats
    the best so far by more than _TIE, or ties it within _TIE at a smaller
    window, clamped to [0, T].  It runs on the candidates at or above the
    cut (N + 2)(_TIE + d) below the row's top value M alone, N being the
    row's candidate count and d a few ulps at M that absorb rounding.
    Exact: at most N kept values split that width into at most N spans, so
    one span, wider than _TIE + d, holds no value inside.  Every value above
    it beats every value below it, and none below ties or beats one above;
    so both walks, once at their first value above it, move only among the
    values above it, alike.  Any N at least the true count will do, so a
    row padded with -inf past its candidates reads the same winner.  A NaN
    top keeps every candidate, and no NaN is ever picked.

    Each row's kept candidates are packed to its front, and the walk takes
    one column of every row per step.  When a row's kept values all equal
    one finite value (a hop that always forwards reads one value at every
    window) the walk moves only to a strictly smaller window, so it ends on
    the first candidate at the smallest clamped window; the row keeps that
    one alone, so the walk runs only as wide as the other rows keep.
    """
    # Clamped as min(max(t, 0.0), T) clamps: a -0.0 window stays -0.0.
    ts = np.where(ts < 0.0, 0.0, ts)
    ts = np.broadcast_to(np.where(ts > T, T, ts), values.shape)
    top = values.max(axis=1, keepdims=True)
    cut = top - (values.shape[1] + 2) * (_TIE + 4 * np.spacing(abs(top) + 1.0))
    row, col = np.nonzero(~(values < cut))
    # (window, value, column) of each row's kept candidates, in order; an
    # empty slot is never picked, nor the smallest window.
    kept, count = _pack(row, len(values), (ts[row, col], values[row, col], col), (math.inf, -math.inf, -1.0))
    v = kept[1]
    flat = np.flatnonzero(np.isfinite(v[:, 0]) & (np.count_nonzero(v == v[:, :1], axis=1) == count))
    # A flat row keeps its winner alone, at its front.
    kept[:, flat, 0] = kept[:, flat, np.argmin(kept[0, flat], axis=1)]
    v[flat, 1:], count[flat] = -math.inf, 1
    best = np.repeat([[0.0], [-math.inf], [-1.0]], len(values), axis=1)  # the walk's start
    with np.errstate(invalid="ignore"):  # -inf - -inf
        for step in kept[:, :, : count.max()].transpose(2, 0, 1):
            move = (step[1] > best[1] + _TIE) | ((np.abs(step[1] - best[1]) <= _TIE) & (step[0] < best[0]))
            best[:, move] = step[:, move]
    return best[0], best[1], best[2].astype(np.intp)


def _polish(deriv, lo: np.ndarray, hi: np.ndarray, tol: float, noise: float) -> np.ndarray:
    """The peak of every bracket [lo, hi], all polished in lockstep: each
    step reads ``deriv(which, x)``, the derivative of brackets ``which`` at
    windows ``x``, once for every bracket still open.

    A bracket keeps a point on each side of the derivative's sign change:
    a point where it reads above 0 replaces the lower end, any other the
    upper end.  It closes once narrower than ``tol`` or after 80 steps, and
    its peak is the midpoint.  Step 1 bisects, and its read probes both
    ends as well.  A bracket whose ends then read more than ``noise`` on
    either side of 0 interpolates from step 2 on, by Chandrupatla's
    inverse-quadratic step on its ends and the end replaced last (Adv.
    Eng. Software 28, 1997), while the step is sound and the bracket is no
    wider than 2**(4 - step) times its first width.  Such a point lies at
    least ``tol`` / 2 from either end, so one just past the sign change
    closes the bracket; one clamped there that lands on its end's side
    doubles that least distance for the bracket's next clamp.  Every other
    step bisects, as a plain bisection does, bit for bit.
    """
    # The newest point p, the end q kept across the sign change from it,
    # the end r replaced last, and the derivative at each.
    p, q, r, fp, fq, fr = lo.copy(), hi.copy(), *np.zeros((4, len(lo)))
    first = hi - lo
    smooth = np.zeros(len(lo), dtype=bool)
    reach = np.ones(len(lo))  # the least distance from an end, in tol / 2
    active = np.arange(len(lo))
    for step in range(1, 81):
        active = active[~(np.abs(q[active] - p[active]) < tol)]
        if not active.size:
            break
        P, Q, R, FP, FQ, FR = (v[active] for v in (p, q, r, fp, fq, fr))
        x = 0.5 * (P + Q)
        # Interpolated points clamped beside an end, and whether that end is p.
        short, near_p = np.zeros(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
        if step == 1:
            FP, FQ, g = np.split(deriv(np.tile(active, 3), np.concatenate([P, Q, x])), 3)
            smooth[active] = (FP > noise) & (FQ < -noise)
        else:
            width = np.abs(Q - P)
            i = np.flatnonzero(smooth[active] & (width <= first[active] * 2.0 ** (4 - step)))
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (P[i] - Q[i]) / (R[i] - Q[i])
                phi = (FP[i] - FQ[i]) / (FR[i] - FQ[i])
            # Sound where the inverse quadratic is monotone over the bracket.
            i = i[(phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)]
            a, b, c, fa, fb, fc = P[i], Q[i], R[i], FP[i], FQ[i], FR[i]
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            edge = np.minimum(0.5 * tol * reach[active[i]] / width[i], 0.5)
            short[i], near_p[i] = (t <= edge) | (t >= 1.0 - edge), t <= edge
            x[i] = a + np.minimum(np.maximum(t, edge), 1.0 - edge) * (b - a)
            g = deriv(active, x)
        # x replaces p where both lie on the same side of the sign change.
        same = (g > 0.0) == (P < Q)
        reach[active[short]] = np.where(same[short] == near_p[short], 2.0 * reach[active[short]], 1.0)
        r[active], fr[active] = np.where(same, P, Q), np.where(same, FP, FQ)
        q[active], fq[active] = np.where(same, Q, P), np.where(same, FQ, FP)
        p[active], fp[active] = x, g
    return 0.5 * (p + q)


def _search(
    stack: _RouteStack, grid: _ScanGrid, reads: tuple[np.ndarray, np.ndarray], cols, bounds, weights
) -> tuple[np.ndarray, np.ndarray]:
    """Best windows and values of every task i: row cols[i] of ``stack``
    scored on bounds[i] ((tasks, 4), see _trade_off) at weights[i].

    ``reads`` are the stack's (rows x windows) rate_closed and latency
    grid arrays, which every task of a row shares.  The tasks are taken
    in blocks of about _BLOCK_CELLS grid values: one array pass over a
    block scores its grid and brackets its interior maxima, and every
    bracket of every task is polished in one lockstep (:func:`_peaks`)
    whose reads are stacked kernel calls, so a search makes at most 81 of
    them whatever its task count.  A second pass over the blocks scores
    each grid again, and one call of the winner rule per block
    (:func:`_winners`) picks from every task's row: its grid windows,
    then its peaks, padded with -inf to the most any task has.
    """
    T = stack.params.hop_dwell
    rate, lat = reads
    # Blocks of at most `step` tasks, each on a run of consecutive rows,
    # so that a block's grid rows are views of the reads, never copies.
    step = max(1, _BLOCK_CELLS // len(grid.ts))
    runs = np.concatenate([[0], np.flatnonzero(np.diff(cols) != 1) + 1, [len(cols)]]).tolist()
    blocks = [slice(a, min(a + step, z)) for s, z in zip(runs[:-1], runs[1:]) for a in range(s, z, step)]

    def grid_values(b: slice) -> np.ndarray:
        # Computed again for the winners rather than kept: one row per task
        # would hold (tasks x grid) floats through the search.
        rows = slice(cols[b.start], cols[b.start] + b.stop - b.start)
        return _trade_off(rate[rows], lat[rows], bounds[b].T[:, :, None], weights[b, None])

    def read(which: np.ndarray, x: np.ndarray) -> np.ndarray:
        # Objectives of tasks ``which`` at ``x``: one read; a window reads alike in any batch.
        return _objective(stack, cols[which], x, bounds[which].T, weights[which])

    owner, peaks, peak_values = _peaks(grid, ((b.start, grid_values(b)) for b in blocks), read)
    # Each task's candidates are its grid windows, then its peaks, padded with -inf.
    (task_peaks, task_values), _ = _pack(owner, len(cols), (peaks, peak_values), (0.0, -math.inf))
    best_t, best_v = np.empty(len(cols)), np.empty(len(cols))
    for b in blocks:
        values = grid_values(b)
        ts = np.concatenate([np.broadcast_to(grid.ts, values.shape), task_peaks[b]], axis=1)
        best_t[b], best_v[b], _ = _winners(ts, np.concatenate([values, task_values[b]], axis=1), T)
    return best_t, best_v


def _check_weight(weight: float) -> None:
    if not 0.0 <= weight <= 1.0:  # NaN fails it too
        raise ValueError("weight must lie in [0, 1]")


def _check_inputs(routes: Sequence[Route], weights: Sequence[float]) -> None:
    if not routes:
        raise ValueError("need at least one route")
    if not weights:
        raise ValueError("need at least one weight")
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
    scan: _Scan | None = None,
) -> list[OptimizationOutcome]:
    """:func:`solve_global` at each of ``weights``, one outcome per weight.

    One scan of the routes (``scan``, or a new one; see _Scan) serves
    every weight; each (route, weight) pair is one task of one lockstep
    search.  The grid read, the lockstep and the one read of all the
    winners read its stack, so each mixed route's tables are built once,
    and only the winners are bound as views, for their optimality checks.
    """
    _check_inputs(routes, weights)
    scan = scan or _Scan(routes, params)
    stack, ctx, n, m = scan.stack, context or scan.context, len(routes), len(weights)
    reads = scan.out["rate_closed"], scan.out["latency"]
    # Task j * n + i is route i at weight j, on the one context's bounds.
    tasks = np.tile(np.arange(n), m), np.broadcast_to(dataclasses.astuple(ctx), (m * n, 4)), np.repeat(weights, n)
    ts, values = (x.reshape(m, n) for x in _search(stack, scan.grid, reads, *tasks))
    per_weight = [tuple(zip(t, v)) for t, v in zip(ts.tolist(), values.tolist())]
    # Ties between routes go to the smaller window, then the lower index.
    t_stars, vals, cols = _winners(ts, values, params.hop_dwell)
    # One read of the stack gives every winner's latency and rate.
    out = stack.read(cols, t_stars)
    winners = zip(t_stars.tolist(), vals.tolist(), cols.tolist())
    readings = zip(out["latency"].tolist(), out["rate_closed"].tolist())
    view = lambda col: RouteEvaluator.__new__(RouteEvaluator)._bind(stack, col)  # a winner's, for its check
    return [
        OptimizationOutcome(
            t_star=t_star,
            objective=val,
            route_index=idx,
            latency=lat,
            rate=rate,
            per_route_best=per_route,
            kkt=kkt_stationarity_check(view(idx), t_star, ctx, w) if with_kkt else {},
            context=ctx,
        )
        for w, per_route, (t_star, val, idx), (lat, rate) in zip(weights, per_weight, winners, readings)
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
    envelope; each distinct hop is searched once.  The route-level outcome
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
    scan: _Scan | None = None,
) -> list[DistributedOutcome]:
    """:func:`solve_distributed` at each of ``weights``, one outcome per weight.

    One scan of the routes (``scan``, or a new one; see _Scan) serves
    every weight.  Each distinct hop is its one-hop row of the scan's
    stack (``hop_rows``), searched over the scan's grid read on that row's
    envelope, and each (hop, weight) pair is one task of one lockstep
    search.  One read of the stack at every (hop row, weight) window then
    aggregates every route at every weight, folded along each route's hops.
    """
    _check_inputs(routes, weights)
    scan = scan or _Scan(routes, params)
    stack, context, rows, m = scan.stack, context or scan.context, scan.stack.hop_rows, len(weights)
    reads = scan.out["rate_closed"], scan.out["latency"]
    # Task j * len(rows) + i is hop row rows[i] at weight j, on that row's envelope.
    tasks = np.tile(rows, m), np.tile(scan.scales[rows], (m, 1)), np.repeat(weights, len(rows))
    found = _search(stack, scan.grid, reads, *tasks)[0].reshape(m, len(rows))
    out = stack.read(tasks[0], found.ravel())
    # Each route sums its hops' latencies and takes its weakest hop's rate.
    lat = stack.fold(out["latency"].reshape(found.shape).T, np.add, 0.0)  # (routes, weights)
    rate = stack.fold(out["rate_min_means"].reshape(found.shape).T, np.minimum, np.inf)
    values = _trade_off(rate, lat, dataclasses.astuple(context), np.array(weights)).T  # (weights, routes)
    # The winner rule at one shared window: the first route of the top value.
    _, vals, idxs = _winners(np.zeros(1), values, params.hop_dwell)
    # Every route's hop windows at every weight, from one gather: route i's
    # end at entry ends[i] of a weight's row.
    ends = np.cumsum(stack.ks[: len(routes)]).tolist()
    per_weight = ([tuple(row[a:b]) for a, b in zip([0, *ends], ends)] for row in stack.gather(found.T).T.tolist())
    return [
        DistributedOutcome(
            windows=windows[idx],
            objective=val,
            route_index=idx,
            latency=float(lat[idx, j]),
            rate=float(rate[idx, j]),
            per_route=tuple(zip(windows, v)),
        )
        for j, (val, idx, windows, v) in enumerate(zip(vals.tolist(), idxs.tolist(), per_weight, values.tolist()))
    ]


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
    t_star, _ = _window(t_star, params)
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
    ts = np.concatenate([sweep - h, sweep + h, probes])
    values = _objective(evaluator._stack, evaluator._col, ts, dataclasses.astuple(context), w)
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
    ctx = context or build_normalization([evaluator.route], params)
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
    probes = np.concatenate([x - h, x, x + h])
    f0, f1, f2 = _objective(evaluator._stack, evaluator._col, probes, dataclasses.astuple(ctx), w).reshape(3, -1)
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
