"""Acceptance gate: one verdict line per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (bypassing capture) and
then asserts, so the gate's outcome is visible in any log.  Criteria with a
stated runtime budget enforce it.
"""

import contextlib
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from support import child_env, make_route, window_grid
from v2xdelivery import (
    BackhaulConfig,
    Hop,
    Route,
    RouteEvaluator,
    SimConfig,
    SystemParams,
    build_grid_scenario,
    build_normalization,
    e2e_latency_closed,
    enumerate_routes,
    expected_hop_latency,
    expected_max_exponential,
    expected_max_trial_time,
    exponential_max_pdf,
    geometric_max_pmf,
    gpsr_route,
    kkt_stationarity_check,
    p_courier_forward,
    p_failure,
    p_success,
    simulate_route,
    solve_distributed,
    solve_global,
    spr_route,
    verify_concavity,
)
from v2xdelivery.cli import run_command
from v2xdelivery.model import expected_e2e_latency


@pytest.fixture
def verdict(request):
    """Reporter printing one pass/fail line per criterion past any capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def emit(number: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
        with manager.global_and_fixture_disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _objective_series(evaluator, ts, context, weight):
    out = evaluator.series(ts)
    return weight * context.rate_norm(out["rate_closed"]) - (1.0 - weight) * context.latency_norm(
        out["latency"]
    )


def test_criterion_1_latency_identity(verdict):
    """Route-level closed latency == hop-sum latency, 1e-9, 100 x 20, < 1 s."""
    params = SystemParams(trial_time=0.5)  # coarse slots so 100 points cover every piece edge
    grid = window_grid(params, 100)
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        route = make_route(rng)
        for t in grid:
            a = e2e_latency_closed(route, float(t), params)
            b = expected_e2e_latency(route, float(t), params)
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(1, ok, f"latency identity max |diff| {worst:.3e} over 2000 evaluations in {elapsed:.2f} s")


def test_criterion_2_order_statistics_oracles(verdict):
    """PMF/PDF normalization, sampled E(max) within 3 sigma, iid harmonic sum."""
    start = time.perf_counter()
    checks = []

    # Trial-count maximum PMF sums to one.
    xs = np.arange(1, 2001)
    for p in (0.2, 0.64, 0.998001):
        for n in (1, 3, 5):
            total = float(np.sum(geometric_max_pmf(xs, n, p)))
            checks.append(("pmf", abs(total - 1.0) <= 1e-9, abs(total - 1.0)))

    # Wait-maximum PDF integrates to one.
    for rates in ([1.0], [0.05, 0.1, 0.3], [0.5] * 4):
        upper = math.log(len(rates) / 1e-13) / min(rates)
        total, _ = quad(lambda x: exponential_max_pdf(rates, x), 0.0, upper, limit=200)
        checks.append(("pdf", abs(total - 1.0) <= 1e-8, abs(total - 1.0)))

    rng = np.random.default_rng(1002)
    n_draws = 1_000_000

    # Windowed trial-count maximum against a sampling oracle.
    k, m, p, dt = 3, 6, 0.36, 0.5
    draws = rng.geometric(p, size=(n_draws, k)).max(axis=1)
    sample = np.where(draws <= m, draws * dt, 0.0)
    closed = expected_max_trial_time(k, m, p, dt)
    z_trial = abs(sample.mean() - closed) / (sample.std(ddof=1) / math.sqrt(n_draws))
    checks.append(("trial-max", z_trial <= 3.0, z_trial))

    # Heterogeneous wait maximum against a sampling oracle.
    rates = np.array([0.08, 0.15, 0.3, 0.6])
    sample = (rng.exponential(1.0, size=(n_draws, len(rates))) / rates).max(axis=1)
    closed = expected_max_exponential(list(rates))
    z_wait = abs(sample.mean() - closed) / (sample.std(ddof=1) / math.sqrt(n_draws))
    checks.append(("wait-max", z_wait <= 3.0, z_wait))

    # iid case collapses to the harmonic sum.
    lam = 0.12
    worst_h = 0.0
    for k in range(1, 7):
        closed = expected_max_exponential([lam] * k)
        harmonic = sum(1.0 / i for i in range(1, k + 1)) / lam
        worst_h = max(worst_h, abs(closed - harmonic) / harmonic)
    checks.append(("harmonic", worst_h <= 1e-6, worst_h))

    elapsed = time.perf_counter() - start
    ok = all(c[1] for c in checks) and elapsed < 30.0
    worst = {name: max(v for n2, _, v in checks if n2 == name) for name in {c[0] for c in checks}}
    verdict(
        2,
        ok,
        "order statistics: pmf err {pmf:.1e}, pdf err {pdf:.1e}, z(trial) {trial-max:.2f}, "
        "z(wait) {wait-max:.2f}, harmonic rel {harmonic:.1e}, {s:.1f} s".format(**worst, s=elapsed),
    )


def test_criterion_3_monte_carlo_convergence(verdict):
    """Branch frequencies within 4 SE and latency within 1% per sweep cell."""
    params = SystemParams()
    T, dt = params.hop_dwell, params.trial_time
    n = 100_000
    start = time.perf_counter()
    bad = []
    worst_z, worst_rel = 0.0, 0.0
    for i, lam in enumerate((0.05, 0.1, 0.3)):
        for j, deg in enumerate((2, 3)):
            for l, t in enumerate((0.0, dt, T / 2, T)):
                hop = Hop(lam, deg, rsu_id="cell")
                cfg = SimConfig(snapshots=n, seed=3000 + 100 * i + 10 * j + l, mode="analytic")
                res = simulate_route(Route(hops=(hop,)), t, params, cfg)
                freq = res.branch_fractions[0]
                probs = (
                    p_courier_forward(hop),
                    p_success(hop, t, params),
                    p_failure(hop, t, params),
                )
                for b, p in enumerate(probs):
                    se = math.sqrt(p * (1.0 - p) / n)
                    diff = abs(float(freq[b]) - p)
                    if se == 0.0:
                        if diff != 0.0:
                            bad.append((lam, deg, t, "exact-branch"))
                    else:
                        worst_z = max(worst_z, diff / se)
                        if diff > 4.0 * se:
                            bad.append((lam, deg, t, "branch"))
                lat = expected_hop_latency(hop, t, params)
                rel = abs(res.mean_latency - lat) / lat
                worst_rel = max(worst_rel, rel)
                if rel > 0.01:
                    bad.append((lam, deg, t, "latency"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0
    verdict(
        3,
        ok,
        f"Monte Carlo 24 cells x {n} snapshots: worst branch z {worst_z:.2f} (<=4), "
        f"worst latency rel {worst_rel:.2%} (<=1%), {elapsed:.1f} s"
        + (f", failing cells {bad}" if bad else ""),
    )


def test_criterion_4_optimizer_matches_exhaustive_grids(verdict):
    """Both solvers land on the 1e4-point grid argmax; stationarity holds."""
    params = SystemParams()
    T = params.hop_dwell
    ts = np.linspace(0.0, T, 10_000)
    step = ts[1] - ts[0]
    rng = np.random.default_rng(1004)
    routes = [make_route(rng) for _ in range(20)]
    start = time.perf_counter()
    worst_gap, worst_dist, kkt_fail = 0.0, 0.0, 0
    for route in routes:
        ctx = build_normalization([route], params)
        ev = RouteEvaluator(route, params)
        hop_singles = [Route(hops=(h,)) for h in route.hops]
        hop_evs = [RouteEvaluator(r, params) for r in hop_singles]
        hop_ctxs = [build_normalization([r], params) for r in hop_singles]
        for alpha in (0.0, 0.5, 1.0):
            out = solve_global([route], params, weight=alpha, context=ctx)
            values = _objective_series(ev, ts, ctx, alpha)
            top = values.max()
            worst_gap = max(worst_gap, top - out.objective)
            near = ts[values >= top - 1e-12]
            worst_dist = max(worst_dist, float(np.min(np.abs(near - out.t_star))) / step)
            kkt_fail += 0 if out.kkt["ok"] else 1

            dist = solve_distributed([route], params, weight=alpha, context=ctx)
            for h, t_h in enumerate(dist.windows):
                vals_h = _objective_series(hop_evs[h], ts, hop_ctxs[h], alpha)
                v_h = _objective_series(hop_evs[h], [t_h], hop_ctxs[h], alpha)[0]
                top_h = vals_h.max()
                worst_gap = max(worst_gap, top_h - v_h)
                near_h = ts[vals_h >= top_h - 1e-12]
                worst_dist = max(worst_dist, float(np.min(np.abs(near_h - t_h))) / step)
                if not kkt_stationarity_check(hop_evs[h], t_h, hop_ctxs[h], weight=alpha)["ok"]:
                    kkt_fail += 1
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-12 and worst_dist <= 1.0 + 1e-9 and kkt_fail == 0 and elapsed < 60.0
    verdict(
        4,
        ok,
        f"optimizers vs 1e4-point grids (20 routes x 3 weights): max value gap {worst_gap:.2e}, "
        f"max argmax distance {worst_dist:.3f} grid steps, stationarity failures {kkt_fail}, {elapsed:.1f} s",
    )


def test_criterion_5_objective_shape_on_the_stock_grid(verdict):
    """Balanced weight: unimodal with interior peak; pure latency: peak at T."""
    params = SystemParams()
    T = params.hop_dwell
    scenario = build_grid_scenario()
    routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
    ctx = build_normalization(routes, params)
    ts = np.linspace(0.0, T, 10_000)

    # Pure-latency weight: every route's latency falls monotonically in the
    # window, so the best window is the whole dwell.
    lat_rise = 0.0
    for route in routes:
        series = RouteEvaluator(route, params).series(ts)
        lat_rise = max(lat_rise, float(np.diff(series["latency"]).max()))
    out0 = solve_global(routes, params, weight=0.0, context=ctx)
    boundary_ok = (
        lat_rise <= 1e-9
        and abs(out0.t_star - T) <= 1e-6 * T
        and out0.kkt["ok"]
        and out0.kkt["kind"] == "boundary_right"
    )

    # Balanced weight: interior peak, piece-level unimodality, and concavity
    # inside every smooth piece.
    out5 = solve_global(routes, params, weight=0.5, context=ctx)
    ev = RouteEvaluator(routes[out5.route_index], params)
    values = _objective_series(ev, ts, ctx, 0.5)
    edges = ev.breakpoints()
    piece = np.clip(np.searchsorted(edges, ts, side="right") - 1, 0, len(edges) - 2)
    piece_max = np.full(len(edges) - 1, -np.inf)
    np.maximum.at(piece_max, piece, values)
    peak = int(np.argmax(piece_max))
    rising = np.diff(piece_max[: peak + 1])
    falling = np.diff(piece_max[peak:])
    unimodal = (rising >= -1e-9).all() and (falling <= 1e-9).all()
    interior = 10 * (ts[1] - ts[0]) < out5.t_star < T - 10 * (ts[1] - ts[0])
    report = verify_concavity(ev, weight=0.5, context=ctx)
    ok = boundary_ok and unimodal and interior and report["concave"] and out5.kkt["ok"]
    verdict(
        5,
        ok,
        f"shape: latency max rise {lat_rise:.1e} and t*(0) = {out0.t_star:.6g} = T; "
        f"t*(0.5) = {out5.t_star:.4f} interior, piece-level unimodal {unimodal}, "
        f"in-piece max second difference {report['max_second_difference']:.1e}",
    )


def test_criterion_6_global_routing_dominates_the_baselines(verdict):
    """Coordinated selection beats SPR and GPSR at their own best windows."""
    params = SystemParams()
    start = time.perf_counter()
    worst = -math.inf
    for seed in range(10):
        scenario = build_grid_scenario(seed=seed)
        routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
        ctx = build_normalization(routes, params)
        for alpha in (0.0, 0.5, 1.0):
            best = solve_global(routes, params, weight=alpha, context=ctx, with_kkt=False)
            for pick in (spr_route, gpsr_route):
                base = pick(scenario.topology, scenario.source, scenario.destination)
                sub = solve_global([base], params, weight=alpha, context=ctx, with_kkt=False)
                worst = max(worst, sub.objective - best.objective)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    verdict(
        6,
        ok,
        f"10 seeded scenarios x 3 weights: max baseline advantage {worst:.2e} (<= 0 expected), {elapsed:.1f} s",
    )


def test_criterion_7_backhaul_closes_the_fallback_gap(verdict):
    """Wired fallback wins at t = 0 and washes out near the full dwell."""
    scenario = build_grid_scenario(seed=104, arrival_interval=(0.25, 0.3))
    params = scenario.params
    T = params.hop_dwell
    route = spr_route(scenario.topology, scenario.source, scenario.destination)
    n = 10_000

    # Coupled seeds at t = 0: the wired run can only remove waiting time.
    cfg = SimConfig(snapshots=n, seed=500)
    plain0 = simulate_route(route, 0.0, params, cfg)
    wired0 = simulate_route(route, 0.0, params, cfg, backhaul=BackhaulConfig())
    coupled_ok = (
        np.all(wired0.latencies <= plain0.latencies + 1e-12)
        and wired0.mean_latency < plain0.mean_latency
    )

    # Independent runs at t = 0.95 T: discovery almost always succeeds, so
    # the two configurations agree within Monte Carlo noise.
    plain = simulate_route(route, 0.95 * T, params, SimConfig(snapshots=n, seed=501))
    wired = simulate_route(
        route, 0.95 * T, params, SimConfig(snapshots=n, seed=502), backhaul=BackhaulConfig()
    )
    diff = abs(plain.mean_latency - wired.mean_latency)
    se = math.hypot(plain.se_latency, wired.se_latency)
    ok = coupled_ok and diff <= 2.0 * se
    verdict(
        7,
        ok,
        f"backhaul: t=0 mean {wired0.mean_latency:.2f} < {plain0.mean_latency:.2f} (coupled); "
        f"t=0.95T |diff| {diff:.4f} <= 2 SE {2 * se:.4f}",
    )


def test_criterion_8_distributed_never_loses_to_global(verdict):
    """Per-hop windows score at least as well as the shared window."""
    params = SystemParams()
    scenario = build_grid_scenario()
    routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)
    ctx = build_normalization(routes, params)
    gains = {}
    ok = True
    for alpha in (0.5, 1.0):
        g = solve_global(routes, params, weight=alpha, context=ctx, with_kkt=False)
        d = solve_distributed(routes, params, weight=alpha, context=ctx)
        gains[alpha] = d.objective - g.objective
        ok = ok and d.objective >= g.objective - 1e-12
    verdict(
        8,
        ok,
        "distributed minus global objective: "
        + ", ".join(f"{g:+.4f} at weight {a}" for a, g in gains.items()),
    )


_COMMANDS = [
    ["analyze", "--t", "8"],
    ["optimize-global"],
    ["optimize-distributed"],
    ["simulate", "--t", "4", "--snapshots", "400", "--seed", "7"],
    ["compare"],
    ["sweep", "--variable", "t", "--points", "5", "--snapshots", "400", "--seed", "7"],
]


def _run_inprocess(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def _run_subprocess(argv, threads: int) -> None:
    n = str(threads)
    env = child_env(OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n, MKL_NUM_THREADS=n)
    script = "import sys; from v2xdelivery.cli import run_command; sys.exit(run_command(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"{argv} under {threads} threads: {proc.stderr}"


def test_criterion_9_byte_identical_artifacts(verdict, tmp_path):
    """Fixed seeds reproduce CSV byte for byte, across runs and thread counts."""
    start = time.perf_counter()
    mismatches = []
    for idx, base in enumerate(_COMMANDS):
        name = base[0]
        out = tmp_path / f"{name}_{idx}.csv"
        argv = base + ["--out", str(out)]

        stdout_a = _run_inprocess(argv)
        first = out.read_bytes()
        stdout_b = _run_inprocess(argv)
        if out.read_bytes() != first or stdout_a != stdout_b:
            mismatches.append((name, "rerun"))

        for threads in (1, 4):
            sub_out = tmp_path / f"{name}_{idx}_t{threads}.csv"
            _run_subprocess(base + ["--out", str(sub_out)], threads)
            if sub_out.read_bytes() != first:
                mismatches.append((name, f"{threads} threads"))
    elapsed = time.perf_counter() - start
    ok = not mismatches
    verdict(
        9,
        ok,
        f"determinism: {len(_COMMANDS)} commands, rerun + 1/4-thread subprocesses all byte-identical"
        + (f"; mismatches {mismatches}" if mismatches else "")
        + f", {elapsed:.1f} s",
    )
