"""Multihop store-carry-forward data delivery over vehicular relays.

Content rides on vehicles between roadside units; at every hop the courier
either keeps it, hands it to a discovered candidate heading the right way,
or parks it at the roadside unit until the next outbound vehicle.  The
package models those branches analytically, evaluates end-to-end latency
and rate in closed form, optimizes the per-hop discovery window, selects
routes, and validates everything against a seeded Monte Carlo simulator.
"""

from .closedform import (
    RouteEvaluator,
    e2e_latency_closed,
    e2e_rate_closed,
    expected_max_exponential,
    expected_max_trial_time,
    exponential_max_pdf,
    geometric_max_pmf,
    rate_decomposition,
    scenario_probabilities,
)
from .model import (
    Hop,
    RegimeWarning,
    Route,
    SystemParams,
    e2e_rate_min_of_means,
    expected_hop_latency,
    expected_hop_rate,
    max_trials,
    mean_rates,
    p_courier_forward,
    p_failure,
    p_success,
)
from .optimize import (
    build_normalization,
    kkt_stationarity_check,
    solve_distributed,
    solve_global,
    verify_concavity,
)
from .routing import (
    GreedyLoopError,
    NoRouteError,
    distributed_routing,
    enumerate_routes,
    global_routing,
    gpsr_route,
    spr_route,
)
from .scenario import (
    Scenario,
    build_grid_scenario,
    default_scenario,
    load_scenario,
    save_scenario,
)
from .simulate import (
    BackhaulConfig,
    Branch,
    SimConfig,
    delta_t_for_scheme,
    physical_branch_probs,
    simulate_route,
    sweep_windows,
)

__version__ = "0.1.0"

__all__ = [
    "BackhaulConfig",
    "Branch",
    "GreedyLoopError",
    "Hop",
    "NoRouteError",
    "RegimeWarning",
    "Route",
    "RouteEvaluator",
    "Scenario",
    "SimConfig",
    "SystemParams",
    "build_grid_scenario",
    "build_normalization",
    "default_scenario",
    "delta_t_for_scheme",
    "distributed_routing",
    "e2e_latency_closed",
    "e2e_rate_closed",
    "e2e_rate_min_of_means",
    "enumerate_routes",
    "expected_hop_latency",
    "expected_hop_rate",
    "expected_max_exponential",
    "expected_max_trial_time",
    "exponential_max_pdf",
    "geometric_max_pmf",
    "global_routing",
    "gpsr_route",
    "kkt_stationarity_check",
    "load_scenario",
    "max_trials",
    "mean_rates",
    "p_courier_forward",
    "p_failure",
    "p_success",
    "physical_branch_probs",
    "rate_decomposition",
    "save_scenario",
    "scenario_probabilities",
    "simulate_route",
    "solve_distributed",
    "solve_global",
    "spr_route",
    "sweep_windows",
    "verify_concavity",
]
