"""Walk through the three ways a packet can leave one hop.

A courier vehicle crossing a road segment either already heads the right
way (forward), hands the packet to a discovered candidate within the
window t (success), or parks it at the roadside unit and waits for the
next outbound vehicle (failure).  This script prints how the branch
probabilities, latencies, and throughputs respond to the window.
"""

import warnings

import numpy as np

from v2xdelivery import (
    Hop,
    RegimeWarning,
    Route,
    RouteEvaluator,
    SystemParams,
    expected_hop_latency,
    expected_hop_rate,
    max_trials,
    mean_rates,
    p_courier_forward,
    p_failure,
    p_success,
)

params = SystemParams()
hop = Hop(arrival_rate=0.15, deg=3, rsu_id="A")

print("hop: arrival rate %.2f /s, %d exits, dwell T = %.0f s" % (hop.arrival_rate, hop.deg, params.hop_dwell))
print("courier already forward with probability 1/deg = %.4f" % p_courier_forward(hop))
print()

# The window t buys discovery trials of trial_time seconds each; a longer
# window means more trials and more arrivals, so success grows at the
# expense of failure.  Forward never moves: it is decided before discovery.
print("%8s %6s %10s %10s %10s %12s %10s" % ("t [s]", "trials", "p_fwd", "p_succ", "p_fail", "E[lat] [s]", "E[rate]"))
for t in (0.0, 0.5, 2.0, 8.0, 20.0):
    m = max_trials(t, params.trial_time)
    row = (
        t,
        m,
        p_courier_forward(hop),
        p_success(hop, t, params),
        p_failure(hop, t, params),
        expected_hop_latency(hop, t, params),
        expected_hop_rate(hop, t, params),
    )
    print("%8.1f %6d %10.4f %10.4f %10.4f %12.3f %10.4f" % row)

print()
total = p_courier_forward(hop) + p_success(hop, 8.0, params) + p_failure(hop, 8.0, params)
print("branches partition the outcome: sum at t=8 is %.15f" % total)

# Per-branch mean throughputs at one window.  The failure branch pays the
# fallback upload plus the wait for the next vehicle, so its rate is the
# lowest of the three whenever the wait is long.
c_fwd, c_s, c_f = mean_rates(hop, 8.0, params)
print("\nmean branch rates at t=8: forward %.4f, success %.4f, failure %.4f" % (c_fwd, c_s, c_f))

# A sparse street (mean headway beyond the dwell) flips the success branch
# into a regime where handing the packet over costs rate instead of
# saving it; the model flags that rather than silently extrapolating.
sparse = Hop(arrival_rate=0.02, deg=3)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    mean_rates(sparse, 8.0, params)
flagged = [w for w in caught if issubclass(w.category, RegimeWarning)]
print("\nsparse street (rate 0.02 /s, headway 50 s > T = 20 s):")
print("  RegimeWarning raised: %s" % bool(flagged))

# Route-level view: latencies add, the bottleneck hop caps the rate.
route = Route(
    hops=(
        Hop(arrival_rate=0.15, deg=3, rsu_id="A"),
        Hop(arrival_rate=0.25, deg=4, rsu_id="B"),
        Hop(arrival_rate=0.10, deg=2, rsu_id="C"),
    ),
    source="S",
    destination="D",
    nodes=("S", "A", "B", "C"),
)
ev = RouteEvaluator(route, params)
print("\n3-hop route at t=8:")
print("  per-hop latency: %s" % np.round(ev.hop_latencies(8.0), 3).tolist())
print("  per-hop rate:    %s" % np.round(ev.hop_rates(8.0), 4).tolist())
print("  end-to-end latency %.3f s (sum), rate %.4f (bottleneck)" % (ev.latency(8.0), ev.rate_min_of_means(8.0)))
