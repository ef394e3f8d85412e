"""Run a reduced version of the Monte Carlo prediction study.

The full harness uses 400 observed / 400 unobserved sites and 100
replications; this demo shrinks everything so it finishes in a couple of
seconds while exercising the same code path.  Two scenarios are scored:
the oracle ceiling (true field known, conditional-mean predictor) and
the posterior-mode predictor with true parameters.
"""

import time

from glmmfp.covariance import MaternParams
from glmmfp.simulate import SimConfig, run_scenarios

config = SimConfig(
    n=100,
    n_star=80,
    beta=(3.0, 0.0),
    omega=MaternParams(0.5, 1.0, 0.5),
    replications=10,
    seed=0,
    side=10.0,
    scenarios=("oracle", "sic_true"),
)

start = time.perf_counter()
result = run_scenarios(config)
elapsed = time.perf_counter() - start

print(f"{config.replications} replications in {elapsed:.1f} s\n")
print(f"{'scenario':<10} {'RL2':>8} {'RL2*':>8}")
for scenario in config.scenarios:
    agg = result.aggregates[scenario]
    print(f"{scenario:<10} {agg['rl2']:8.4f} {agg['rl2_star']:8.4f}")

print(
    "\nRL2 is the relative squared error at observed sites, RL2* at "
    "unobserved sites.  The oracle row has RL2 = 0 by construction; the "
    "posterior-mode predictor with true parameters should track the oracle's "
    "RL2* almost exactly while keeping its own RL2 near zero."
)
print(f"\nfailures: {result.failures}")
