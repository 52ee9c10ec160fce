"""Recover known simulator parameters from synthetic observed data.

Generates cumulative confirmed-case and death series from the simulator at
a known transmission rate, then runs the two-phase search (Sobol global
phase, Gaussian local refinement) to recover it. Uses a reduced trial count
so the demo finishes in about half a minute.
"""

import numpy as np

from epictrl import FullConfig
from epictrl.baselines import uk_approximation_schedule
from epictrl.calibration import CalibrationSpec, mean_series, search, simulate_observed

TRUE_BETA = 0.006
TRUE_POP_INFECTED = 10.0

cfg = FullConfig()
cfg.population.pop_size = 2000
cfg.population.total_pop = 2000.0
cfg.population.pop_infected = TRUE_POP_INFECTED
cfg.population.beta_initial = TRUE_BETA
policy = uk_approximation_schedule()

# The mean of three replications scaled to observed series by the search's
# own replication path; the schedule applies on its dates from day 0.
observed = mean_series(simulate_observed(cfg, policy, 100, [1000, 1001, 1002]))
print(f"synthetic target: beta={TRUE_BETA}, pop_infected={TRUE_POP_INFECTED:.0f}, "
      f"final confirmed {observed.cum_confirmed[-1]:.0f}")

spec = CalibrationSpec(
    pop_infected_range=(2, 40), beta_range=(0.002, 0.015),
    trials=40, replications=2, seed=7,
)
result = search(spec, observed, cfg, policy=policy, n_days=100)

print(f"\nbest after {spec.trials} trials:")
print(f"  beta_initial  {result.best.beta_initial:.5f}  "
      f"(error {100 * (result.best.beta_initial / TRUE_BETA - 1):+.1f}%)")
print(f"  pop_infected  {result.best.pop_infected:.1f}")
print(f"  loss          {result.best.loss:.4f}")

incumbent = np.inf
print("\nincumbent loss trajectory (every 5 trials):")
for t in result.trials:
    if not t.failed:
        incumbent = min(incumbent, t.loss)
    if (t.index + 1) % 5 == 0:
        print(f"  trial {t.index + 1:>3}: {incumbent:.4f}")
