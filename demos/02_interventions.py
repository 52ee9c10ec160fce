"""Compare intervention mixes on paired seeds.

Same population and seeds, four strategies: nothing, lockdown only,
test-and-trace only, and everything at once. The interesting result is that
testing plus tracing suppresses the epidemic almost as hard as a full
lockdown at a small fraction of the economic cost.
"""

import numpy as np

from epictrl import Action, EpidemicEnv, FullConfig
from epictrl.baselines import SchedulePolicy
from epictrl.env import evaluate

cfg = FullConfig()
cfg.population.pop_size = 2000
cfg.population.total_pop = 2000.0
cfg.population.pop_infected = 10.0
cfg.env.activation_threshold = 0  # apply each mix from day 0
env = EpidemicEnv(cfg)

STRATEGIES = {
    "nothing": Action(1.0, 0.0, 0.0),
    "lockdown 50%": Action(0.5, 0.0, 0.0),
    "test + trace": Action(1.0, 0.75, 0.75),
    "everything": Action(0.5, 0.75, 0.75),
}

print(f"{'strategy':<14} {'infections':>11} {'deaths':>7} {'quarantined':>12} {'econ loss %':>12}")
for name, action in STRATEGIES.items():
    episodes = evaluate(SchedulePolicy(entries=((0, action),), name=name), env, [1, 2, 3])
    infections = np.mean([ep.cumulative_infections for ep in episodes])
    deaths = np.mean([ep.total_deaths for ep in episodes])
    quarantined = np.mean([ep.series[-1].cumulative_quarantined for ep in episodes])
    loss_pct = 100.0 * np.mean([ep.mean_economic_loss for ep in episodes])
    print(f"{name:<14} {infections:>11.0f} {deaths:>7.1f} {quarantined:>12.0f} {loss_pct:>12.2f}")
