"""Step through the decision environment by hand.

Shows the weekly decision loop: the 8-dimensional observation, the
activation gate that nulls actions until enough cases have been diagnosed,
and the reward decomposition into health, economy, and action-change terms.
"""

import numpy as np

from epictrl import Action, EpidemicEnv, FullConfig

cfg = FullConfig()
cfg.population.pop_size = 2000
cfg.population.total_pop = 2000.0
cfg.population.pop_infected = 10.0
cfg.env.action_space_kind = "continuous"

env = EpidemicEnv(cfg)
obs = env.reset(7)
print("observation fields: S E I R D CT CQ diagnoses (normalized by population)")
print("day 0:", np.array2string(obs, precision=4))

requested = Action(ch_beta=0.6, ch_tp=0.5, ch_ctp=0.5)
print(f"\nrequesting {requested} every step; watch the activation gate:\n")
print(f"{'step':>4} {'day':>4} {'applied':>22} {'activated':>9} {'reward':>9} "
      f"{'r_H sum':>9} {'r_E~ sum':>9} {'penalty':>8}")

done = False
step = 0
total = 0.0
while not done:
    obs, reward, done, info = env.step(requested)
    step += 1
    total += reward
    a = info["applied_action"]
    comps = info["reward_components"]
    print(f"{step:>4} {info['day']:>4} "
          f"({a.ch_beta:.2f},{a.ch_tp:.2f},{a.ch_ctp:.2f})".rjust(28)[:28] +
          f" {str(info['activated']):>9} {reward:>9.1f} "
          f"{sum(comps['r_h_daily']):>9.1f} {sum(comps['r_e_scaled_daily']):>9.1f} "
          f"{comps['penalty']:>8.1f}")

print(f"\nepisode return: {total:.1f}")
print(f"final cumulative infections: {env.pop_size - info['week_counts'][-1].S}")
