"""Train a continuous-action PPO agent and compare it against baselines.

About two minutes of compute: 300 training episodes on a 2,000-agent
population, then a paired-seed evaluation against no-intervention and the
alternating 7-work-7-lockdown baseline. Expect the learned policy to hold
infections well below both baselines while spending less than the blanket
lockdown.
"""

import numpy as np

from epictrl import EpidemicEnv, FullConfig
from epictrl.agents import train
from epictrl.analysis import summarize
from epictrl.baselines import null_policy, seven_work_seven_lockdown
from epictrl.env import evaluate

cfg = FullConfig()
cfg.population.pop_size = 2000
cfg.population.total_pop = 2000.0
cfg.population.pop_infected = 10.0
cfg.env.action_space_kind = "continuous"

EPISODES = 300
print(f"training PPO for {EPISODES} episodes...")
result = train(lambda: EpidemicEnv(cfg), "ppo", "continuous", cfg,
               total_episodes=EPISODES, seed=11)

curve = np.array(result.curve)
for start in range(0, EPISODES, 50):
    block = curve[start:start + 50]
    print(f"  episodes {start:>3}-{start + len(block) - 1}: mean return {block.mean():>8.1f}")

env = EpidemicEnv(cfg)
seeds = list(range(500, 506))
print("\npaired evaluation over", len(seeds), "seeds:")
print(f"{'policy':<10} {'infections':>11} {'deaths':>7} {'econ loss':>10} {'return':>9}")
# The trained agent is itself a policy: its select_action is the greedy action.
for name, policy in (
    ("ppo", result.agent),
    ("7w7l", seven_work_seven_lockdown()),
    ("none", null_policy()),
):
    agg = summarize(evaluate(policy, env, seeds))
    print(f"{name:<10} {agg['cumulative_infections_mean']:>11.0f} "
          f"{agg['total_deaths_mean']:>7.1f} "
          f"{100 * agg['mean_economic_loss_mean']:>9.1f}% "
          f"{agg['total_return_mean']:>9.1f}")
