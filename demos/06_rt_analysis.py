"""Real-time reproduction number under different strategies.

R_t estimates from the ratio of smoothed new infections to smoothed
infectious counts, scaled by the mean infectious duration. The epidemic
shrinks once R_t stays below 1; strategies differ mainly in how early they
force that crossing.
"""

from epictrl import EpidemicEnv, FullConfig
from epictrl.analysis import estimate_rt
from epictrl.baselines import null_policy, seven_work_seven_lockdown, uk_approximation_schedule
from epictrl.env import evaluate

cfg = FullConfig()
cfg.population.pop_size = 2000
cfg.population.total_pop = 2000.0
cfg.population.pop_infected = 10.0

env = EpidemicEnv(cfg)
duration = cfg.disease.infectious_mean

for name, policy in (
    ("none", null_policy()),
    ("7w7l", seven_work_seven_lockdown()),
    ("uk-approx", uk_approximation_schedule()),
):
    episode = evaluate(policy, env, [42])[0]
    rt = estimate_rt(episode.series, duration)
    crossing = rt.first_below_one(min_infectious=5.0)

    print(f"\n{name}: infections {episode.cumulative_infections}, "
          f"Rt first sustained below 1 on day {crossing}")
    print("  day:  " + " ".join(f"{d:>5}" for d in rt.days[::10]))
    print("  R_t:  " + " ".join(f"{v:>5.2f}" for v in rt.values[::10]))
