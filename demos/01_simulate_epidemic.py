"""Run an uncontrolled epidemic and look at its daily time series.

A 2,000-agent population with ten initially exposed agents, default disease
parameters, and no interventions. Prints a condensed day table and writes
the full series to uncontrolled.csv in the working directory.
"""

from epictrl import EpidemicEnv, FullConfig
from epictrl.baselines import null_policy
from epictrl.env import evaluate
from epictrl.simulator import counts_to_csv

cfg = FullConfig()
cfg.population.pop_size = 2000
cfg.population.total_pop = 2000.0   # pop_scale 1: agent counts are people
cfg.population.pop_infected = 10.0

episode = evaluate(null_policy(), EpidemicEnv(cfg), [42])[0]  # 133 days
series = episode.series

print(f"{'day':>4} {'S':>6} {'E':>5} {'I':>5} {'R':>6} {'D':>4} {'new_inf':>8} {'diagnosed':>10}")
for counts in series[::7]:
    print(f"{counts.day:>4} {counts.S:>6} {counts.E:>5} {counts.I:>5} "
          f"{counts.R:>6} {counts.D:>4} {counts.new_infections:>8} "
          f"{counts.cumulative_diagnoses:>10}")

print(f"\ncumulative infections: {episode.cumulative_infections} of {cfg.population.pop_size}")
print(f"deaths: {series[-1].D}")
peak = max(series, key=lambda c: c.I)
print(f"peak infectious: {peak.I} on day {peak.day}")

counts_to_csv(series, "uncontrolled.csv")
print("wrote uncontrolled.csv")
