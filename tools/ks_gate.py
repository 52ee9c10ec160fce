"""Statistical gate for a deliberate model change: two-sample KS tests.

Runs both source trees over the same seeds, 133 days per run, at 2k agents
(10 seeded) and 10k agents (50 seeded), under the null action and under
Action(0.75, 0.5, 0.5), and compares the distributions of final size
(agents ever infected), peak day (first day of the highest E + I) and
deaths with scipy's two-sample Kolmogorov-Smirnov test. It also reports
the share of seeds whose epidemic stays below the take-off floor of
tests/test_fingerprints.py.

    python tools/ks_gate.py OLD_SRC NEW_SRC [--seeds 200]

OLD_SRC and NEW_SRC are directories holding an ``epictrl`` package (the
``src`` directory of two checkouts). Each tree runs in its own process,
both at once.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

SCENARIOS = [(2000, 10, "null"), (2000, 10, "mixed"), (10000, 50, "null"), (10000, 50, "mixed")]
METRICS = ("final_size", "peak_day", "deaths")
INFECTED_FLOOR = {"null": 0.5, "mixed": 0.025}
DAYS = 133


def collect(seeds: int) -> dict:
    """Outcomes per scenario and seed, from the epictrl found on sys.path."""
    from epictrl import Action, FullConfig, NULL_ACTION, Simulation

    actions = {"null": NULL_ACTION, "mixed": Action(0.75, 0.5, 0.5)}
    out = {}
    for agents, seeded, action in SCENARIOS:
        cfg = FullConfig()
        cfg.population.pop_size = agents
        cfg.population.total_pop = float(agents)
        cfg.population.pop_infected = float(seeded)
        rows = []
        for seed in range(seeds):
            sim = Simulation(cfg.population, cfg.disease, cfg.interventions, seed)
            series = [sim.step_day(actions[action]) for _ in range(DAYS)]
            prevalence = [c.currently_infected for c in series]
            rows.append((agents - series[-1].S, prevalence.index(max(prevalence)), series[-1].D))
        out[f"{agents}/{seeded}/{action}"] = rows
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.collect:
        sys.path.insert(0, args.old_src)
        print(json.dumps(collect(args.seeds)))
        return 0

    from scipy.stats import ks_2samp

    procs = [subprocess.Popen([sys.executable, __file__, src, "--collect", "--seeds", str(args.seeds)],
                              stdout=subprocess.PIPE, text=True) for src in (args.old_src, args.new_src)]
    old, new = (json.loads(p.communicate()[0]) for p in procs)
    print(f"{args.seeds} seeds per tree; KS statistic D and p-value; mean old -> new")
    print("| scenario | metric | D | p | mean old | mean new |")
    print("|---|---|---|---|---|---|")
    for key in old:
        for k, metric in enumerate(METRICS):
            a = [row[k] for row in old[key]]
            b = [row[k] for row in new[key]]
            test = ks_2samp(a, b)
            print(f"| {key} | {metric} | {test.statistic:.4f} | {test.pvalue:.3f} "
                  f"| {sum(a) / len(a):.1f} | {sum(b) / len(b):.1f} |")
    for key in old:
        agents, _, action = key.split("/")
        floor = INFECTED_FLOOR[action] * int(agents)
        below = [sum(row[0] <= floor for row in runs[key]) for runs in (old, new)]
        print(f"{key}: seeds at or below the take-off floor, old {below[0]}/{args.seeds}, new {below[1]}/{args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
