"""Time 133-day episodes with the community layer drawn inline and pipelined.

Usage, from the root of the repository:

    python tools/pipeline_crossover.py --agents 10000 20000 50000 100000 --rounds 5
    python tools/pipeline_crossover.py --agents 1000000 --actions mixed --rounds 1 --modes pipelined

For each population size and action, rounds alternate between the two ways
of drawing the community layer (which goes first alternates too), each
round constructing a Simulation with 0.5% of agents seeded and stepping it
133 days. It prints one markdown row per size and action: the median
episode time of each mode, their ratio and the rounds pipelining won, then
the process's peak RSS. Both modes give the same series, which is checked.
The mode is chosen by patching simulator.PIPELINE_MIN_AGENTS, so this
measures the threshold itself.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epictrl import Action, FullConfig, NULL_ACTION, Simulation  # noqa: E402
from epictrl import simulator  # noqa: E402

DAYS = 133
ACTIONS = {"null": NULL_ACTION, "mixed": Action(0.75, 0.5, 0.5)}
THRESHOLD = {"inline": sys.maxsize, "pipelined": 0}


def episode(agents: int, action: str, mode: str, seed: int) -> tuple[float, str]:
    """Seconds for DAYS steps (set-up excluded) and the series digest."""
    cfg = FullConfig()
    cfg.population.pop_size = agents
    cfg.population.total_pop = float(agents)
    cfg.population.pop_infected = float(agents // 200)
    simulator.PIPELINE_MIN_AGENTS = THRESHOLD[mode]
    sim = Simulation(cfg.population, cfg.disease, cfg.interventions, seed)
    t0 = time.perf_counter()
    series = [sim.step_day(ACTIONS[action]) for _ in range(DAYS)]
    elapsed = time.perf_counter() - t0
    return elapsed, hashlib.sha256(repr(series).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, nargs="+", default=[10_000, 20_000, 50_000, 100_000])
    parser.add_argument("--actions", nargs="+", choices=sorted(ACTIONS), default=["null", "mixed"])
    parser.add_argument("--modes", nargs="+", choices=sorted(THRESHOLD), default=["inline", "pipelined"])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print("| agents | action | " + " | ".join(f"{m} (s)" for m in args.modes) + " | ratio | pipelined won |")
    print("|---" * (len(args.modes) + 4) + "|")
    for agents in args.agents:
        for action in args.actions:
            times = {m: [] for m in args.modes}
            digests = set()
            for r in range(args.rounds):
                order = args.modes if r % 2 == 0 else args.modes[::-1]
                for mode in order:
                    elapsed, value = episode(agents, action, mode, args.seed)
                    times[mode].append(elapsed)
                    digests.add(value)
            if len(digests) != 1:
                print(f"{agents} {action}: the modes gave different series", file=sys.stderr)
                return 1
            medians = [statistics.median(times[m]) for m in args.modes]
            if len(args.modes) == 2:
                wins = sum(p < i for i, p in zip(times["inline"], times["pipelined"]))
                extra = f"{medians[1] / medians[0]:.2f} | {wins}/{args.rounds}"
            else:
                extra = "- | -"
            print(f"| {agents:,} | {action} | " + " | ".join(f"{m:.3f}" for m in medians) + f" | {extra} |")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
