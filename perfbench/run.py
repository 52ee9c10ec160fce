"""epictrl benchmark: 100k-agent episodes and 2k-agent PPO/DQN training.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # every workload in turn, seed 0, 25 s each

A run repeats whole rounds of one workload, all with the same seed, as long
as the next round should end within ``--seconds``, and at least once.
Every round's outputs are checked (see checks.py). With ``--trace 0`` the
last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` rounds alternate untraced and traced, the
per-layer metrics come from the traced rounds, the spans go to
``perfbench/out/trace-<workload>-seed<n>.json``, and the tracing overhead is
printed.

The workloads are listed in WORKLOADS below and in BENCHMARK.json; README.md
says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Run the program from this checkout's sources, never from elsewhere.
if not (SRC / "epictrl" / "__init__.py").is_file():
    sys.exit(f"perfbench: no epictrl sources under {SRC}")
sys.path.insert(0, str(SRC))

import epictrl  # noqa: E402
from epictrl import Action, EpidemicEnv, FullConfig, NULL_ACTION, Simulation  # noqa: E402
from epictrl.agents import train  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

if Path(epictrl.__file__).resolve().parent != SRC / "epictrl":
    sys.exit(f"perfbench: epictrl imported from {epictrl.__file__}, not from {SRC}")

EPISODE_AGENTS = 100_000
EPISODE_SEEDED = 500
TRAIN_AGENTS = 2_000
TRAIN_SEEDED = 10
DAYS = 133
ACTIONS = {"episode-100k-mixed": Action(0.75, 0.5, 0.5), "episode-100k-null": NULL_ACTION}
AGENTS = {"train-2k-ppo": ("ppo", "continuous"), "train-2k-dqn": ("dqn", "discrete")}
# A training round trains TRAIN_RUNS agents, seeded seed * TRAIN_RUNS + k,
# for TRAIN_EPISODES episodes each: enough for three PPO updates (one per
# 190-step rollout, 10 episodes) and to put DQN past learning_starts (57
# transitions, 3 episodes). How much an agent's policy tests and traces sets
# its episodes' cost (30% apart between two DQN seeds), so a round averages
# over more than one agent.
TRAIN_RUNS = 3
TRAIN_EPISODES = 30
# Share of agents ever infected below which the epidemic did not take off.
# Across seeds the mixed action infects about 7% and the null action 83%.
INFECTED_FLOOR = {"episode-100k-mixed": 0.03, "episode-100k-null": 0.5}


def make_config(agents: int, seeded: int) -> FullConfig:
    """Defaults, except the population size and seeded count at pop_scale 1."""
    cfg = FullConfig()
    cfg.population.pop_size = agents
    cfg.population.total_pop = float(agents)
    cfg.population.pop_infected = float(seeded)
    return cfg


def warm_up(workload: str) -> None:
    """Run the workload's code paths once, small and untimed.

    First calls in a process pay one-off costs (lazy initialisation in numpy
    and the interpreter) that would otherwise land in the first round's
    set-up: about 10-30 ms against a 1 ms training set-up.
    """
    cfg = make_config(TRAIN_AGENTS, TRAIN_SEEDED)
    if workload in AGENTS:
        kind, space = AGENTS[workload]
        cfg.env.action_space_kind = space
        train(lambda: EpidemicEnv(cfg), kind, space, cfg, total_episodes=1, seed=0)
    else:
        sim = Simulation(cfg.population, cfg.disease, cfg.interventions, 0)
        for _ in range(7):
            sim.step_day(ACTIONS[workload])


@dataclass
class Round:
    """What one round measured and what its checks found."""

    setup_s: list[float]  # one per set-up in the round
    episode_s: float
    operations: int
    fingerprint: object
    problems: list[str]


def episode_round(workload: str, seed: int, first: bool) -> Round:
    """Construct one 100k-agent Simulation and step it 133 days."""
    cfg = make_config(EPISODE_AGENTS, EPISODE_SEEDED)
    action = ACTIONS[workload]

    t0 = time.perf_counter()
    sim = Simulation(cfg.population, cfg.disease, cfg.interventions, seed)
    t1 = time.perf_counter()
    series = [sim.step_day(action) for _ in range(DAYS)]
    t2 = time.perf_counter()
    pop = sim.pop
    del sim  # free the agent state before the checks and the next round

    problems = checks.check_series(series, EPISODE_AGENTS, EPISODE_SEEDED, DAYS)
    problems += checks.check_population(pop)
    tests = sum(c.new_tests for c in series)
    quarantined = sum(c.new_quarantined for c in series)
    if action == NULL_ACTION and (tests or quarantined):
        problems.append(f"null action made {tests} tests and {quarantined} quarantines")
    if action != NULL_ACTION and not (tests > 0 and quarantined > 0):
        problems.append(f"mixed action made {tests} tests and {quarantined} quarantines")
    infected = EPISODE_AGENTS - series[-1].S
    if infected < INFECTED_FLOOR[workload] * EPISODE_AGENTS:
        problems.append(f"{infected} agents infected, below the floor {INFECTED_FLOOR[workload]:.0%}")
    if first:
        problems += checks.check_checker(series, EPISODE_AGENTS, EPISODE_SEEDED)
    return Round([t1 - t0], t2 - t1, 1, checks.series_hash(series), problems)


def train_round(workload: str, seed: int, first: bool) -> Round:
    """Train TRAIN_RUNS agents for TRAIN_EPISODES episodes each at the 2k acceptance config."""
    kind, space = AGENTS[workload]
    cfg = make_config(TRAIN_AGENTS, TRAIN_SEEDED)
    cfg.env.action_space_kind = space

    setups, training_s, curves, problems = [], 0.0, [], []
    for k in range(TRAIN_RUNS):
        log = TrainingLog()
        t0 = time.perf_counter()
        result = train(lambda: RecordingEnv(cfg, log), kind, space, cfg,
                       total_episodes=TRAIN_EPISODES, seed=seed * TRAIN_RUNS + k)
        t2 = time.perf_counter()
        setups.append(log.first_reset - t0)
        training_s += t2 - log.first_reset
        curves.append(tuple(result.curve))

        found = checks.check_training(log.episodes, result.curve, TRAIN_EPISODES, TRAIN_SEEDED, cfg, NULL_ACTION)
        found += checks.check_population(log.population)
        if first and k == 0:
            series = [c for _, _, info in log.episodes[0] for c in info["week_counts"]]
            found += checks.check_checker(series, TRAIN_AGENTS, TRAIN_SEEDED)
        problems += [f"agent {k}: {p}" for p in found]
    operations = TRAIN_RUNS * TRAIN_EPISODES
    return Round(setups, training_s / operations, operations, tuple(curves), problems)


class TrainingLog:
    """What a training run's environment returned, kept for the checks."""

    def __init__(self) -> None:
        self.first_reset: float | None = None
        self.population = None  # the first episode's
        self.episodes: list[list] = []  # per episode, (reward, done, info) per step


class RecordingEnv(EpidemicEnv):
    """EpidemicEnv that keeps what each step returned in a TrainingLog."""

    def __init__(self, config, log: TrainingLog):
        super().__init__(config)
        self.log = log

    def reset(self, seed):
        if self.log.first_reset is None:
            self.log.first_reset = time.perf_counter()
        obs = super().reset(seed)
        if self.log.population is None:
            self.log.population = self.sim.pop
        self.log.episodes.append([])
        return obs

    def step(self, action):
        obs, reward, done, info = super().step(action)
        self.log.episodes[-1].append((reward, done, info))
        return obs, reward, done, info


# Workload name -> round function. BENCHMARK.json says why each was chosen.
WORKLOADS = {
    "episode-100k-mixed": episode_round,
    "episode-100k-null": episode_round,
    "train-2k-ppo": train_round,
    "train-2k-dqn": train_round,
}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat rounds for about ``seconds`` and report their medians.

    A traced run makes at least two rounds: odd rounds are traced and even
    rounds are not.
    """
    warm_up(workload)
    tracer = spans.Tracer() if traced else None
    rounds: list[tuple[int, bool, Round]] = []
    attempted = failed = 0
    problems: list[str] = []
    start = last = time.perf_counter()
    index = 0
    # Start another round only while it should end within the run's time.
    while index < (2 if traced else 1) or (last - start) * (index + 1) / index <= seconds:
        trace_this = traced and index % 2 == 1
        try:
            if trace_this:
                with tracer.round(index):
                    r = WORKLOADS[workload](workload, seed, index == 0)
            else:
                r = WORKLOADS[workload](workload, seed, index == 0)
        except Exception:  # a failing round is counted, and the run goes on
            traceback.print_exc()
            operations = TRAIN_RUNS * TRAIN_EPISODES if workload in AGENTS else 1
            attempted += operations
            failed += operations
        else:
            attempted += r.operations
            rounds.append((index, trace_this, r))
            problems += [f"round {index}: {p}" for p in r.problems]
        if index == 0:
            # Later rounds raise the peak a little as the heap fragments; the
            # first round's peak does not depend on how many rounds fit.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
        last = time.perf_counter()
    if not rounds:
        sys.exit("perfbench: every round failed")
    if any(r.fingerprint != rounds[0][2].fingerprint for _, _, r in rounds):
        problems.append("rounds with one seed gave different outputs")
    if traced and not tracer.counts_repeat():
        problems.append("traced rounds gave different counts")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"CHECK FAILED: {len(problems) - 20} more problems", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(rounds)} rounds, {attempted} operations, {failed} failed")

    plain = [r for _, t, r in rounds if not t]
    episode_s = statistics.median(r.episode_s for r in plain)
    if traced:
        metrics = tracer.metrics()
        with_spans = statistics.median(r.episode_s for _, t, r in rounds if t)
        per_round, cost = tracer.spans_per_round(), tracer.span_cost()
        estimate = per_round * cost / statistics.median(sum(r.setup_s) + r.episode_s * r.operations for r in plain)
        print(f"tracing: episode_s {episode_s:.4f} s untraced, {with_spans:.4f} s traced "
              f"({with_spans / episode_s - 1:+.1%}; a few rounds do not resolve it from run noise)")
        print(f"tracing: {per_round:.0f} spans per round at {cost * 1e6:.2f} us each, "
              f"about {estimate:.2%} of an untraced round")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(path, {"workload": workload, "seed": seed, "episode_s_untraced": episode_s,
                            "episode_s_traced": with_spans, "spans_per_round": per_round,
                            "span_cost_s": cost, "estimated_overhead": estimate})
        print(f"spans written to {path}")
    else:
        metrics = {
            "episode_s": {"value": episode_s, "unit": "s"},
            "setup_s": {"value": statistics.median(s for r in plain for s in r.setup_s), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED (exit code {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload; all when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
