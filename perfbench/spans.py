"""In-memory span recorder for the traced benchmark run.

Each public function of interest is replaced, at the name its caller looks
it up, by a wrapper that records ``[name, start, end, parent, round]``
around the original call and adds the call's counts to the current round.
Nothing inside ``epictrl`` is edited: the wrappers are installed for one
round and the originals are put back afterwards, so untraced rounds of the
same process run the unmodified program.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import epictrl.env as env_mod
import epictrl.interventions as interventions
import epictrl.simulator as simulator
from epictrl.agents import dqn, ppo


def _edges(args, kwargs, pop):
    return {"population.edges": sum(len(layer.src) for layer in pop.layers.values())}


def _day(args, kwargs, counts):
    return {"simulator.days": 1, "simulator.new_infections": counts.new_infections}


def _tracing(args, kwargs, quarantined):
    diagnosed = args[2] if len(args) > 2 else kwargs["diagnosed_today"]
    return {"interventions.index_cases": len(diagnosed), "interventions.quarantined": quarantined}


def _testing(args, kwargs, result):
    return {"interventions.tests": result[0]}


def _one(key):
    return lambda args, kwargs, result: {key: 1}


# (owner, attribute, span name, counter). The owner is the namespace the
# caller resolves the name in: the simulator calls ``synthesize_population``
# from its own module globals and the interventions through ``iv.<name>``;
# env and the training loop reach the rest as methods.
TARGETS = (
    (simulator, "synthesize_population", "population.synthesize", _edges),
    (simulator.Simulation, "__init__", "simulator.init", None),
    (simulator.Simulation, "step_day", "simulator.step_day", _day),
    (interventions, "reveal_test_results", "interventions.reveal_test_results", None),
    (interventions, "run_tracing", "interventions.run_tracing", _tracing),
    (interventions, "run_testing", "interventions.run_testing", _testing),
    (env_mod.EpidemicEnv, "reset", "env.reset", None),
    (env_mod.EpidemicEnv, "step", "env.step", _one("env.steps")),
    (ppo.PPOAgent, "act", "agents.ppo.act", None),
    (ppo.PPOAgent, "update", "agents.ppo.update", _one("agents.ppo.updates")),
    (dqn.DQNAgent, "act", "agents.dqn.act", None),
    (dqn.DQNAgent, "update", "agents.dqn.update", _one("agents.dqn.updates")),
)

# Per-layer metric name -> (span name, inclusive or self time).
TIME_METRICS = {
    "population.synthesize_s": ("population.synthesize", "total"),
    "simulator.init_s": ("simulator.init", "total"),
    "simulator.step_day_s": ("simulator.step_day", "total"),
    "simulator.step_day_self_s": ("simulator.step_day", "self"),
    "interventions.run_tracing_s": ("interventions.run_tracing", "total"),
    "interventions.run_testing_s": ("interventions.run_testing", "total"),
    "interventions.reveal_test_results_s": ("interventions.reveal_test_results", "total"),
    "env.reset_s": ("env.reset", "total"),
    "env.step_self_s": ("env.step", "self"),
    "agents.ppo.act_s": ("agents.ppo.act", "total"),
    "agents.ppo.update_s": ("agents.ppo.update", "total"),
    "agents.dqn.act_s": ("agents.dqn.act", "total"),
    "agents.dqn.update_s": ("agents.dqn.update", "total"),
}
COUNT_METRICS = (
    "population.edges",
    "simulator.days",
    "simulator.new_infections",
    "interventions.index_cases",
    "interventions.quarantined",
    "interventions.tests",
    "env.steps",
    "agents.ppo.updates",
    "agents.dqn.updates",
)


class Tracer:
    """Spans and counts of the traced rounds of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: dict.fromkeys(COUNT_METRICS, 0))
        self.rounds: list[int] = []
        self._stack: list[int] = []
        self._round = -1

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._round])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                totals = self.counts[self._round]
                for key, value in counter(args, kwargs, result).items():
                    totals[key] += int(value)
            return result

        return traced

    @contextmanager
    def round(self, index: int):
        """Record spans for one round, with the wrappers installed only inside."""
        self._round = index
        self.rounds.append(index)
        self.counts[index]  # a round that calls nothing still reports zeros
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, counter), (_, _, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def round_times(self, index: int) -> dict[str, float]:
        """Inclusive and self time per span name within one round."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for name, start, end, parent, rnd in self.spans:
            if rnd != index:
                continue
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {
            metric: total[span] - (child[span] if kind == "self" else 0.0)
            for metric, (span, kind) in TIME_METRICS.items()
        }

    def counts_repeat(self) -> bool:
        """Whether every traced round of the run made exactly the same counts."""
        per_round = [self.counts[r] for r in self.rounds]
        return all(c == per_round[0] for c in per_round)

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics: medians of per-round times, per-round counts."""
        times = [self.round_times(r) for r in self.rounds]
        out = {m: {"value": statistics.median(t[m] for t in times), "unit": "s"} for m in TIME_METRICS}
        first = self.counts[self.rounds[0]]
        out.update({m: {"value": first[m], "unit": "count"} for m in COUNT_METRICS})
        return out

    def spans_per_round(self) -> float:
        return len(self.spans) / len(self.rounds)

    @staticmethod
    def span_cost(calls: int = 20_000) -> float:
        """Seconds that recording one span adds to a call, timed on a no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        return max(0.0, (t1 - t0) - (t2 - t1)) / calls

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start", "end", "parent", "round"],
                    "spans": self.spans,
                    "counts": {str(r): self.counts[r] for r in self.rounds},
                },
                fh,
            )
