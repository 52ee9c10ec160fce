"""Decision-step environment wrapping the simulator.

One environment step applies an intervention triple for step_days
consecutive simulated days and returns the end-of-step observation, the sum
of the daily rewards over those days (plus, in continuous action spaces,
one action-change penalty against the previous step's applied action), a
done flag, and diagnostics. The observation is the eight OBSERVATION_FIELDS
counts of the last simulated day (of the seeding, after reset) divided by
pop_size.

Actions only take effect once the epidemic is visible: while cumulative
diagnoses are below the activation threshold the applied action is forced
to the null triple (no lockdown, no testing, no tracing) regardless of the
input. step() takes only an Action, in either action space: a discrete
agent decodes the grid index it chose (interventions.encode_discrete)
itself. Schedule policies are allowed outside the agents' continuous box
(e.g. deeper lockdowns) and off the discrete grid: every Action already
lies in its physical [0, 1] domain, so both modes apply any Action as
given. An activation threshold of 0 applies every action from day 0.

evaluate() is the one episode loop: every policy is an object with
select_action(observation, day), and simulate, evaluate, compare and
calibration runs all go through it. Across-seed reports over its episodes
live in analysis.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import FullConfig
from .errors import ActionDomainError, ProtocolError
from .interventions import Action, NULL_ACTION
from .rewards import action_penalty, daily_reward, economic_loss
from .simulator import DailyCounts, Simulation

__all__ = [
    "EpidemicEnv",
    "EvalEpisode",
    "OBSERVATION_FIELDS",
    "evaluate",
]

OBSERVATION_FIELDS = ("S", "E", "I", "R", "D", "cumulative_tests", "cumulative_quarantined", "cumulative_diagnoses")


class EpidemicEnv:
    """Reset/step interface over the agent-based simulator."""

    def __init__(self, config: FullConfig):
        config.validate()
        self.config = config
        self.env_cfg = config.env
        self.pop_size = config.population.pop_size
        self.sim: Simulation | None = None
        self._prev_applied = NULL_ACTION
        self._last_counts: DailyCounts | None = None

    # -- spaces ----------------------------------------------------------

    @property
    def observation_dim(self) -> int:
        return len(OBSERVATION_FIELDS)

    @property
    def n_steps_per_episode(self) -> int:
        return -(-self.env_cfg.episode_days // self.env_cfg.step_days)  # ceil

    # -- protocol ----------------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh episode; deterministic per seed."""
        self.sim = Simulation(
            self.config.population, self.config.disease, self.config.interventions, seed
        )
        self._prev_applied = NULL_ACTION
        self._last_counts = None
        return self._observe()

    def step(self, action: Action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply an action for one decision block of step_days days.

        Raises ActionDomainError for anything but an Action and
        ProtocolError when called on a finished episode.
        """
        if self.sim is None:
            raise ProtocolError("step() before reset()")
        days_left = self.env_cfg.episode_days - self.sim.day
        if days_left <= 0:
            raise ProtocolError("step() on a finished episode")
        if not isinstance(action, Action):
            raise ActionDomainError(f"step() expects an Action, got {type(action).__name__}")

        activated = self.sim.cum_diagnoses >= self.env_cfg.activation_threshold
        applied = action if activated else NULL_ACTION

        block = min(self.env_cfg.step_days, days_left)
        weights = self.config.rewards

        week_counts: list[DailyCounts] = []
        r_h_daily: list[float] = []
        r_e_daily: list[float] = []
        r_e_scaled_daily: list[float] = []
        reward = 0.0
        for _ in range(block):
            counts = self.sim.step_day(applied)
            week_counts.append(counts)
            dr = daily_reward(counts, applied, weights, self.pop_size)
            r_h_daily.append(dr.r_h)
            r_e_daily.append(dr.r_e)
            r_e_scaled_daily.append(dr.r_e_scaled)
            reward += dr.combined

        penalty = None
        if self.env_cfg.action_space_kind == "continuous":
            penalty = action_penalty(applied, self._prev_applied)
            reward += weights.lambda3 * penalty

        self._last_counts = week_counts[-1]
        self._prev_applied = applied

        info = {
            "day": self.sim.day,
            "raw_action": action,
            "applied_action": applied,
            "activated": activated,
            "week_counts": week_counts,
            "reward_components": {
                "r_h_daily": r_h_daily,
                "r_e_daily": r_e_daily,
                "r_e_scaled_daily": r_e_scaled_daily,
                "penalty": penalty,
            },
        }
        return self._observe(), reward, self.sim.day >= self.env_cfg.episode_days, info

    # -- helpers -----------------------------------------------------------

    def _observe(self) -> np.ndarray:
        if self._last_counts is None:
            sim = self.sim
            n_seeded = len(sim.seeded_ids)
            values = [self.pop_size - n_seeded, n_seeded, 0, 0, 0, 0, 0, 0]
        else:
            c = self._last_counts
            values = [getattr(c, f) for f in OBSERVATION_FIELDS]
        return np.asarray(values, dtype=np.float64) / self.pop_size


@dataclass
class EvalEpisode:
    """Metrics from one deterministic evaluation episode."""

    seed: int
    total_return: float
    cumulative_infections: int  # pop_size - S on the last day: the seeded and the newly infected
    total_deaths: int
    mean_economic_loss: float
    series: list = field(default_factory=list)  # DailyCounts per day
    step_records: list = field(default_factory=list)


def evaluate(policy, env, seeds: list[int], keep_traces: bool = False) -> list[EvalEpisode]:
    """Run a policy deterministically on each seed and collect metrics.

    Policies expose select_action(observation, day) and act greedily
    (mode/argmax); stochastic exploration is off during evaluation.
    """
    results = []
    weights = env.config.rewards
    pop_size = env.pop_size
    for seed in seeds:
        obs = env.reset(seed)
        done = False
        day = 0
        total_return = 0.0
        losses: list[float] = []
        series = []
        records = []
        while not done:
            action = policy.select_action(obs, day)
            obs, reward, done, info = env.step(action)
            total_return += reward
            series.extend(info["week_counts"])
            losses.extend(
                economic_loss(r_e, weights, pop_size)
                for r_e in info["reward_components"]["r_e_daily"]
            )
            if keep_traces:
                records.append(trace_record(obs, reward, info))
            day = info["day"]
        results.append(
            EvalEpisode(
                seed=seed,
                total_return=total_return,
                cumulative_infections=pop_size - series[-1].S,
                total_deaths=series[-1].D,
                mean_economic_loss=float(np.mean(losses)),
                series=series,
                step_records=records,
            )
        )
    return results


def write_trace(path: str, records: list[dict]) -> None:
    """JSONL trace export: one record per environment step."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def trace_record(obs: np.ndarray, reward: float, info: dict) -> dict:
    """Flatten one step's outputs into a JSON-serializable trace record."""
    return {
        "day": info["day"],
        "observation": [float(x) for x in obs],
        "raw_action": list(info["raw_action"].as_array()),
        "applied_action": list(info["applied_action"].as_array()),
        "activated": bool(info["activated"]),
        "reward": float(reward),
        "reward_components": {
            "r_h_daily": [float(x) for x in info["reward_components"]["r_h_daily"]],
            "r_e_daily": [float(x) for x in info["reward_components"]["r_e_daily"]],
            "r_e_scaled_daily": [float(x) for x in info["reward_components"]["r_e_scaled_daily"]],
            "penalty": info["reward_components"]["penalty"],
        },
        "week_counts": [asdict(c) for c in info["week_counts"]],
    }
