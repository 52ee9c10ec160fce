"""Training loop, learning curves, and checkpoints.

Both agent kinds share one protocol: act(obs, progress) returns an env
action, observe(obs, action, reward, next_obs, done) stores the transition
and updates when the agent's own rule says so, select_action(obs, day) is
the greedy evaluation action, and state_dict()/load_state_dict() carry the
kind-specific checkpoint payload. So the loop below and the checkpoint code
never branch on the kind, and a trained agent is an evaluation policy.

Episode seeds derive deterministically from the master seed and the episode
index, so a run resumed from a checkpoint sees exactly the episode seed
sequence the uninterrupted run would have seen, and the learning curve
continues without an episode-index gap.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from ..config import FullConfig
from ..errors import ConfigurationError, ShapeError
from .dqn import DQNAgent
from .ppo import PPOAgent

CHECKPOINT_FORMAT_VERSION = 1


def episode_seed(master_seed: int, episode_index: int) -> int:
    """Stable per-episode environment seed."""
    return int(np.random.SeedSequence((master_seed, episode_index)).generate_state(1)[0])


def _env_actions(env) -> int:
    from ..interventions import N_DISCRETE_ACTIONS

    return int(getattr(env, "n_actions", N_DISCRETE_ACTIONS))


def make_agent(agent_kind: str, space_kind: str, obs_dim: int, n_actions: int,
               config: FullConfig, seed: int):
    """A new agent of one kind, configured by config.ppo or config.dqn."""
    if agent_kind == "ppo":
        return PPOAgent(obs_dim, space_kind, config.ppo, seed, n_actions=n_actions)
    return DQNAgent(obs_dim, config.dqn, seed, n_actions=n_actions)


@dataclass
class TrainResult:
    agent: object
    curve: list[float]


def train(
    env_factory,
    agent_kind: str,
    space_kind: str,
    config: FullConfig,
    total_episodes: int,
    seed: int,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume_from: str | None = None,
) -> TrainResult:
    """Train an agent for a number of episodes; fully seeded.

    agent_kind is "ppo" (either space) or "dqn" (discrete only). Returns the
    trained agent and the per-episode raw return curve. When checkpoint_dir
    is given, it is created if missing, before the first episode, and
    checkpoints are written every checkpoint_every episodes and at the end.
    """
    if agent_kind not in ("ppo", "dqn"):
        raise ConfigurationError(f"unknown agent kind {agent_kind!r}")
    if agent_kind == "dqn" and space_kind != "discrete":
        raise ConfigurationError("dqn supports only the discrete action space")

    env = env_factory()
    obs_dim = env.observation_dim

    curve: list[float] = []
    if resume_from is not None:
        agent, meta = load_checkpoint(resume_from)
        if meta["agent_kind"] != agent_kind or meta["space_kind"] != space_kind:
            raise ConfigurationError(
                f"checkpoint is {meta['agent_kind']}/{meta['space_kind']}, "
                f"requested {agent_kind}/{space_kind}"
            )
        if meta["obs_dim"] != obs_dim:
            raise ShapeError(f"checkpoint obs_dim {meta['obs_dim']} != env {obs_dim}")
        curve = list(meta["curve"])
        seed = meta["master_seed"]
    else:
        agent = make_agent(agent_kind, space_kind, obs_dim, _env_actions(env), config, seed)

    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    steps_per_episode = env.n_steps_per_episode
    total_steps_planned = max(1, total_episodes * steps_per_episode)
    steps_done = len(curve) * steps_per_episode

    for episode in range(len(curve), total_episodes):
        obs = env.reset(episode_seed(seed, episode))
        done = False
        ep_return = 0.0
        while not done:
            action = agent.act(obs, steps_done / total_steps_planned)
            next_obs, reward, done, _ = env.step(action)
            agent.observe(obs, action, reward, next_obs, done)
            ep_return += reward
            obs = next_obs
            steps_done += 1
        curve.append(ep_return)

        if checkpoint_dir and checkpoint_every and (episode + 1) % checkpoint_every == 0:
            save_checkpoint(f"{checkpoint_dir}/checkpoint_ep{episode + 1}.json",
                            agent, agent_kind, space_kind, seed, curve)

    if checkpoint_dir:
        save_checkpoint(f"{checkpoint_dir}/checkpoint_final.json",
                        agent, agent_kind, space_kind, seed, curve)
    return TrainResult(agent=agent, curve=curve)


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(
    path: str,
    agent,
    agent_kind: str,
    space_kind: str,
    master_seed: int,
    curve: list[float],
) -> None:
    """Write the agent and its run; episodes_trained is len(curve)."""
    data = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "agent_kind": agent_kind,
        "space_kind": space_kind,
        "obs_dim": agent.obs_dim,
        "n_actions": agent.n_actions,
        "agent_config": dataclasses.asdict(agent.cfg),
        "master_seed": master_seed,
        "episodes_trained": len(curve),
        "curve": list(curve),
        "rng_state": agent.rng.bit_generator.state,
        **agent.state_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load_checkpoint(path: str):
    """Rebuild an agent from a checkpoint; returns (agent, metadata).

    A file that is not a JSON object, or lacks a key, is a ConfigurationError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: malformed checkpoint (not a JSON object)")
        if data.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ConfigurationError(f"{path}: unsupported checkpoint version {data.get('format_version')}")
        config = FullConfig.from_dict({data["agent_kind"]: data["agent_config"]})
        agent = make_agent(data["agent_kind"], data["space_kind"], data["obs_dim"], int(data["n_actions"]),
                           config, data["master_seed"])
        agent.load_state_dict(data)
        agent.rng.bit_generator.state = data["rng_state"]
        meta = {key: data[key] for key in
                ("agent_kind", "space_kind", "obs_dim", "episodes_trained", "curve", "master_seed")}
    except (json.JSONDecodeError, KeyError) as exc:
        raise ConfigurationError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None
    return agent, meta


def policy_from_checkpoint(path: str):
    """The trained agent of a checkpoint, whose select_action is greedy."""
    return load_checkpoint(path)[0]
