"""Training loop, learning curves, and checkpoints.

Episode seeds derive deterministically from the master seed and the episode
index, so a run resumed from a checkpoint sees exactly the episode seed
sequence the uninterrupted run would have seen, and the learning curve
continues without an episode-index gap.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from ..config import DqnConfig, FullConfig, PpoConfig
from ..errors import ConfigurationError, ShapeError
from .dqn import DQNAgent, DQNPolicy
from .ppo import PPOAgent, PPOPolicy

CHECKPOINT_FORMAT_VERSION = 1


def episode_seed(master_seed: int, episode_index: int) -> int:
    """Stable per-episode environment seed."""
    return int(np.random.SeedSequence((master_seed, episode_index)).generate_state(1)[0])


def _env_actions(env) -> int:
    from ..interventions import N_DISCRETE_ACTIONS

    return int(getattr(env, "n_actions", N_DISCRETE_ACTIONS))


@dataclass
class TrainResult:
    agent: object
    curve: list[float]
    episodes_trained: int


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
    is given, checkpoints are written every checkpoint_every episodes and at
    the end.
    """
    if agent_kind not in ("ppo", "dqn"):
        raise ConfigurationError(f"unknown agent kind {agent_kind!r}")
    if agent_kind == "dqn" and space_kind != "discrete":
        raise ConfigurationError("dqn supports only the discrete action space")

    env = env_factory()
    obs_dim = env.observation_dim

    start_episode = 0
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
        start_episode = meta["episodes_trained"]
        curve = list(meta["curve"])
        seed = meta["master_seed"]
    elif agent_kind == "ppo":
        agent = PPOAgent(obs_dim, space_kind, config.ppo, seed, n_actions=_env_actions(env))
    else:
        agent = DQNAgent(obs_dim, config.dqn, seed, n_actions=_env_actions(env))

    steps_per_episode = env.n_steps_per_episode
    total_steps_planned = max(1, total_episodes * steps_per_episode)
    steps_done = start_episode * steps_per_episode

    for episode in range(start_episode, total_episodes):
        ep_seed = episode_seed(seed, episode)
        obs = env.reset(ep_seed)
        done = False
        ep_return = 0.0
        while not done:
            if agent_kind == "ppo":
                action, extras = agent.act(obs)
                next_obs, reward, done, _ = env.step(action)
                agent.rollout.add(
                    obs, extras["stored"], extras["log_prob"],
                    reward * config.ppo.reward_scale, extras["value"], done,
                )
                if agent.rollout.full:
                    last_value = 0.0 if done else float(agent.critic(next_obs)[0, 0])
                    agent.update(last_value)
            else:
                action = agent.act(obs, progress=steps_done / total_steps_planned)
                next_obs, reward, done, _ = env.step(action)
                agent.buffer.add(obs, action, reward * config.dqn.reward_scale, next_obs, done)
                if len(agent.buffer) >= config.dqn.learning_starts:
                    agent.update()
            ep_return += reward
            obs = next_obs
            steps_done += 1
        curve.append(ep_return)

        if checkpoint_dir and checkpoint_every and (episode + 1) % checkpoint_every == 0:
            save_checkpoint(
                f"{checkpoint_dir}/checkpoint_ep{episode + 1}.json",
                agent, agent_kind, space_kind, seed, episode + 1, curve,
            )

    if checkpoint_dir:
        save_checkpoint(
            f"{checkpoint_dir}/checkpoint_final.json",
            agent, agent_kind, space_kind, seed, total_episodes, curve,
        )
    return TrainResult(agent=agent, curve=curve, episodes_trained=max(total_episodes, start_episode))


# -- checkpoints ----------------------------------------------------------


def _arrays_to_payload(arrays: list[np.ndarray]) -> dict:
    return {
        "shapes": [list(a.shape) for a in arrays],
        "flat": np.concatenate([a.ravel() for a in arrays]).tolist(),
    }


def _payload_to_arrays(payload: dict, targets: list[np.ndarray]) -> None:
    flat = np.asarray(payload["flat"], dtype=np.float64)
    offset = 0
    for target in targets:
        target[...] = flat[offset:offset + target.size].reshape(target.shape)
        offset += target.size
    if offset != len(flat):
        raise ShapeError("checkpoint parameter payload does not match network shapes")


def save_checkpoint(
    path: str,
    agent,
    agent_kind: str,
    space_kind: str,
    master_seed: int,
    episodes_trained: int,
    curve: list[float],
) -> None:
    if agent_kind == "ppo":
        payload = {
            "params": _arrays_to_payload(agent.params),
            "optimizer": agent.optimizer.state_dict(),
        }
        agent_config = dataclasses.asdict(agent.cfg)
    else:
        payload = {
            "params": _arrays_to_payload(agent.q_net.parameters()),
            "target_params": _arrays_to_payload(agent.target_net.parameters()),
            "optimizer": agent.optimizer.state_dict(),
            "gradient_steps": agent.gradient_steps,
            "per_beta": agent.buffer.beta,
        }
        agent_config = dataclasses.asdict(agent.cfg)
    data = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "agent_kind": agent_kind,
        "space_kind": space_kind,
        "obs_dim": agent.obs_dim,
        "n_actions": agent.n_actions,
        "agent_config": agent_config,
        "master_seed": master_seed,
        "episodes_trained": episodes_trained,
        "curve": list(curve),
        "rng_state": agent.rng.bit_generator.state,
        **payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load_checkpoint(path: str):
    """Rebuild an agent from a checkpoint; returns (agent, metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {data.get('format_version')}")
    obs_dim = data["obs_dim"]
    n_actions = int(data["n_actions"])
    cfg_dict = dict(data["agent_config"])
    cfg_dict["hidden_sizes"] = tuple(cfg_dict["hidden_sizes"])
    if data["agent_kind"] == "ppo":
        agent = PPOAgent(obs_dim, data["space_kind"], PpoConfig(**cfg_dict),
                         data["master_seed"], n_actions=n_actions)
        _payload_to_arrays(data["params"], agent.params)
        agent.optimizer.load_state_dict(data["optimizer"])
    else:
        agent = DQNAgent(obs_dim, DqnConfig(**cfg_dict), data["master_seed"], n_actions=n_actions)
        _payload_to_arrays(data["params"], agent.q_net.parameters())
        _payload_to_arrays(data["target_params"], agent.target_net.parameters())
        agent.optimizer.load_state_dict(data["optimizer"])
        agent.gradient_steps = int(data["gradient_steps"])
        agent.buffer.beta = float(data["per_beta"])
    agent.rng.bit_generator.state = data["rng_state"]
    meta = {
        "agent_kind": data["agent_kind"],
        "space_kind": data["space_kind"],
        "obs_dim": obs_dim,
        "episodes_trained": data["episodes_trained"],
        "curve": data["curve"],
        "master_seed": data["master_seed"],
    }
    return agent, meta


def policy_from_checkpoint(path: str, name: str | None = None):
    """Deterministic evaluation policy for a saved checkpoint."""
    agent, meta = load_checkpoint(path)
    if meta["agent_kind"] == "ppo":
        return PPOPolicy(agent, name=name or "ppo")
    return DQNPolicy(agent, name=name or "dqn")
