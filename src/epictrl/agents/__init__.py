"""Learning agents: PPO (continuous or discrete) and DQN with prioritized replay."""

from .dqn import DQNAgent, DQNPolicy
from .networks import MLP, Adam
from .ppo import PPOAgent, PPOPolicy, Rollout, clipped_surrogate, compute_gae
from .replay import PrioritizedBuffer
from .training import (
    TrainResult,
    episode_seed,
    load_checkpoint,
    policy_from_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "Adam",
    "DQNAgent",
    "DQNPolicy",
    "MLP",
    "PPOAgent",
    "PPOPolicy",
    "PrioritizedBuffer",
    "Rollout",
    "TrainResult",
    "clipped_surrogate",
    "compute_gae",
    "episode_seed",
    "load_checkpoint",
    "policy_from_checkpoint",
    "save_checkpoint",
    "train",
]
