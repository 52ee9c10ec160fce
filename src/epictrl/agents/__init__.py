"""Learning agents: PPO (continuous or discrete) and DQN with prioritized replay.

Both kinds share one protocol (act, observe, select_action, state_dict,
load_state_dict); see training.
"""

from .dqn import DQNAgent
from .networks import MLP, Adam
from .ppo import PPOAgent, Rollout, clipped_surrogate, compute_gae
from .replay import PrioritizedBuffer
from .training import (
    TrainResult,
    episode_seed,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "Adam",
    "DQNAgent",
    "MLP",
    "PPOAgent",
    "PrioritizedBuffer",
    "Rollout",
    "TrainResult",
    "clipped_surrogate",
    "compute_gae",
    "episode_seed",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]
