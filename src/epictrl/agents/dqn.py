"""DQN over the discrete action grid, trained from prioritized replay.

The online network maps the observation to 64 action values. Updates
minimize the importance-weighted squared TD error against a target network
that is hard-copied every target_update_interval gradient steps. Sampled
transitions feed their absolute TD errors back into the replay priorities.
"""

from __future__ import annotations

import numpy as np

from ..config import DqnConfig
from ..errors import ProtocolError, TrainingError
from ..interventions import Action, N_DISCRETE_ACTIONS, encode_discrete
from .networks import MLP, Adam, flat_params, load_flat_params, load_params_state, params_state
from .replay import PrioritizedBuffer


class DQNAgent:
    """Q-learning agent with prioritized replay and a target network."""

    def __init__(self, obs_dim: int, cfg: DqnConfig, seed: int, n_actions: int = N_DISCRETE_ACTIONS):
        cfg.validate()
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        init_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        self.q_net = MLP((obs_dim, *cfg.hidden_sizes, n_actions), init_rng)
        self.target_net = MLP((obs_dim, *cfg.hidden_sizes, n_actions), init_rng)
        load_flat_params(self.target_net.parameters(), flat_params(self.q_net.parameters()))
        self.optimizer = Adam(self.q_net.parameters(), lr=cfg.learning_rate)
        self.buffer = PrioritizedBuffer(
            cfg.buffer_size, obs_dim, cfg.per_alpha, cfg.per_beta, cfg.per_beta_increment
        )
        self.gradient_steps = 0
        self._acted: int | None = None  # grid index of the last act()

    # -- acting -----------------------------------------------------------

    def epsilon(self, progress: float) -> float:
        """Linear schedule over the first epsilon_fraction of training."""
        cfg = self.cfg
        anneal = min(1.0, max(0.0, progress) / max(cfg.epsilon_fraction, 1e-9))
        return cfg.epsilon_start + (cfg.epsilon_final - cfg.epsilon_start) * anneal

    def act(self, obs: np.ndarray, progress: float) -> Action:
        """ε-greedy grid Action; observe() stores its index. progress is the share of training done."""
        if self.rng.random() < self.epsilon(progress):
            self._acted = int(self.rng.integers(self.n_actions))
        else:
            self._acted = self._greedy_index(obs)
        return encode_discrete(self._acted)

    def _greedy_index(self, obs: np.ndarray) -> int:
        return int(np.argmax(self.q_net(obs)[0]))

    def select_action(self, observation: np.ndarray, day: int) -> Action:
        """Greedy evaluation action: the grid action of the largest value."""
        return encode_discrete(self._greedy_index(observation))

    def observe(self, obs, reward: float, next_obs, done: bool) -> dict | None:
        """Store the transition of the last act(); once learning_starts are stored, take one update.

        Returns the update's diagnostics, or None.
        """
        self.buffer.add(obs, self._acted, reward * self.cfg.reward_scale, next_obs, done)
        if len(self.buffer) < self.cfg.learning_starts:
            return None
        return self.update()

    # -- learning ----------------------------------------------------------

    def update(self) -> dict:
        """One prioritized minibatch gradient step; returns TD diagnostics."""
        cfg = self.cfg
        if len(self.buffer) < cfg.learning_starts:
            raise ProtocolError(
                f"buffer holds {len(self.buffer)} < learning_starts={cfg.learning_starts} transitions"
            )
        batch = self.buffer.sample(cfg.batch_size, self.rng)

        q_all, cache = self.q_net.forward(batch["obs"])
        taken = batch["actions"]
        b = len(taken)
        q_taken = q_all[np.arange(b), taken]

        next_q = self.target_net(batch["next_obs"]).max(axis=1)
        targets = batch["rewards"] + cfg.gamma * (1.0 - batch["dones"]) * next_q
        td_errors = q_taken - targets

        loss = float((batch["weights"] * td_errors ** 2).mean())
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite DQN loss; td_errors={td_errors}")

        dq = np.zeros_like(q_all)
        dq[np.arange(b), taken] = 2.0 * batch["weights"] * td_errors / b
        grads = self.q_net.backward(cache, dq)
        self.optimizer.step(grads)
        self.buffer.update_priorities(batch["indices"], td_errors)

        self.gradient_steps += 1
        if self.gradient_steps % cfg.target_update_interval == 0:
            load_flat_params(self.target_net.parameters(), flat_params(self.q_net.parameters()))

        return {"loss": loss, "td_errors": td_errors, "mean_q": float(q_taken.mean())}

    # -- checkpoints --------------------------------------------------------

    def state_dict(self) -> dict:
        """Networks, optimizer and PER β; the replay buffer is not saved."""
        return {
            "params": params_state(self.q_net.parameters()),
            "target_params": params_state(self.target_net.parameters()),
            "optimizer": self.optimizer.state_dict(),
            "gradient_steps": self.gradient_steps,
            "per_beta": self.buffer.beta,
        }

    def load_state_dict(self, state: dict) -> None:
        load_params_state(self.q_net.parameters(), state["params"])
        load_params_state(self.target_net.parameters(), state["target_params"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.gradient_steps = int(state["gradient_steps"])
        self.buffer.beta = float(state["per_beta"])
