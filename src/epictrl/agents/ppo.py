"""Proximal policy optimization with generalized advantage estimation.

The continuous actor is an independent per-dimension Gaussian with a
state-independent log standard deviation, squashed by tanh and mapped
affinely into each action component's box ([0.5, 1] for the lockdown
multiplier, [0, 1] for the testing and tracing probabilities). Probability
ratios are evaluated at the stored pre-squash samples, where the squash
Jacobian cancels between new and old policies, so the update needs no
explicit correction term. The discrete actor is a plain categorical over
the 64 grid actions.

Each actor owns everything its action space decides: the Action it samples
(keeping the pre-squash sample or the grid index for the update), its greedy
Action, the rollout's empty action array, and the log-probability forward
and backward passes of the loss. PPOAgent picks its actor once and never
branches on the space again.
"""

from __future__ import annotations

import numpy as np

from ..config import PpoConfig
from ..errors import ShapeError, TrainingError
from ..interventions import (
    Action,
    CONTINUOUS_HIGH,
    CONTINUOUS_LOW,
    N_DISCRETE_ACTIONS,
    encode_discrete,
)
from .networks import MLP, Adam, clip_global_norm, load_params_state, params_state

LOG_2PI = float(np.log(2.0 * np.pi))


def clipped_surrogate(rho: np.ndarray, advantage: np.ndarray, clip_range: float) -> np.ndarray:
    """Per-sample clipped surrogate objective min(rho*A, clip(rho)*A)."""
    rho = np.asarray(rho, dtype=np.float64)
    advantage = np.asarray(advantage, dtype=np.float64)
    clipped = np.clip(rho, 1.0 - clip_range, 1.0 + clip_range)
    return np.minimum(rho * advantage, clipped * advantage)


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    gae_lambda: float,
    last_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and returns for one rollout.

    dones[t] marks that the episode ended after transition t, cutting the
    bootstrap. last_value is the value estimate of the state following the
    final transition (ignored when it terminated).

    Returns:
        (advantages, returns) with returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (len(rewards) == len(values) == len(dones)):
        raise ShapeError(
            f"length mismatch: rewards {len(rewards)}, values {len(values)}, dones {len(dones)}"
        )
    n = len(rewards)
    advantages = np.zeros(n)
    gae = 0.0
    next_value = float(last_value)
    for t in range(n - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        gae = delta + gamma * gae_lambda * not_done * gae
        advantages[t] = gae
        next_value = values[t]
    return advantages, advantages + values


class ContinuousActor:
    """Squashed-Gaussian policy over the continuous intervention box."""

    def __init__(self, obs_dim: int, hidden: tuple[int, ...], rng: np.random.Generator,
                 init_log_std: float):
        self.low = CONTINUOUS_LOW.copy()
        self.high = CONTINUOUS_HIGH.copy()
        self.center = (self.low + self.high) / 2.0
        self.half = (self.high - self.low) / 2.0
        self.act_dim = len(self.low)
        self.mlp = MLP((obs_dim, *hidden, self.act_dim), rng, out_scale=0.01)
        self.log_std = np.full(self.act_dim, float(init_log_std))

    def squash(self, u: np.ndarray) -> np.ndarray:
        return self.center + self.half * np.tanh(u)

    def empty_actions(self, n: int) -> np.ndarray:
        return np.zeros((n, self.act_dim))

    def sample(self, obs: np.ndarray, rng: np.random.Generator) -> tuple[Action, np.ndarray, float]:
        """Draws (Action, pre-squash sample, log-prob in pre-squash space)."""
        mean = self.mlp(obs)[0]
        std = np.exp(self.log_std)
        u = mean + std * rng.standard_normal(self.act_dim)
        logp = float(self.log_prob(u[None, :], mean[None, :])[0])
        return Action(*[float(a) for a in self.squash(u)]), u, logp

    def greedy(self, obs: np.ndarray) -> Action:
        """The squashed mean."""
        return Action(*[float(a) for a in self.squash(self.mlp(obs)[0])])

    def log_prob(self, u: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Log-density of pre-squash samples u under Gaussians centred on mean."""
        std = np.exp(self.log_std)
        z = (u - mean) / std
        return (-0.5 * z ** 2 - self.log_std - 0.5 * LOG_2PI).sum(axis=1)

    def entropy(self) -> float:
        """Entropy of the pre-squash Gaussian (state-independent)."""
        return float((self.log_std + 0.5 * (LOG_2PI + 1.0)).sum())

    def forward(self, obs: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Log-probs of stored pre-squash samples, and what backward() needs."""
        mean, cache = self.mlp.forward(obs)
        return self.log_prob(actions, mean), (actions, mean, cache)

    def backward(self, saved: tuple, dlogp: np.ndarray, entropy_coef: float) -> tuple[list[np.ndarray], float]:
        """Actor gradients of sum(dlogp * logp) - entropy_coef * H, and the entropy H."""
        actions, mean, cache = saved
        std = np.exp(self.log_std)
        z = (actions - mean) / std
        entropy = self.entropy()
        dmean = dlogp[:, None] * (z / std)
        grads = self.mlp.backward(cache, dmean)
        dlog_std = (dlogp[:, None] * (z ** 2 - 1.0)).sum(axis=0)
        dlog_std -= entropy_coef  # d(-coef * H)/dlog_std = -coef
        return grads + [dlog_std], entropy

    def parameters(self) -> list[np.ndarray]:
        return self.mlp.parameters() + [self.log_std]


class DiscreteActor:
    """Categorical policy over the 64 discrete grid actions."""

    def __init__(self, obs_dim: int, hidden: tuple[int, ...], rng: np.random.Generator,
                 n_actions: int = N_DISCRETE_ACTIONS):
        self.n_actions = n_actions
        self.mlp = MLP((obs_dim, *hidden, n_actions), rng, out_scale=0.01)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def empty_actions(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.int64)

    def sample(self, obs: np.ndarray, rng: np.random.Generator) -> tuple[Action, int, float]:
        """Draws (Action, grid index, log-prob)."""
        logp = self._log_softmax(self.mlp(obs))[0]
        probs = np.exp(logp)
        idx = int(np.searchsorted(np.cumsum(probs), rng.random()))
        idx = min(idx, self.n_actions - 1)
        return encode_discrete(idx), idx, float(logp[idx])

    def greedy(self, obs: np.ndarray) -> Action:
        """The likeliest grid action."""
        return encode_discrete(int(np.argmax(self.mlp(obs)[0])))

    def forward(self, obs: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Log-probs of stored grid indices, and what backward() needs."""
        logits, cache = self.mlp.forward(obs)
        log_probs_all = self._log_softmax(logits)
        idx = actions.astype(np.int64)
        return log_probs_all[np.arange(len(obs)), idx], (idx, log_probs_all, cache)

    def backward(self, saved: tuple, dlogp: np.ndarray, entropy_coef: float) -> tuple[list[np.ndarray], float]:
        """Actor gradients of sum(dlogp * logp) - entropy_coef * H, and H, the batch's mean entropy."""
        idx, log_probs_all, cache = saved
        b = len(idx)
        probs = np.exp(log_probs_all)
        entropies = -(probs * log_probs_all).sum(axis=1)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(b), idx] = 1.0
        dlogits = dlogp[:, None] * (one_hot - probs)
        # d(-coef * mean(H))/dlogits
        dlogits += (entropy_coef / b) * probs * (log_probs_all + entropies[:, None])
        return self.mlp.backward(cache, dlogits), float(entropies.mean())

    def parameters(self) -> list[np.ndarray]:
        return self.mlp.parameters()


class Rollout:
    """Fixed-size on-policy transition store for one PPO update."""

    def __init__(self, obs_dim: int, actions: np.ndarray):
        """actions is the actor's zeroed action store; its length is the rollout's."""
        self.n_steps = n_steps = len(actions)
        self.obs = np.zeros((n_steps, obs_dim))
        self.actions = actions
        self.log_probs = np.zeros(n_steps)
        self.rewards = np.zeros(n_steps)
        self.values = np.zeros(n_steps)
        self.dones = np.zeros(n_steps)
        self.pos = 0

    def add(self, obs, action, log_prob, reward, value, done) -> None:
        i = self.pos
        self.obs[i] = obs
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = float(done)
        self.pos += 1

    @property
    def full(self) -> bool:
        return self.pos >= self.n_steps

    def reset(self) -> None:
        self.pos = 0


class PPOAgent:
    """Actor-critic PPO over either action-space kind."""

    def __init__(self, obs_dim: int, space_kind: str, cfg: PpoConfig, seed: int,
                 n_actions: int = N_DISCRETE_ACTIONS):
        cfg.validate()
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        init_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        self.rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        if space_kind == "continuous":
            self.actor: ContinuousActor | DiscreteActor = ContinuousActor(
                obs_dim, cfg.hidden_sizes, init_rng, cfg.init_log_std
            )
        elif space_kind == "discrete":
            self.actor = DiscreteActor(obs_dim, cfg.hidden_sizes, init_rng, n_actions)
        else:
            raise ValueError(f"unknown space kind {space_kind!r}")
        self.critic = MLP((obs_dim, *cfg.hidden_sizes, 1), init_rng)
        self.params = self.actor.parameters() + self.critic.parameters()
        self.optimizer = Adam(self.params, lr=cfg.learning_rate)
        self.rollout = Rollout(obs_dim, self.actor.empty_actions(cfg.n_steps))
        self._acted: tuple | None = None  # (stored action, log-prob, value) of the last act()

    # -- acting -----------------------------------------------------------

    def act(self, obs: np.ndarray, progress: float) -> Action:
        """Sample an Action; observe() stores the sample behind it for the next update.

        progress (the share of training done) is unused: PPO explores
        through its own action distribution.
        """
        value = float(self.critic(obs)[0, 0])
        action, stored, logp = self.actor.sample(obs, self.rng)
        self._acted = (stored, logp, value)
        return action

    def select_action(self, observation: np.ndarray, day: int) -> Action:
        """Greedy evaluation action: the squashed mean or the likeliest grid action."""
        return self.actor.greedy(observation)

    def observe(self, obs, reward: float, next_obs, done: bool) -> dict | None:
        """Store the transition of the last act(); update once the rollout is full.

        The update bootstraps from the critic's value of next_obs unless the
        episode ended. Returns the update's diagnostics, or None.
        """
        stored, log_prob, value = self._acted
        self.rollout.add(obs, stored, log_prob, reward * self.cfg.reward_scale, value, done)
        if not self.rollout.full:
            return None
        last_value = 0.0 if done else float(self.critic(next_obs)[0, 0])
        return self.update(last_value)

    # -- learning ----------------------------------------------------------

    def update(self, last_value: float = 0.0) -> dict:
        """One PPO update over the filled rollout buffer.

        Computes GAE, normalizes advantages over the whole batch, then runs
        n_epochs of shuffled minibatch gradient steps on the clipped
        surrogate plus value and entropy terms.
        """
        roll = self.rollout
        if not roll.full:
            raise TrainingError(f"rollout holds {roll.pos}/{roll.n_steps} transitions")
        cfg = self.cfg
        advantages, returns = compute_gae(
            roll.rewards, roll.values, roll.dones, cfg.gamma, cfg.gae_lambda, last_value
        )
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        n = roll.n_steps
        diagnostics = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "n_updates": 0}
        for _ in range(cfg.n_epochs):
            perm = self.rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                mb = perm[start:start + cfg.batch_size]
                loss, grads, info = self.loss_and_grads(
                    roll.obs[mb],
                    roll.actions[mb],
                    roll.log_probs[mb],
                    advantages[mb],
                    returns[mb],
                )
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite PPO loss: {info}")
                clip_global_norm(grads, cfg.max_grad_norm)
                self.optimizer.step(grads)
                for k in ("policy_loss", "value_loss", "entropy"):
                    diagnostics[k] += info[k]
                diagnostics["n_updates"] += 1
        for k in ("policy_loss", "value_loss", "entropy"):
            diagnostics[k] /= max(1, diagnostics["n_updates"])
        roll.reset()
        return diagnostics

    def loss_and_grads(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        logp_old: np.ndarray,
        advantages: np.ndarray,
        returns: np.ndarray,
    ) -> tuple[float, list[np.ndarray], dict]:
        """Total loss and analytic gradients for one minibatch.

        The gradient list aligns with self.params (actor parameters, then
        critic parameters). Exposed separately from update() so the
        finite-difference gradient check can exercise exactly this path.
        """
        cfg = self.cfg
        b = len(obs)
        logp_new, saved = self.actor.forward(obs, actions)

        rho = np.exp(logp_new - logp_old)
        surrogate = clipped_surrogate(rho, advantages, cfg.clip_range)
        policy_loss = -surrogate.mean()
        # Gradient flows through the unclipped branch wherever it attains the min.
        active = (rho * advantages <= surrogate).astype(np.float64)
        dlogp = -(advantages * rho * active) / b
        actor_grads, entropy = self.actor.backward(saved, dlogp, cfg.entropy_coef)

        values, vcache = self.critic.forward(obs)
        values = values[:, 0]
        value_loss = float(((values - returns) ** 2).mean())
        dvalues = (cfg.value_coef * 2.0 * (values - returns) / b)[:, None]
        critic_grads = self.critic.backward(vcache, dvalues)

        total = float(policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy)
        info = {"policy_loss": float(policy_loss), "value_loss": value_loss, "entropy": float(entropy)}
        return total, actor_grads + critic_grads, info

    # -- checkpoints --------------------------------------------------------

    def state_dict(self) -> dict:
        return {"params": params_state(self.params), "optimizer": self.optimizer.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        load_params_state(self.params, state["params"])
        self.optimizer.load_state_dict(state["optimizer"])
