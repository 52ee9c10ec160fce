"""PPO machinery: GAE, clipped surrogate, analytic gradients, toy training."""

import numpy as np
import pytest

from epictrl.agents.networks import MLP, Adam, clip_global_norm, flat_params, load_flat_params
from epictrl.agents.ppo import PPOAgent, Rollout, clipped_surrogate, compute_gae
from epictrl.agents.training import train
from epictrl.config import FullConfig, PpoConfig
from epictrl.errors import ShapeError
from epictrl.interventions import encode_discrete


def gae_bruteforce(rewards, values, dones, gamma, lam, last_value):
    """Direct double-sum definition with episode cuts at dones."""
    n = len(rewards)
    v_next = np.append(values[1:], last_value)
    deltas = rewards + gamma * v_next * (1.0 - dones) - values
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        w = 1.0
        for l in range(t, n):
            acc += w * deltas[l]
            if dones[l]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


class TestGAE:
    def test_null_case(self):
        adv, ret = compute_gae(np.zeros(5), np.zeros(5), np.zeros(5), 0.99, 0.95)
        assert (adv == 0).all() and (ret == 0).all()

    def test_lambda_zero_reduces_to_one_step_td(self):
        rng = np.random.default_rng(0)
        r, v = rng.normal(size=10), rng.normal(size=10)
        dones = np.zeros(10)
        dones[-1] = 1.0
        adv, _ = compute_gae(r, v, dones, 0.9, 0.0, last_value=0.0)
        v_next = np.append(v[1:], 0.0)
        expected = r + 0.9 * v_next * (1 - dones) - v
        np.testing.assert_allclose(adv, expected, rtol=1e-12)

    def test_matches_bruteforce_on_random_episodes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 19
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            dones = (rng.random(n) < 0.15).astype(float)
            dones[-1] = 1.0
            last_value = float(rng.normal())
            gamma, lam = float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.0, 1.0))
            adv, ret = compute_gae(r, v, dones, gamma, lam, last_value)
            expected = gae_bruteforce(r, v, dones, gamma, lam, last_value)
            np.testing.assert_allclose(adv, expected, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(ret, expected + v, rtol=1e-9, atol=1e-9)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            compute_gae(np.zeros(3), np.zeros(4), np.zeros(3), 0.99, 0.95)


class TestClippedSurrogate:
    def test_grid_matches_closed_form(self):
        clip = 0.2
        for rho in (0.5, 0.8, 1.0, 1.25, 2.0):
            for adv in (-1.0, 1.0):
                got = clipped_surrogate(np.array([rho]), np.array([adv]), clip)[0]
                expected = min(rho * adv, min(max(rho, 0.8), 1.2) * adv)
                assert got == expected

    def test_specific_values(self):
        assert clipped_surrogate(np.array([2.0]), np.array([1.0]), 0.2)[0] == pytest.approx(1.2)
        assert clipped_surrogate(np.array([0.5]), np.array([-1.0]), 0.2)[0] == pytest.approx(-0.8)
        assert clipped_surrogate(np.array([1.0]), np.array([3.0]), 0.2)[0] == pytest.approx(3.0)


def finite_difference_grads(agent, batch, h=1e-6):
    flat = flat_params(agent.params)
    grads = np.zeros_like(flat)
    for i in range(len(flat)):
        for sign in (+1, -1):
            bumped = flat.copy()
            bumped[i] += sign * h
            load_flat_params(agent.params, bumped)
            loss, _, _ = agent.loss_and_grads(*batch)
            grads[i] += sign * loss
    load_flat_params(agent.params, flat)
    return grads / (2 * h)


def tiny_agent(space, seed=0):
    cfg = PpoConfig(n_steps=8, batch_size=4, hidden_sizes=(5,), entropy_coef=0.01,
                    value_coef=0.5, clip_range=0.2)
    return PPOAgent(obs_dim=4, space_kind=space, cfg=cfg, seed=seed, n_actions=6)


def make_batch(agent, space, seed=0, n=8):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, 4))
    if space == "continuous":
        actions = rng.normal(scale=0.7, size=(n, 3))
        mean = agent.actor.mlp(obs)
        std = np.exp(agent.actor.log_std)
        z = (actions - mean) / std
        logp_true = (-0.5 * z ** 2 - agent.actor.log_std - 0.5 * np.log(2 * np.pi)).sum(axis=1)
    else:
        actions = rng.integers(0, 6, size=n).astype(np.float64)
        logits = agent.actor.mlp(obs)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lsm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp_true = lsm[np.arange(n), actions.astype(int)]
    logp_old = logp_true + rng.uniform(-0.4, 0.4, size=n)  # spread the ratios
    advantages = rng.normal(size=n) + np.sign(rng.normal(size=n)) * 0.5
    returns = rng.normal(size=n)
    batch = (obs, actions, logp_old, advantages, returns)
    # The loss is non-smooth at clip boundaries and at the min() switch;
    # verify the fixed batch sits safely away from both kinks.
    rho = np.exp(logp_true - logp_old)
    assert (np.abs(rho - 0.8) > 1e-3).all() and (np.abs(rho - 1.2) > 1e-3).all()
    return batch


class TestGradientCheck:
    @pytest.mark.parametrize("space", ["continuous", "discrete"])
    def test_analytic_matches_central_differences(self, space):
        agent = tiny_agent(space)
        batch = make_batch(agent, space)
        loss, grads, _ = agent.loss_and_grads(*batch)
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = finite_difference_grads(agent, batch)
        denom = max(np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-4
        mask = np.abs(numeric) > 1e-6
        np.testing.assert_allclose(analytic[mask], numeric[mask], rtol=1e-4)


class TestNetworks:
    def test_mlp_flat_round_trip(self):
        rng = np.random.default_rng(0)
        net = MLP((3, 8, 2), rng)
        flat = flat_params(net.parameters())
        net2 = MLP((3, 8, 2), np.random.default_rng(1))
        load_flat_params(net2.parameters(), flat)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(net(x), net2(x))

    def test_clip_global_norm(self):
        grads = [np.full(4, 3.0), np.full(2, 4.0)]
        total = clip_global_norm(grads, max_norm=1.0)
        assert total == pytest.approx(np.sqrt(4 * 9 + 2 * 16))
        new_norm = np.sqrt(sum((g ** 2).sum() for g in grads))
        assert new_norm == pytest.approx(1.0)

    def test_adam_reduces_quadratic(self):
        rng = np.random.default_rng(0)
        p = [rng.normal(size=5)]
        opt = Adam(p, lr=0.1)
        for _ in range(300):
            opt.step([2 * p[0]])  # gradient of sum(p^2)
        assert np.abs(p[0]).max() < 1e-2


class ToyBanditEnv:
    """Two-step bandit: one discrete action dominates.

    Reward 1.0 for grid action 2, 0.2 otherwise; optimum return per episode = 2.
    """

    observation_dim = 4
    n_steps_per_episode = 2
    n_actions = 6
    OPTIMUM = 2.0

    def __init__(self):
        self._step = 0

    def reset(self, seed):
        self._step = 0
        return np.zeros(4)

    def step(self, action):
        self._step += 1
        reward = 1.0 if action == encode_discrete(2) else 0.2
        return np.zeros(4), reward, self._step >= 2, {}


class TestPpoUpdateMechanics:
    def test_update_requires_full_rollout(self):
        agent = tiny_agent("continuous")
        from epictrl.errors import TrainingError

        with pytest.raises(TrainingError):
            agent.update()

    def test_update_changes_parameters_and_resets_rollout(self):
        agent = tiny_agent("continuous")
        rng = np.random.default_rng(3)
        before = flat_params(agent.params)
        diagnostics = []
        for _ in range(agent.cfg.n_steps):
            obs = rng.normal(size=4)
            agent.act(obs, 0.0)
            diagnostics.append(agent.observe(obs, float(rng.normal()), rng.normal(size=4), False))
        # observe() updates exactly once, on the step that fills the rollout.
        assert diagnostics[:-1] == [None] * (agent.cfg.n_steps - 1)
        assert agent.rollout.pos == 0
        diag = diagnostics[-1]
        assert diag["n_updates"] == agent.cfg.n_epochs * (agent.cfg.n_steps // agent.cfg.batch_size)
        assert not np.allclose(before, flat_params(agent.params))


class TestTrainLoop:
    def test_zero_episodes_returns_empty_curve(self):
        cfg = FullConfig()
        cfg.env.action_space_kind = "discrete"
        result = train(lambda: ToyBanditEnv(), "ppo", "discrete", cfg, total_episodes=0, seed=0)
        assert result.curve == []

    def test_constant_zero_reward_env_gives_zero_curve(self):
        class ZeroEnv(ToyBanditEnv):
            def step(self, action):
                obs, _, done, info = super().step(action)
                return obs, 0.0, done, info

        cfg = FullConfig()
        cfg.env.action_space_kind = "discrete"
        cfg.ppo.reward_scale = 1.0
        result = train(lambda: ZeroEnv(), "ppo", "discrete", cfg, total_episodes=120, seed=0)
        assert result.curve == [0.0] * 120

    def test_dqn_rejects_continuous_space(self):
        from epictrl.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            train(lambda: ToyBanditEnv(), "dqn", "continuous", FullConfig(), 1, 0)

    @pytest.mark.slow
    def test_ppo_solves_toy_bandit_within_5_percent(self):
        cfg = FullConfig()
        cfg.ppo = PpoConfig(n_steps=190, batch_size=19, learning_rate=5e-3, n_epochs=10,
                            gamma=0.99, clip_range=0.2, hidden_sizes=(16,), reward_scale=1.0)
        cfg.env.action_space_kind = "discrete"
        episodes = 2000
        result = train(lambda: ToyBanditEnv(), "ppo", "discrete", cfg,
                       total_episodes=episodes, seed=1)
        tail = np.array(result.curve[-episodes // 10:])
        assert tail.mean() >= 0.95 * ToyBanditEnv.OPTIMUM
