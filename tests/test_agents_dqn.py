"""Prioritized replay sampling law, importance weights, DQN update schedule."""

import numpy as np
import pytest

from epictrl.agents.dqn import DQNAgent
from epictrl.agents.networks import flat_params
from epictrl.agents.replay import PRIORITY_FLOOR, PrioritizedBuffer
from epictrl.config import DqnConfig, FullConfig
from epictrl.errors import ConfigurationError, ProtocolError
from epictrl.interventions import encode_discrete


def fill_buffer(buffer, n, rng=None):
    rng = rng or np.random.default_rng(0)
    obs_dim = buffer.obs.shape[1]
    for _ in range(n):
        buffer.add(rng.normal(size=obs_dim), int(rng.integers(0, 8)),
                   float(rng.normal()), rng.normal(size=obs_dim), False)


class TestSamplingLaw:
    def _frequencies(self, priorities, alpha, n_draws=100_000, seed=0):
        buf = PrioritizedBuffer(capacity=8, obs_dim=2, alpha=alpha, beta=0.4)
        for p in priorities:
            buf.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
        buf.priorities[: len(priorities)] = priorities
        rng = np.random.default_rng(seed)
        counts = np.zeros(len(priorities))
        batch = 100
        for _ in range(n_draws // batch):
            idx = buf.sample(batch, rng)["indices"]
            counts += np.bincount(idx, minlength=len(priorities))
        return counts / counts.sum()

    @pytest.mark.slow
    def test_proportional_law_alpha_0_6(self):
        priorities = np.array([1.0, 2.0, 4.0])
        freqs = self._frequencies(priorities, alpha=0.6)
        expected = priorities ** 0.6 / (priorities ** 0.6).sum()
        assert np.abs(freqs - expected).max() < 0.02

    @pytest.mark.slow
    def test_alpha_zero_is_uniform(self):
        freqs = self._frequencies(np.array([1.0, 2.0, 4.0]), alpha=0.0)
        assert np.abs(freqs - 1 / 3).max() < 0.02

    @pytest.mark.slow
    def test_chi_squared_goodness_of_fit_at_99_percent(self):
        from scipy.stats import chi2

        n_draws = 100_000
        priorities = np.array([1.0, 2.0, 4.0])
        freqs = self._frequencies(priorities, alpha=0.6, n_draws=n_draws, seed=17)
        expected = priorities ** 0.6 / (priorities ** 0.6).sum()
        stat = (n_draws * (freqs - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.99, df=2)

    def test_equal_priorities_sample_uniformly_for_any_alpha(self):
        for alpha in (0.0, 0.6, 1.3):
            buf = PrioritizedBuffer(capacity=4, obs_dim=2, alpha=alpha, beta=0.4)
            for _ in range(4):
                buf.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
            probs = buf.sampling_probabilities()
            np.testing.assert_allclose(probs, 0.25)


class TestImportanceWeights:
    def test_batch_max_normalized_weight_is_one_for_rarest_item(self):
        buf = PrioritizedBuffer(capacity=4, obs_dim=2, alpha=1.0, beta=0.5)
        fill_buffer(buf, 4)
        buf.priorities[:4] = np.array([1.0, 1.0, 1.0, 10.0])
        rng = np.random.default_rng(3)
        batch = buf.sample(64, rng)
        # The minimum-probability items are those with priority 1.
        rare = np.isin(batch["indices"], [0, 1, 2])
        assert rare.any()
        assert batch["weights"][rare].max() == pytest.approx(1.0)
        assert (batch["weights"] <= 1.0 + 1e-12).all()

    def test_weight_formula(self):
        buf = PrioritizedBuffer(capacity=4, obs_dim=2, alpha=1.0, beta=0.5)
        fill_buffer(buf, 4)
        buf.priorities[:4] = np.array([1.0, 2.0, 3.0, 4.0])
        probs = buf.sampling_probabilities()
        rng = np.random.default_rng(5)
        batch = buf.sample(32, rng)
        raw = (4 * probs[batch["indices"]]) ** (-0.5)  # beta at sampling time
        np.testing.assert_allclose(batch["weights"], raw / raw.max(), rtol=1e-12)

    def test_beta_increments_per_sampling_capped_at_one(self):
        buf = PrioritizedBuffer(capacity=4, obs_dim=2, alpha=0.6, beta=0.99,
                                beta_increment=0.004)
        fill_buffer(buf, 4)
        rng = np.random.default_rng(0)
        buf.sample(2, rng)
        assert buf.beta == pytest.approx(0.994)
        for _ in range(5):
            buf.sample(2, rng)
        assert buf.beta == 1.0


class TestBufferMechanics:
    def test_new_transitions_get_max_priority(self):
        buf = PrioritizedBuffer(capacity=8, obs_dim=2, alpha=0.6, beta=0.4)
        buf.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
        assert buf.priorities[0] == 1.0
        buf.update_priorities(np.array([0]), np.array([5.0]))
        buf.add(np.zeros(2), 1, 0.0, np.zeros(2), False)
        assert buf.priorities[1] == pytest.approx(5.0 + PRIORITY_FLOOR)

    def test_priority_floor_applied(self):
        buf = PrioritizedBuffer(capacity=4, obs_dim=2, alpha=0.6, beta=0.4)
        fill_buffer(buf, 2)
        buf.update_priorities(np.array([0, 1]), np.array([0.0, -2.0]))
        assert buf.priorities[0] == pytest.approx(PRIORITY_FLOOR)
        assert buf.priorities[1] == pytest.approx(2.0 + PRIORITY_FLOOR)

    def test_ring_overwrite(self):
        buf = PrioritizedBuffer(capacity=3, obs_dim=2, alpha=0.6, beta=0.4)
        for i in range(5):
            buf.add(np.full(2, i), i, float(i), np.zeros(2), False)
        assert len(buf) == 3
        assert set(buf.actions.tolist()) == {2, 3, 4}

    def test_sample_empty_buffer_raises(self):
        buf = PrioritizedBuffer(capacity=3, obs_dim=2, alpha=0.6, beta=0.4)
        with pytest.raises(ProtocolError):
            buf.sample(1, np.random.default_rng(0))


def make_agent(**overrides):
    defaults = dict(buffer_size=64, batch_size=4, learning_starts=8,
                    target_update_interval=5, hidden_sizes=(8,))
    defaults.update(overrides)
    cfg = DqnConfig(**defaults)
    return DQNAgent(obs_dim=4, cfg=cfg, seed=0, n_actions=8)


class TestDqnUpdate:
    def test_update_before_learning_starts_is_protocol_error(self):
        agent = make_agent()
        fill_buffer(agent.buffer, 3)
        with pytest.raises(ProtocolError):
            agent.update()

    def test_td_errors_feed_priorities(self):
        agent = make_agent()
        fill_buffer(agent.buffer, 16)
        out = agent.update()
        # Sampled entries now carry |TD| + floor priorities.
        assert np.isfinite(out["loss"])
        sampled_p = agent.buffer.priorities[: len(agent.buffer)]
        assert (sampled_p > 0).all()

    def test_target_hard_copy_schedule_tau_1(self):
        agent = make_agent(target_update_interval=5)
        fill_buffer(agent.buffer, 32)
        for step in range(1, 16):
            agent.update()
            online = flat_params(agent.q_net.parameters())
            target = flat_params(agent.target_net.parameters())
            if step % 5 == 0:
                np.testing.assert_array_equal(online, target)
            else:
                assert not np.array_equal(online, target)

    def test_soft_update_mixes_parameters(self):
        # The target is only ever hard-copied; the key that selected a soft mix is refused.
        with pytest.raises(ConfigurationError, match="tau"):
            FullConfig.from_dict({"dqn": {"tau": 0.5}})

    def test_epsilon_schedule(self):
        agent = make_agent(epsilon_start=1.0, epsilon_final=0.05, epsilon_fraction=0.5)
        assert agent.epsilon(0.0) == 1.0
        assert agent.epsilon(0.25) == pytest.approx(0.525)
        assert agent.epsilon(0.5) == pytest.approx(0.05)
        assert agent.epsilon(0.9) == pytest.approx(0.05)

    def test_observe_updates_from_learning_starts(self):
        agent = make_agent(learning_starts=8, reward_scale=0.5)
        rng = np.random.default_rng(2)

        def act_and_observe():
            obs = rng.normal(size=4)
            agent.act(obs, 0.0)
            return agent.observe(obs, 2.0, rng.normal(size=4), False)

        results = [act_and_observe() for _ in range(10)]
        assert results[:7] == [None] * 7
        assert all("loss" in r for r in results[7:])
        assert agent.gradient_steps == 3
        assert (agent.buffer.rewards[:10] == 1.0).all()  # stored scaled by reward_scale

    def test_greedy_action_is_argmax(self):
        agent = make_agent()
        obs = np.ones(4)
        q = agent.q_net(obs)[0]
        assert agent.select_action(obs, 0) == encode_discrete(int(np.argmax(q)))
