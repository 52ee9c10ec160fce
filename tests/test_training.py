"""Training orchestration: evaluation determinism, checkpoint resume."""

import numpy as np
import pytest

from epictrl.agents import load_checkpoint, policy_from_checkpoint, save_checkpoint, train
from epictrl.baselines import null_policy, seven_work_seven_lockdown
from epictrl.env import EpidemicEnv, evaluate, summarize
from epictrl.interventions import NULL_ACTION
from epictrl.simulator import Simulation


@pytest.fixture
def fast_cfg(small_cfg):
    small_cfg.env.episode_days = 28  # 4 steps per episode: fast training tests
    small_cfg.ppo.n_steps = 8
    small_cfg.ppo.batch_size = 4
    small_cfg.dqn.learning_starts = 8
    small_cfg.dqn.buffer_size = 64
    small_cfg.dqn.target_update_interval = 5
    return small_cfg


class TestEvaluate:
    def test_null_policy_equals_no_intervention_series(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        episodes = evaluate(null_policy(), env, [5])
        sim = Simulation(small_cfg.population, small_cfg.disease, small_cfg.interventions, seed=5)
        raw = [sim.step_day(NULL_ACTION) for _ in range(small_cfg.env.episode_days)]
        assert episodes[0].series == raw

    def test_evaluation_is_deterministic(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        policy = seven_work_seven_lockdown()
        a = evaluate(policy, env, [1, 2])
        b = evaluate(policy, env, [1, 2])
        assert [e.total_return for e in a] == [e.total_return for e in b]
        assert [e.cumulative_infections for e in a] == [e.cumulative_infections for e in b]

    def test_summarize_mean_sd(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        episodes = evaluate(null_policy(), env, [1, 2, 3])
        agg = summarize(episodes)
        values = [e.cumulative_infections for e in episodes]
        assert agg["cumulative_infections_mean"] == pytest.approx(np.mean(values))
        assert agg["cumulative_infections_sd"] == pytest.approx(np.std(values, ddof=1))


class TestCheckpointResume:
    def test_ppo_checkpoint_round_trip(self, fast_cfg, tmp_path):
        result = train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg,
                       total_episodes=4, seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), result.agent, "ppo", "continuous", 3, 4, result.curve)
        agent, meta = load_checkpoint(str(path))
        np.testing.assert_array_equal(agent.get_flat_params(), result.agent.get_flat_params())
        assert meta["episodes_trained"] == 4
        assert meta["curve"] == result.curve

    def test_resume_continues_curve_without_gap(self, fast_cfg, tmp_path):
        factory = lambda: EpidemicEnv(fast_cfg)
        full = train(factory, "ppo", "continuous", fast_cfg, total_episodes=6, seed=3)

        part = train(factory, "ppo", "continuous", fast_cfg, total_episodes=3, seed=3,
                     checkpoint_dir=str(tmp_path))
        resumed = train(factory, "ppo", "continuous", fast_cfg, total_episodes=6, seed=999,
                        resume_from=str(tmp_path / "checkpoint_final.json"))
        assert len(resumed.curve) == 6
        # The first segment is identical; the resumed run continues at episode 3
        # with the original master seed's episode-seed sequence.
        assert resumed.curve[:3] == part.curve
        assert resumed.curve[:3] == full.curve[:3]

    def test_dqn_checkpoint_round_trip(self, fast_cfg, tmp_path):
        fast_cfg.env.action_space_kind = "discrete"
        result = train(lambda: EpidemicEnv(fast_cfg), "dqn", "discrete", fast_cfg,
                       total_episodes=4, seed=3, checkpoint_dir=str(tmp_path))
        agent, meta = load_checkpoint(str(tmp_path / "checkpoint_final.json"))
        np.testing.assert_array_equal(agent.q_net.get_flat(), result.agent.q_net.get_flat())
        np.testing.assert_array_equal(agent.target_net.get_flat(), result.agent.target_net.get_flat())
        assert agent.gradient_steps == result.agent.gradient_steps

    def test_policy_from_checkpoint_evaluates(self, fast_cfg, tmp_path):
        train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg,
              total_episodes=2, seed=3, checkpoint_dir=str(tmp_path))
        policy = policy_from_checkpoint(str(tmp_path / "checkpoint_final.json"))
        env = EpidemicEnv(fast_cfg)
        episodes = evaluate(policy, env, [7])
        assert len(episodes[0].series) == fast_cfg.env.episode_days

    def test_periodic_checkpoints_written(self, fast_cfg, tmp_path):
        train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg,
              total_episodes=4, seed=3, checkpoint_dir=str(tmp_path), checkpoint_every=2)
        assert (tmp_path / "checkpoint_ep2.json").exists()
        assert (tmp_path / "checkpoint_ep4.json").exists()
        assert (tmp_path / "checkpoint_final.json").exists()
