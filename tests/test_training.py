"""Training orchestration: evaluation determinism, checkpoint resume."""

import json
import re

import numpy as np
import pytest

from epictrl.agents import load_checkpoint, save_checkpoint, train
from epictrl.agents.networks import flat_params
from epictrl.baselines import null_policy, seven_work_seven_lockdown
from epictrl.analysis import summarize
from epictrl.env import EpidemicEnv, evaluate
from epictrl.errors import ConfigurationError
from epictrl.interventions import NULL_ACTION, Action
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
        save_checkpoint(str(path), result.agent, "ppo", "continuous", 3, result.curve)
        agent, meta = load_checkpoint(str(path))
        np.testing.assert_array_equal(flat_params(agent.params), flat_params(result.agent.params))
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

    @pytest.mark.parametrize("space", ["continuous", "discrete"])
    def test_ppo_resumed_at_rollout_boundary_continues_exactly(self, fast_cfg, tmp_path, space):
        # 4 steps an episode and 8 a rollout: every second episode ends with an
        # update and an empty rollout, so nothing unsaved is lost.
        fast_cfg.env.action_space_kind = space
        factory = lambda: EpidemicEnv(fast_cfg)
        full = train(factory, "ppo", space, fast_cfg, total_episodes=6, seed=3,
                     checkpoint_dir=str(tmp_path / "full"))
        train(factory, "ppo", space, fast_cfg, total_episodes=2, seed=3,
              checkpoint_dir=str(tmp_path / "part"))
        resumed = train(factory, "ppo", space, fast_cfg, total_episodes=6, seed=3,
                        checkpoint_dir=str(tmp_path / "resumed"),
                        resume_from=str(tmp_path / "part" / "checkpoint_final.json"))
        assert repr(resumed.curve) == repr(full.curve)
        assert all(type(r) is float for r in full.curve)
        np.testing.assert_array_equal(flat_params(resumed.agent.params), flat_params(full.agent.params))
        assert (tmp_path / "resumed" / "checkpoint_final.json").read_bytes() == \
            (tmp_path / "full" / "checkpoint_final.json").read_bytes()

    def test_resumed_checkpoint_counts_every_episode_of_its_curve(self, fast_cfg, tmp_path):
        factory = lambda: EpidemicEnv(fast_cfg)
        train(factory, "ppo", "continuous", fast_cfg, total_episodes=4, seed=3,
              checkpoint_dir=str(tmp_path / "first"))
        # Asking for fewer episodes than were trained trains none and keeps the curve.
        again = train(factory, "ppo", "continuous", fast_cfg, total_episodes=2, seed=3,
                      checkpoint_dir=str(tmp_path / "again"),
                      resume_from=str(tmp_path / "first" / "checkpoint_final.json"))
        assert len(again.curve) == 4
        _, meta = load_checkpoint(str(tmp_path / "again" / "checkpoint_final.json"))
        assert meta["episodes_trained"] == len(meta["curve"]) == 4

    def test_dqn_checkpoint_round_trip(self, fast_cfg, tmp_path):
        fast_cfg.env.action_space_kind = "discrete"
        result = train(lambda: EpidemicEnv(fast_cfg), "dqn", "discrete", fast_cfg,
                       total_episodes=4, seed=3, checkpoint_dir=str(tmp_path))
        agent, meta = load_checkpoint(str(tmp_path / "checkpoint_final.json"))
        for net in ("q_net", "target_net"):
            np.testing.assert_array_equal(flat_params(getattr(agent, net).parameters()),
                                          flat_params(getattr(result.agent, net).parameters()))
        assert agent.gradient_steps == result.agent.gradient_steps

    @pytest.mark.parametrize("kind,space", [("ppo", "continuous"), ("ppo", "discrete"), ("dqn", "discrete")])
    def test_policy_from_checkpoint_evaluates(self, fast_cfg, tmp_path, kind, space):
        fast_cfg.env.action_space_kind = space
        result = train(lambda: EpidemicEnv(fast_cfg), kind, space, fast_cfg,
                       total_episodes=2, seed=3, checkpoint_dir=str(tmp_path))
        policy = load_checkpoint(str(tmp_path / "checkpoint_final.json"))[0]
        env = EpidemicEnv(fast_cfg)
        episodes = evaluate(policy, env, [7])
        assert len(episodes[0].series) == fast_cfg.env.episode_days
        # The loaded agent acts greedily, exactly as the trained one does.
        assert episodes[0].series == evaluate(result.agent, env, [7])[0].series

    @pytest.mark.parametrize("drop", ["agent_kind", "rng_state", "curve"])
    def test_checkpoint_missing_a_key_is_a_configuration_error(self, fast_cfg, tmp_path, drop):
        train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg, total_episodes=0, seed=3,
              checkpoint_dir=str(tmp_path))
        path = tmp_path / "checkpoint_final.json"
        data = json.loads(path.read_text())
        del data[drop]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: malformed checkpoint (KeyError: '{drop}')")):
            load_checkpoint(str(path))

    def test_checkpoint_that_is_not_json_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"format_version": 1,')
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: malformed checkpoint (JSONDecodeError: ")):
            load_checkpoint(str(path))

    def test_missing_checkpoint_dir_is_created_before_training(self, fast_cfg, tmp_path):
        checkpoint_dir = tmp_path / "new" / "deeper"
        result = train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg, total_episodes=1, seed=3,
                       checkpoint_dir=str(checkpoint_dir))
        assert load_checkpoint(str(checkpoint_dir / "checkpoint_final.json"))[1]["curve"] == result.curve

    def test_continuous_rewards_and_curve_are_python_floats(self, fast_cfg):
        fast_cfg.env.activation_threshold = 0  # apply the actions from day 0, so the penalty is not always 0
        env = EpidemicEnv(fast_cfg)
        env.reset(3)
        for action in (Action(1.0, 0.0, 0.0), Action(0.2, 0.9, 0.9), Action(0.2, 0.9, 0.9)):
            assert type(env.step(action)[1]) is float
        curve = train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg,
                      total_episodes=3, seed=3).curve
        assert all(type(r) is float for r in curve)

    @pytest.mark.parametrize("space,configured", [("continuous", "discrete"), ("discrete", "continuous")])
    def test_action_space_contradicting_the_config_is_refused(self, fast_cfg, tmp_path, space, configured):
        fast_cfg.env.action_space_kind = configured
        out = tmp_path / "out"

        def factory():
            raise AssertionError("an environment was built")

        with pytest.raises(ConfigurationError, match="contradicts env.action_space_kind"):
            train(factory, "ppo", space, fast_cfg, total_episodes=1, seed=3, checkpoint_dir=str(out))
        assert not out.exists()

    def test_failed_checkpoint_write_keeps_the_previous_file(self, fast_cfg, tmp_path):
        result = train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg, total_episodes=1, seed=3,
                       checkpoint_dir=str(tmp_path))
        path = tmp_path / "checkpoint_final.json"
        before = path.read_bytes()
        # json.dump streams the checkpoint, so the curve's last entry fails it mid-write.
        with pytest.raises(TypeError):
            save_checkpoint(str(path), result.agent, "ppo", "continuous", 3, result.curve + [object()])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint_final.json"]

    def test_periodic_checkpoints_written(self, fast_cfg, tmp_path):
        train(lambda: EpidemicEnv(fast_cfg), "ppo", "continuous", fast_cfg,
              total_episodes=4, seed=3, checkpoint_dir=str(tmp_path), checkpoint_every=2)
        assert (tmp_path / "checkpoint_ep2.json").exists()
        assert (tmp_path / "checkpoint_ep4.json").exists()
        assert (tmp_path / "checkpoint_final.json").exists()
