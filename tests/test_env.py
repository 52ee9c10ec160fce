"""Environment contract: episode shape, gating, rewards, observations."""

import json

import numpy as np
import pytest

from epictrl.config import FullConfig
from epictrl.env import OBSERVATION_FIELDS, EpidemicEnv
from epictrl.errors import ActionDomainError, ConfigurationError, ProtocolError
from epictrl.interventions import BETA_LEVELS, CTP_LEVELS, TP_LEVELS, Action, NULL_ACTION, encode_discrete
from epictrl.env import trace_record, write_trace


def run_episode(env, action, seed=5):
    obs = env.reset(seed)
    done = False
    steps = 0
    infos = []
    total = 0.0
    while not done:
        obs, reward, done, info = env.step(action)
        infos.append(info)
        total += reward
        steps += 1
    return obs, total, steps, infos


class TestReset:
    def test_deterministic_per_seed(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        a = env.reset(42)
        b = env.reset(42)
        np.testing.assert_array_equal(a, b)

    def test_day_zero_observation_reflects_seeding(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        obs = env.reset(0)
        n = small_cfg.population.pop_size
        assert obs[0] == (n - 10) / n  # ten seeded agents
        assert obs[1] == 10 / n
        assert (obs[2:] == 0).all()

    def test_normalized_stocks_sum_to_one(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        obs = env.reset(1)
        assert obs[:5].sum() == pytest.approx(1.0, abs=1e-12)
        _, _, _, infos = run_episode(env, NULL_ACTION, seed=1)
        final_obs = env._observe()
        assert final_obs[:5].sum() == pytest.approx(1.0, abs=1e-12)


class TestEpisodeShape:
    def test_19_steps_for_133_days(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        _, _, steps, _ = run_episode(env, NULL_ACTION)
        assert steps == 19

    def test_ceil_division_with_partial_last_step(self, small_cfg):
        small_cfg.env.episode_days = 30
        small_cfg.env.step_days = 7
        env = EpidemicEnv(small_cfg)
        _, _, steps, infos = run_episode(env, NULL_ACTION)
        assert steps == 5  # ceil(30/7)
        assert len(infos[-1]["week_counts"]) == 2  # 30 - 28 days

    def test_step_after_done_is_protocol_error(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        run_episode(env, NULL_ACTION)
        with pytest.raises(ProtocolError):
            env.step(NULL_ACTION)

    def test_step_before_reset_is_protocol_error(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        with pytest.raises(ProtocolError):
            env.step(NULL_ACTION)


class TestGating:
    def test_pre_activation_actions_are_nulled(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        env.reset(2)
        aggressive = Action(0.5, 0.75, 0.75)
        obs, reward, done, info = env.step(aggressive)
        assert info["applied_action"] == NULL_ACTION
        assert info["raw_action"] == aggressive
        assert not info["activated"]

    def test_gating_prefix_is_constant_null(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        env.reset(2)
        applied = []
        done = False
        while not done:
            _, _, done, info = env.step(Action(0.5, 0.75, 0.75))
            applied.append((info["applied_action"], info["activated"]))
        pre = [a for a, act in applied if not act]
        assert all(a == NULL_ACTION for a in pre)
        # The epidemic grows under the null prefix, so activation happens.
        assert any(act for _, act in applied)

    def test_threshold_zero_activates_immediately(self, small_cfg):
        small_cfg.env.activation_threshold = 0
        env = EpidemicEnv(small_cfg)
        env.reset(2)
        _, _, _, info = env.step(Action(0.5, 0.75, 0.75))
        assert info["activated"]
        assert info["applied_action"] == Action(0.5, 0.75, 0.75)


class TestActionDomains:
    def test_continuous_rejects_out_of_physical_range(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        env.reset(0)
        with pytest.raises(ActionDomainError):
            env.step(Action(1.0, 1.5, 0.0))
        with pytest.raises(ActionDomainError):
            env.step(Action(-0.1, 0.0, 0.0))

    def test_continuous_accepts_schedule_levels_outside_agent_box(self, small_cfg):
        # Baseline schedules use ch_beta below the agents' 0.5 floor.
        env = EpidemicEnv(small_cfg)
        env.reset(0)
        env.step(Action(0.2, 0.0, 0.0))

    def test_discrete_accepts_index_and_grid_action(self, small_cfg):
        small_cfg.env.action_space_kind = "discrete"
        env = EpidemicEnv(small_cfg)
        env.reset(0)
        env.step(encode_discrete(17))
        env.step(Action(0.5, 0.25, 0.0))
        # An off-grid Action (a schedule's) applies as given.
        env.step(Action(0.6, 0.25, 0.0))
        # A bare grid index is not an Action: the agent decodes its own.
        with pytest.raises(ActionDomainError):
            env.step(17)
        with pytest.raises(ActionDomainError):
            env.step(64)
        with pytest.raises(ActionDomainError):
            env.step(0.5)


class TestRewardDecomposition:
    def test_step_reward_rederivable_from_info(self, small_cfg):
        w = small_cfg.rewards
        env = EpidemicEnv(small_cfg)
        env.reset(7)
        action = Action(0.8, 0.5, 0.5)
        done = False
        prev_applied = NULL_ACTION
        while not done:
            _, reward, done, info = env.step(action)
            rewards = info["rewards"]
            expected = (
                w.lambda1 * sum(r.r_h for r in rewards)
                + w.lambda2 * sum(r.r_e_scaled for r in rewards)
                + w.lambda3 * info["penalty"]
            )
            assert abs(reward - expected) <= 1e-9 * max(1.0, abs(expected))
            prev_applied = info["applied_action"]

    def test_discrete_mode_has_no_penalty(self, small_cfg):
        small_cfg.env.action_space_kind = "discrete"
        env = EpidemicEnv(small_cfg)
        env.reset(7)
        _, reward, _, info = env.step(encode_discrete(0))
        assert info["penalty"] is None

    def test_unchanged_action_contributes_zero_penalty(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        env.reset(7)
        # Pre-activation applied actions are all null: penalty 0 every step.
        _, _, _, info = env.step(NULL_ACTION)
        assert info["penalty"] == 0.0

    def test_observation_matches_final_day_counts(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        env.reset(7)
        obs, _, _, info = env.step(NULL_ACTION)
        last = info["week_counts"][-1]
        for i, name in enumerate(OBSERVATION_FIELDS):
            assert obs[i] == getattr(last, name) / small_cfg.population.pop_size


class TestObservationConfig:
    def test_seven_dimensional_variant(self, small_cfg):
        # The observation always has all eight fields; the key that dropped the last one is refused.
        env = EpidemicEnv(small_cfg)
        assert env.observation_dim == 8
        assert env.reset(0).shape == (8,)
        with pytest.raises(ConfigurationError, match="include_diagnoses_dim"):
            FullConfig.from_dict({"env": {"include_diagnoses_dim": False}})

    def test_components_6_to_8_non_decreasing(self, small_cfg):
        env = EpidemicEnv(small_cfg)
        env.reset(3)
        prev = np.zeros(3)
        done = False
        while not done:
            obs, _, done, _ = env.step(Action(0.9, 0.5, 0.5))
            assert (obs[5:8] >= prev - 1e-12).all()
            prev = obs[5:8]


class TestDiscreteEncodeDecodeExports:
    def test_reexported_bijection(self):
        grid = {Action(b, t, c) for b in BETA_LEVELS for t in TP_LEVELS for c in CTP_LEVELS}
        assert len(grid) == 64 and {encode_discrete(k) for k in range(64)} == grid


class TestTraceExport:
    def test_jsonl_trace_round_trip(self, small_cfg, tmp_path):
        env = EpidemicEnv(small_cfg)
        obs = env.reset(1)
        records = []
        done = False
        while not done:
            obs, reward, done, info = env.step(Action(0.9, 0.25, 0.25))
            records.append(trace_record(obs, reward, info))
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), records)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 19
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["day"] == 7
        assert len(parsed[0]["observation"]) == 8
        assert len(parsed[0]["week_counts"]) == 7
        assert parsed[-1]["day"] == 133
