"""Config defaults, validation, YAML round trips, dotted overrides."""

from importlib import resources

import pytest

from epictrl.config import (
    FullConfig,
    PopulationConfig,
    apply_overrides,
    load_config,
    save_config,
)
from epictrl.errors import ConfigurationError


class TestDefaults:
    def test_published_simulator_defaults(self):
        cfg = FullConfig()
        p = cfg.population
        assert p.total_pop == pytest.approx(67.86e6)
        assert p.pop_size == 10_000
        assert p.pop_infected == pytest.approx(5856)
        assert p.beta_initial == pytest.approx(0.005997)
        assert (p.contacts_h, p.contacts_s, p.contacts_w, p.contacts_c) == (3.0, 20, 20, 20)
        assert p.asymp_factor == 2.0
        assert cfg.env.episode_days == 133
        assert cfg.env.step_days == 7

    def test_published_ppo_defaults(self):
        ppo = FullConfig().ppo
        assert (ppo.n_steps, ppo.batch_size) == (190, 19)
        assert ppo.learning_rate == pytest.approx(1e-4)
        assert ppo.n_epochs == 10
        assert ppo.gamma == pytest.approx(0.99)
        assert ppo.clip_range == pytest.approx(0.2)

    def test_published_dqn_defaults(self):
        dqn = FullConfig().dqn
        assert dqn.buffer_size == 1900
        assert dqn.batch_size == 19
        assert dqn.learning_starts == 57
        assert dqn.learning_rate == pytest.approx(1e-4)
        assert dqn.target_update_interval == 95
        assert dqn.gamma == pytest.approx(0.99)
        assert (dqn.per_alpha, dqn.per_beta, dqn.per_beta_increment) == (0.6, 0.4, 0.001)

    def test_shipped_default_config_equals_defaults(self):
        ref = resources.files("epictrl.data").joinpath("default_config.yaml")
        with resources.as_file(ref) as path:
            assert load_config(str(path)).to_dict() == FullConfig().to_dict()

    def test_pop_scale_property(self):
        assert FullConfig().population.pop_scale == pytest.approx(6786.0)

    def test_defaults_validate(self):
        FullConfig().validate()


class TestValidation:
    def test_bad_values_raise(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(pop_size=1).validate()
        cfg = FullConfig()
        cfg.ppo.n_steps = 191  # not divisible by batch_size
        with pytest.raises(ConfigurationError):
            cfg.validate()
        cfg = FullConfig()
        cfg.dqn.learning_starts = 100_000
        with pytest.raises(ConfigurationError):
            cfg.validate()
        cfg = FullConfig()
        cfg.env.action_space_kind = "hybrid"
        with pytest.raises(ConfigurationError):
            cfg.validate()
        cfg = FullConfig()
        cfg.rewards.mu1 = 0.0
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_reward_weight_refuses_a_boolean(self):
        cfg = FullConfig()
        cfg.rewards.economic_scale = True
        with pytest.raises(ConfigurationError, match="economic_scale must be a finite number"):
            cfg.validate()


class TestFileRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        cfg = FullConfig()
        cfg.population.pop_size = 1234
        cfg.rewards.omega3 = 55.0
        cfg.env.activation_threshold = 7
        path = tmp_path / "cfg.yaml"
        save_config(cfg, str(path))
        back = load_config(str(path))
        assert back.population.pop_size == 1234
        assert back.rewards.omega3 == 55.0
        assert back.env.activation_threshold == 7
        assert back.to_dict() == cfg.to_dict()

    def test_partial_overlay(self, tmp_path):
        path = tmp_path / "overlay.yaml"
        path.write_text("population:\n  pop_infected: 99\n  beta_initial: 0.01\n")
        cfg = load_config(str(path))
        assert cfg.population.pop_infected == 99
        assert cfg.population.pop_size == 10_000  # untouched default

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("nonsense:\n  x: 1\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("population:\n  pop_sizes: 10\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))


class TestOverrides:
    def test_dotted_overrides(self):
        cfg = FullConfig()
        apply_overrides(cfg, ["population.pop_size=500", "rewards.omega3=12.5", "population.beta_initial=5e-05"])
        assert cfg.population.pop_size == 500
        assert cfg.rewards.omega3 == 12.5
        assert cfg.population.beta_initial == 5e-05  # YAML reads 5e-05 as a string

    def test_list_override(self):
        cfg = FullConfig()
        apply_overrides(cfg, ["population.sus_odds_ratios=[1,1,1,1,1,1,1,1,2]"])
        assert cfg.population.sus_odds_ratios[-1] == 2

    def test_values_are_typed_by_the_declared_default(self):
        cfg = FullConfig()
        apply_overrides(cfg, ["population.sus_odds_ratios=[1,1,1,1,1,1,1,1,2]", "ppo.hidden_sizes=[8.0, 4]",
                              "rewards.economic_scale=50"])
        assert [type(v) for v in cfg.population.sus_odds_ratios] == [float] * 9
        assert cfg.ppo.hidden_sizes == (8, 4) and type(cfg.ppo.hidden_sizes[0]) is int
        assert cfg.rewards.economic_scale == 50.0 and type(cfg.rewards.economic_scale) is float
        apply_overrides(cfg, ["rewards.economic_scale=null"])
        assert cfg.rewards.economic_scale is None
        with pytest.raises(ConfigurationError, match=r"hidden_sizes\[1\] expects an integer"):
            apply_overrides(cfg, ["ppo.hidden_sizes=[8, 2.5]"])
        with pytest.raises(ConfigurationError, match="unknown config key PopulationConfig.pop_scale"):
            apply_overrides(cfg, ["population.pop_scale=2"])

    def test_bad_override_forms(self):
        cfg = FullConfig()
        with pytest.raises(ConfigurationError):
            apply_overrides(cfg, ["population.pop_size"])
        with pytest.raises(ConfigurationError):
            apply_overrides(cfg, ["pop_size=10"])
        with pytest.raises(ConfigurationError):
            apply_overrides(cfg, ["population.bogus=10"])
