"""Configuration types and the YAML config file interface.

Every numeric knob in the library lives in one of the dataclasses below, is
serializable to a nested key-value (YAML) file, and can be overridden from
the command line with dotted paths (``population.pop_size=2000``). Age-banded
quantities use nine ten-year bands: 0-9, 10-19, ..., 70-79, 80+.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any

import yaml

from .errors import ConfigurationError

N_AGE_BANDS = 9

# Coarse UK-like age pyramid (fractions per ten-year band, sums to 1).
DEFAULT_AGE_PYRAMID = (0.119, 0.118, 0.131, 0.137, 0.127, 0.135, 0.105, 0.080, 0.048)

# Disease progression defaults by age band. These are deliberately explicit
# and overridable; symptomatic/severe/fatal risks rise steeply with age.
DEFAULT_PROB_SYMPTOMATIC = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)
DEFAULT_PROB_SEVERE = (0.005, 0.0075, 0.012, 0.020, 0.035, 0.060, 0.100, 0.170, 0.250)
DEFAULT_PROB_DEATH = (0.020, 0.020, 0.030, 0.050, 0.080, 0.120, 0.200, 0.350, 0.500)


def age_band(age: Any) -> Any:
    """Map age in years (scalar or array) to a ten-year band index, 80+ capped."""
    import numpy as np

    return np.minimum(np.asarray(age, dtype=np.int64) // 10, N_AGE_BANDS - 1)


@dataclass
class PopulationConfig:
    """Population synthesis and transmission-scale parameters."""

    total_pop: float = 67.86e6
    pop_size: int = 10_000
    pop_infected: float = 5856.0
    contacts_h: float = 3.0
    contacts_s: float = 20.0
    contacts_w: float = 20.0
    contacts_c: float = 20.0
    beta_initial: float = 0.005997
    asymp_factor: float = 2.0
    sus_odds_ratios: tuple[float, ...] = tuple(1.0 for _ in range(N_AGE_BANDS))
    age_pyramid: tuple[float, ...] = DEFAULT_AGE_PYRAMID
    layer_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    school_age_min: int = 6
    school_age_max: int = 22  # exclusive
    work_age_max: int = 66  # exclusive; work assignment covers [school_age_max, work_age_max)

    @property
    def pop_scale(self) -> float:
        return self.total_pop / self.pop_size

    def validate(self) -> None:
        if self.pop_size < 2:
            raise ConfigurationError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.total_pop <= 0:
            raise ConfigurationError("total_pop must be positive")
        if not 0 <= self.beta_initial < 1:
            raise ConfigurationError(f"beta_initial must be in [0, 1), got {self.beta_initial}")
        for name in ("contacts_h", "contacts_s", "contacts_w", "contacts_c"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.pop_infected < 0:
            raise ConfigurationError("pop_infected must be non-negative")
        if len(self.sus_odds_ratios) != N_AGE_BANDS or len(self.age_pyramid) != N_AGE_BANDS:
            raise ConfigurationError(f"age-banded arrays need {N_AGE_BANDS} entries")
        if abs(sum(self.age_pyramid) - 1.0) > 1e-6:
            raise ConfigurationError("age_pyramid must sum to 1")


@dataclass
class DiseaseConfig:
    """Within-host progression parameters.

    Durations are lognormal, parameterized by their real-space mean and
    standard deviation in days; samples are rounded and floored at one day.
    """

    latent_mean: float = 4.5
    latent_sd: float = 1.5
    infectious_mean: float = 8.0
    infectious_sd: float = 2.0
    severe_onset_min: int = 5
    severe_onset_max: int = 8
    prob_symptomatic: tuple[float, ...] = DEFAULT_PROB_SYMPTOMATIC
    prob_severe_given_symptomatic: tuple[float, ...] = DEFAULT_PROB_SEVERE
    prob_death_given_severe: tuple[float, ...] = DEFAULT_PROB_DEATH

    def validate(self) -> None:
        if self.latent_mean <= 0 or self.infectious_mean <= 0:
            raise ConfigurationError("duration means must be positive")
        if self.severe_onset_min < 1 or self.severe_onset_max < self.severe_onset_min:
            raise ConfigurationError("severe onset window must satisfy 1 <= min <= max")
        for name in ("prob_symptomatic", "prob_severe_given_symptomatic", "prob_death_given_severe"):
            probs = getattr(self, name)
            if len(probs) != N_AGE_BANDS:
                raise ConfigurationError(f"{name} needs {N_AGE_BANDS} entries")
            if any(not 0.0 <= p <= 1.0 for p in probs):
                raise ConfigurationError(f"{name} entries must be in [0, 1]")


@dataclass
class InterventionConfig:
    """Testing, tracing, isolation and quarantine mechanics."""

    test_delay: int = 1
    asymptomatic_test_factor: float = 0.01
    isolation_transmission_factor: float = 0.3
    quarantine_duration: int = 14
    quarantine_transmission_factor: float = 0.3
    quarantine_susceptibility_factor: float = 0.3
    trace_delay: int = 2
    # Passive clinical case detection: symptomatic people present to health
    # care at some daily rate even with no testing program running. These
    # detections produce diagnoses (after test_delay) but are not counted as
    # program tests. Setting both to zero turns the channel off entirely.
    symp_detection_prob: float = 0.075
    severe_detection_prob: float = 1.0

    def validate(self) -> None:
        for name in (
            "asymptomatic_test_factor",
            "isolation_transmission_factor",
            "quarantine_transmission_factor",
            "quarantine_susceptibility_factor",
            "symp_detection_prob",
            "severe_detection_prob",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")
        for name in ("test_delay", "trace_delay", "quarantine_duration"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass
class RewardWeights:
    """All coefficients of the reward and economic-loss formulas.

    lambda1..3 combine the health, economic and action-change terms;
    omega1..3 weight new infections, severe cases and deaths inside the
    health term; mu1..4 weight the economic contribution and the testing,
    quarantine and lockdown costs. economic_scale rescales the economic
    reward before it is combined with the health reward; the default (None)
    uses pop_size / 100, which keeps the two terms commensurate at every
    population size (and equals 100 at the reference 10,000 agents).
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    omega1: float = 1.0
    omega2: float = 5.0
    omega3: float = 100.0
    mu1: float = 1.0
    mu2: float = 0.5
    mu3: float = 0.5
    mu4: float = 1.0
    economic_scale: float | None = None
    cost_per_test: float = 1.0
    quarantine_processing_cost: float = 1.0

    def effective_scale(self, pop_size: int) -> float:
        return self.economic_scale if self.economic_scale is not None else pop_size / 100.0

    def validate(self) -> None:
        if self.mu1 <= 0:
            raise ConfigurationError("mu1 must be positive (it divides the economic loss)")
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.name == "economic_scale":
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
                raise ConfigurationError(f"{f.name} must be a finite number")


@dataclass
class EnvConfig:
    """Decision-step environment parameters."""

    step_days: int = 7
    episode_days: int = 133
    activation_threshold: int = 50
    action_space_kind: str = "continuous"  # "continuous" | "discrete"

    def validate(self) -> None:
        if self.step_days < 1:
            raise ConfigurationError("step_days must be >= 1")
        if self.episode_days < 1:
            raise ConfigurationError("episode_days must be >= 1")
        if self.activation_threshold < 0:
            raise ConfigurationError("activation_threshold must be >= 0")
        if self.action_space_kind not in ("continuous", "discrete"):
            raise ConfigurationError(
                f"action_space_kind must be 'continuous' or 'discrete', got {self.action_space_kind!r}"
            )


@dataclass
class PpoConfig:
    """PPO hyperparameters (defaults follow the published table)."""

    n_steps: int = 190
    batch_size: int = 19
    learning_rate: float = 1e-4
    n_epochs: int = 10
    gamma: float = 0.99
    clip_range: float = 0.2
    gae_lambda: float = 0.95
    entropy_coef: float = 0.0
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    hidden_sizes: tuple[int, ...] = (64, 64)
    init_log_std: float = -0.5
    reward_scale: float = 0.01

    def validate(self) -> None:
        if self.n_steps % self.batch_size != 0:
            raise ConfigurationError("n_steps must be divisible by batch_size")
        if self.clip_range <= 0:
            raise ConfigurationError("clip_range must be positive")
        if not 0 < self.gamma <= 1:
            raise ConfigurationError("gamma must be in (0, 1]")


@dataclass
class DqnConfig:
    """DQN + prioritized replay hyperparameters (defaults per published table)."""

    buffer_size: int = 1900
    batch_size: int = 19
    learning_starts: int = 57
    learning_rate: float = 1e-4
    target_update_interval: int = 95
    gamma: float = 0.99
    per_alpha: float = 0.6
    per_beta: float = 0.4
    per_beta_increment: float = 0.001
    epsilon_start: float = 1.0
    epsilon_final: float = 0.05
    epsilon_fraction: float = 0.5  # fraction of training over which epsilon anneals
    hidden_sizes: tuple[int, ...] = (64, 64)
    reward_scale: float = 0.01

    def validate(self) -> None:
        if self.learning_starts > self.buffer_size:
            raise ConfigurationError("learning_starts must be <= buffer_size")
        if self.per_alpha < 0:
            raise ConfigurationError("per_alpha must be >= 0")
        if not 0 < self.gamma <= 1:
            raise ConfigurationError("gamma must be in (0, 1]")


@dataclass
class FullConfig:
    """Top-level bundle: one section per subsystem."""

    population: PopulationConfig = field(default_factory=PopulationConfig)
    disease: DiseaseConfig = field(default_factory=DiseaseConfig)
    interventions: InterventionConfig = field(default_factory=InterventionConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    rewards: RewardWeights = field(default_factory=RewardWeights)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    dqn: DqnConfig = field(default_factory=DqnConfig)

    def validate(self) -> None:
        for f in fields(self):
            getattr(self, f.name).validate()

    def to_dict(self) -> dict[str, Any]:
        return _asdict_plain(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FullConfig":
        cfg = cls()
        for section, values in (data or {}).items():
            if not hasattr(cfg, section):
                raise ConfigurationError(f"unknown config section {section!r}")
            sub = getattr(cfg, section)
            if not isinstance(values, dict):
                raise ConfigurationError(f"section {section!r} must be a mapping")
            for key, value in values.items():
                _set_field(sub, key, value)
        return cfg


def _asdict_plain(obj: Any) -> Any:
    """dataclasses.asdict with tuples rendered as lists (for clean YAML)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _asdict_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_asdict_plain(v) for v in obj]
    return obj


def _set_field(section: Any, key: str, value: Any) -> None:
    """Set one field, typed by its declared default: a number, a tuple of numbers, None or a float, or a string."""
    name = f"{type(section).__name__}.{key}"
    default = next((f.default for f in fields(section) if f.name == key), dataclasses.MISSING)
    if default is dataclasses.MISSING:
        raise ConfigurationError(f"unknown config key {name}")
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{key} expects a list")
        value = tuple(_number(v, type(default[0]), f"{name}[{i}]") for i, v in enumerate(value))
    elif isinstance(default, (int, float)):
        value = _number(value, type(default), name)
    elif default is None and value is not None:
        value = _number(value, float, name)
    setattr(section, key, value)


def _number(value: Any, kind: type, name: str) -> int | float:
    """value as kind (int or float); a bool, a non-numeric string or, for int, a fraction is refused."""
    if isinstance(value, str):
        try:
            value = float(value)  # YAML 1.1 reads an exponent without a dot, such as 5e-05, as a string
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"{name} expects {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def load_config(path: str | None = None) -> FullConfig:
    """Load a FullConfig from a YAML file or a CLI manifest; defaults when path is None.

    A manifest's resolved_config is unwrapped, so a run's manifest.json can
    be passed back as its config. The result is not validated: callers
    validate once, after any overrides.
    """
    if path is None:
        return FullConfig()
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must contain a mapping")
    if "resolved_config" in data:
        data = data["resolved_config"]
    return FullConfig.from_dict(data)


def save_config(cfg: FullConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True, default_flow_style=False)


def apply_overrides(cfg: FullConfig, overrides: list[str]) -> FullConfig:
    """Apply ``section.key=value`` strings (values parsed as YAML) in order."""
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        path_str, raw = item.split("=", 1)
        parts = path_str.strip().split(".")
        if len(parts) != 2:
            raise ConfigurationError(f"override key {path_str!r} must be section.key")
        section_name, key = parts
        if not hasattr(cfg, section_name):
            raise ConfigurationError(f"unknown config section {section_name!r}")
        value = yaml.safe_load(raw)
        _set_field(getattr(cfg, section_name), key, value)
    return cfg
