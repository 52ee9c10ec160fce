"""Fit initial infections and transmission rate to observed case/death series.

The search is a dependency-free two-phase black-box optimizer: a Sobol
quasi-random global phase over the parameter box, then Gaussian local
perturbations around the incumbent. Each trial averages the loss over
several seeded simulator replications because a 10^4-agent run is noisy.
The loss compares pop_scale-scaled cumulative diagnoses and deaths against
the observed national series with a mean squared relative error.

simulate_observed is the one replication path: it runs a policy on ungated
episodes of a FullConfig and scales each up to an ObservedSeries. Each
trial runs it once, on seeds from replication_seeds, and keeps the
per-date mean of its replications (mean_series) as its fit. Nothing is
replayed: fit_comparison_to_csv writes the winning trial's fit beside the
observed series, through the same date join as the loss.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np
from scipy.stats import qmc

from .baselines import null_policy
from .config import EnvConfig, FullConfig
from .env import EpidemicEnv, evaluate
from .errors import AlignmentError, ConfigurationError, ScheduleParseError, SearchError

logger = logging.getLogger(__name__)

START_DATE = date(2020, 1, 21)  # the date of simulated day 0
GLOBAL_FRACTION = 0.7  # share of the trials in the Sobol phase
LOCAL_SCALE = 0.1  # Gaussian step of the local phase, as a fraction of each range width


@dataclass
class ObservedSeries:
    """Real-population cumulative confirmed cases and deaths by date."""

    dates: list[date]
    cum_confirmed: np.ndarray
    cum_deaths: np.ndarray

    def __post_init__(self):
        self.cum_confirmed = np.asarray(self.cum_confirmed, dtype=np.float64)
        self.cum_deaths = np.asarray(self.cum_deaths, dtype=np.float64)
        if not (len(self.dates) == len(self.cum_confirmed) == len(self.cum_deaths)):
            raise AlignmentError("observed series columns have mismatched lengths")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ScheduleParseError("observed dates must be strictly increasing")
        for name, series in (("cum_confirmed", self.cum_confirmed), ("cum_deaths", self.cum_deaths)):
            if np.any(np.diff(series) < 0):
                raise ScheduleParseError(f"{name} must be non-decreasing")

    def __len__(self) -> int:
        return len(self.dates)


def observed_from_csv(path: str) -> ObservedSeries:
    """Read an observed series CSV with header date,cum_confirmed,cum_deaths."""
    dates: list[date] = []
    confirmed: list[float] = []
    deaths: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    reader = csv.DictReader(rows)
    required = {"date", "cum_confirmed", "cum_deaths"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        raise ScheduleParseError(f"observed data needs columns {sorted(required)}, got {reader.fieldnames}")
    for row in reader:
        try:
            dates.append(date.fromisoformat(row["date"].strip()))
            confirmed.append(float(row["cum_confirmed"]))
            deaths.append(float(row["cum_deaths"]))
        except (TypeError, ValueError) as exc:
            raise ScheduleParseError(f"bad observed-data row {row}: {exc}") from exc
    return ObservedSeries(dates, np.array(confirmed), np.array(deaths))


@dataclass
class CalibrationSpec:
    """Search configuration for the two fitted parameters."""

    pop_infected_range: tuple[float, float]
    beta_range: tuple[float, float]
    trials: int = 100
    replications: int = 3
    seed: int = 0

    def validate(self) -> None:
        for name, (lo, hi) in (("pop_infected_range", self.pop_infected_range), ("beta_range", self.beta_range)):
            if not lo < hi:
                raise ConfigurationError(f"{name} must be a non-empty interval, got ({lo}, {hi})")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")


@dataclass
class Trial:
    index: int
    pop_infected: float
    beta_initial: float
    loss: float
    replication_losses: list[float] = field(default_factory=list)
    failed: bool = False
    fit: ObservedSeries | None = None  # mean_series of the replications; None if failed


@dataclass
class SearchResult:
    best: Trial
    trials: list[Trial]


def point_config(cfg: FullConfig, pop_infected: float, beta_initial: float) -> FullConfig:
    """cfg with the two fitted parameters set to one point of the search box."""
    population = dataclasses.replace(cfg.population, pop_infected=pop_infected, beta_initial=beta_initial)
    return dataclasses.replace(cfg, population=population)


def replication_seeds(seed: int, trial: int, replications: int) -> list[int]:
    """Simulator seeds of one trial's replications under a search seed."""
    return [int(np.random.SeedSequence((seed, trial, rep)).generate_state(1)[0]) for rep in range(replications)]


def ungated_env(cfg: FullConfig, n_days: int) -> EpidemicEnv:
    """An n_days episode environment that applies every action from day 0.

    It reads cfg's population, disease and intervention sections only.
    """
    # A dated real-world schedule applies on its dates, whatever the diagnoses.
    env_cfg = EnvConfig(episode_days=n_days, activation_threshold=0)
    return EpidemicEnv(FullConfig(cfg.population, cfg.disease, cfg.interventions, env=env_cfg))


def simulate_observed(cfg: FullConfig, policy, n_days: int, seeds: list[int]) -> list[ObservedSeries]:
    """Each seed's ungated n_days episode, scaled up to the real population.

    Simulated cumulative diagnoses stand in for confirmed cases, and
    simulated day 0 is START_DATE.
    """
    scale = cfg.population.pop_scale
    replicas = []
    for episode in evaluate(policy, ungated_env(cfg, n_days), seeds):
        series = episode.series
        replicas.append(ObservedSeries(
            [START_DATE + timedelta(days=c.day) for c in series],
            np.array([c.cumulative_diagnoses for c in series], dtype=np.float64) * scale,
            np.array([c.cumulative_dead for c in series], dtype=np.float64) * scale,
        ))
    return replicas


def mean_series(replicas: list[ObservedSeries]) -> ObservedSeries:
    """The per-date mean of replications that share their dates."""
    return ObservedSeries(
        replicas[0].dates,
        np.mean([r.cum_confirmed for r in replicas], axis=0),
        np.mean([r.cum_deaths for r in replicas], axis=0),
    )


def _join_dates(sim: ObservedSeries, observed: ObservedSeries) -> tuple[np.ndarray, np.ndarray]:
    """Indices into sim and into observed of the dates both hold, in sim's order."""
    obs_index = {d: j for j, d in enumerate(observed.dates)}
    pairs = [(i, obs_index[d]) for i, d in enumerate(sim.dates) if d in obs_index]
    if not pairs:
        raise AlignmentError("no overlapping dates between simulated and observed series")
    sim_idx, obs_idx = np.array(pairs).T
    return sim_idx, obs_idx


def calibration_loss(sim_series: ObservedSeries, observed: ObservedSeries) -> float:
    """Mean squared relative error over the overlapping dates.

    Per point: ((sim - obs) / max(obs, 1))^2, averaged over points within
    each series, then over the two series. A perfect fit scores 0; sim =
    2x obs scores 1.
    """
    sim_idx, obs_idx = _join_dates(sim_series, observed)

    def mse_rel(sim_vals: np.ndarray, obs_vals: np.ndarray) -> float:
        rel = (sim_vals - obs_vals) / np.maximum(obs_vals, 1.0)
        return float((rel ** 2).mean())

    case_term = mse_rel(sim_series.cum_confirmed[sim_idx], observed.cum_confirmed[obs_idx])
    death_term = mse_rel(sim_series.cum_deaths[sim_idx], observed.cum_deaths[obs_idx])
    return (case_term + death_term) / 2.0


def search(
    spec: CalibrationSpec,
    observed: ObservedSeries,
    cfg: FullConfig,
    policy=null_policy(),
    n_days: int | None = None,
) -> SearchResult:
    """Two-phase search for (pop_infected, beta_initial).

    Phase one evaluates a Sobol design over the box (GLOBAL_FRACTION of the
    trials); phase two perturbs the incumbent with Gaussian steps scaled to
    LOCAL_SCALE of each range width. Every trial runs the policy from day 0
    on n_days-day episodes (see ungated_env). Trials whose parameters make
    an invalid configuration are logged and skipped; a run where every
    trial fails raises SearchError. Any other error propagates.
    """
    spec.validate()
    if n_days is None:
        n_days = len(observed)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0,)))
    sobol = qmc.Sobol(d=2, scramble=True, seed=spec.seed)
    n_global = max(1, int(round(spec.trials * GLOBAL_FRACTION)))
    n_global = min(n_global, spec.trials)
    # Sobol balance wants powers of two; draw the next one and slice.
    unit = sobol.random_base2(max(1, int(np.ceil(np.log2(n_global)))))[:n_global]

    lo = np.array([spec.pop_infected_range[0], spec.beta_range[0]])
    hi = np.array([spec.pop_infected_range[1], spec.beta_range[1]])
    width = hi - lo

    trials: list[Trial] = []
    best: Trial | None = None
    for t in range(spec.trials):
        if t < n_global:
            point = lo + unit[t] * width
        else:
            anchor = np.array([best.pop_infected, best.beta_initial]) if best else lo + width / 2
            point = anchor + rng.normal(0.0, LOCAL_SCALE * width)
            point = np.clip(point, lo, hi)
        trial = _evaluate_trial(t, float(point[0]), float(point[1]), spec, observed, cfg, policy, n_days)
        trials.append(trial)
        if not trial.failed and (best is None or trial.loss < best.loss):
            best = trial

    if best is None:
        raise SearchError("all calibration trials failed")
    return SearchResult(best, trials)


def _evaluate_trial(
    index: int,
    pop_infected: float,
    beta_initial: float,
    spec: CalibrationSpec,
    observed: ObservedSeries,
    cfg: FullConfig,
    policy,
    n_days: int,
) -> Trial:
    seeds = replication_seeds(spec.seed, index, spec.replications)
    try:
        replicas = simulate_observed(point_config(cfg, pop_infected, beta_initial), policy, n_days, seeds)
    except ConfigurationError as exc:
        logger.warning("trial %d failed: %s", index, exc)
        return Trial(index, pop_infected, beta_initial, float("inf"), failed=True)
    losses = [calibration_loss(replica, observed) for replica in replicas]
    return Trial(index, pop_infected, beta_initial, float(np.mean(losses)), losses, fit=mean_series(replicas))


def trial_log_to_csv(trials: list[Trial], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "pop_infected", "beta_initial", "loss", "replication_losses", "failed"])
        for t in trials:
            writer.writerow([
                t.index,
                f"{t.pop_infected:.8g}",
                f"{t.beta_initial:.8g}",
                f"{t.loss:.8g}",
                ";".join(f"{x:.8g}" for x in t.replication_losses),
                int(t.failed),
            ])


def fit_comparison_to_csv(result: SearchResult, observed: ObservedSeries, path: str) -> None:
    """Write the winning trial's fit beside the observed series.

    The fit is the mean of the replications the trial's loss averaged; rows
    are the dates both series hold, joined as in calibration_loss.
    """
    fitted = result.best.fit
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,obs_confirmed,sim_confirmed,obs_deaths,sim_deaths\n")
        for i, j in zip(*_join_dates(fitted, observed)):
            fh.write(f"{fitted.dates[i].isoformat()},{observed.cum_confirmed[j]:.6g},{fitted.cum_confirmed[i]:.6g},"
                     f"{observed.cum_deaths[j]:.6g},{fitted.cum_deaths[i]:.6g}\n")
