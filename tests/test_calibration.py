"""Calibration loss arithmetic and search behavior on cheap configurations."""

from datetime import date, timedelta

import numpy as np
import pytest

from epictrl.calibration import (
    CalibrationSpec,
    ObservedSeries,
    calibration_loss,
    observed_from_csv,
    search,
    simulate_observed,
    trial_log_to_csv,
)
from epictrl.baselines import null_policy
from epictrl.config import FullConfig, PopulationConfig
from epictrl.errors import AlignmentError, ScheduleParseError

from tests.test_cli import write_observed


def series(values_c, values_d, start=date(2020, 1, 21)):
    dates = [start + timedelta(days=i) for i in range(len(values_c))]
    return ObservedSeries(dates, np.asarray(values_c, float), np.asarray(values_d, float))


class TestCalibrationLoss:
    def test_perfect_fit_is_zero(self):
        obs = series([10, 20, 40], [1, 2, 3])
        assert calibration_loss(obs, obs) == 0.0

    def test_double_everywhere_scores_one(self):
        obs = series([10, 20, 40], [2, 4, 8])
        sim = series([20, 40, 80], [4, 8, 16])
        assert calibration_loss(sim, obs) == pytest.approx(1.0)

    def test_single_point_relative_error(self):
        obs = series([100], [100])
        sim = series([110], [100])
        # Cases alone err, by (0.1)^2 = 0.01; deaths fit exactly.
        assert calibration_loss(sim, obs) == pytest.approx(0.005)

    def test_weights_mix_series(self):
        obs = series([100], [100])
        sim = series([110], [80])
        # The two series weigh equally: (0.01 + 0.04) / 2.
        assert calibration_loss(sim, obs) == pytest.approx(0.025)

    def test_small_observed_values_floored_at_one(self):
        obs = series([0], [0])
        sim = series([3], [0])
        # Cases err by 3 / max(0, 1); deaths fit exactly.
        assert calibration_loss(sim, obs) == pytest.approx(4.5)

    def test_no_overlap_is_alignment_error(self):
        obs = series([1, 2], [0, 0])
        sim = series([1, 2], [0, 0], start=date(2021, 1, 1))
        with pytest.raises(AlignmentError):
            calibration_loss(sim, obs)


class TestObservedCsv:
    def test_round_trip(self, tmp_path):
        back = observed_from_csv(str(write_observed(tmp_path)))
        value = np.cumprod([10.0] + [1.15] * 24)  # as write_observed grows it
        assert back.dates == [date(2020, 1, 21) + timedelta(days=i) for i in range(25)]
        np.testing.assert_array_equal(back.cum_confirmed, np.round(value))
        np.testing.assert_array_equal(back.cum_deaths, np.round(value / 20))

    def test_decreasing_series_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("date,cum_confirmed,cum_deaths\n2020-01-21,10,0\n2020-01-22,5,0\n")
        with pytest.raises(ScheduleParseError):
            observed_from_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("when,cases\n2020-01-21,10\n")
        with pytest.raises(ScheduleParseError):
            observed_from_csv(str(path))


def cheap_setup(beta=0.08, pop=300, days=40):
    """Small, fast simulator target for search tests."""
    pop_cfg = PopulationConfig(pop_size=pop, total_pop=float(pop), pop_infected=8.0,
                               beta_initial=beta, contacts_s=8.0, contacts_w=8.0, contacts_c=8.0)
    return FullConfig(population=pop_cfg), days


def synthetic_observed(cfg, days, seed=123):
    return simulate_observed(cfg, null_policy(), days, [seed])[0]


class TestSearch:
    def test_trials_1_returns_single_point(self):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                               trials=1, replications=1, seed=5)
        result = search(spec, observed, cfg)
        assert len(result.trials) == 1
        assert result.best.loss == result.trials[0].loss

    def test_search_determinism(self):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                               trials=8, replications=1, seed=5)
        a = search(spec, observed, cfg)
        b = search(spec, observed, cfg)
        assert [(t.pop_infected, t.beta_initial, t.loss) for t in a.trials] == \
               [(t.pop_infected, t.beta_initial, t.loss) for t in b.trials]

    def test_incumbent_never_worsens(self):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                               trials=12, replications=1, seed=9)
        result = search(spec, observed, cfg)
        best = np.inf
        incumbents = []
        for t in result.trials:
            if not t.failed:
                best = min(best, t.loss)
            incumbents.append(best)
        assert incumbents == sorted(incumbents, reverse=True)
        assert result.best.loss == incumbents[-1]

    def test_widening_a_range_containing_the_optimum_not_worse_in_expectation(self):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        narrow_best, wide_best = [], []
        for seed in (1, 2, 3, 4):
            spec_n = CalibrationSpec(pop_infected_range=(4, 16), beta_range=(0.05, 0.12),
                                     trials=10, replications=1, seed=seed)
            spec_w = CalibrationSpec(pop_infected_range=(2, 64), beta_range=(0.01, 0.3),
                                     trials=10, replications=1, seed=seed)
            narrow_best.append(search(spec_n, observed, cfg).best.loss)
            wide_best.append(search(spec_w, observed, cfg).best.loss)
        # Paired-seed expectation: generous slack absorbs sampling noise.
        assert np.mean(wide_best) <= np.mean(narrow_best) + 0.5

    def test_all_trials_failing_is_search_error(self):
        from epictrl.errors import SearchError

        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        # Every candidate seeds more agents than the population holds.
        spec = CalibrationSpec(pop_infected_range=(5000, 9000), beta_range=(0.02, 0.2),
                               trials=4, replications=1, seed=5)
        with pytest.raises(SearchError):
            search(spec, observed, cfg)

    def test_failed_trials_marked_and_skipped(self):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        # Range straddles the population size: some trials fail, search continues.
        spec = CalibrationSpec(pop_infected_range=(5, 600), beta_range=(0.02, 0.2),
                               trials=8, replications=1, seed=5)
        result = search(spec, observed, cfg)
        assert any(t.failed for t in result.trials)
        assert any(not t.failed for t in result.trials)
        assert np.isfinite(result.best.loss)

    def test_policy_programming_error_fails_the_search(self):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                               trials=2, replications=1, seed=5)

        class Broken:
            def select_action(self, observation, day):
                raise TypeError("select_action() is broken")

        with pytest.raises(TypeError):
            search(spec, observed, cfg, policy=Broken())

    def test_trial_log_csv(self, tmp_path):
        cfg, days = cheap_setup()
        observed = synthetic_observed(cfg, days)
        spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                               trials=3, replications=2, seed=5)
        result = search(spec, observed, cfg)
        path = tmp_path / "log.csv"
        trial_log_to_csv(result.trials, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("trial,pop_infected,beta_initial,loss")
