"""R_t estimator properties and strategy comparison."""

import dataclasses

import numpy as np
import pytest

from epictrl.analysis import (
    RtSeries,
    compare_strategies,
    estimate_rt,
    report_to_csv,
    report_to_text,
)
from epictrl.env import EvalEpisode
from epictrl.errors import ProtocolError
from tests.episodes import ungated_series
from tests.test_rewards import make_counts


def constant_series(n_days, infectious, new_infections, start_day=0):
    return [
        make_counts(day=start_day + d, I=infectious, new_infections=new_infections)
        for d in range(n_days)
    ]


class TestEstimateRt:
    def test_zero_numerator_gives_zero(self):
        series = constant_series(20, infectious=40, new_infections=0)
        rt = estimate_rt(series, infectious_mean=8.0)
        assert rt.values and all(v == 0.0 for v in rt.values)

    def test_steady_state_fixed_point_is_one(self):
        # 10 new infections per day with 80 infectious and 8-day duration.
        series = constant_series(30, infectious=80, new_infections=10)
        rt = estimate_rt(series, infectious_mean=8.0)
        assert all(abs(v - 1.0) <= 1e-9 for v in rt.values)

    def test_days_without_infectious_are_omitted(self):
        series = constant_series(10, infectious=0, new_infections=0)
        series += constant_series(10, infectious=50, new_infections=5, start_day=10)
        rt = estimate_rt(series, infectious_mean=8.0)
        assert rt.days[0] == 10
        assert len(rt.days) == 10

    def test_all_zero_series_is_empty_not_error(self):
        series = constant_series(10, infectious=0, new_infections=0)
        rt = estimate_rt(series, infectious_mean=8.0)
        assert rt.days == [] and rt.values == [] and rt.infectious == []

    def test_scale_free(self):
        rng = np.random.default_rng(0)
        base = [
            make_counts(day=d, I=int(i), new_infections=int(n))
            for d, (i, n) in enumerate(zip(rng.integers(1, 50, 40), rng.integers(0, 20, 40)))
        ]
        scaled = [
            dataclasses.replace(c, I=c.I * 17, new_infections=c.new_infections * 17)
            for c in base
        ]
        rt_a = estimate_rt(base, 8.0)
        rt_b = estimate_rt(scaled, 8.0)
        assert rt_a.days == rt_b.days
        np.testing.assert_allclose(rt_a.values, rt_b.values, rtol=1e-12)

    def test_growth_phase_exceeds_one(self, small_cfg):
        series = ungated_series(small_cfg, n_days=60, seed=2)
        rt = estimate_rt(series, small_cfg.disease.infectious_mean)
        strong = [v for v, s in zip(rt.values, rt.infectious) if s >= 5.0]
        runs = 0
        best = 0
        for v in strong:
            runs = runs + 1 if v > 1.0 else 0
            best = max(best, runs)
        assert best >= 5

    def test_empty_series_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            estimate_rt([], 8.0)

    def test_crossing_detection_requires_sustained_drop(self):
        rt = RtSeries(days=list(range(10)), values=[2, 2, 0.5, 2, 2, 0.8, 0.7, 0.6, 0.5, 0.4], infectious=[1.0] * 10)
        assert rt.first_below_one(min_infectious=0.0, sustain=3) == 5
        assert rt.first_below_one(min_infectious=0.0, sustain=1) == 2

    def test_crossing_detection_skips_low_signal_days(self):
        rt = RtSeries(days=list(range(6)), values=[0.5, 0.5, 0.5, 0.9, 0.9, 0.9],
                      infectious=[1.0, 1.0, 1.0, 50.0, 50.0, 50.0])
        assert rt.first_below_one(min_infectious=5.0, sustain=3) == 3

    def test_crossing_none_when_always_above(self):
        rt = RtSeries(days=[0, 1, 2], values=[1.5, 2.0, 3.0], infectious=[1.0] * 3)
        assert rt.first_below_one(min_infectious=0.0) is None


def fake_episode(seed, infections, deaths, loss, returns, series):
    return EvalEpisode(
        seed=seed, total_return=returns, cumulative_infections=infections,
        total_deaths=deaths, mean_economic_loss=loss, series=series,
    )


def epidemic_like_series():
    rng = np.random.default_rng(1)
    series = []
    infectious = 10
    for d in range(60):
        growth = 1.12 if d < 30 else 0.8
        infectious = max(1, int(infectious * growth))
        series.append(make_counts(day=d, I=infectious, new_infections=max(0, int(infectious * growth / 8))))
    return series


class TestCompareStrategies:
    def _run(self, name, scale=1.0, seeds=(1, 2, 3)):
        series = epidemic_like_series()
        episodes = [
            fake_episode(s, int(1000 * scale), int(10 * scale), 0.1 * scale, 500.0 / scale, series)
            for s in seeds
        ]
        return name, episodes

    def test_identical_strategies_identical_rows(self):
        rows = compare_strategies([self._run("a"), self._run("b")], infectious_mean=8.0)
        assert {k: v for k, v in rows[0].items() if k != "strategy"} == \
               {k: v for k, v in rows[1].items() if k != "strategy"}

    def test_mismatched_seed_sets_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            compare_strategies([self._run("a"), self._run("b", seeds=(4, 5, 6))], infectious_mean=8.0)

    def test_single_strategy_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            compare_strategies([self._run("a")], infectious_mean=8.0)

    def test_permutation_invariance_up_to_row_order(self):
        a, b = self._run("a"), self._run("b", scale=2.0)
        fwd = compare_strategies([a, b], infectious_mean=8.0)
        rev = compare_strategies([b, a], infectious_mean=8.0)
        assert fwd[0] == rev[1] and fwd[1] == rev[0]

    def test_rows_are_the_means_and_sds_of_the_episodes(self):
        name, episodes = self._run("a")
        episodes = [dataclasses.replace(ep, cumulative_infections=n) for ep, n in zip(episodes, (10, 20, 60))]
        row = compare_strategies([(name, episodes), self._run("b")], infectious_mean=8.0)[0]
        sd = float(np.std([10, 20, 60], ddof=1))
        assert (row["cumulative_infections_mean"], row["cumulative_infections_sd"]) == (30.0, sd)
        assert row["economic_loss_pct_mean"] == 100.0 * 0.1
        crossing = estimate_rt(episodes[0].series, 8.0).first_below_one()
        assert crossing is not None
        assert (row["rt_below_1_day_mean"], row["rt_below_1_count"]) == (crossing, 3)

    def test_report_serialization(self, tmp_path):
        rows = compare_strategies([self._run("a"), self._run("b", scale=2.0)], infectious_mean=8.0)
        path = tmp_path / "report.csv"
        report_to_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        text = report_to_text(rows)
        assert "a" in text and "b" in text
