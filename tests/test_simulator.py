"""Core simulator: conservation, determinism, seeding, transmission oracles."""

import dataclasses
import logging

import numpy as np
import pytest

from epictrl.config import DiseaseConfig, InterventionConfig, PopulationConfig
from epictrl.errors import ConfigurationError
from epictrl.interventions import Action, NULL_ACTION
from epictrl.simulator import (
    AgentState,
    DailyCounts,
    EpiState,
    Simulation,
    counts_from_csv,
    counts_to_csv,
    seed_infections,
)

from tests.episodes import constant_policy, ungated_series


def make_sim(pop_size=500, pop_infected=5, seed=1, **pop_kwargs) -> Simulation:
    pop_cfg = PopulationConfig(pop_size=pop_size, total_pop=float(pop_size),
                               pop_infected=float(pop_infected), **pop_kwargs)
    return Simulation(pop_cfg, DiseaseConfig(), InterventionConfig(), seed=seed)


class TestSeeding:
    def test_scaled_seeding_rounds_and_floors(self, caplog):
        # 5856 people at scale 6786 rounds to one agent.
        cfg = PopulationConfig(pop_size=10, total_pop=67_860.0, pop_infected=5856.0)
        state = AgentState.fresh(10)
        seeded = seed_infections(state, cfg, np.random.default_rng(0))
        assert len(seeded) == 1

    def test_exact_division(self):
        cfg = PopulationConfig(pop_size=100, total_pop=678_600.0, pop_infected=67_860.0)
        state = AgentState.fresh(100)
        seeded = seed_infections(state, cfg, np.random.default_rng(0))
        assert len(seeded) == 10
        assert (state.epi_state[seeded] == EpiState.EXPOSED).all()

    def test_zero_pop_infected_floors_to_one_with_warning(self, caplog):
        cfg = PopulationConfig(pop_size=50, total_pop=50.0, pop_infected=0.0)
        state = AgentState.fresh(50)
        with caplog.at_level(logging.WARNING, logger="epictrl.simulator"):
            seeded = seed_infections(state, cfg, np.random.default_rng(0))
        assert len(seeded) == 1
        assert any("flooring" in rec.message for rec in caplog.records)

    def test_seed_count_exceeding_population_is_config_error(self):
        cfg = PopulationConfig(pop_size=5, total_pop=5.0, pop_infected=10.0)
        state = AgentState.fresh(5)
        with pytest.raises(ConfigurationError):
            seed_infections(state, cfg, np.random.default_rng(0))


class TestCommunityLayer:
    def test_population_too_small_for_community_mean_is_config_error(self):
        # 21 agents allow offsets 1..10: ten full offsets fit, an eleventh does not.
        make_sim(pop_size=21, contacts_c=20.0)
        for contacts in (22.0, 20.5):
            with pytest.raises(ConfigurationError):
                make_sim(pop_size=21, contacts_c=contacts)
        with pytest.raises(ConfigurationError):
            make_sim(pop_size=10)  # the default contacts_c of 20

    def test_each_day_draws_a_new_community_layer(self):
        sim = make_sim(pop_size=500)
        sim.step_day(NULL_ACTION)
        first = sim.community
        sim.step_day(NULL_ACTION)
        assert sim.prev_community is first
        assert not np.array_equal(sim.community.agent_at, first.agent_at)
        src, _ = sim.community.contacts(np.arange(500))
        assert len(src) == 500 * 20


class TestConservationAndDeterminism:
    def test_conservation_every_day(self, small_cfg):
        series = ungated_series(small_cfg, n_days=80, seed=3)
        for c in series:
            assert c.S + c.E + c.I + c.R + c.D == small_cfg.population.pop_size
            assert c.I == c.currently_infected - c.E
            assert c.cumulative_dead == c.D

    def test_monotone_cumulatives(self, small_cfg):
        policy = constant_policy(Action(0.9, 0.5, 0.5))
        series = ungated_series(small_cfg, n_days=80, seed=3, policy=policy)
        for prev, curr in zip(series, series[1:]):
            assert curr.cumulative_tests >= prev.cumulative_tests
            assert curr.cumulative_quarantined >= prev.cumulative_quarantined
            assert curr.cumulative_diagnoses >= prev.cumulative_diagnoses
            assert curr.D >= prev.D

    def test_identical_seed_bit_identical_series(self, small_cfg):
        a = ungated_series(small_cfg, n_days=60, seed=11)
        b = ungated_series(small_cfg, n_days=60, seed=11)
        assert a == b

    def test_different_seed_differs(self, small_cfg):
        a = ungated_series(small_cfg, n_days=60, seed=11)
        b = ungated_series(small_cfg, n_days=60, seed=12)
        assert a != b

    def test_returns_n_days_entries(self, tiny_cfg):
        series = ungated_series(tiny_cfg, n_days=17, seed=0)
        assert len(series) == 17
        assert [c.day for c in series] == list(range(17))


class TestNullModels:
    def test_zero_beta_means_only_seeded_infections(self, tiny_cfg):
        tiny_cfg.population.beta_initial = 0.0
        series = ungated_series(tiny_cfg, n_days=60, seed=5)
        assert sum(c.new_infections for c in series) == 0
        total_ever = series[-1].R + series[-1].D + series[-1].E + series[-1].I
        assert total_ever == 5  # exactly the seeded agents

    def test_zero_ch_beta_day_has_no_new_infections(self):
        sim = make_sim(pop_size=400, pop_infected=30, seed=2)
        for _ in range(12):  # let some agents become infectious
            sim.step_day(NULL_ACTION)
        counts = sim.step_day(Action(0.0, 0.0, 0.0))
        assert counts.new_infections == 0

    def test_all_recovered_population_is_absorbing(self):
        sim = make_sim(pop_size=100, pop_infected=1, seed=2)
        sim.state.epi_state[:] = EpiState.RECOVERED
        sim.state.scheduled_day[:] = -1
        counts = sim.step_day(NULL_ACTION)
        assert counts.new_infections == counts.new_deaths == counts.new_recovered == 0
        assert counts.R == 100


class TestTransmissionOracles:
    def _pair_sim(self, seed, beta=0.3, sus_odds=1.0, asymptomatic=False):
        """Two agents, one household, no community pairs: a single Bernoulli.

        Ages are pinned to the 80+ band so neither school nor workplace
        cliques can add a second exposure path.
        """
        pop_cfg = PopulationConfig(
            pop_size=2, total_pop=2.0, pop_infected=1.0,
            contacts_h=2.0, contacts_c=0.01,
            beta_initial=beta,
            sus_odds_ratios=tuple([sus_odds] * 9),
            age_pyramid=(0.0,) * 8 + (1.0,),
        )
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0)
        sim = Simulation(pop_cfg, DiseaseConfig(), int_cfg, seed=seed)
        src = int(sim.seeded_ids[0])
        sim.state.epi_state[src] = EpiState.I_ASYMPTOMATIC if asymptomatic else EpiState.I_MILD
        sim.state.scheduled_day[src] = 10_000  # hold the source infectious
        sim.state.next_state[src] = EpiState.RECOVERED
        return sim

    def test_certain_infection_when_probability_clamps_to_one(self):
        # beta 0.6 with susceptibility odds 2 clamps the product to 1.
        for seed in range(20):
            sim = self._pair_sim(seed, beta=0.6, sus_odds=2.0)
            counts = sim.step_day(NULL_ACTION)
            assert counts.new_infections == 1

    @pytest.mark.slow
    def test_single_pair_bernoulli_within_3_sigma(self):
        n = 10_000
        p = 0.3
        hits = sum(self._pair_sim(seed, beta=p).step_day(NULL_ACTION).new_infections for seed in range(n))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma

    @pytest.mark.slow
    def test_asymptomatic_factor_multiplies_within_3_sigma(self):
        n = 10_000
        p = 0.15 * 2.0  # beta times asymp_factor
        hits = sum(
            self._pair_sim(seed, beta=0.15, asymptomatic=True).step_day(NULL_ACTION).new_infections
            for seed in range(n)
        )
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma

    def _quad_sim(self, seed, beta, n_sources):
        """Four agents in one household, n_sources held infectious."""
        pop_cfg = PopulationConfig(
            pop_size=4, total_pop=4.0, pop_infected=1.0,
            contacts_h=3.0, contacts_c=0.01,
            beta_initial=beta,
            age_pyramid=(0.0,) * 8 + (1.0,),
        )
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0)
        sim = Simulation(pop_cfg, DiseaseConfig(), int_cfg, seed=seed)
        sim.state.epi_state[:] = EpiState.SUSCEPTIBLE
        sim.state.scheduled_day[:] = -1
        sim.state.epi_state[:n_sources] = EpiState.I_MILD
        sim.state.scheduled_day[:n_sources] = 10_000
        sim.state.next_state[:n_sources] = EpiState.RECOVERED
        return sim

    @pytest.mark.slow
    def test_two_source_bernoulli_product_within_3_sigma(self):
        # Two infectious housemates, two susceptible: each susceptible is
        # infected with probability 1 - (1 - beta)^2.
        n = 10_000
        beta = 0.2
        p = 1.0 - (1.0 - beta) ** 2
        hits = sum(
            self._quad_sim(seed, beta, n_sources=2).step_day(NULL_ACTION).new_infections
            for seed in range(n)
        )
        mean = hits / (2 * n)  # two susceptible targets per replication
        sigma = np.sqrt(p * (1 - p) / (2 * n))
        assert abs(mean - p) < 3 * sigma

    def test_single_growth_phase_under_no_intervention(self, small_cfg):
        series = ungated_series(small_cfg, n_days=133, seed=6)
        cum = np.cumsum([c.new_infections for c in series])
        saturation = int(np.searchsorted(cum, 0.99 * cum[-1]))
        # Weekly-strict growth until saturation.
        for d in range(0, saturation - 7):
            assert cum[d + 7] > cum[d]
        # Single phase: once the smoothed epidemic curve peaks, it never
        # climbs back to its peak level (no second wave).
        new_inf = np.array([c.new_infections for c in series], dtype=float)
        smoothed = np.convolve(new_inf, np.ones(7) / 7, mode="valid")
        peak = int(np.argmax(smoothed))
        if peak + 14 < len(smoothed):
            assert smoothed[peak + 14:].max() < smoothed[peak]

    def test_lockdown_scales_transmission(self):
        n = 3000
        hits_open = sum(
            self._pair_sim(seed, beta=0.5).step_day(NULL_ACTION).new_infections for seed in range(n)
        )
        hits_locked = sum(
            self._pair_sim(seed, beta=0.5).step_day(Action(0.5, 0, 0)).new_infections
            for seed in range(n)
        )
        # Expect roughly half as many infections under ch_beta = 0.5.
        assert hits_locked / hits_open == pytest.approx(0.5, rel=0.15)


class TestPolicyConsumption:
    def test_policy_decisions_consumed_per_block(self, tiny_cfg):
        calls = []

        class Recorder:
            def select_action(self, observation, day):
                calls.append(day)
                return NULL_ACTION

        ungated_series(tiny_cfg, n_days=133, seed=0, policy=Recorder())
        assert len(calls) == 19  # ceil(133 / 7)
        assert calls == list(range(0, 133, 7))

    def test_out_of_domain_policy_action_propagates(self, tiny_cfg):
        from epictrl.errors import ActionDomainError

        class OutOfDomain:
            def select_action(self, observation, day):
                return Action(1.5, 0.0, 0.0)

        with pytest.raises(ActionDomainError):
            ungated_series(tiny_cfg, n_days=10, seed=0, policy=OutOfDomain())


class TestCsvRoundTrip:
    def test_counts_csv_round_trip(self, tiny_cfg, tmp_path):
        series = ungated_series(tiny_cfg, n_days=25, seed=4)
        path = tmp_path / "counts.csv"
        counts_to_csv(series, str(path))
        header = path.read_text().splitlines()[0]
        assert header.split(",") == [f.name for f in dataclasses.fields(DailyCounts)]
        assert counts_from_csv(str(path)) == series
