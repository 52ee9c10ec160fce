"""Core simulator: conservation, determinism, seeding, transmission oracles."""

import copy
import dataclasses
import hashlib
import logging
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from epictrl.config import N_AGE_BANDS, DiseaseConfig, InterventionConfig, PopulationConfig
from epictrl.errors import ConfigurationError
from epictrl import interventions as iv
from epictrl import simulator
from epictrl.interventions import Action, NULL_ACTION
from epictrl.population import CommunityDay
from epictrl.simulator import (
    TRANSMISSION_LAYERS,
    AgentState,
    DailyCounts,
    EpiState,
    Simulation,
    counts_to_csv,
    seed_infections,
)

from tests.episodes import constant_policy, counts_from_csv, ungated_series
from tests.test_population import contact_pairs

# Infected states as a lookup table, kept here so the references below do
# not share the simulator's range tests.
IS_INFECTED = np.zeros(len(EpiState), dtype=bool)
IS_INFECTED[[EpiState.EXPOSED, EpiState.I_ASYMPTOMATIC, EpiState.I_MILD, EpiState.I_SEVERE]] = True


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
        assert sim._next_community is None
        self._check_new_layer_each_day(sim)

    def test_each_day_draws_a_new_community_layer_pipelined(self, monkeypatch):
        monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 2)
        sim = make_sim(pop_size=500)
        assert sim._next_community is not None
        self._check_new_layer_each_day(sim)

    @staticmethod
    def _check_new_layer_each_day(sim):
        assert sim.community is None
        sim.step_day(NULL_ACTION)
        first = sim.community
        sim.step_day(NULL_ACTION)
        assert sim.prev_community is first
        assert not np.array_equal(sim.community.agent_at, first.agent_at)
        src, _ = contact_pairs(sim.community, np.arange(500))
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


def per_layer_transmit(sim, ch_beta, rng):
    """Reference for Simulation._transmit: one layer at a time, probabilities per candidate.

    A transcription of the sweep the one-pass table replaced, minus its
    state updates: it returns the ids it would expose, drawing from rng,
    and how many candidates had an asymptomatic, diagnosed or quarantined
    source, a quarantined target, or a probability the clip cut to 1.
    """
    coverage = dict.fromkeys(("asymptomatic", "diagnosed", "quarantined_source",
                              "quarantined_target", "clipped"), 0)
    st = sim.state
    if ch_beta == 0.0 or sim.pop_cfg.beta_initial == 0.0:
        return np.empty(0, dtype=np.int64), coverage
    epi = st.epi_state
    infectious_ids = np.flatnonzero(IS_INFECTED[epi] & (epi != EpiState.EXPOSED))
    if not len(infectious_ids):
        return np.empty(0, dtype=np.int64), coverage
    susceptible = epi == EpiState.SUSCEPTIBLE
    quarantined = (st.quarantine_start >= 0) & (st.quarantine_start <= sim.day) & (sim.day < st.quarantine_until)
    base = iv.apply_lockdown(ch_beta, sim.pop_cfg.beta_initial)
    asymp = epi == EpiState.I_ASYMPTOMATIC
    cfg = sim.int_cfg
    sus_odds = np.asarray(sim.pop_cfg.sus_odds_ratios, dtype=np.float64)
    layer_weight = dict(zip(("household", "school", "work", "community"), sim.pop_cfg.layer_weights))

    candidates = []
    for name, layer in sim.pop.layers.items():
        rows = [layer.contacts([i])[1] for i in infectious_ids]
        s = np.repeat(infectious_ids, [len(row) for row in rows])
        d = np.concatenate([np.empty(0, dtype=np.int64)] + rows)
        keep = susceptible[d]
        candidates.append((name, s[keep], d[keep]))
    c_src, c_dst = contact_pairs(sim.community, infectious_ids)
    keep = susceptible[c_dst]
    candidates.append(("community", c_src[keep], c_dst[keep]))

    hit_chunks = []
    for name, s, d in candidates:
        if not len(s):
            continue
        p = np.full(len(s), base * layer_weight[name], dtype=np.float64)
        p *= sus_odds[sim.pop.age_bands[d]]
        p[asymp[s]] *= sim.pop_cfg.asymp_factor
        p[st.diagnosed_day[s] >= 0] *= cfg.isolation_transmission_factor
        p[quarantined[s]] *= cfg.quarantine_transmission_factor
        p[quarantined[d]] *= cfg.quarantine_susceptibility_factor
        coverage["asymptomatic"] += int(asymp[s].sum())
        coverage["diagnosed"] += int((st.diagnosed_day[s] >= 0).sum())
        coverage["quarantined_source"] += int(quarantined[s].sum())
        coverage["quarantined_target"] += int(quarantined[d].sum())
        coverage["clipped"] += int((p > 1.0).sum())
        np.clip(p, 0.0, 1.0, out=p)
        hits = d[rng.random(len(p)) < p]
        if len(hits):
            hit_chunks.append(hits)
    if not hit_chunks:
        return np.empty(0, dtype=np.int64), coverage
    return np.unique(np.concatenate(hit_chunks)), coverage


# ch_beta steps 1 -> 0 -> 0.75 -> 0.5 from day to day, so the probability
# table is rebuilt and skipped on every kind of change.
CYCLE = (NULL_ACTION, Action(0.0, 0.5, 0.5), Action(0.75, 0.5, 0.5), Action(0.5, 0.75, 0.75))


class TestOnePassTransmission:
    """Simulation._transmit against per_layer_transmit, day by day."""

    def _compare(self, sim, actions, n_days=133):
        totals = dict.fromkeys(("days_without_infectious", "exposed"), 0)
        transmit = sim._transmit

        def checked(ch_beta):
            reference = copy.deepcopy(sim.streams["transmission"])
            expected, coverage = per_layer_transmit(sim, ch_beta, reference)
            got = transmit(ch_beta)
            np.testing.assert_array_equal(got, expected)
            assert got.dtype == expected.dtype
            assert sim.streams["transmission"].bit_generator.state == reference.bit_generator.state
            for key, value in coverage.items():
                totals[key] = totals.get(key, 0) + value
            epi = sim.state.epi_state
            totals["days_without_infectious"] += not np.any(IS_INFECTED[epi] & (epi != EpiState.EXPOSED))
            totals["exposed"] += len(got)
            return got

        sim._transmit = checked
        for day in range(n_days):
            sim.step_day(actions[day % len(actions)])
        assert totals["days_without_infectious"] > 0  # the seeded agents start out exposed
        assert totals["exposed"] > 0
        return totals

    @pytest.mark.parametrize("action", [NULL_ACTION, Action(0.75, 0.5, 0.5)], ids=["null", "mixed"])
    def test_default_population(self, action):
        self._compare(make_sim(pop_size=2000, pop_infected=10, seed=0), [action])

    def test_partial_community_offset(self):
        sim = make_sim(pop_size=2000, pop_infected=10, seed=0, contacts_c=7.3)
        assert sim.community is None and sim._community_shape[1] > 0
        self._compare(sim, [NULL_ACTION])

    def test_trace_heavy_action(self):
        totals = self._compare(make_sim(pop_size=2000, pop_infected=10, seed=1), [Action(0.5, 0.75, 0.75)])
        assert totals["diagnosed"] and totals["quarantined_source"] and totals["quarantined_target"]

    def test_clip_binds(self):
        sim = make_sim(pop_size=2000, pop_infected=10, seed=0, asymp_factor=400.0)
        totals = self._compare(sim, [NULL_ACTION], n_days=40)
        assert totals["clipped"] > 0

    def test_lockdown_level_changes_daily_with_distinct_layer_weights(self):
        sim = make_sim(pop_size=2000, pop_infected=10, seed=1, layer_weights=(0.5, 1.5, 1.0, 2.0))
        self._compare(sim, CYCLE)

    def test_twenty_one_agents(self):
        for seed in range(3):
            sim = make_sim(pop_size=21, pop_infected=3, seed=seed, beta_initial=0.1)
            self._compare(sim, CYCLE, n_days=60)

    def test_table_entries_are_the_per_candidate_products(self):
        # Factors chosen so that multiplying in another order rounds some
        # entries differently, and large enough that the clip binds.
        pop_cfg = PopulationConfig(pop_size=200, total_pop=200.0, pop_infected=2.0, beta_initial=0.6,
                                   asymp_factor=3.7, layer_weights=(0.7, 1.3, 0.9, 1.1),
                                   sus_odds_ratios=tuple(0.55 + 0.17 * b for b in range(N_AGE_BANDS)))
        int_cfg = InterventionConfig(isolation_transmission_factor=0.45, quarantine_transmission_factor=0.3,
                                     quarantine_susceptibility_factor=0.65)
        sim = Simulation(pop_cfg, DiseaseConfig(), int_cfg, seed=0)
        source, band, target_q = (k.ravel() for k in np.indices((8, N_AGE_BANDS, 2)))
        asymp, diagnosed, source_q = source & 1 > 0, source & 2 > 0, source & 4 > 0
        sus_odds = np.asarray(pop_cfg.sus_odds_ratios)
        for ch_beta in (1.0, 0.625, 0.5):
            table = sim._probability_table(ch_beta).reshape(len(TRANSMISSION_LAYERS), -1)
            for row, weight in zip(table, pop_cfg.layer_weights):
                p = np.full(len(source), iv.apply_lockdown(ch_beta, pop_cfg.beta_initial) * weight)
                p *= sus_odds[band]
                p[asymp] *= pop_cfg.asymp_factor
                p[diagnosed] *= int_cfg.isolation_transmission_factor
                p[source_q] *= int_cfg.quarantine_transmission_factor
                p[target_q == 1] *= int_cfg.quarantine_susceptibility_factor
                assert (p > 1.0).any()
                np.clip(p, 0.0, 1.0, out=p)
                np.testing.assert_array_equal(row, p)

    def test_split_draws_equal_one_draw(self):
        # The one pass draws once for all layers where the per-layer sweep
        # drew once per layer; PCG64 doubles are one output each.
        for sizes in ((0, 5), (3, 0, 7), (1, 1, 1), (1000, 17, 250, 4096)):
            split, whole = np.random.default_rng(42), np.random.default_rng(42)
            parts = np.concatenate([split.random(k) for k in sizes])
            np.testing.assert_array_equal(parts, whole.random(sum(sizes)))
            assert split.bit_generator.state == whole.bit_generator.state


class TestProgression:
    @pytest.mark.xfail(strict=True, reason="_progress re-reads next_state after I_MILD -> I_SEVERE, "
                                           "so a severe agent recovers or dies on its onset day")
    def test_severe_agent_is_severe_at_the_end_of_its_onset_day(self):
        sim = make_sim(pop_size=100, pop_infected=1, seed=2)
        agent = int(sim.seeded_ids[0])
        sim.state.epi_state[agent] = EpiState.I_MILD
        sim.state.scheduled_day[agent] = sim.day
        sim.state.next_state[agent] = EpiState.I_SEVERE
        counts = sim.step_day(NULL_ACTION)
        assert counts.new_severe == 1
        assert sim.state.epi_state[agent] == EpiState.I_SEVERE


class TestEmitCounts:
    def test_stocks_and_quarantine_match_a_bincount_reference(self):
        sim = make_sim(pop_size=500)
        st = sim.state
        sim.day = day = 9
        rng = np.random.default_rng(4)
        st.epi_state[:] = rng.integers(0, len(EpiState), size=500)
        st.quarantine_start[:] = rng.integers(-1, 2 * day, size=500)
        st.quarantine_until[:] = np.where(st.quarantine_start >= 0, st.quarantine_start + rng.integers(1, 15, 500), -1)
        # Agent 0's quarantine starts today, agent 1's ends today (its end
        # is exclusive), and agent 2 is dead in quarantine.
        st.quarantine_start[:3] = day, day - 14, day - 2
        st.quarantine_until[:3] = day + 14, day, day + 12
        st.epi_state[:3] = EpiState.SUSCEPTIBLE, EpiState.I_MILD, EpiState.DEAD
        sim.cum_tests, sim.cum_quarantined, sim.cum_diagnoses = 31, 17, 5
        flows = dict(new_infections=4, new_severe=1, new_deaths=2, new_recovered=3,
                     new_tests=6, new_quarantined=7, new_diagnoses=8)

        counts = sim._emit_counts(**flows)

        stocks = np.bincount(st.epi_state, minlength=len(EpiState))
        assert (stocks > 0).all()  # every state occurs
        in_quarantine = np.array([
            st.quarantine_start[i] >= 0 and st.quarantine_start[i] <= day < st.quarantine_until[i]
            and st.epi_state[i] != EpiState.DEAD
            for i in range(500)
        ])
        assert in_quarantine[0] and not in_quarantine[1] and not in_quarantine[2]
        infectious = int(stocks[EpiState.I_ASYMPTOMATIC] + stocks[EpiState.I_MILD] + stocks[EpiState.I_SEVERE])
        expected = DailyCounts(
            day=day, S=int(stocks[EpiState.SUSCEPTIBLE]), E=int(stocks[EpiState.EXPOSED]), I=infectious,
            R=int(stocks[EpiState.RECOVERED]), D=int(stocks[EpiState.DEAD]),
            cumulative_tests=31, cumulative_quarantined=17, cumulative_diagnoses=5,
            currently_infected=int(stocks[EpiState.EXPOSED]) + infectious,
            currently_quarantined=int(in_quarantine.sum()), cumulative_dead=int(stocks[EpiState.DEAD]), **flows,
        )
        assert counts == expected
        assert repr(counts) == repr(expected)  # plain ints, not numpy scalars


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


def series_digest(sim, n_days=30) -> str:
    return hashlib.sha256(repr([sim.step_day(Action(0.75, 0.5, 0.5)) for _ in range(n_days)]).encode()).hexdigest()


def run_python(code: str) -> None:
    """Run code in a new interpreter from the repository root, failing on an error or after 120 s."""
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, cwd=root, timeout=120,
                   env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"})


# A pipelined Simulation made before a fork, stepped in the child (see check_fork).
_made_before_fork: Simulation | None = None


def _digests_in_child() -> tuple[str, str]:
    return series_digest(make_sim(pop_size=2000, pop_infected=10)), series_digest(_made_before_fork)


def check_fork() -> None:
    """A fork child of a process whose worker has drawn gets a worker of its own.

    Run in a new interpreter, where concurrent.futures is first imported
    after the simulator has registered its at-fork hooks.
    """
    global _made_before_fork
    simulator.PIPELINE_MIN_AGENTS = 2
    expected = series_digest(make_sim(pop_size=2000, pop_infected=10))
    assert simulator._community_worker is not None
    sample = CommunityDay.__dict__["sample"]

    def slow_sample(cls, *args):
        time.sleep(0.5)
        return sample.__func__(cls, *args)

    CommunityDay.sample = classmethod(slow_sample)
    _made_before_fork = make_sim()  # its day 0 is still being drawn at the fork
    CommunityDay.sample = sample
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_digests_in_child).get(timeout=60)
    assert got == (expected, series_digest(make_sim())), got


class TestCommunityPipeline:
    """From PIPELINE_MIN_AGENTS agents the worker thread draws tomorrow's community layer."""

    def test_pipelined_draw_never_writes_today_or_yesterday(self, monkeypatch):
        monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 2)
        sim = make_sim(pop_size=2000, pop_infected=10)
        buffers = [array for pair in sim._community_buffers for array in pair]
        for _ in range(10):
            held = [(day, day.agent_at.copy(), day.slot_of.copy())
                    for day in (sim.community, sim.prev_community) if day is not None]
            tomorrow = sim._next_community.result()
            for day, agent_at, slot_of in held:
                np.testing.assert_array_equal(day.agent_at, agent_at)
                np.testing.assert_array_equal(day.slot_of, slot_of)
                for array in (day.agent_at, day.slot_of):
                    assert not np.shares_memory(array, tomorrow.agent_at)
                    assert not np.shares_memory(array, tomorrow.slot_of)
            sim.step_day(Action(0.75, 0.5, 0.5))
            # Every day is drawn into one of the three pairs made at construction.
            assert sim.community is tomorrow
            assert any(tomorrow.agent_at is a for a in buffers) and any(tomorrow.slot_of is a for a in buffers)

    def test_threads_sharing_the_worker_each_get_their_own_series(self, monkeypatch):
        # More stepping threads than cores, each with its own pipelined
        # Simulation and all queueing draws on the one worker.
        seeds = range(4)
        monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 10**9)
        expected = [series_digest(make_sim(seed=seed), n_days=20) for seed in seeds]
        monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 2)
        got = {}

        def run(seed):
            got[seed] = series_digest(make_sim(seed=seed), n_days=20)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got.get(seed) for seed in seeds] == expected

    def test_no_thread_on_import_or_below_the_threshold(self):
        run_python(
            "import threading\n"
            "import epictrl\n"
            "from epictrl import simulator\n"
            "assert threading.enumerate() == [threading.main_thread()], threading.enumerate()\n"
            "from tests.test_simulator import make_sim, series_digest\n"
            "series_digest(make_sim(pop_size=2000, pop_infected=10))\n"
            "assert threading.enumerate() == [threading.main_thread()], threading.enumerate()\n"
            "assert simulator._community_worker is None\n"
        )

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_rebuilds_the_worker(self):
        run_python("from tests.test_simulator import check_fork; check_fork()")

    def test_worker_exception_surfaces_from_step_day(self, monkeypatch):
        monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 2)

        def failing(cls, *args):
            raise RuntimeError("draw failed")

        with monkeypatch.context() as patch:
            patch.setattr(CommunityDay, "sample", classmethod(failing))
            sim = make_sim()
            with pytest.raises(RuntimeError, match="draw failed"):
                sim.step_day(NULL_ACTION)
        pipelined = series_digest(make_sim())
        monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 10**9)
        assert pipelined == series_digest(make_sim())
