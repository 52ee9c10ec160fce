"""Testing, tracing, quarantine mechanics, and the substream discipline."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from epictrl.config import DiseaseConfig, InterventionConfig, PopulationConfig
from epictrl.errors import ActionDomainError
from epictrl.interventions import (
    Action,
    NULL_ACTION,
    BETA_LEVELS,
    CTP_LEVELS,
    TP_LEVELS,
    apply_lockdown,
    encode_discrete,
    run_testing,
    run_tracing,
)
from epictrl.population import CommunityDay, community_offsets
from epictrl.simulator import EpiState, Simulation

from tests.episodes import constant_policy, ungated_series
from tests.test_population import community_edges, scan_community_contacts


def make_sim(pop_size=200, pop_infected=5, seed=1, int_cfg=None, **pop_kwargs) -> Simulation:
    pop_cfg = PopulationConfig(pop_size=pop_size, total_pop=float(pop_size),
                               pop_infected=float(pop_infected), **pop_kwargs)
    return Simulation(pop_cfg, DiseaseConfig(), int_cfg or InterventionConfig(), seed=seed)


class TestLockdown:
    def test_effective_beta_product(self):
        assert apply_lockdown(0.6, 0.005997) == pytest.approx(0.6 * 0.005997)
        assert apply_lockdown(0.5, 0.005997) == pytest.approx(0.0029985)

    def test_identity(self):
        assert apply_lockdown(1.0, 0.005997) == 0.005997

    def test_out_of_domain(self):
        # A lockdown level outside [0, 1] cannot be made into an Action.
        with pytest.raises(ActionDomainError):
            Action(1.2, 0.0, 0.0)
        with pytest.raises(ActionDomainError):
            Action(-0.1, 0.0, 0.0)
        with pytest.raises(ActionDomainError):
            Action(float("nan"), 0.0, 0.0)


class TestEncodeDecode:
    def test_first_and_last(self):
        assert encode_discrete(0) == Action(0.5, 0.0, 0.0)
        assert encode_discrete(63) == Action(0.875, 0.75, 0.75)

    def test_bijection_over_all_indices(self):
        grid = {Action(b, t, c) for b in BETA_LEVELS for t in TP_LEVELS for c in CTP_LEVELS}
        assert len(grid) == 64
        assert {encode_discrete(k) for k in range(64)} == grid

    def test_index_layout(self):
        assert encode_discrete(16) == Action(0.625, 0.0, 0.0)
        assert encode_discrete(4) == Action(0.5, 0.25, 0.0)
        assert encode_discrete(1) == Action(0.5, 0.0, 0.25)

    def test_out_of_range(self):
        for bad in (-1, 64, 100):
            with pytest.raises(ActionDomainError):
                encode_discrete(bad)


class TestTesting:
    def _symptomatic_sim(self, seed, n=100):
        """Whole population mild-symptomatic and undiagnosed, detection off."""
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0)
        sim = make_sim(pop_size=n, pop_infected=1, seed=seed, int_cfg=int_cfg)
        sim.state.epi_state[:] = EpiState.I_MILD
        sim.state.scheduled_day[:] = 10_000
        sim.state.next_state[:] = EpiState.RECOVERED
        return sim

    def test_zero_probability_means_zero_tests(self):
        sim = self._symptomatic_sim(0)
        new_tests, _ = run_testing(sim, 0.0)
        assert new_tests == 0
        assert (sim.state.test_pending_day == -1).all()

    @pytest.mark.slow
    def test_binomial_oracle_100_symptomatic(self):
        # 100 symptomatic agents at ch_tp = 0.75: mean tests within 3 sigma
        # of Binomial(100, 0.75) over 1000 replications.
        n_rep = 1000
        total = 0
        for seed in range(n_rep):
            sim = self._symptomatic_sim(seed)
            new_tests, _ = run_testing(sim, 0.75)
            total += new_tests
        mean = total / n_rep
        sigma = np.sqrt(100 * 0.75 * 0.25 / n_rep)
        assert abs(mean - 75.0) < 3 * sigma

    @settings(max_examples=60, deadline=None)
    @given(states=strat.lists(strat.sampled_from(list(EpiState)), min_size=30, max_size=30),
           diagnosed=strat.lists(strat.booleans(), min_size=30, max_size=30),
           pending=strat.lists(strat.booleans(), min_size=30, max_size=30),
           ch_tp=strat.floats(0.0, 1.0), factor=strat.floats(0.0, 1.0), seed=strat.integers(0, 1000))
    def test_hits_match_per_agent_probability_reference(self, states, diagnosed, pending, ch_tp, factor, seed):
        """Program tests hit exactly the eligible agents whose draw is below np.where(symptomatic, tp, tp * factor)."""
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0,
                                     asymptomatic_test_factor=factor)
        sim = make_sim(pop_size=30, pop_infected=1, seed=seed, int_cfg=int_cfg)
        st = sim.state
        st.epi_state[:] = states
        st.diagnosed_day[:] = np.where(diagnosed, 0, -1)
        st.test_pending_day[:] = np.where(pending, sim.day + 5, -1)
        before = st.test_pending_day.copy()

        stream = copy.deepcopy(sim.streams["testing"])
        epi = st.epi_state
        ids = np.flatnonzero((epi != EpiState.DEAD) & ~np.asarray(diagnosed) & ~np.asarray(pending))
        expected = np.empty(0, dtype=np.int64)
        if ch_tp > 0.0 and len(ids):
            symptomatic = (epi[ids] == EpiState.I_MILD) | (epi[ids] == EpiState.I_SEVERE)
            expected = ids[stream.random(len(ids)) < np.where(symptomatic, ch_tp, ch_tp * factor)]

        new_tests, _ = run_testing(sim, ch_tp)
        assert new_tests == len(expected)
        np.testing.assert_array_equal(np.flatnonzero(st.test_pending_day != before), expected)
        assert sim.streams["testing"].bit_generator.state == stream.bit_generator.state

    def test_asymptomatic_factor_scales_probability(self):
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0,
                                     asymptomatic_test_factor=0.0)
        sim = make_sim(pop_size=300, pop_infected=1, seed=3, int_cfg=int_cfg)
        # All susceptible (non-symptomatic): zero asymptomatic factor, no tests.
        sim.state.epi_state[:] = EpiState.SUSCEPTIBLE
        new_tests, _ = run_testing(sim, 1.0)
        assert new_tests == 0

    def test_positive_results_only_for_infected(self):
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0,
                                     test_delay=1, asymptomatic_test_factor=1.0)
        sim = make_sim(pop_size=10, pop_infected=1, seed=3, int_cfg=int_cfg, contacts_c=4.0)
        sim.state.epi_state[:] = EpiState.SUSCEPTIBLE
        sim.state.epi_state[3] = EpiState.EXPOSED
        sim.state.epi_state[4] = EpiState.RECOVERED
        sim.state.scheduled_day[:] = 10_000
        run_testing(sim, 1.0)
        assert (sim.state.test_pending_day[[3, 4]] == sim.day + 1).all()
        assert sim.state.test_positive[3]       # exposed agents test positive
        assert not sim.state.test_positive[4]   # recovered agents test negative

    def test_isolated_diagnosed_agent_with_zero_factor_infects_nobody(self):
        int_cfg = InterventionConfig(isolation_transmission_factor=0.0,
                                     symp_detection_prob=0.0, severe_detection_prob=0.0)
        pop_cfg = PopulationConfig(pop_size=50, total_pop=50.0, pop_infected=1.0, beta_initial=0.5)
        sim = Simulation(pop_cfg, DiseaseConfig(), int_cfg, seed=5)
        src = int(sim.seeded_ids[0])
        sim.state.epi_state[src] = EpiState.I_MILD
        sim.state.scheduled_day[src] = 10_000
        sim.state.diagnosed_day[src] = 0
        for _ in range(20):
            counts = sim.step_day(NULL_ACTION)
            assert counts.new_infections == 0


class TestTracing:
    def _household_sim(self, n=4):
        """One household of four (80+ ages: no school/work edges)."""
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0,
                                     trace_delay=2, quarantine_duration=14)
        pop_cfg = PopulationConfig(
            pop_size=n, total_pop=float(n), pop_infected=1.0,
            contacts_h=float(n - 1), contacts_c=0.01,
            age_pyramid=(0.0,) * 8 + (1.0,),
        )
        return Simulation(pop_cfg, DiseaseConfig(), int_cfg, seed=9)

    def test_zero_ctp_no_quarantines(self):
        sim = self._household_sim()
        assert run_tracing(sim, 0.0, np.array([0])) == 0
        assert (sim.state.quarantine_until == -1).all()

    def test_full_tracing_quarantines_all_household_contacts(self):
        sim = self._household_sim()
        new_q = run_tracing(sim, 1.0, np.array([0]))
        assert new_q == 3
        others = [1, 2, 3]
        assert (sim.state.quarantine_start[others] == sim.day + 2).all()
        assert (sim.state.quarantine_until[others] == sim.day + 2 + 14).all()

    def test_retrace_extends_without_double_count(self):
        sim = self._household_sim()
        assert run_tracing(sim, 1.0, np.array([0])) == 3
        first_until = sim.state.quarantine_until[1]
        sim.day = 5
        new_q = run_tracing(sim, 1.0, np.array([2]))
        # Agents 0, 1, 3 are contacts of 2; 1 and 3 already quarantined
        # (extended, not recounted); agent 0 is fresh.
        assert new_q == 1
        assert sim.state.quarantine_until[1] == 5 + 2 + 14 > first_until

    def test_quarantine_after_expiry_counts_again(self):
        sim = self._household_sim()
        run_tracing(sim, 1.0, np.array([0]))
        sim.day = 40  # all windows expired
        assert run_tracing(sim, 1.0, np.array([0])) == 3

    def test_community_contacts_traced_from_both_pair_directions(self):
        sim = make_sim(pop_size=200, seed=3)
        diagnosed = np.array([3, 17])
        # Offset 10 is full; offset 3 joins only the 30 agents from 185 on,
        # wrapping round to agent 14, each to the agent 3 after it. Agent 3
        # has both its offset-3 contacts (6 and 0), agent 17 only the one
        # at 14: 17 lies past the window, whose last agent 14 reaches it.
        sim.prev_community = CommunityDay(200, np.array([10, 3]), partial_edges=30, start=185)
        u, v, _ = community_edges(sim.prev_community)
        community = set()
        for agent in diagnosed:
            assert (u == agent).any() and (v == agent).any()
            community |= set(v[u == agent].tolist()) | set(u[v == agent].tolist())
        assert community == {13, 193, 6, 0} | {27, 7, 14}
        expected = set(community)
        for layer in sim.pop.layers.values():
            for agent in diagnosed:
                expected |= set(layer.contacts([agent])[1].tolist())
        new_q = run_tracing(sim, 1.0, diagnosed)
        assert new_q == len(expected)
        assert set(np.flatnonzero(sim.state.quarantine_start >= 0).tolist()) == expected

    def test_tracing_matches_brute_force_reference(self):
        sim = make_sim(pop_size=300, seed=4)
        rng = np.random.default_rng(11)
        sim.prev_community = CommunityDay.sample(300, *community_offsets(300, 7.3), rng)
        assert sim.prev_community.partial_edges
        diagnosed = np.sort(rng.choice(300, size=12, replace=False))

        # Candidates by layer, diagnosed agent and edge, then yesterday's
        # community contacts scanned from the day's full edge list.
        chunks = [layer.contacts([agent])[1] for layer in sim.pop.layers.values() for agent in diagnosed]
        community = scan_community_contacts(community_edges(sim.prev_community), diagnosed)
        assert len(community) > 0
        candidates = np.concatenate(chunks + [community])
        stream = copy.deepcopy(sim.streams["tracing"])
        identified = np.unique(candidates[stream.random(len(candidates)) < 0.5])

        new_q = run_tracing(sim, 0.5, diagnosed)
        assert new_q == len(identified) > 0
        np.testing.assert_array_equal(np.flatnonzero(sim.state.quarantine_start >= 0), identified)
        assert sim.streams["tracing"].bit_generator.state == stream.bit_generator.state

    def test_tracing_finds_the_community_infector(self):
        # Only the community layer transmits; one agent is held infectious.
        int_cfg = InterventionConfig(symp_detection_prob=0.0, severe_detection_prob=0.0)
        sim = make_sim(pop_size=300, seed=6, int_cfg=int_cfg, beta_initial=0.5, layer_weights=(0.0, 0.0, 0.0, 1.0))
        st = sim.state
        st.epi_state[:] = EpiState.SUSCEPTIBLE
        st.scheduled_day[:] = -1
        infector = 123
        st.epi_state[infector] = EpiState.I_MILD
        st.scheduled_day[infector] = 10_000
        st.next_state[infector] = EpiState.RECOVERED

        assert sim.step_day(NULL_ACTION).new_infections > 0
        static = set()
        for layer in sim.pop.layers.values():
            static |= set(layer.contacts([infector])[1].tolist())
        infected = [i for i in np.flatnonzero(st.epi_state == EpiState.EXPOSED).tolist() if i not in static]
        assert infected, "no infection that only the community layer explains"
        case = infected[0]
        # The case's result comes back today; tracing then reads yesterday's layer.
        st.test_pending_day[case] = sim.day
        st.test_positive[case] = True
        counts = sim.step_day(Action(1.0, 0.0, 1.0))
        assert counts.new_diagnoses == 1
        assert st.quarantine_start[infector] == sim.day - 1 + int_cfg.trace_delay

    def test_cq_counts_distinct_entries(self, small_cfg):
        policy = constant_policy(Action(1.0, 0.75, 0.75))
        series = ungated_series(small_cfg, n_days=80, seed=21, policy=policy)
        assert series[-1].cumulative_quarantined == sum(c.new_quarantined for c in series)
        assert series[-1].cumulative_tests == sum(c.new_tests for c in series)


class TestStreamDiscipline:
    def test_null_triple_equals_no_intervention_run(self, small_cfg):
        null_run = ungated_series(small_cfg, n_days=90, seed=31, policy=constant_policy(NULL_ACTION))
        sim = Simulation(small_cfg.population, small_cfg.disease, small_cfg.interventions, seed=31)
        no_intervention = [sim.step_day(NULL_ACTION) for _ in range(90)]
        assert null_run == no_intervention
        assert null_run[-1].cumulative_tests == 0
        assert null_run[-1].cumulative_quarantined == 0

    def test_same_ch_beta_zero_testing_matches_no_intervention(self, small_cfg):
        locked = constant_policy(Action(0.7, 0.0, 0.0))
        locked_null = ungated_series(small_cfg, n_days=90, seed=31, policy=locked)
        locked_ref = ungated_series(small_cfg, n_days=90, seed=31, policy=locked)
        assert locked_null == locked_ref
        assert locked_null[-1].cumulative_tests == 0
        assert locked_null[-1].cumulative_quarantined == 0

    def test_disabling_tracing_does_not_perturb_testing_stream(self, small_cfg):
        # Testing-only run and testing-plus-tracing run must administer the
        # same tests on the days before tracing has any effect.
        test_only = ungated_series(small_cfg, n_days=12, seed=8, policy=constant_policy(Action(1.0, 0.5, 0.0)))
        test_trace = ungated_series(small_cfg, n_days=12, seed=8, policy=constant_policy(Action(1.0, 0.5, 1.0)))
        # Until the first diagnosis day there are no traced quarantines, so
        # the two runs agree exactly.
        first_diag = next((c.day for c in test_only if c.new_diagnoses), None)
        if first_diag is not None:
            assert test_only[:first_diag] == test_trace[:first_diag]
