"""Reward formulas against hand evaluations and an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epictrl.config import RewardWeights
from epictrl.interventions import Action
from epictrl.rewards import (
    action_penalty,
    combine,
    daily_reward,
    economic_loss,
    economic_reward,
    health_reward,
)
from epictrl.simulator import DailyCounts


def make_counts(**kwargs) -> DailyCounts:
    base = dict(
        day=0, S=0, E=0, I=0, R=0, D=0,
        new_infections=0, new_severe=0, new_deaths=0, new_recovered=0,
        new_tests=0, new_quarantined=0, new_diagnoses=0,
        cumulative_tests=0, cumulative_quarantined=0, cumulative_diagnoses=0,
        currently_infected=0, currently_quarantined=0, cumulative_dead=0,
    )
    base.update(kwargs)
    return DailyCounts(**base)


class TestHealthReward:
    def test_all_flows_zero(self):
        assert health_reward(make_counts(), RewardWeights()) == 0.0

    def test_hand_evaluation(self):
        w = RewardWeights(omega1=1, omega2=1, omega3=1)
        counts = make_counts(new_recovered=10, new_infections=4, new_severe=2, new_deaths=1)
        assert health_reward(counts, w) == pytest.approx(3.0)

    def test_single_death_dominates(self):
        w = RewardWeights(omega3=100)
        counts = make_counts(new_deaths=1)
        assert health_reward(counts, w) == pytest.approx(-100.0)

    @given(scale=st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_flows(self, scale):
        w = RewardWeights()
        base = make_counts(new_recovered=3, new_infections=2, new_severe=1, new_deaths=1)
        scaled = make_counts(
            new_recovered=3 * scale, new_infections=2 * scale,
            new_severe=scale, new_deaths=scale,
        )
        assert health_reward(scaled, w) == pytest.approx(scale * health_reward(base, w))


class TestEconomicReward:
    def test_contribution_arithmetic(self):
        w = RewardWeights()
        counts = make_counts(currently_infected=100, currently_quarantined=50, cumulative_dead=10)
        r_e, _ = economic_reward(counts, Action(1.0, 0, 0), w, pop_size=10_000)
        assert r_e == pytest.approx(9840.0)  # C_E = P - M_I - M_Q - M_D

    def test_no_lockdown_no_beta_cost(self):
        w = RewardWeights()
        r_full, _ = economic_reward(make_counts(), Action(1.0, 0, 0), w, pop_size=10_000)
        assert r_full == pytest.approx(10_000.0)

    def test_lockdown_cost_arithmetic(self):
        w = RewardWeights(mu4=1.0)
        r_open, _ = economic_reward(make_counts(), Action(1.0, 0, 0), w, 10_000)
        r_lock, _ = economic_reward(make_counts(), Action(0.6, 0, 0), w, 10_000)
        assert r_open - r_lock == pytest.approx(4000.0)  # C_beta = P * (1 - 0.6)

    def test_scaling_default_matches_reference_population(self):
        # Default scale is pop_size/100, i.e. exactly 100 at 10,000 agents.
        w = RewardWeights()
        assert w.effective_scale(10_000) == pytest.approx(100.0)
        r_e, r_scaled = economic_reward(make_counts(), Action(1.0, 0, 0), w, 10_000)
        assert r_scaled == pytest.approx(100.0 * r_e / 10_000)

    def test_explicit_scale_override(self):
        w = RewardWeights(economic_scale=7.0)
        r_e, r_scaled = economic_reward(make_counts(), Action(1.0, 0, 0), w, 2_000)
        assert r_scaled == pytest.approx(7.0 * r_e / 2_000)


class TestActionPenalty:
    def test_identical_actions(self):
        a = Action(0.7, 0.3, 0.4)
        assert action_penalty(a, a) == 0.0

    def test_single_component_difference(self):
        a = Action(0.7, 0.3, 0.4)
        b = Action(1.0, 0.3, 0.4)  # d = 0.3
        assert action_penalty(b, a) == pytest.approx(-10.0)

    def test_boundary_is_in_else_branch(self):
        # 0.2 - 0.0 is exactly the float literal 0.2, so d == 0.2 exactly.
        a = Action(0.7, 0.0, 0.4)
        b = Action(0.7, 0.2, 0.4)
        assert action_penalty(b, a) == 0.0

    def test_componentwise_sum(self):
        a = Action(0.5, 0.0, 0.0)
        b = Action(1.0, 0.5, 0.1)  # d = (0.5, 0.5, 0.1)
        assert action_penalty(b, a) == pytest.approx(-30.0 - 30.0 + 0.0)

    def test_returns_python_float(self):
        a = Action(0.5, 0.0, 0.0)
        assert type(action_penalty(a, a)) is float
        assert type(action_penalty(Action(1.0, 0.5, 0.1), a)) is float

    @given(d=st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_piecewise_linear_continuity(self, d):
        # Continuous at the kink: value tends to 0 as d -> 0.2 from above.
        a = Action(0.5, 0.3, 0.3)
        b = Action(min(1.0, 0.5 + d), 0.3, 0.3)
        expected = -100.0 * (b.ch_beta - 0.5 - 0.2) if (b.ch_beta - 0.5) > 0.2 else 0.0
        assert action_penalty(b, a) == pytest.approx(expected, abs=1e-12)


class TestCombine:
    def test_discrete_combination(self):
        w = RewardWeights(lambda1=1, lambda2=1, lambda3=1)
        assert combine(3.0, 2.0, w) == pytest.approx(5.0)

    def test_continuous_adds_penalty(self):
        w = RewardWeights(lambda1=1, lambda2=1, lambda3=1)
        assert combine(3.0, 2.0, w) + w.lambda3 * -10.0 == pytest.approx(-5.0)

    def test_zero_weights(self):
        w = RewardWeights(lambda1=0, lambda2=0, lambda3=0)
        assert combine(123.0, -77.0, w) + w.lambda3 * -10.0 == 0.0


class TestEconomicLoss:
    def test_null_day_loses_nothing(self):
        w = RewardWeights()
        r_e, _ = economic_reward(make_counts(), Action(1.0, 0, 0), w, 10_000)
        assert economic_loss(r_e, w, 10_000) == 0.0

    def test_full_stop(self):
        assert economic_loss(0.0, RewardWeights(), 10_000) == pytest.approx(1.0)

    def test_published_loss_scale(self):
        w = RewardWeights(mu1=1.0)
        assert economic_loss(6199.0, w, 10_000) == pytest.approx(0.3801)

    def test_bounds_without_intervention_costs(self):
        w = RewardWeights(mu2=0.0, mu3=0.0, mu4=0.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = 1000
            m = rng.integers(0, p, size=3)
            while m.sum() > p:
                m = rng.integers(0, p, size=3)
            counts = make_counts(
                currently_infected=int(m[0]), currently_quarantined=int(m[1]), cumulative_dead=int(m[2])
            )
            r_e, _ = economic_reward(counts, Action(1.0, 0, 0), w, p)
            assert 0.0 <= economic_loss(r_e, w, p) <= 1.0

    def test_general_bound_with_intervention_costs(self):
        # With non-negative costs and M_I + M_Q + M_D <= P, the loss lies in
        # [0, 1 + (mu2*C_T + mu3*C_Q + mu4*C_beta) / (mu1*P)].
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = 1000
            m = rng.integers(0, p, size=3)
            while m.sum() > p:
                m = rng.integers(0, p, size=3)
            w = RewardWeights(mu1=float(rng.uniform(0.5, 2)), mu2=float(rng.uniform(0, 2)),
                              mu3=float(rng.uniform(0, 2)), mu4=float(rng.uniform(0, 2)))
            counts = make_counts(
                currently_infected=int(m[0]), currently_quarantined=int(m[1]),
                cumulative_dead=int(m[2]),
                new_tests=int(rng.integers(0, 200)), new_quarantined=int(rng.integers(0, 200)),
            )
            action = Action(float(rng.uniform(0, 1)), 0.0, 0.0)
            r_e, _ = economic_reward(counts, action, w, p)
            cost_total = (w.mu2 * w.cost_per_test * counts.new_tests
                          + w.mu3 * w.quarantine_processing_cost * counts.new_quarantined
                          + w.mu4 * p * (1 - action.ch_beta))
            upper = 1.0 + cost_total / (w.mu1 * p)
            assert 0.0 <= economic_loss(r_e, w, p) <= upper + 1e-12


def _oracle(counts, action, w, pop, prev_action=None, continuous=False):
    """Independent straight-line transcription of the reward formulas."""
    n_r, n_i, n_s, n_d = counts.new_recovered, counts.new_infections, counts.new_severe, counts.new_deaths
    r_h = n_r - w.omega1 * n_i - w.omega2 * n_s - w.omega3 * n_d

    p = float(pop)
    c_e = p - counts.currently_infected - counts.currently_quarantined - counts.cumulative_dead
    c_beta = p * (1.0 - action.ch_beta)
    c_t = w.cost_per_test * counts.new_tests
    c_q = w.quarantine_processing_cost * counts.new_quarantined
    r_e = w.mu1 * c_e - w.mu2 * c_t - w.mu3 * c_q - w.mu4 * c_beta
    kappa = w.economic_scale if w.economic_scale is not None else p / 100.0
    r_e_scaled = kappa * r_e / p

    r_p = None
    if continuous:
        r_p = 0.0
        for x, y in zip(
            (action.ch_beta, action.ch_tp, action.ch_ctp),
            (prev_action.ch_beta, prev_action.ch_tp, prev_action.ch_ctp),
        ):
            d = abs(x - y)
            if d > 0.2:
                r_p += -100.0 * (d - 0.2)

    total = w.lambda1 * r_h + w.lambda2 * r_e_scaled
    if r_p is not None:
        total += w.lambda3 * r_p
    l_e = (w.mu1 * p - r_e) / (w.mu1 * p)
    return r_h, r_e, r_e_scaled, r_p, total, l_e


def random_tuple(rng):
    counts = make_counts(
        new_infections=int(rng.integers(0, 200)),
        new_severe=int(rng.integers(0, 40)),
        new_deaths=int(rng.integers(0, 20)),
        new_recovered=int(rng.integers(0, 200)),
        new_tests=int(rng.integers(0, 500)),
        new_quarantined=int(rng.integers(0, 300)),
        currently_infected=int(rng.integers(0, 3000)),
        currently_quarantined=int(rng.integers(0, 2000)),
        cumulative_dead=int(rng.integers(0, 500)),
    )
    action = Action(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
    prev = Action(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
    weights = RewardWeights(
        lambda1=float(rng.uniform(-2, 2)),
        lambda2=float(rng.uniform(-2, 2)),
        lambda3=float(rng.uniform(-2, 2)),
        omega1=float(rng.uniform(0, 10)),
        omega2=float(rng.uniform(0, 10)),
        omega3=float(rng.uniform(0, 200)),
        mu1=float(rng.uniform(0.1, 3)),
        mu2=float(rng.uniform(0, 2)),
        mu3=float(rng.uniform(0, 2)),
        mu4=float(rng.uniform(0, 2)),
        economic_scale=float(rng.uniform(1, 200)) if rng.random() < 0.5 else None,
        cost_per_test=float(rng.uniform(0, 3)),
        quarantine_processing_cost=float(rng.uniform(0, 3)),
    )
    pop = int(rng.integers(1000, 100_000))
    return counts, action, prev, weights, pop


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_oracle_equivalence_1000_tuples():
    rng = np.random.default_rng(42)
    for k in range(1000):
        counts, action, prev, w, pop = random_tuple(rng)
        continuous = k % 2 == 0
        o_rh, o_re, o_scaled, o_rp, o_total, o_le = _oracle(counts, action, w, pop, prev, continuous)

        assert rel_close(health_reward(counts, w), o_rh)
        r_e, r_scaled = economic_reward(counts, action, w, pop)
        assert rel_close(r_e, o_re)
        assert rel_close(r_scaled, o_scaled)
        r_p = action_penalty(action, prev) if continuous else None
        if continuous:
            assert rel_close(r_p, o_rp)
        total = combine(health_reward(counts, w), r_scaled, w) + (w.lambda3 * r_p if continuous else 0.0)
        assert rel_close(total, o_total)
        assert rel_close(economic_loss(r_e, w, pop), o_le)


def test_daily_reward_bundles_components(small_cfg):
    w = small_cfg.rewards
    counts = make_counts(new_recovered=5, new_deaths=1, currently_infected=20)
    out = daily_reward(counts, Action(0.8, 0.2, 0.1), w, small_cfg.population.pop_size)
    assert out.combined == pytest.approx(combine(out.r_h, out.r_e_scaled, w))
