"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavy training criteria share one small-population configuration:
2,000 agents, pop_scale 1, ten seeded infections, default reward weights.
"""

import io
import time

import numpy as np
import pytest

from epictrl.agents import train
from epictrl.agents.ppo import PPOAgent, clipped_surrogate, compute_gae
from epictrl.agents.replay import PrioritizedBuffer
from epictrl.analysis import estimate_rt
from epictrl.baselines import null_policy, seven_work_seven_lockdown, uk_approximation_schedule
from epictrl.calibration import (
    CalibrationSpec,
    _evaluate_trial,
    mean_series,
    search,
    simulate_observed,
)
from epictrl.config import FullConfig, PpoConfig, RewardWeights
from epictrl.env import EpidemicEnv, evaluate
from epictrl.interventions import BETA_LEVELS, CTP_LEVELS, TP_LEVELS, Action, NULL_ACTION, encode_discrete

from tests.episodes import constant_policy, ungated_series
from tests.test_agents_ppo import finite_difference_grads, gae_bruteforce, make_batch, tiny_agent
from tests.test_rewards import _oracle, make_counts, random_tuple, rel_close


def verdict(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def acceptance_cfg() -> FullConfig:
    cfg = FullConfig()
    cfg.population.pop_size = 2000
    cfg.population.total_pop = 2000.0  # pop_scale 1
    cfg.population.pop_infected = 10.0  # ten seeded agents
    return cfg


# -- 1: conservation & determinism ------------------------------------------


def test_criterion_1_conservation_and_determinism():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    detail = ""
    for case in range(20):
        cfg = acceptance_cfg()
        cfg.population.beta_initial = float(rng.uniform(0.002, 0.02))
        cfg.population.contacts_c = float(rng.uniform(5, 25))
        cfg.population.pop_infected = float(rng.integers(1, 30))
        cfg.interventions.symp_detection_prob = float(rng.uniform(0.0, 0.15))
        n_days = int(rng.integers(30, 70))
        seed = int(rng.integers(0, 2**31))
        policy = constant_policy(Action(0.8, 0.4, 0.4) if case % 2 else NULL_ACTION)

        a = ungated_series(cfg, n_days, seed, policy)
        b = ungated_series(cfg, n_days, seed, policy)

        conserved = all(c.S + c.E + c.I + c.R + c.D == cfg.population.pop_size for c in a)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        for buf, series in ((buf_a, a), (buf_b, b)):
            for c in series:
                buf.write(repr(c))
        identical = buf_a.getvalue() == buf_b.getvalue() and a == b
        if not (conserved and identical):
            ok = False
            detail = f"case {case}: conserved={conserved} identical={identical}"
            break
    runtime = time.time() - t0
    verdict(1, "conservation & determinism", ok and runtime < 60,
            detail or f"20 paired runs in {runtime:.1f}s")


# -- 2: reward oracle ---------------------------------------------------------


def test_criterion_2_reward_oracle():
    from epictrl.rewards import action_penalty, daily_reward, economic_loss

    t0 = time.time()
    rng = np.random.default_rng(777)
    ok = True
    detail = ""
    for k in range(1000):
        counts, action, prev, w, pop = random_tuple(rng)
        continuous = k % 2 == 0
        o_rh, o_re, o_scaled, o_rp, o_total, o_le = _oracle(counts, action, w, pop, prev, continuous)
        out = daily_reward(counts, action, w, pop)
        r_p = action_penalty(action, prev) if continuous else None
        total = out.combined + (w.lambda3 * r_p if continuous else 0.0)
        l_e = economic_loss(out.r_e, w, pop)
        checks = [rel_close(out.r_h, o_rh), rel_close(out.r_e, o_re), rel_close(out.r_e_scaled, o_scaled),
                  rel_close(total, o_total), rel_close(l_e, o_le)]
        if continuous:
            checks.append(rel_close(r_p, o_rp))
        if not all(checks):
            ok = False
            detail = f"tuple {k} diverged"
            break

    # Boundary cases: penalty at d = 0.2 exactly, and the Eq. 6 null day.
    boundary = action_penalty(Action(0.7, 0.2, 0.4), Action(0.7, 0.0, 0.4)) == 0.0
    w = RewardWeights()
    r_e = daily_reward(make_counts(), Action(1.0, 0, 0), w, 2000).r_e
    null_case = economic_loss(r_e, w, 2000) == 0.0
    runtime = time.time() - t0
    verdict(2, "reward oracle", ok and boundary and null_case and runtime < 10,
            detail or f"1000 tuples, boundary and null exact, {runtime:.1f}s")


# -- 3: PER sampling law -----------------------------------------------------


def test_criterion_3_per_sampling_law():
    t0 = time.time()

    def frequencies(alpha: float) -> np.ndarray:
        buf = PrioritizedBuffer(capacity=4, obs_dim=2, alpha=alpha, beta=0.4)
        for _ in range(3):
            buf.add(np.zeros(2), 0, 0.0, np.zeros(2), False)
        buf.priorities[:3] = np.array([1.0, 2.0, 4.0])
        rng = np.random.default_rng(31337)
        counts = np.zeros(3)
        for _ in range(1000):
            counts += np.bincount(buf.sample(100, rng)["indices"], minlength=3)
        return counts / counts.sum()

    p = np.array([1.0, 2.0, 4.0]) ** 0.6
    expected = p / p.sum()
    err_prop = np.abs(frequencies(0.6) - expected).max()
    err_unif = np.abs(frequencies(0.0) - 1 / 3).max()
    runtime = time.time() - t0
    verdict(3, "PER sampling law",
            err_prop < 0.02 and err_unif < 0.02 and runtime < 30,
            f"max dev alpha=0.6: {err_prop:.4f}, alpha=0: {err_unif:.4f}, {runtime:.1f}s")


# -- 4: PPO machinery ---------------------------------------------------------


def test_criterion_4_ppo_machinery():
    t0 = time.time()
    clip_ok = True
    for rho in (0.5, 0.8, 1.0, 1.25, 2.0):
        for adv in (-1.0, 1.0):
            got = clipped_surrogate(np.array([rho]), np.array([adv]), 0.2)[0]
            expected = min(rho * adv, min(max(rho, 0.8), 1.2) * adv)
            clip_ok &= got == expected

    gae_ok = True
    rng = np.random.default_rng(11)
    for _ in range(100):
        r, v = rng.normal(size=19), rng.normal(size=19)
        dones = (rng.random(19) < 0.15).astype(float)
        dones[-1] = 1.0
        gamma, lam = float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.0, 1.0))
        last = float(rng.normal())
        adv, _ = compute_gae(r, v, dones, gamma, lam, last)
        ref = gae_bruteforce(r, v, dones, gamma, lam, last)
        gae_ok &= bool(np.allclose(adv, ref, rtol=1e-9, atol=1e-9))

    grad_ok = True
    grad_detail = []
    for space in ("continuous", "discrete"):
        agent = tiny_agent(space)
        batch = make_batch(agent, space)
        _, grads, _ = agent.loss_and_grads(*batch)
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = finite_difference_grads(agent, batch)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        grad_ok &= rel < 1e-4
        grad_detail.append(f"{space}: {rel:.2e}")

    runtime = time.time() - t0
    verdict(4, "PPO machinery", clip_ok and gae_ok and grad_ok and runtime < 60,
            f"clip exact, GAE<=1e-9, grad rel {', '.join(grad_detail)}, {runtime:.1f}s")


# -- 5: environment shape ------------------------------------------------------


def test_criterion_5_environment_shape():
    t0 = time.time()
    cfg = acceptance_cfg()
    env = EpidemicEnv(cfg)
    env.reset(5)
    steps = 0
    pre_activation_applied = []
    done = False
    while not done:
        _, _, done, info = env.step(Action(0.5, 0.75, 0.75))
        if not info["activated"]:
            pre_activation_applied.append(info["applied_action"])
        steps += 1
    shape_ok = steps == 19
    gating_ok = len(pre_activation_applied) > 0 and all(
        a == NULL_ACTION for a in pre_activation_applied
    )
    # The 64 indices map onto 64 distinct triples of the grid.
    grid = {Action(b, t, c) for b in BETA_LEVELS for t in TP_LEVELS for c in CTP_LEVELS}
    bijection_ok = len(grid) == 64 and {encode_discrete(k) for k in range(64)} == grid
    runtime = time.time() - t0
    verdict(5, "environment shape",
            shape_ok and gating_ok and bijection_ok and runtime < 10,
            f"steps={steps}, null prefix len {len(pre_activation_applied)}, {runtime:.1f}s")


# -- 6: calibration recovery ---------------------------------------------------

TRUE_BETA = 0.006


@pytest.mark.slow
def test_criterion_6_calibration_recovery():
    t0 = time.time()
    cfg = acceptance_cfg()
    cfg.population.beta_initial = TRUE_BETA
    policy = uk_approximation_schedule()
    n_days = 100

    observed = mean_series(simulate_observed(cfg, policy, n_days, [1000, 1001, 1002]))

    spec = CalibrationSpec(pop_infected_range=(2, 40), beta_range=(0.002, 0.015),
                           trials=100, replications=3, seed=7)
    result = search(spec, observed, cfg, policy=policy, n_days=n_days)
    recovered = abs(result.best.beta_initial - TRUE_BETA) <= 0.25 * TRUE_BETA

    rng = np.random.default_rng(99)
    random_losses = []
    for t in range(100):
        pi = float(rng.uniform(*spec.pop_infected_range))
        b = float(rng.uniform(*spec.beta_range))
        trial = _evaluate_trial(t, pi, b, spec, observed, cfg, policy, n_days)
        random_losses.append(trial.loss)
    beats_random = result.best.loss <= np.percentile(random_losses, 10)

    runtime = time.time() - t0
    verdict(6, "calibration recovery", recovered and beats_random and runtime <= 600,
            f"beta {result.best.beta_initial:.5f} (true {TRUE_BETA}), "
            f"loss {result.best.loss:.4f} vs random p10 "
            f"{np.percentile(random_losses, 10):.4f}, {runtime:.0f}s")


# -- 7 & 8: training criteria ---------------------------------------------------

EVAL_SEEDS = list(range(200, 210))
PPO_EPISODES = 400
PPO_IMPROVEMENT_EPISODES = 250
DQN_IMPROVEMENT_EPISODES = 400  # epsilon anneals over the first half


@pytest.fixture(scope="module")
def trained_ppo_policy():
    cfg = acceptance_cfg()
    cfg.env.action_space_kind = "continuous"
    result = train(lambda: EpidemicEnv(cfg), "ppo", "continuous", cfg,
                   total_episodes=PPO_EPISODES, seed=11)
    return result.agent, cfg


@pytest.mark.slow
def test_criterion_7_policy_vs_baseline_orderings(trained_ppo_policy):
    t0 = time.time()
    policy, cfg = trained_ppo_policy
    env = EpidemicEnv(cfg)
    duration = cfg.disease.infectious_mean

    runs = {
        name: evaluate(pol, env, EVAL_SEEDS)
        for name, pol in (
            ("ppo", policy),
            ("7w7l", seven_work_seven_lockdown()),
            ("none", null_policy()),
            ("uk", uk_approximation_schedule()),
        )
    }

    def crossing_day(ep) -> float:
        day = estimate_rt(ep.series, duration).first_below_one()
        return np.inf if day is None else day

    inf = {k: np.array([ep.cumulative_infections for ep in eps], dtype=float) for k, eps in runs.items()}
    loss = {k: np.array([100.0 * ep.mean_economic_loss for ep in eps]) for k, eps in runs.items()}
    cross = {k: np.array([crossing_day(ep) for ep in eps], dtype=float) for k, eps in runs.items()}

    a_pairs = int(((inf["ppo"] < inf["7w7l"]) & (inf["7w7l"] < inf["none"])).sum())
    a_mean = inf["ppo"].mean() < inf["7w7l"].mean() < inf["none"].mean()
    b_pairs = int((loss["ppo"] < loss["7w7l"]).sum())
    b_mean = loss["ppo"].mean() < loss["7w7l"].mean()
    c_pairs = int((cross["ppo"] < cross["uk"]).sum())

    ok = a_pairs >= 8 and a_mean and b_pairs >= 8 and b_mean and c_pairs >= 8
    runtime = time.time() - t0
    verdict(7, "policy-vs-baseline ordering", ok and runtime <= 3600,
            f"infections {inf['ppo'].mean():.0f} < {inf['7w7l'].mean():.0f} < "
            f"{inf['none'].mean():.0f} ({a_pairs}/10 seeds); "
            f"loss {loss['ppo'].mean():.1f}% < {loss['7w7l'].mean():.1f}% ({b_pairs}/10); "
            f"Rt crossing earlier in {c_pairs}/10; {runtime:.0f}s + training")


@pytest.mark.slow
def test_criterion_8_training_improvement():
    t0 = time.time()

    def improved(curve) -> bool:
        c = np.asarray(curve)
        return c[-50:].mean() > c[:50].mean()

    ppo_wins = 0
    for seed in range(5):
        cfg = acceptance_cfg()
        cfg.env.action_space_kind = "continuous"
        result = train(lambda: EpidemicEnv(cfg), "ppo", "continuous", cfg,
                       total_episodes=PPO_IMPROVEMENT_EPISODES, seed=100 + seed)
        ppo_wins += improved(result.curve)

    dqn_wins = 0
    for seed in range(5):
        cfg = acceptance_cfg()
        cfg.env.action_space_kind = "discrete"
        result = train(lambda: EpidemicEnv(cfg), "dqn", "discrete", cfg,
                       total_episodes=DQN_IMPROVEMENT_EPISODES, seed=100 + seed)
        dqn_wins += improved(result.curve)

    runtime = time.time() - t0
    verdict(8, "training improvement",
            ppo_wins >= 4 and dqn_wins >= 3 and runtime <= 3600,
            f"PPO improved in {ppo_wins}/5 seeds, DQN in {dqn_wins}/5, {runtime:.0f}s")


# -- 9: R_t estimator properties -------------------------------------------------


def test_criterion_9_rt_estimator_properties():
    t0 = time.time()
    cfg = acceptance_cfg()

    # Zero transmission: seeded agents become infectious but infect nobody.
    zero_cfg = acceptance_cfg()
    zero_cfg.population.beta_initial = 0.0
    series = ungated_series(zero_cfg, n_days=40, seed=3)
    rt_zero = estimate_rt(series, cfg.disease.infectious_mean)
    zero_ok = len(rt_zero.values) > 0 and all(v == 0.0 for v in rt_zero.values)

    # Engineered steady state: 10 new infections per day, 80 infectious, 8-day duration.
    steady = [make_counts(day=d, I=80, new_infections=10) for d in range(30)]
    rt_steady = estimate_rt(steady, 8.0)
    steady_ok = all(abs(v - 1.0) <= 1e-9 for v in rt_steady.values)

    # Uncontrolled growth phase: at least 5 consecutive estimates above 1.
    growth = ungated_series(cfg, n_days=60, seed=3)
    rt_growth = estimate_rt(growth, cfg.disease.infectious_mean)
    best = run = 0
    for v in rt_growth.values:
        run = run + 1 if v > 1.0 else 0
        best = max(best, run)
    growth_ok = best >= 5

    runtime = time.time() - t0
    verdict(9, "R_t estimator properties",
            zero_ok and steady_ok and growth_ok and runtime < 60,
            f"zero exact, steady |err|<=1e-9, {best} consecutive >1, {runtime:.1f}s")
