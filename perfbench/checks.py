"""Output checks that hold for every correct run, whatever the seed.

They are written from the model's definitions, not from recorded outputs:
stock/flow balances of the daily series, clique structure of the static
contact layers, and the reward formula, transcribed here independently of
``epictrl.rewards``. Each check returns a list of problems; empty means it
passed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

# Static layer name -> Population attribute holding each agent's group id.
GROUP_IDS = {"household": "household_id", "school": "school_id", "work": "work_id"}

# Pairs of stocks whose exchange of one agent every series check must catch.
# EXPOSED <-> infectious is left out: DailyCounts reports no flow between
# them, so the series cannot show such a move.
CORRUPTIONS = (("S", "E"), ("E", "S"), ("S", "I"), ("I", "R"), ("E", "R"), ("R", "D"), ("S", "R"), ("D", "S"))

FLOW_TOTALS = (
    ("cumulative_tests", "new_tests"),
    ("cumulative_quarantined", "new_quarantined"),
    ("cumulative_diagnoses", "new_diagnoses"),
)


def series_hash(series) -> str:
    return hashlib.sha256(repr(series).encode()).hexdigest()


def check_series(series, pop_size: int, n_seeded: int, n_days: int) -> list[str]:
    """Conservation and stock/flow balance of one episode's DailyCounts.

    Before day 0 the stocks are S = pop_size - n_seeded, E + I = n_seeded and
    R = D = 0, and every cumulative counter is 0. Each day S loses the new
    infections, E + I gains them and loses the new recoveries and deaths, R
    gains the recoveries and D the deaths.
    """
    problems: list[str] = []
    if len(series) != n_days:
        return [f"series has {len(series)} days, expected {n_days}"]
    s, ei, r, d = pop_size - n_seeded, n_seeded, 0, 0
    running = {total: 0 for total, _ in FLOW_TOTALS}
    for t, c in enumerate(series):
        s -= c.new_infections
        ei += c.new_infections - c.new_recovered - c.new_deaths
        r += c.new_recovered
        d += c.new_deaths
        found = []
        if c.day != t:
            found.append(f"day field {c.day}")
        if c.S + c.E + c.I + c.R + c.D != pop_size:
            found.append(f"S+E+I+R+D = {c.S + c.E + c.I + c.R + c.D} != {pop_size}")
        if c.currently_infected != c.E + c.I:
            found.append(f"currently_infected {c.currently_infected} != E+I {c.E + c.I}")
        if c.cumulative_dead != c.D:
            found.append(f"cumulative_dead {c.cumulative_dead} != D {c.D}")
        if (c.S, c.E + c.I, c.R, c.D) != (s, ei, r, d):
            found.append(f"stocks (S, E+I, R, D) = {(c.S, c.E + c.I, c.R, c.D)}, flows give {(s, ei, r, d)}")
        for total, flow in FLOW_TOTALS:
            running[total] += getattr(c, flow)
            if getattr(c, total) != running[total]:
                found.append(f"{total} {getattr(c, total)} != running sum of {flow} {running[total]}")
        problems.extend(f"day {t}: {p}" for p in found)
    infected = pop_size - series[-1].S
    seeded_plus_new = n_seeded + sum(c.new_infections for c in series)
    if infected != seeded_plus_new:
        problems.append(f"pop_size - S_final = {infected} != seeded + new infections = {seeded_plus_new}")
    return problems


def check_checker(series, pop_size: int, n_seeded: int) -> list[str]:
    """check_series must reject the series with one agent moved on one day."""
    problems = []
    mid = len(series) // 2
    for src, dst in CORRUPTIONS:
        day = series[mid]
        bad = dataclasses.replace(day, **{src: getattr(day, src) - 1, dst: getattr(day, dst) + 1})
        corrupted = series[:mid] + [bad] + series[mid + 1:]
        if not check_series(corrupted, pop_size, n_seeded, len(series)):
            problems.append(f"series check accepted one agent moved {src} -> {dst} on day {mid}")
    return problems


def check_population(pop) -> list[str]:
    """Static layers are exactly the within-group cliques of the group ids.

    Each layer must hold sum over groups of k(k-1) directed edges, where k is
    the group's size from the agents' group ids, and every edge must join two
    distinct agents of one group.
    """
    problems = []
    for name, attr in GROUP_IDS.items():
        gid = np.asarray(getattr(pop, attr), dtype=np.int64)
        layer = pop.layers[name]
        k = np.bincount(gid[gid >= 0])
        expected = int((k * (k - 1)).sum())
        if len(layer.src) != expected or len(layer.dst) != expected:
            problems.append(f"{name}: {len(layer.src)} edges, group sizes give {expected}")
        gs, gd = gid[layer.src], gid[layer.dst]
        if (layer.src == layer.dst).any():
            problems.append(f"{name}: self-loop")
        if (gs < 0).any() or (gs != gd).any():
            problems.append(f"{name}: edge between agents of different groups")
    return problems


def daily_reward(c, action, w, pop_size: int) -> float:
    """One day's health + scaled economic reward (no action-change term)."""
    p = float(pop_size)
    r_h = c.new_recovered - w.omega1 * c.new_infections - w.omega2 * c.new_severe - w.omega3 * c.new_deaths
    contribution = p - c.currently_infected - c.currently_quarantined - c.cumulative_dead
    r_e = (
        w.mu1 * contribution
        - w.mu2 * w.cost_per_test * c.new_tests
        - w.mu3 * w.quarantine_processing_cost * c.new_quarantined
        - w.mu4 * p * (1.0 - action.ch_beta)
    )
    scale = w.economic_scale if w.economic_scale is not None else p / 100.0
    return w.lambda1 * r_h + w.lambda2 * scale * r_e / p


def change_penalty(action, previous) -> float:
    """-100 per unit of each component's change beyond a 0.2 deadband."""
    pairs = zip((action.ch_beta, action.ch_tp, action.ch_ctp), (previous.ch_beta, previous.ch_tp, previous.ch_ctp))
    return -sum(100.0 * (abs(a - b) - 0.2) for a, b in pairs if abs(a - b) > 0.2)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_training(episodes, curve, n_episodes: int, n_seeded: int, cfg, null_action) -> list[str]:
    """Per-step rewards, gating, curve and episode shape of one training run.

    ``episodes`` holds, per episode, the ``(reward, done, info)`` of each
    step, as the environment returned them.
    """
    problems = []
    env_cfg, w, pop_size = cfg.env, cfg.rewards, cfg.population.pop_size
    n_steps = -(-env_cfg.episode_days // env_cfg.step_days)
    if len(curve) != n_episodes or len(episodes) != n_episodes:
        return [f"{len(curve)} curve values and {len(episodes)} episodes, expected {n_episodes}"]
    if not all(math.isfinite(v) for v in curve):
        problems.append("non-finite value in the learning curve")
    continuous = env_cfg.action_space_kind == "continuous"
    for e, steps in enumerate(episodes):
        if len(steps) != n_steps or [done for _, done, _ in steps] != [False] * (n_steps - 1) + [True]:
            problems.append(f"episode {e}: {len(steps)} steps or misplaced done, expected {n_steps}")
            continue
        previous, diagnoses, total = null_action, 0, 0.0
        for s, (reward, _, info) in enumerate(steps):
            applied = info["applied_action"]
            activated = diagnoses >= env_cfg.activation_threshold
            if info["activated"] != activated or (not activated and applied != null_action):
                problems.append(f"episode {e} step {s}: gating wrong at {diagnoses} diagnoses")
            expected = sum(daily_reward(c, applied, w, pop_size) for c in info["week_counts"])
            if continuous:
                expected += w.lambda3 * change_penalty(applied, previous)
            if not math.isfinite(reward) or not close(reward, expected):
                problems.append(f"episode {e} step {s}: reward {float(reward)!r}, formula gives {expected!r}")
            previous, diagnoses = applied, info["week_counts"][-1].cumulative_diagnoses
            total += reward
        if not close(curve[e], total):
            problems.append(f"episode {e}: curve value {float(curve[e])!r} != sum of step rewards {float(total)!r}")
        series = [c for _, _, info in steps for c in info["week_counts"]]
        problems.extend(f"episode {e}: {p}" for p in check_series(series, pop_size, n_seeded, env_cfg.episode_days))
    return problems
