"""One day's reward record, the action-change penalty and the daily economic loss.

All functions are pure and operate on one day. The health term rewards
recoveries and penalizes the day's new infections, severe cases and
deaths. The economic term starts from the day's economic contribution
(everyone except currently infected, quarantined and dead people works) and
subtracts testing, quarantine-processing and lockdown costs; it is rescaled
before being combined with the health term because the two live on very
different scales. The action-change penalty applies only in continuous
action spaces and compares consecutive applied actions componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RewardWeights
from .interventions import Action
from .simulator import DailyCounts

PENALTY_SLOPE = 100.0
PENALTY_DEADBAND = 0.2


def action_penalty(a_t: Action, a_prev: Action) -> float:
    """Penalty for changing the action by more than the deadband.

    Per component with difference d: -100 * (d - 0.2) when d > 0.2, else 0;
    the three componentwise penalties are summed. The environment applies it
    only in the continuous action space. Returns a Python float.
    """
    total = 0.0
    for curr, prev in zip(a_t.as_array(), a_prev.as_array()):
        d = abs(curr - prev)
        if d > PENALTY_DEADBAND:
            total -= PENALTY_SLOPE * (d - PENALTY_DEADBAND)
    return float(total)


def economic_loss(r_e: float, w: RewardWeights, pop_size: int) -> float:
    """Daily economic loss as a fraction of the no-epidemic economy.

    L_E = (mu1 * P - r_E) / (mu1 * P), using the unscaled r_E, so a day with
    no epidemic and no interventions loses exactly 0 and a fully stopped
    economy loses 1.
    """
    base = w.mu1 * float(pop_size)
    return (base - r_e) / base


@dataclass(slots=True)
class DailyReward:
    """One day's reward components, as logged in environment traces."""

    r_h: float
    r_e: float
    r_e_scaled: float
    combined: float


def daily_reward(
    counts: DailyCounts,
    action: Action,
    w: RewardWeights,
    pop_size: int,
) -> DailyReward:
    """Health + scaled economic reward for one day (no penalty term).

    r_H = N_R - omega1 N_I - omega2 N_S - omega3 N_D over the day's new
    recoveries, infections, severe cases and deaths. r_E = mu1 C_E -
    mu2 C_T - mu3 C_Q - mu4 C_beta with C_E = P - M_I - M_Q - M_D, C_T and
    C_Q the unit costs times the day's new tests and quarantines, and
    C_beta = P (1 - ch_beta); r_E_scaled = economic_scale * r_E / P.
    """
    p = float(pop_size)
    r_h = (
        counts.new_recovered
        - w.omega1 * counts.new_infections
        - w.omega2 * counts.new_severe
        - w.omega3 * counts.new_deaths
    )
    r_e = (
        w.mu1 * (p - counts.currently_infected - counts.currently_quarantined - counts.cumulative_dead)
        - w.mu2 * (w.cost_per_test * counts.new_tests)
        - w.mu3 * (w.quarantine_processing_cost * counts.new_quarantined)
        - w.mu4 * (p * (1.0 - action.ch_beta))
    )
    r_e_scaled = w.effective_scale(pop_size) * r_e / p
    return DailyReward(r_h, r_e, r_e_scaled, w.lambda1 * r_h + w.lambda2 * r_e_scaled)
