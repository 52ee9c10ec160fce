"""Health/economic reward terms, their combination, and daily economic loss.

All functions are pure and operate on one day's counts. The health term
rewards recoveries and penalizes the day's new infections, severe cases and
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


def health_reward(counts: DailyCounts, w: RewardWeights) -> float:
    """New recoveries minus weighted new infections, severe cases, deaths."""
    return (
        counts.new_recovered
        - w.omega1 * counts.new_infections
        - w.omega2 * counts.new_severe
        - w.omega3 * counts.new_deaths
    )


def economic_reward(
    counts: DailyCounts,
    action: Action,
    w: RewardWeights,
    pop_size: int,
) -> tuple[float, float]:
    """Daily economic reward, raw and rescaled.

    The contribution term is C_E = P - M_I - M_Q - M_D; lockdown consumes
    C_beta = P * (1 - ch_beta); testing and quarantine consume their unit
    costs times the day's new tests and new quarantines. Returns
    (r_E, r_E_scaled) with r_E_scaled = economic_scale * r_E / P.
    """
    p = float(pop_size)
    c_e = p - counts.currently_infected - counts.currently_quarantined - counts.cumulative_dead
    c_beta = p * (1.0 - action.ch_beta)
    c_t = w.cost_per_test * counts.new_tests
    c_q = w.quarantine_processing_cost * counts.new_quarantined
    r_e = w.mu1 * c_e - w.mu2 * c_t - w.mu3 * c_q - w.mu4 * c_beta
    return r_e, w.effective_scale(pop_size) * r_e / p


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


def combine(r_h: float, r_e_scaled: float, w: RewardWeights) -> float:
    """Weighted health plus economic reward; the environment adds lambda3 × penalty per step."""
    return w.lambda1 * r_h + w.lambda2 * r_e_scaled


def economic_loss(r_e: float, w: RewardWeights, pop_size: int) -> float:
    """Daily economic loss as a fraction of the no-epidemic economy.

    L_E = (mu1 * P - r_E) / (mu1 * P), using the unscaled r_E, so a day with
    no epidemic and no interventions loses exactly 0 and a fully stopped
    economy loses 1.
    """
    base = w.mu1 * float(pop_size)
    return (base - r_e) / base


@dataclass
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
    """Health + scaled economic reward for one day (no penalty term)."""
    r_h = health_reward(counts, w)
    r_e, r_e_scaled = economic_reward(counts, action, w, pop_size)
    return DailyReward(r_h=r_h, r_e=r_e, r_e_scaled=r_e_scaled, combined=combine(r_h, r_e_scaled, w))
