"""Intervention actions and their runtime mechanics.

An intervention triple holds the lockdown multiplier on the baseline
transmission rate (ch_beta), the daily testing probability (ch_tp), and the
per-contact tracing probability (ch_ctp). The learning agents use either the
continuous boxes (ch_beta in [0.5, 1], probabilities in [0, 1]) or the 4x4x4
discrete grid; schedule policies may use any physically meaningful value
(ch_beta in [0, 1]), which is deliberately wider than the agents' box.
Every Action is checked against that physical domain when it is made, so
the mechanics below take its components as given.

The mechanics functions mutate a running simulator instance in place and
return the day's counters. Each mechanism draws only from its own named
substream and draws nothing when its probability is zero, so switching a
mechanism off reproduces a run that never had it, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InterventionConfig
from .errors import ActionDomainError

BETA_LEVELS = (0.5, 0.625, 0.750, 0.875)
TP_LEVELS = (0.0, 0.25, 0.50, 0.75)
CTP_LEVELS = (0.0, 0.25, 0.50, 0.75)
N_DISCRETE_ACTIONS = len(BETA_LEVELS) * len(TP_LEVELS) * len(CTP_LEVELS)

CONTINUOUS_LOW = np.array([0.5, 0.0, 0.0])
CONTINUOUS_HIGH = np.array([1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Action:
    """One intervention triple: lockdown, testing, tracing."""

    ch_beta: float
    ch_tp: float
    ch_ctp: float

    def as_array(self) -> np.ndarray:
        return np.array([self.ch_beta, self.ch_tp, self.ch_ctp], dtype=np.float64)

    def __post_init__(self):
        """Check each component against its physical domain ([0, 1])."""
        for name, v in (("ch_beta", self.ch_beta), ("ch_tp", self.ch_tp), ("ch_ctp", self.ch_ctp)):
            if not (0.0 <= v <= 1.0) or v != v:
                raise ActionDomainError(f"{name}={v} outside [0, 1]")


NULL_ACTION = Action(ch_beta=1.0, ch_tp=0.0, ch_ctp=0.0)


def encode_discrete(index: int) -> Action:
    """Map a flat index in [0, 63] to its action triple.

    The index enumerates the Cartesian product with ch_beta varying slowest:
    index = i_beta * 16 + i_tp * 4 + i_ctp, each factor in ascending order.
    """
    if not 0 <= int(index) < N_DISCRETE_ACTIONS or int(index) != index:
        raise ActionDomainError(f"discrete action index {index} outside [0, {N_DISCRETE_ACTIONS - 1}]")
    index = int(index)
    i_beta, rest = divmod(index, 16)
    i_tp, i_ctp = divmod(rest, 4)
    return Action(BETA_LEVELS[i_beta], TP_LEVELS[i_tp], CTP_LEVELS[i_ctp])


def apply_lockdown(ch_beta: float, beta_initial: float) -> float:
    """Effective per-contact transmission probability under lockdown."""
    return beta_initial * ch_beta


def run_testing(sim, ch_tp: float) -> tuple[int, int]:
    """Administer program tests and passive clinical detection for today.

    Undiagnosed symptomatic agents are tested with probability ch_tp, all
    other undiagnosed living agents with ch_tp * asymptomatic_test_factor.
    Results return after test_delay days and are true positives exactly for
    agents infected (exposed or infectious) at administration time. The
    passive detection channel runs afterwards at its configured daily rates;
    its detections schedule the same delayed reveal but are not counted as
    program tests.

    Returns:
        (new_tests, new_detections) administered today.
    """
    cfg: InterventionConfig = sim.int_cfg
    day = sim.day
    st = sim.state

    alive = st.epi_state != sim.DEAD
    eligible = alive & (st.diagnosed_day < 0) & (st.test_pending_day < 0)
    symptomatic = (st.epi_state == sim.I_MILD) | (st.epi_state == sim.I_SEVERE)

    new_tests = 0
    if ch_tp > 0.0:
        ids = np.flatnonzero(eligible)
        if len(ids):
            u = sim.streams["testing"].random(len(ids))
            # The factor lies in [0, 1], so a symptomatic agent's draw is a
            # hit below ch_tp, and every draw below ch_tp * factor is one.
            hit = u < ch_tp
            hit &= symptomatic[ids]
            hit |= u < ch_tp * cfg.asymptomatic_test_factor
            hits = ids[hit]
            if len(hits):
                _schedule_results(sim, hits, day + cfg.test_delay)
                eligible[hits] = False  # their results are now pending
                new_tests = len(hits)

    new_detections = 0
    if cfg.symp_detection_prob > 0.0 or cfg.severe_detection_prob > 0.0:
        ids = np.nonzero(eligible & symptomatic)[0]
        if len(ids):
            p = np.where(
                st.epi_state[ids] == sim.I_SEVERE,
                cfg.severe_detection_prob,
                cfg.symp_detection_prob,
            )
            hits = ids[sim.streams["detection"].random(len(ids)) < p]
            if len(hits):
                _schedule_results(sim, hits, day + cfg.test_delay)
                new_detections = len(hits)

    return new_tests, new_detections


def _schedule_results(sim, ids: np.ndarray, reveal_day: int) -> None:
    st = sim.state
    st.test_pending_day[ids] = reveal_day
    # Infected means EXPOSED through I_SEVERE, which are contiguous.
    states = st.epi_state[ids]
    st.test_positive[ids] = (states >= sim.EXPOSED) & (states <= sim.I_SEVERE)


def reveal_test_results(sim) -> np.ndarray:
    """Turn today's due positive results into diagnoses; returns the ids diagnosed, ascending."""
    st = sim.state
    due = np.flatnonzero(st.test_pending_day == sim.day)
    if not len(due):
        return due
    st.test_pending_day[due] = -1
    positive = due[st.test_positive[due] & (st.epi_state[due] != sim.DEAD)]
    st.test_positive[due] = False
    st.diagnosed_day[positive] = sim.day
    return positive


def run_tracing(sim, ch_ctp: float, diagnosed_today: np.ndarray) -> int:
    """Trace and quarantine contacts of agents diagnosed today.

    Every household/school/work contact, plus each of the previous day's
    community contacts, is identified independently with probability ch_ctp
    (one chance per diagnosed-agent/contact pair).
    Identified contacts enter quarantine from day + trace_delay for
    quarantine_duration days. A contact with an active or already scheduled
    quarantine has its expiry extended to the later date and is not counted
    again.

    Returns:
        Number of distinct new quarantine entries scheduled today.
    """
    if ch_ctp == 0.0 or not len(diagnosed_today):
        return 0
    cfg: InterventionConfig = sim.int_cfg
    st = sim.state

    # Candidates in the order of the layers, then of the diagnosed agents,
    # then of each agent's contacts; yesterday's community layer comes last.
    layers = list(sim.pop.layers.values())
    if sim.prev_community is not None:
        layers.append(sim.prev_community)
    candidates = np.concatenate([layer.contacts(diagnosed_today)[1] for layer in layers])
    if not len(candidates):
        return 0

    identified = candidates[sim.streams["tracing"].random(len(candidates)) < ch_ctp]
    if not len(identified):
        return 0
    identified = np.unique(identified)
    identified = identified[st.epi_state[identified] != sim.DEAD]
    if not len(identified):
        return 0

    start = sim.day + cfg.trace_delay
    until = start + cfg.quarantine_duration
    active_or_scheduled = st.quarantine_until[identified] > sim.day
    extend = identified[active_or_scheduled]
    fresh = identified[~active_or_scheduled]
    if len(extend):
        st.quarantine_until[extend] = np.maximum(st.quarantine_until[extend], until)
    if len(fresh):
        st.quarantine_start[fresh] = start
        st.quarantine_until[fresh] = until
    return len(fresh)
