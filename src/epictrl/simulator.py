"""Deterministic agent-based SEIRD transmission simulator.

State machine per agent:

    SUSCEPTIBLE -> EXPOSED -> {I_ASYMPTOMATIC, I_MILD} -> RECOVERED
                                          I_MILD -> I_SEVERE -> {RECOVERED, DEAD}

Transitions are scheduled when a state is entered; on the scheduled day the
agent advances (drawing symptom/severity/fatality outcomes at the moment
they are needed). Only the three infectious states transmit; DEAD and
RECOVERED are absorbing. Transmission runs over four contact layers:
household/school/work cliques (static per run) and a community layer drawn
anew every day as a circulant graph over a random relabelling of the agents
(population.CommunityDay). Every layer answers contacts(ids) with each
id's contact count and the contacts, and transmission and tracing ask it
only for the agents they concern, so a day's cost follows the epidemic
rather than the number of community pairs.

A day's transmission is one pass over all layers at once: every (infectious
source, susceptible target) contact is a candidate, its infection
probability is read from a small table indexed by layer, source key
(asymptomatic, diagnosed, quarantined) and target key (age band,
quarantined), and one uniform draw per candidate decides it. Each source's
key is repeated over its contact count; no source id per candidate is built.
The table holds the same float64 products a per-candidate computation would
make, in the same order, and is rebuilt only when the lockdown level changes.

Everything stochastic draws from named substreams of a single master seed
in a fixed order, which makes whole runs bit-reproducible.

The community stream runs one day ahead. It is read only by
CommunityDay.sample and does not depend on the policy, so from
PIPELINE_MIN_AGENTS agents one worker thread, shared by every Simulation
in the process, draws tomorrow's layer while today runs (numpy's shuffle
releases the GIL). Days are still drawn one at a time and in order, from
the same stream, so every draw and count is that of drawing inline. Below
the threshold, handing a draw to another thread costs more than the draw,
and each day draws its layer inline at its start. On a 2-vCPU machine this
takes a 133-day mixed-action episode from about 1.0 s to 0.73 s at 100k
agents, and from about 12 s to 8 s at 1M agents (README, BENCH_12.json).
"""

from __future__ import annotations

import csv
import logging
import os
import threading
import weakref
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from . import interventions as iv
from .config import N_AGE_BANDS, DiseaseConfig, InterventionConfig, PopulationConfig
from .errors import ConfigurationError
from .interventions import Action
from .population import LAYER_NAMES, CommunityDay, Population, community_offsets, synthesize_population
from .rng import all_substreams

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

logger = logging.getLogger(__name__)


class EpiState(IntEnum):
    SUSCEPTIBLE = 0
    EXPOSED = 1
    I_ASYMPTOMATIC = 2
    I_MILD = 3
    I_SEVERE = 4
    RECOVERED = 5
    DEAD = 6


# Plain ints for array code: numpy casts an int8 array compared with an
# IntEnum member (4x slower at 2k agents, 10x at 100k), and each member
# lookup goes through the enum's __getattr__.
SUSCEPTIBLE, EXPOSED, I_ASYMPTOMATIC, I_MILD, I_SEVERE, RECOVERED, DEAD = map(int, EpiState)

def _infectious(states: np.ndarray) -> np.ndarray:
    """Mask of the infectious states, which are the contiguous I_ASYMPTOMATIC..I_SEVERE.

    Two comparisons cost a tenth of a lookup-table gather at 100k agents.
    """
    return (states >= I_ASYMPTOMATIC) & (states <= I_SEVERE)


# Transmission probability table (see Simulation._probability_table): the
# layers in candidate order, eight source keys a + 2 g + 4 q (asymptomatic,
# diagnosed, quarantined) and 2 * N_AGE_BANDS target keys 2 b + r (age band,
# quarantined). Entry (layer * 8 + source key) * TARGET_KEYS + target key.
TRANSMISSION_LAYERS = LAYER_NAMES + ("community",)
TARGET_KEYS = 2 * N_AGE_BANDS
LAYER_STRIDE = 8 * TARGET_KEYS


# Agents from which the next day's community layer is drawn on the worker
# thread. On a 2-vCPU machine drawing there lost at 10k agents, was within
# run-to-run noise at 20k and 30k, and won every run from 50k
# (tools/pipeline_crossover.py; CHANGES.md has the table).
PIPELINE_MIN_AGENTS = 50_000

_community_worker: ThreadPoolExecutor | None = None
_community_worker_lock = threading.Lock()
_last_draw: weakref.ref[Future] | None = None  # the draw queued most recently


def _submit_draw(*args) -> Future:
    """Queue CommunityDay.sample(*args) on the worker thread, started on first use.

    concurrent.futures is imported here rather than with the module, so a
    run below the threshold loads nothing it does not use (the import adds
    about 0.6 MiB to a process's peak RSS).
    """
    global _community_worker, _last_draw
    with _community_worker_lock:
        if _community_worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _community_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="epictrl-community")
        future = _community_worker.submit(CommunityDay.sample, *args)
        _last_draw = weakref.ref(future)
        return future


def _finish_draws() -> None:
    """Wait for the draws in flight, so a fork copies no half-drawn day.

    The worker runs draws in the order they were queued, so all are done
    once the last one queued is; a future nothing holds any more is done.
    This takes no lock and queues nothing: concurrent.futures' own at-fork
    hook may already hold the lock that submitting takes.
    """
    last = _last_draw() if _last_draw is not None else None
    if last is not None:
        last.exception()  # waits; a failed draw is raised by its step_day


def _forget_worker() -> None:
    """A forked child has no copy of the worker thread: start a new one when needed."""
    global _community_worker, _community_worker_lock, _last_draw
    _community_worker = _last_draw = None
    _community_worker_lock = threading.Lock()  # another thread may have held it at the fork


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_finish_draws, after_in_child=_forget_worker)


@dataclass
class AgentState:
    """Mutable per-agent epidemic state, one array entry per agent."""

    epi_state: np.ndarray            # int8 EpiState
    scheduled_day: np.ndarray        # int32, -1 = none
    next_state: np.ndarray           # int8 EpiState an infectious agent moves to on its scheduled day
    diagnosed_day: np.ndarray        # int32, -1 = never
    test_pending_day: np.ndarray     # int32, -1 = none (day result returns)
    test_positive: np.ndarray        # bool, result of pending test
    quarantine_start: np.ndarray     # int32, -1 = never
    quarantine_until: np.ndarray     # int32, -1 = never (exclusive end)

    @classmethod
    def fresh(cls, n: int) -> "AgentState":
        return cls(
            epi_state=np.full(n, SUSCEPTIBLE, dtype=np.int8),
            scheduled_day=np.full(n, -1, dtype=np.int32),
            next_state=np.full(n, SUSCEPTIBLE, dtype=np.int8),
            diagnosed_day=np.full(n, -1, dtype=np.int32),
            test_pending_day=np.full(n, -1, dtype=np.int32),
            test_positive=np.zeros(n, dtype=bool),
            quarantine_start=np.full(n, -1, dtype=np.int32),
            quarantine_until=np.full(n, -1, dtype=np.int32),
        )

    def quarantined_on(self, day: int) -> np.ndarray:
        """Mask of the agents whose quarantine covers the day."""
        return (self.quarantine_start >= 0) & (self.quarantine_start <= day) & (day < self.quarantine_until)


@dataclass
class DailyCounts:
    """Per-day stocks and flows; one record per simulated day."""

    day: int
    S: int
    E: int
    I: int
    R: int
    D: int
    new_infections: int
    new_severe: int
    new_deaths: int
    new_recovered: int
    new_tests: int
    new_quarantined: int
    new_diagnoses: int
    cumulative_tests: int
    cumulative_quarantined: int
    cumulative_diagnoses: int
    currently_infected: int
    currently_quarantined: int
    cumulative_dead: int


COUNT_FIELDS = tuple(f.name for f in fields(DailyCounts))


def counts_to_csv(series: list[DailyCounts], path: str) -> None:
    """Write one row per day with columns exactly matching the field names."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNT_FIELDS)
        for c in series:
            writer.writerow([getattr(c, name) for name in COUNT_FIELDS])


def _lognormal_params(mean: float, sd: float) -> tuple[float, float]:
    """Underlying (mu, sigma) of a lognormal with the given real-space moments."""
    sigma2 = np.log(1.0 + (sd / mean) ** 2)
    mu = np.log(mean) - sigma2 / 2.0
    return mu, float(np.sqrt(sigma2))


def seed_infections(
    state: AgentState,
    config: PopulationConfig,
    seeding_rng: np.random.Generator,
) -> np.ndarray:
    """Move the scaled initial-infection count from SUSCEPTIBLE to EXPOSED.

    pop_infected counts people on the real-population scale; the number of
    seeded agents is max(1, round(pop_infected / pop_scale)), chosen
    uniformly at random. Returns the seeded agent ids.
    """
    n = len(state.epi_state)
    n_seed = int(round(config.pop_infected / config.pop_scale))
    if n_seed < 1:
        logger.warning(
            "pop_infected=%s scales to %d agents; flooring to 1 seeded agent",
            config.pop_infected, n_seed,
        )
        n_seed = 1
    if n_seed > n:
        raise ConfigurationError(f"seed count {n_seed} exceeds pop_size {n}")
    seeded = np.sort(seeding_rng.choice(n, size=n_seed, replace=False))
    state.epi_state[seeded] = EXPOSED
    return seeded


class Simulation:
    """One self-contained simulation run with its own random substreams."""

    # Class-level aliases so the interventions module can stay import-free.
    EXPOSED = EXPOSED
    I_MILD = I_MILD
    I_SEVERE = I_SEVERE
    DEAD = DEAD

    def __init__(
        self,
        pop_cfg: PopulationConfig,
        disease_cfg: DiseaseConfig,
        int_cfg: InterventionConfig,
        seed: int,
    ):
        pop_cfg.validate()
        disease_cfg.validate()
        int_cfg.validate()
        self.pop_cfg = pop_cfg
        self.disease_cfg = disease_cfg
        self.int_cfg = int_cfg
        self.seed = int(seed)
        self.streams = all_substreams(self.seed)

        self._latent_mu, self._latent_sigma = _lognormal_params(disease_cfg.latent_mean, disease_cfg.latent_sd)
        self._inf_mu, self._inf_sigma = _lognormal_params(disease_cfg.infectious_mean, disease_cfg.infectious_sd)

        self._community_shape = community_offsets(pop_cfg.pop_size, pop_cfg.contacts_c)
        self._slots = np.arange(pop_cfg.pop_size)
        self.pop: Population = synthesize_population(pop_cfg, self.streams["population"])
        self.state = AgentState.fresh(pop_cfg.pop_size)
        self.day = 0
        self.seeded_ids = seed_infections(self.state, pop_cfg, self.streams["seeding"])
        self._schedule_latent(self.seeded_ids, 0)

        # Community contacts: today's are drawn at the start of each day, or
        # while the day before runs (see _prefetch_community); yesterday's
        # are kept for contact tracing.
        self.community: CommunityDay | None = None
        self.prev_community: CommunityDay | None = None
        self._next_community: Future | None = None

        # Cumulative counters.
        self.cum_tests = 0
        self.cum_quarantined = 0
        self.cum_diagnoses = 0

        # Today's transmission probability table and the lockdown level it
        # was built for.
        self._p_table_beta: float | None = None
        self._p_table = np.empty(0)

        if pop_cfg.pop_size >= PIPELINE_MIN_AGENTS:
            n = pop_cfg.pop_size
            # (agent_at, slot_of) of yesterday, today and tomorrow, in turn.
            self._community_buffers = [(np.empty(n, np.int64), np.empty(n, np.int64)) for _ in range(3)]
            self._prefetch_community()

    # -- duration draws -------------------------------------------------

    def _schedule_latent(self, ids: np.ndarray, exposed_day: int) -> None:
        """Schedule E -> infectious transitions (latent period, >= 1 day).

        The course after E is drawn on the transition day, in _progress.
        """
        if not len(ids):
            return
        self.state.scheduled_day[ids] = exposed_day + self._draw_duration(self._latent_mu, self._latent_sigma, len(ids))

    def _draw_duration(self, mu: float, sigma: float, k: int) -> np.ndarray:
        """k lognormal durations in days from the progression stream, rounded and floored at one day."""
        dur = self.streams["progression"].lognormal(mu, sigma, size=k)
        return np.maximum(1, np.rint(dur)).astype(np.int32)

    # -- daily step ------------------------------------------------------

    def step_day(self, action: Action) -> DailyCounts:
        """Simulate one day under the given intervention triple."""
        st = self.state
        day = self.day

        # Rotate the community layer: keep yesterday's for tracing.
        self.prev_community = self.community
        if self._next_community is None:
            self.community = CommunityDay.sample(self._slots, *self._community_shape, self.streams["community"])
        else:
            self.community = self._next_community.result()
            self._prefetch_community()

        new_exposed = self._transmit(action.ch_beta)
        new_severe, new_deaths, new_recovered = self._progress()

        # Interventions: reveal due results, trace today's diagnoses, then
        # administer today's tests (results return after the test delay).
        diagnosed_today = iv.reveal_test_results(self)
        new_diagnoses = len(diagnosed_today)
        new_quarantined = iv.run_tracing(self, action.ch_ctp, diagnosed_today)
        new_tests, _ = iv.run_testing(self, action.ch_tp)

        self.cum_tests += new_tests
        self.cum_quarantined += new_quarantined
        self.cum_diagnoses += new_diagnoses

        counts = self._emit_counts(
            new_infections=len(new_exposed),
            new_severe=new_severe,
            new_deaths=new_deaths,
            new_recovered=new_recovered,
            new_tests=new_tests,
            new_quarantined=new_quarantined,
            new_diagnoses=new_diagnoses,
        )
        self.day += 1
        return counts

    def _prefetch_community(self) -> None:
        """Start drawing the next day's community layer on the worker thread.

        Only the worker draws from the community stream, and a draw is
        submitted only once the day before has been taken, so days are drawn
        one at a time and in order. Each draw goes into the buffer pair used
        longest ago, the one of the day before yesterday, which neither
        today's nor yesterday's layer uses.
        """
        buffers = self._community_buffers.pop(0)
        self._community_buffers.append(buffers)
        self._next_community = _submit_draw(self._slots, *self._community_shape, self.streams["community"], buffers)

    def _transmit(self, ch_beta: float) -> np.ndarray:
        """One transmission sweep with state frozen at the start of the day.

        The candidates are every (infectious source, susceptible target)
        contact, in the order of the layers (TRANSMISSION_LAYERS), then of
        the sources, then of each source's contacts. Each is infected when
        its own uniform draw falls below its probability in the table.

        Returns the ids newly exposed today (each at most once, even when
        hit through several layers).
        """
        st = self.state
        if ch_beta == 0.0 or self.pop_cfg.beta_initial == 0.0:
            return np.empty(0, dtype=np.int64)

        epi = st.epi_state
        infectious_ids = np.flatnonzero(_infectious(epi))
        if not len(infectious_ids):
            return np.empty(0, dtype=np.int64)
        susceptible = epi == SUSCEPTIBLE
        quarantined = st.quarantined_on(self.day)
        source_key = (TARGET_KEYS * (
            (epi[infectious_ids] == I_ASYMPTOMATIC)
            + 2 * (st.diagnosed_day[infectious_ids] >= 0)
            + 4 * quarantined[infectious_ids]
        )).astype(np.int16)

        # Each source's int16 table key per layer repeats over its contacts,
        # and candidates are compacted by index: at the null action about 44%
        # are kept, near-randomly, and a boolean mask took four times as long.
        key_chunks: list[np.ndarray] = []
        dst_chunks: list[np.ndarray] = []
        for i, layer in enumerate((*self.pop.layers.values(), self.community)):
            counts, dst = layer.contacts(infectious_ids)
            keep = np.flatnonzero(susceptible[dst])
            dst_chunks.append(dst.take(keep))
            key_chunks.append(np.repeat(source_key + i * LAYER_STRIDE, counts).take(keep))
        del counts, dst, keep
        if not sum(len(d) for d in dst_chunks):
            return np.empty(0, dtype=np.int64)

        if ch_beta != self._p_table_beta:
            self._p_table_beta, self._p_table = ch_beta, self._probability_table(ch_beta)
        target_key = self.pop.age_bands * 2 + quarantined
        # A 100k-agent day near the epidemic's peak has about 300k
        # candidates, so each whole-day array is dropped once used: the pass
        # then holds no more at a time than a sweep one layer at a time.
        entry = np.concatenate(key_chunks)
        del key_chunks
        dst = np.concatenate(dst_chunks)
        del dst_chunks
        entry += target_key[dst]
        p = self._p_table[entry]
        del entry
        new_exposed = dst[self.streams["transmission"].random(len(p)) < p]
        if not len(new_exposed):
            return np.empty(0, dtype=np.int64)
        new_exposed = np.unique(new_exposed)
        st.epi_state[new_exposed] = EXPOSED
        self._schedule_latent(new_exposed, self.day)
        return new_exposed

    def _probability_table(self, ch_beta: float) -> np.ndarray:
        """Per-contact infection probability for every (layer, source key, target key), flattened.

        The factors apply in a fixed order: the locked-down base rate times
        the layer weight, the target's susceptibility odds, then the
        asymptomatic, isolation (diagnosed) and quarantine factors of the
        source and the quarantine factor of the target, and last a clip to
        [0, 1]. A factor that does not apply multiplies by 1.0, which is
        exact, so each entry is bit for bit the product a candidate with
        those keys would get on its own.
        """
        pc, ic = self.pop_cfg, self.int_cfg
        base = iv.apply_lockdown(ch_beta, pc.beta_initial)
        weight = dict(zip(TRANSMISSION_LAYERS, pc.layer_weights))
        # Axes: layer, source key, age band, target quarantined.
        p = np.array([base * weight[name] for name in (*self.pop.layers, "community")])[:, None, None, None]
        p = p * np.asarray(pc.sus_odds_ratios, dtype=np.float64)[:, None]
        source_key = np.arange(8)[:, None, None]
        for bit, factor in ((1, pc.asymp_factor),
                            (2, ic.isolation_transmission_factor),
                            (4, ic.quarantine_transmission_factor)):
            p = p * np.where(source_key & bit, factor, 1.0)
        p = p * np.array([1.0, ic.quarantine_susceptibility_factor])
        return np.clip(p, 0.0, 1.0).ravel()

    def _progress(self) -> tuple[int, int, int]:
        """Advance agents whose scheduled transition falls on today."""
        st = self.state
        due = np.nonzero(st.scheduled_day == self.day)[0]
        if not len(due):
            return 0, 0, 0
        due_states = st.epi_state[due].copy()  # snapshot: one transition per agent per day
        rng = self.streams["progression"]
        bands = self.pop.age_bands
        dc = self.disease_cfg
        new_severe = new_deaths = new_recovered = 0

        # E -> infectious: draw symptom course now.
        e_ids = due[due_states == EXPOSED]
        if len(e_ids):
            p_sym = np.asarray(dc.prob_symptomatic)[bands[e_ids]]
            symptomatic = rng.random(len(e_ids)) < p_sym
            p_sev = np.asarray(dc.prob_severe_given_symptomatic)[bands[e_ids]]
            severe_course = symptomatic & (rng.random(len(e_ids)) < p_sev)
            dur = self._draw_duration(self._inf_mu, self._inf_sigma, len(e_ids))

            asym = e_ids[~symptomatic]
            st.epi_state[asym] = I_ASYMPTOMATIC
            mild = e_ids[symptomatic]
            st.epi_state[mild] = I_MILD

            plain = e_ids[~severe_course]
            st.scheduled_day[plain] = self.day + dur[~severe_course]
            st.next_state[plain] = RECOVERED

            sev = e_ids[severe_course]
            if len(sev):
                onset = rng.integers(dc.severe_onset_min, dc.severe_onset_max + 1, size=len(sev))
                st.scheduled_day[sev] = self.day + onset.astype(np.int32)
                st.next_state[sev] = I_SEVERE

        # Infectious agents whose scheduled outcome is due.
        inf_ids = due[_infectious(due_states)]
        if len(inf_ids):
            to_severe = inf_ids[st.next_state[inf_ids] == I_SEVERE]
            if len(to_severe):
                st.epi_state[to_severe] = I_SEVERE
                new_severe = len(to_severe)
                p_death = np.asarray(dc.prob_death_given_severe)[bands[to_severe]]
                dies = rng.random(len(to_severe)) < p_death
                dur = self._draw_duration(self._inf_mu, self._inf_sigma, len(to_severe))
                st.scheduled_day[to_severe] = self.day + dur
                st.next_state[to_severe] = np.where(dies, DEAD, RECOVERED).astype(np.int8)

            to_recovered = inf_ids[st.next_state[inf_ids] == RECOVERED]
            if len(to_recovered):
                st.epi_state[to_recovered] = RECOVERED
                st.scheduled_day[to_recovered] = -1
                new_recovered = len(to_recovered)

            to_dead = inf_ids[st.next_state[inf_ids] == DEAD]
            if len(to_dead):
                st.epi_state[to_dead] = DEAD
                st.scheduled_day[to_dead] = -1
                new_deaths = len(to_dead)

        return new_severe, new_deaths, new_recovered

    def _emit_counts(self, **flows: int) -> DailyCounts:
        st = self.state
        epi = st.epi_state
        # count_nonzero reads the int8 states as they are; bincount would cast them all to intp.
        S, E, R, D = (int(np.count_nonzero(epi == s)) for s in (SUSCEPTIBLE, EXPOSED, RECOVERED, DEAD))
        infectious = len(epi) - S - E - R - D
        in_quarantine = st.quarantined_on(self.day) & (epi != DEAD)
        return DailyCounts(
            day=self.day, S=S, E=E, I=infectious, R=R, D=D,
            cumulative_tests=self.cum_tests,
            cumulative_quarantined=self.cum_quarantined,
            cumulative_diagnoses=self.cum_diagnoses,
            currently_infected=E + infectious,
            currently_quarantined=int(np.count_nonzero(in_quarantine)),
            cumulative_dead=D,
            **{k: int(v) for k, v in flows.items()},
        )
