"""Synthetic layered population: households, schools, workplaces, community.

The three static layers are full cliques within groups whose sizes are chosen
so the mean within-group contact count matches the configured layer contact
means. Each stores its destinations with a CSR row index, built in one
vectorised pass: an agent's contacts are its group's ascending members
rotated to start just after it, the order a stable sort by source of both
directions of every ``np.triu_indices`` pair would give. The community layer
is not built here: each simulated day draws a new CommunityDay (see
simulator.Simulation), a circulant graph over a random relabelling of the
agents. Every layer answers "who met these agents" with ``contacts(ids) ->
(src, dst)``, in the order of the ids and then of each id's contacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PopulationConfig, age_band
from .errors import ConfigurationError

LAYER_NAMES = ("household", "school", "work")


@dataclass
class Layer:
    """One static contact layer: destinations with a CSR row index.

    indptr has one entry per agent plus one, and the contacts of agent i are
    ``dst[indptr[i]:indptr[i + 1]]``. Both directions of every undirected
    contact are stored. For a clique layer each slice is the rest of i's
    group, ascending from just after i and wrapping round (see
    _clique_layer). Like CommunityDay, a layer answers ``contacts(ids)``.
    """

    name: str
    dst: np.ndarray
    indptr: np.ndarray

    @property
    def src(self) -> np.ndarray:
        """Source of each edge, derived from the row index: edges are stored sorted by source."""
        return np.repeat(np.arange(len(self.indptr) - 1, dtype=np.int64), np.diff(self.indptr))

    def contacts(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) of every contact of ``ids``, in the order of the ids and then of the edges.

        Repeated ids give their contacts again; for ascending unique ids the
        pairs keep the layer's own edge order.
        """
        ids = np.asarray(ids, dtype=np.int64)
        lo = self.indptr[ids]
        counts = self.indptr[ids + 1] - lo
        # Row k's edges are lo[k], lo[k] + 1, ...: one arange over the whole
        # gather, shifted per row by lo[k] minus the row's start in it.
        shift = lo - (np.cumsum(counts) - counts)
        return np.repeat(ids, counts), self.dst[np.repeat(shift, counts) + np.arange(counts.sum())]


def community_offsets(n: int, contacts: float) -> tuple[int, int]:
    """Number of full offsets and edges of the partial offset for n agents.

    A day holds round(n * contacts / 2) pairs: n for each of the
    floor(contacts / 2) full offsets, and the remainder m on one partial
    offset. Offsets are distinct in [1, (n - 1) // 2], so no two are equal
    or opposite mod n; a population too small for that many is a
    configuration error.
    """
    full = int(contacts // 2)
    partial = int(round(n * contacts / 2.0)) - n * full
    needed = full + (partial > 0)
    if needed > (n - 1) // 2:
        raise ConfigurationError(
            f"contacts_c={contacts} needs {needed} community offsets, "
            f"but {n} agents allow only {(n - 1) // 2}"
        )
    return full, partial


@dataclass
class CommunityDay:
    """One day's community contacts: a circulant graph on relabelled agents.

    Agent ``agent_at[p]`` sits at slot p, and ``slot_of`` is the inverse
    permutation. Each full offset o joins every slot p to (p + o) mod n;
    the partial offset joins only the slots p < ``partial_edges``. The
    relation is symmetric, has no self-contacts and no repeated pair, and
    at an even integer contact mean every agent has exactly that many
    contacts.
    """

    agent_at: np.ndarray  # slot -> agent
    slot_of: np.ndarray   # agent -> slot
    offsets: np.ndarray   # full offsets, then the partial one if any
    partial_edges: int    # edges of the partial offset; 0 when there is none

    @classmethod
    def sample(
        cls,
        slots: np.ndarray,
        full: int,
        partial: int,
        rng: np.random.Generator,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "CommunityDay":
        """Draw the relabelling, then the offsets, as sized by community_offsets.

        ``slots`` is ``np.arange(n)`` for n agents. A caller that draws a day
        at a time keeps one: allocating it anew costs about a third of the
        inverse permutation at 100k agents. The relabelling is a shuffled
        copy of ``slots``, which makes exactly the draws of
        ``rng.permutation(n)``. It and its inverse are written into ``out``,
        an (agent_at, slot_of) pair of n-length int64 arrays, when one is
        given, and into new arrays otherwise.
        """
        n = len(slots)
        agent_at, slot_of = out if out is not None else (np.empty(n, np.int64), np.empty(n, np.int64))
        agent_at[:] = slots
        rng.shuffle(agent_at)
        slot_of[agent_at] = slots
        offsets = rng.choice((n - 1) // 2, size=full + (partial > 0), replace=False) + 1
        return cls(agent_at, slot_of, offsets, partial)

    def contacts(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) of every contact of ``ids``, in the order of the ids, then of the offsets.

        Each offset gives its forward contact (slot + o), then its backward
        one (slot - o); under the partial offset only those whose lower slot
        is below ``partial_edges`` exist. Repeated ids give their contacts
        again.
        """
        ids = np.asarray(ids, dtype=np.int64)
        n = len(self.agent_at)
        # Columns: +o1, -o1, +o2, -o2, ... per id; a step back by o is a step
        # forward by n - o, so every column wraps the same way.
        steps = np.repeat(self.offsets, 2)
        steps[1::2] = n - self.offsets
        slots = self.slot_of[ids]
        nbr = slots[:, None] + steps
        np.subtract(nbr, n, out=nbr, where=nbr >= n)
        src = np.repeat(ids, len(steps))
        if self.partial_edges:
            m = self.partial_edges
            exists = np.ones(nbr.shape, dtype=bool)
            exists[:, -2] = slots < m
            exists[:, -1] = nbr[:, -1] < m
            return src[exists.ravel()], self.agent_at[nbr[exists]]
        return src, self.agent_at[nbr.ravel()]


@dataclass
class Population:
    """Static attributes of the synthesized agents."""

    ages: np.ndarray          # int16, years
    age_bands: np.ndarray     # int8, ten-year band index
    household_id: np.ndarray  # int32
    school_id: np.ndarray     # int32, -1 when not enrolled
    work_id: np.ndarray       # int32, -1 when not employed
    layers: dict[str, Layer]  # household/school/work edge lists

    @property
    def size(self) -> int:
        return len(self.ages)


def _partition_into_groups(members: np.ndarray, mean_contacts: float, rng: np.random.Generator) -> np.ndarray:
    """Assign members to groups with mean size ~ mean_contacts + 1.

    Members are shuffled, then split into ``max(1, round(n / target))``
    near-equal contiguous groups. Returns a group index per member, aligned
    with the input order.
    """
    n = len(members)
    group_of = np.empty(n, dtype=np.int64)
    if n == 0:
        return group_of
    target = mean_contacts + 1.0
    n_groups = max(1, int(round(n / target)))
    order = rng.permutation(n)
    bounds = np.linspace(0, n, n_groups + 1).astype(np.int64)
    group_of[order] = np.repeat(np.arange(n_groups), np.diff(bounds))
    return group_of


def _clique_layer(name: str, ids: np.ndarray, group_of: np.ndarray, n: int) -> Layer:
    """Full cliques within each group of the ascending ``ids``, as a CSR layer over n agents.

    The agent at position p among its group's ascending members
    m_0 < ... < m_{k-1} has the contacts m_{p+1}, ..., m_{k-1}, m_0, ...,
    m_{p-1}: its group rotated to start just after it. Laying each group out
    twice makes that rotation one contiguous run, so the edges are written
    in src order directly and no edge list is ever sorted.
    """
    m = len(ids)
    # Positions sorted by (group, position), through one unique key each.
    key = np.sort(group_of * m + np.arange(m))
    group_sorted = key // m
    position = key - group_sorted * m
    size = np.bincount(group_sorted)
    # A group of k members starting at sorted rank s lies in twice[2s:2s + 2k],
    # ascending and then again, so the agent at rank r finds its k - 1
    # contacts from twice[r + s + 1] on.
    slot = np.arange(m) + (np.cumsum(size) - size)[group_sorted]
    twice = np.empty(2 * m, dtype=np.int64)
    twice[slot] = twice[slot + size[group_sorted]] = ids[position]
    first = np.empty(m, dtype=np.int64)
    first[position] = slot + 1
    degree = size[group_of] - 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[ids + 1] = degree
    np.cumsum(indptr, out=indptr)
    # Edge e of agent i lies e - indptr[i] past its first contact.
    edge = np.repeat(first - indptr[ids], degree)
    edge += np.arange(indptr[-1])
    return Layer(name=name, dst=twice[edge], indptr=indptr)


def synthesize_population(config: PopulationConfig, seed_rng: np.random.Generator) -> Population:
    """Build the layered population for one simulation run.

    Ages come from the configured pyramid (uniform within each ten-year
    band). Everyone gets a household; agents aged [school_age_min,
    school_age_max) get a school group; agents in [school_age_max,
    work_age_max) get a workplace group. Deterministic given the generator
    state.
    """
    config.validate()
    n = config.pop_size

    bands = seed_rng.choice(len(config.age_pyramid), size=n, p=np.asarray(config.age_pyramid))
    ages = (bands * 10 + seed_rng.integers(0, 10, size=n)).astype(np.int16)

    all_ids = np.arange(n, dtype=np.int64)
    household_group = _partition_into_groups(all_ids, config.contacts_h, seed_rng)
    household_id = household_group.astype(np.int32)

    school_mask = (ages >= config.school_age_min) & (ages < config.school_age_max)
    school_ids_arr = np.full(n, -1, dtype=np.int32)
    school_members = all_ids[school_mask]
    school_group = _partition_into_groups(school_members, config.contacts_s, seed_rng)
    school_ids_arr[school_members] = school_group.astype(np.int32)

    work_mask = (ages >= config.school_age_max) & (ages < config.work_age_max)
    work_ids_arr = np.full(n, -1, dtype=np.int32)
    work_members = all_ids[work_mask]
    work_group = _partition_into_groups(work_members, config.contacts_w, seed_rng)
    work_ids_arr[work_members] = work_group.astype(np.int32)

    layers = {}
    for name, ids, groups in (
        ("household", all_ids, household_group),
        ("school", school_members, school_group),
        ("work", work_members, work_group),
    ):
        layers[name] = _clique_layer(name, ids, groups, n)

    return Population(
        ages=ages,
        age_bands=age_band(ages).astype(np.int8),
        household_id=household_id,
        school_id=school_ids_arr,
        work_id=work_ids_arr,
        layers=layers,
    )
