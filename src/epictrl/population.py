"""Synthetic layered population: households, schools, workplaces, community.

The three static layers are full cliques within groups whose sizes are chosen
so the mean within-group contact count matches the configured layer contact
means. Each stores its groups, not its edges: every group's ascending
members laid out twice, and per agent the start and length of its run in
them, built in one vectorised pass. An agent's contacts are its group's
ascending members rotated to start just after it, the order a stable sort by
source of both directions of every ``np.triu_indices`` pair would give. The
community layer is not built here: each simulated day draws a new
CommunityDay (see simulator.Simulation), a circulant graph over a random
relabelling of the agents. Every layer answers "who met these agents" with
``contacts(ids) -> (counts, dst)``: each id's contact count, and the
contacts by id and then by edge or offset; a caller that needs sources takes
``np.repeat(ids, counts)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PopulationConfig, age_band
from .errors import ConfigurationError

LAYER_NAMES = ("household", "school", "work")


# Agents per block when Layer.dst lists every edge: small blocks keep the
# listing to about one edge-length array (the output) at a time.
DST_BLOCK = 4096


@dataclass
class Layer:
    """One static clique layer, stored as its groups.

    ``members`` holds each group's ascending members laid out twice, group
    after group, so the rest of an agent's group, ascending from just after
    it and wrapping round, is one contiguous run: agent i's contacts are
    ``members[first[i]:first[i] + degree[i]]``. ``first`` and ``degree`` are
    int32, one entry per agent, and 0 for agents outside the layer; members
    has 2m entries for the layer's m members, so no array is as long as the
    edge list. Like CommunityDay, a layer answers ``contacts(ids)``.
    """

    name: str
    members: np.ndarray  # int64, each group's ascending members, twice
    first: np.ndarray    # int32, per agent: where its contacts start in members
    degree: np.ndarray   # int32, per agent: its number of contacts

    @property
    def src(self) -> np.ndarray:
        """Source of every edge, in the order of dst. Derived on each access; the simulator reads only contacts."""
        return np.repeat(np.arange(len(self.degree), dtype=np.int64), self.degree)

    @property
    def dst(self) -> np.ndarray:
        """Every agent's contacts, agent after agent: both directions of each edge. Derived on each access, like src."""
        n = len(self.degree)
        out = np.empty(int(self.degree.sum(dtype=np.int64)), dtype=self.members.dtype)
        end = 0
        for start in range(0, n, DST_BLOCK):
            _, dst = self.contacts(np.arange(start, min(start + DST_BLOCK, n)))
            out[end:end + len(dst)] = dst
            end += len(dst)
        return out

    def contacts(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(counts, dst): the int64 contact count of each of ``ids``, and the contacts, by id and then edge.

        Repeated ids give their contacts again; for ascending unique ids,
        ``np.repeat(ids, counts)`` and dst keep the layer's own edge order.
        """
        ids = np.asarray(ids, dtype=np.int64)
        lo = self.first[ids].astype(np.int64)
        counts = self.degree[ids].astype(np.int64)
        # Row k's contacts are lo[k], lo[k] + 1, ...: one arange over the
        # whole gather, shifted per row by lo[k] minus the row's start in it.
        shift = lo - (np.cumsum(counts) - counts)
        return counts, self.members[np.repeat(shift, counts) + np.arange(counts.sum())]


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
        """(counts, dst): the int64 contact count of each of ``ids``, and the contacts, by id and then offset.

        Each offset gives its forward contact (slot + o), then its backward
        one (slot - o); under the partial offset only those whose lower slot
        is below ``partial_edges`` exist. Repeated ids give their contacts
        again.
        """
        ids = np.asarray(ids, dtype=np.int64)
        n = len(self.agent_at)
        # Columns: +o1, -o1, +o2, -o2, ... per id. A step forward by o is a
        # step by o - n, so every slot + step lies in [-n, n) and numpy's
        # negative indexing does the wrap.
        steps = np.repeat(self.offsets, 2)
        steps[0::2] -= n
        steps[1::2] *= -1
        slots = self.slot_of[ids]
        nbr = slots[:, None] + steps
        if not self.partial_edges:
            return np.full(len(ids), len(steps), dtype=np.int64), self.agent_at[nbr.ravel()]
        m = self.partial_edges
        exists = np.ones(nbr.shape, dtype=bool)
        exists[:, -2] = slots < m
        exists[:, -1] = nbr[:, -1] % n < m  # the backward contact's own slot
        return len(steps) - 2 + exists[:, -2] + exists[:, -1], self.agent_at[nbr[exists]]


@dataclass
class Population:
    """Static attributes of the synthesized agents."""

    ages: np.ndarray          # int16, years
    age_bands: np.ndarray     # int8, ten-year band index
    household_id: np.ndarray  # int32
    school_id: np.ndarray     # int32, -1 when not enrolled
    work_id: np.ndarray       # int32, -1 when not employed
    layers: dict[str, Layer]  # household/school/work cliques


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
    """Full cliques within each group of the ascending ``ids``, as a Layer over n agents.

    The agent at position p among its group's ascending members
    m_0 < ... < m_{k-1} has the contacts m_{p+1}, ..., m_{k-1}, m_0, ...,
    m_{p-1}: its group rotated to start just after it. Laying each group out
    twice makes that rotation one contiguous run, so the layer stores the
    groups and each agent's run, and no edge list is ever built.
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
    agent = ids[position]
    twice = np.empty(2 * m, dtype=np.int64)
    twice[slot] = twice[slot + size[group_sorted]] = agent
    first = np.zeros(n, dtype=np.int32)
    first[agent] = slot + 1
    degree = np.zeros(n, dtype=np.int32)
    degree[ids] = size[group_of] - 1
    return Layer(name=name, members=twice, first=first, degree=degree)


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
