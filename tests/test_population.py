"""Population synthesis: layer structure, determinism, scaling arithmetic."""

import numpy as np
import pytest

from epictrl.config import PopulationConfig
from epictrl.errors import ConfigurationError
from epictrl.population import CommunityDay, _partition_into_groups, community_offsets, synthesize_population
from epictrl.rng import substream


def build(config, seed=7):
    return synthesize_population(config, substream(seed, "population"))


def contact_pairs(layer, ids) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of layer.contacts(ids), the sources rebuilt from its counts once those are checked."""
    ids = np.asarray(ids, dtype=np.int64)
    counts, dst = layer.contacts(ids)
    assert counts.dtype == np.int64
    assert len(counts) == len(ids)
    assert counts.sum() == len(dst)
    return np.repeat(ids, counts), dst


def test_pop_scale_arithmetic():
    cfg = PopulationConfig(pop_size=10_000, total_pop=67.86e6)
    assert cfg.pop_scale == pytest.approx(6786.0)


def test_every_agent_has_a_household():
    cfg = PopulationConfig(pop_size=500, total_pop=500)
    pop = build(cfg)
    assert (pop.household_id >= 0).all()


def test_degenerate_two_agent_population_shares_one_household():
    cfg = PopulationConfig(pop_size=2, total_pop=2, contacts_h=2.0)
    pop = build(cfg)
    assert pop.household_id[0] == pop.household_id[1]
    hh = pop.layers["household"]
    assert len(hh.src) == 2  # one undirected edge stored in both directions
    assert set(zip(hh.src.tolist(), hh.dst.tolist())) == {(0, 1), (1, 0)}


def test_layer_membership_determinism():
    cfg = PopulationConfig(pop_size=1000, total_pop=1000)
    a = build(cfg, seed=7)
    b = build(cfg, seed=7)
    np.testing.assert_array_equal(a.household_id, b.household_id)
    np.testing.assert_array_equal(a.school_id, b.school_id)
    np.testing.assert_array_equal(a.work_id, b.work_id)
    np.testing.assert_array_equal(a.ages, b.ages)
    for name in ("household", "school", "work"):
        np.testing.assert_array_equal(a.layers[name].src, b.layers[name].src)
        np.testing.assert_array_equal(a.layers[name].dst, b.layers[name].dst)


def test_different_seeds_differ():
    cfg = PopulationConfig(pop_size=1000, total_pop=1000)
    a = build(cfg, seed=7)
    b = build(cfg, seed=8)
    assert not np.array_equal(a.household_id, b.household_id) or not np.array_equal(a.ages, b.ages)


def test_age_based_layer_assignment():
    cfg = PopulationConfig(pop_size=3000, total_pop=3000)
    pop = build(cfg)
    in_school = pop.school_id >= 0
    in_work = pop.work_id >= 0
    assert ((pop.ages[in_school] >= cfg.school_age_min) & (pop.ages[in_school] < cfg.school_age_max)).all()
    assert ((pop.ages[in_work] >= cfg.school_age_max) & (pop.ages[in_work] < cfg.work_age_max)).all()
    assert not (in_school & in_work).any()


def test_household_mean_size_tracks_contacts():
    cfg = PopulationConfig(pop_size=5000, total_pop=5000, contacts_h=3.0)
    pop = build(cfg)
    sizes = np.bincount(pop.household_id)
    assert sizes.mean() == pytest.approx(4.0, rel=0.15)


def test_mean_contact_degree_tracks_config():
    cfg = PopulationConfig(pop_size=5000, total_pop=5000)
    pop = build(cfg)
    # Mean degree per layer over its members.
    hh_degree = len(pop.layers["household"].src) / cfg.pop_size
    assert hh_degree == pytest.approx(cfg.contacts_h, rel=0.2)
    n_school = int((pop.school_id >= 0).sum())
    school_degree = len(pop.layers["school"].src) / max(n_school, 1)
    assert school_degree == pytest.approx(cfg.contacts_s, rel=0.2)


def test_neighbors_of_round_trip():
    cfg = PopulationConfig(pop_size=200, total_pop=200)
    pop = build(cfg)
    hh = pop.layers["household"]
    for agent in (0, 13, 199):
        src, neighbors = contact_pairs(hh, [agent])
        assert (src == agent).all()
        same_house = np.nonzero(pop.household_id == pop.household_id[agent])[0]
        assert set(neighbors.tolist()) == set(same_house.tolist()) - {agent}


def test_row_index_matches_edge_list():
    cfg = PopulationConfig(pop_size=600, total_pop=600)
    pop = build(cfg)
    for name, group_id in (("household", pop.household_id), ("school", pop.school_id), ("work", pop.work_id)):
        layer = pop.layers[name]
        src, dst = layer.src, layer.dst
        assert layer.contacts(np.arange(cfg.pop_size))[0].sum() == len(dst) == len(src)
        for agent in range(cfg.pop_size):
            row = layer.contacts([agent])[1]
            np.testing.assert_array_equal(row, dst[src == agent])
            group = np.flatnonzero(group_id == group_id[agent]) if group_id[agent] >= 0 else [agent]
            assert sorted(row.tolist()) == sorted(set(group) - {agent})


def loop_partition(members, mean_contacts, rng):
    """Group assignment written group by group, as the construction was first written."""
    n = len(members)
    group_of = np.empty(n, dtype=np.int64)
    if n == 0:
        return group_of
    n_groups = max(1, int(round(n / (mean_contacts + 1.0))))
    order = rng.permutation(n)
    bounds = np.linspace(0, n, n_groups + 1).astype(np.int64)
    for g in range(n_groups):
        group_of[order[bounds[g]:bounds[g + 1]]] = g
    return group_of


def sorted_clique_layer(ids, group_of, n):
    """(src, dst, indptr) of full cliques per group, built by sorting the edge list.

    Each group's ascending members give their np.triu_indices pairs; both
    directions are stacked and stably sorted by src, and the row index is a
    bincount of src.
    """
    order = np.argsort(group_of, kind="stable")
    _, starts = np.unique(group_of[order], return_index=True)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    pairs = {}  # group size -> its triu indices
    for members in np.split(ids[order], starts[1:]) if len(ids) else []:
        k = len(members)
        if k not in pairs:
            pairs[k] = np.triu_indices(k, k=1)
        a, b = pairs[k]
        us.append(members[a])
        vs.append(members[b])
    u, v = np.concatenate(us), np.concatenate(vs)
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    by_src = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return src[by_src], dst[by_src], indptr


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 999])
@pytest.mark.parametrize("mean_contacts", [0.01, 1.0, 3.3, 60.0])
def test_partition_matches_group_by_group_loop(n, mean_contacts):
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    got = _partition_into_groups(np.arange(n), mean_contacts, a)
    expected = loop_partition(np.arange(n), mean_contacts, b)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("overrides", [
    {"pop_size": 2}, {"pop_size": 3}, {"pop_size": 50}, {"pop_size": 400}, {"pop_size": 2_000},
    {"pop_size": 10_000}, {"pop_size": 100_000},
    {"pop_size": 5_000, "contacts_h": 0.2, "contacts_s": 1.0, "contacts_w": 0.01},
    {"pop_size": 3_000, "contacts_w": 60.0},
])
def test_clique_layers_equal_sorted_edge_list(overrides):
    cfg = PopulationConfig(total_pop=overrides["pop_size"], **overrides)
    n = cfg.pop_size
    for seed in range(3):
        pop = build(cfg, seed)
        for name, group_id in (("household", pop.household_id), ("school", pop.school_id), ("work", pop.work_id)):
            ids = np.flatnonzero(group_id >= 0)
            layer = pop.layers[name]
            src, dst, indptr = sorted_clique_layer(ids, group_id[ids].astype(np.int64), n)
            counts = layer.contacts(np.arange(n))[0]
            for got, expected in zip((layer.src, layer.dst, counts), (src, dst, np.diff(indptr))):
                assert got.dtype == expected.dtype == np.int64
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("overrides", [
    {"pop_size": 50}, {"pop_size": 2_000}, {"pop_size": 10_000},
    {"pop_size": 3_000, "contacts_w": 60.0},
])
def test_clique_layers_hold_no_edge_length_array(overrides):
    """Every array of a clique layer has at most max(2m, n) entries, for its m members of n agents."""
    cfg = PopulationConfig(total_pop=overrides["pop_size"], **overrides)
    n = cfg.pop_size
    pop = build(cfg)
    for name, group_id in (("household", pop.household_id), ("school", pop.school_id), ("work", pop.work_id)):
        layer = pop.layers[name]
        bound = max(2 * int((group_id >= 0).sum()), n)
        arrays = [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 and all(len(a) <= bound for a in arrays)
        assert len(layer.dst) > bound  # the edge list itself would exceed it


@pytest.mark.parametrize("pop_size", [50, 600, 10_000])
def test_clique_contacts_of_any_ids_equal_reference_rows(pop_size):
    """contacts of unsorted, repeated and empty ids gives the sorted-edge reference's rows, id by id."""
    cfg = PopulationConfig(pop_size=pop_size, total_pop=pop_size)
    pop = build(cfg, seed=2)
    rng = np.random.default_rng(pop_size)
    for name, group_id in (("household", pop.household_id), ("school", pop.school_id), ("work", pop.work_id)):
        ids = np.flatnonzero(group_id >= 0)
        _, dst, indptr = sorted_clique_layer(ids, group_id[ids].astype(np.int64), pop_size)
        outside = np.flatnonzero(group_id < 0)[:3]
        for query in (np.empty(0, dtype=np.int64), rng.integers(0, pop_size, size=200),
                      np.array([7, 7, 3, 7]), np.concatenate([outside, [1], outside])):
            counts, got = pop.layers[name].contacts(query)
            rows = [dst[indptr[i]:indptr[i + 1]] for i in query]
            np.testing.assert_array_equal(counts, [len(r) for r in rows])
            np.testing.assert_array_equal(got, np.concatenate([np.empty(0, dtype=np.int64)] + rows))


def community_day(n, contacts, seed=0) -> CommunityDay:
    return CommunityDay.sample(n, *community_offsets(n, contacts), np.random.default_rng(seed))


# 600 agents, two full offsets and a partial one whose window of 100 agents
# starts at 550 and wraps past agent 599 to agent 49.
WRAPPING_DAY = CommunityDay(600, np.array([17, 250, 5]), partial_edges=100, start=550)


def community_edges(day: CommunityDay):
    """The day's full edge list as (lower end, upper end, offset index), offset by offset.

    Offset o joins agent i to agent (i + o) mod n for every i, or, when o is
    the partial (last) offset, for the partial_edges agents from start on.
    """
    n = day.n
    us, vs, js = [], [], []
    for j, o in enumerate(day.offsets.tolist()):
        partial = day.partial_edges and j == len(day.offsets) - 1
        lower = [(day.start + k) % n for k in range(day.partial_edges)] if partial else range(n)
        for i in lower:
            us.append(i)
            vs.append((i + o) % n)
            js.append(j)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(js, dtype=np.int64)


def scan_community_contacts(edges, ids) -> np.ndarray:
    """Contacts of each id in turn, offset by offset: upper end where it is the lower, then the reverse."""
    u, v, j = edges
    chunks = [np.empty(0, dtype=np.int64)]
    for i in ids:
        for k in range(j.max() + 1 if len(j) else 0):
            chunks += [v[(u == i) & (j == k)], u[(v == i) & (j == k)]]
    return np.concatenate(chunks)


@pytest.mark.parametrize("n,contacts", [(1000, 20.0), (1000, 4.0), (9, 8.0), (2, 0.01)])
def test_community_degree_is_exactly_c_and_symmetric(n, contacts):
    day = community_day(n, contacts)
    src, dst = contact_pairs(day, np.arange(n))
    np.testing.assert_array_equal(np.bincount(src, minlength=n), np.full(n, int(contacts)))
    assert not (src == dst).any()
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == len(src)  # no pair twice
    assert pairs == set(zip(dst.tolist(), src.tolist()))


def test_community_offsets_distinct_and_below_half():
    day = community_day(1000, 20.0)
    offsets = day.offsets.tolist()
    assert len(set(offsets)) == len(offsets) == 10
    assert all(1 <= o <= 499 for o in offsets)
    for seed in range(10):  # at n = 10 four offsets take all of 1..4, never n / 2 = 5
        assert sorted(community_day(10, 8.0, seed).offsets.tolist()) == [1, 2, 3, 4]


@pytest.mark.parametrize("n,contacts", [(1000, 7.3), (1000, 0.5), (101, 3.99), (600, "wrapping")])
def test_fractional_community_mean_gives_rounded_pair_count(n, contacts):
    if contacts == "wrapping":
        day, pair_count = WRAPPING_DAY, 2 * 600 + 100
    else:
        day, pair_count = community_day(n, contacts), round(n * contacts / 2)
    u, v, _ = community_edges(day)
    assert len(u) == pair_count
    src, dst = contact_pairs(day, np.arange(n))
    assert len(src) == 2 * len(u)
    assert not (src == dst).any()
    assert set(zip(src.tolist(), dst.tolist())) == set(zip(u.tolist(), v.tolist())) | set(zip(v.tolist(), u.tolist()))
    # Exactly the window's agents and those the partial offset reaches from it have the extra contact.
    full_degree = 2 * (len(day.offsets) - 1)
    extra = np.bincount(src, minlength=n) - full_degree
    assert set(extra.tolist()) <= {0, 1, 2}
    o = int(day.offsets[-1])
    window = (day.start + np.arange(day.partial_edges)) % n
    expected = np.bincount(window, minlength=n) + np.bincount((window + o) % n, minlength=n)
    np.testing.assert_array_equal(extra, expected)


@pytest.mark.parametrize("layer_name,contacts_c", [
    ("household", None), ("school", None), ("work", None), ("community", 20.0), ("community", 7.3),
    ("community", "wrapping"),
], ids=["household", "school", "work", "community-20", "community-7.3", "community-wrapping"])
def test_contacts_match_edge_list_scan(layer_name, contacts_c):
    """Every layer's contacts(ids), pair by pair and in order, against a scan of its full edge list."""
    n = 600
    pop = build(PopulationConfig(pop_size=n, total_pop=n))
    if contacts_c is None:
        layer = pop.layers[layer_name]

        def scan(i):
            return layer.dst[layer.src == i]
    else:
        layer = WRAPPING_DAY if contacts_c == "wrapping" else community_day(n, contacts_c, seed=5)
        edges = community_edges(layer)

        def scan(i):
            return scan_community_contacts(edges, [i])
    rng = np.random.default_rng(3)
    not_in_school = np.flatnonzero(pop.school_id < 0)[:7]
    not_working = np.flatnonzero(pop.work_id < 0)[:7]
    id_sets = [
        np.empty(0, dtype=np.int64),
        np.arange(n),
        rng.integers(0, n, size=80),  # unsorted, with repeats
        [5, 5, 5],
        not_in_school,
        not_working,
        np.concatenate([not_in_school, [11], not_working, [11]]),
    ]
    if contacts_c is not None:
        # Either side of each end of the partial offset's window, and of
        # where that offset reaches from it, and both ends of the ids.
        first, last, o = layer.start, layer.start + layer.partial_edges - 1, int(layer.offsets[-1])
        ends = np.array([first - 1, first, last, last + 1])
        id_sets.append(np.concatenate([ends, ends + o, [0, n - 1]]) % n)
    for ids in id_sets:
        src, dst = contact_pairs(layer, ids)
        rows = [scan(i) for i in ids]
        assert src.dtype == dst.dtype == np.int64
        np.testing.assert_array_equal(src, np.repeat(np.asarray(ids, dtype=np.int64), [len(r) for r in rows]))
        np.testing.assert_array_equal(dst, np.concatenate([np.empty(0, dtype=np.int64)] + rows))
    if layer_name in ("school", "work"):
        outside = not_in_school if layer_name == "school" else not_working
        assert len(outside) and not len(contact_pairs(layer, outside)[1])


@pytest.mark.parametrize("n,contacts", [(1000, 20.0), (1000, 7.3), (9, 8.0)])
def test_sample_draws_the_offsets_then_the_window_start(n, contacts):
    """The offsets are one choice draw; only a partial offset adds one integers(n) draw for its window."""
    full, partial = community_offsets(n, contacts)
    reference, rng = np.random.default_rng(11), np.random.default_rng(11)
    offsets = reference.choice((n - 1) // 2, size=full + (partial > 0), replace=False) + 1
    start = int(reference.integers(n)) if partial else 0
    day = CommunityDay.sample(n, full, partial, rng)
    assert (day.n, day.partial_edges, day.start) == (n, partial, start)
    np.testing.assert_array_equal(day.offsets, offsets)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert bool(partial) == (contacts == 7.3)


def test_too_many_community_offsets_rejected():
    assert community_offsets(21, 20.0) == (10, 0)
    assert community_offsets(1000, 7.3) == (3, 650)
    with pytest.raises(ConfigurationError):
        community_offsets(21, 22.0)
    with pytest.raises(ConfigurationError):
        community_offsets(21, 20.5)  # ten full offsets plus a partial one
    with pytest.raises(ConfigurationError):
        community_offsets(20, 20.0)  # offset 10 = n / 2 would reach the same slot forward and back


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        build(PopulationConfig(pop_size=1, total_pop=1))
    with pytest.raises(ConfigurationError):
        build(PopulationConfig(pop_size=100, total_pop=100, contacts_h=0.0))
    with pytest.raises(ConfigurationError):
        build(PopulationConfig(pop_size=100, total_pop=100, beta_initial=1.5))
