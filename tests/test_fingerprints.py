"""Committed fingerprints of whole simulation runs.

Each case hashes ``repr`` of a run's output with SHA-256: the DailyCounts
series of 133 ``step_day`` calls under one fixed action (and of 14 at 100k
agents), of a schedule policy's episode with and without activation gating,
the per-episode returns of short training runs (PPO in both action spaces,
DQN in the discrete one), and the trial losses of a small calibration
search. The final checkpoint files of those training runs, and the output
files of small ``epictrl calibrate``, ``simulate``, ``evaluate`` and
``compare`` runs, are hashed byte for byte. Any change that moves a single
random draw or count fails here, not only a change that makes two runs in
one process disagree.

A deliberate model change re-records every table at once. From the root of
the repository,

    PYTHONPATH=src python -m tests.test_fingerprints

prints each case's current digest in the layout of the tables below.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from epictrl import Action, EpidemicEnv, FullConfig, NULL_ACTION, Simulation, simulator
from epictrl.agents import train
from epictrl.baselines import seven_work_seven_lockdown, uk_approximation_schedule
from epictrl.calibration import CalibrationSpec, search
from epictrl.cli import main
from epictrl.env import evaluate

from tests.episodes import ungated_series
from tests.test_calibration import cheap_setup, synthetic_observed
from tests.test_cli import BASE_OVERRIDES, write_observed

N_DAYS = 133
# "trace-heavy" quarantines many contacts, so quarantined agents sit at both
# ends of transmission candidates and diagnosed agents transmit.
ACTIONS = {"null": NULL_ACTION, "mixed": Action(0.75, 0.5, 0.5), "trace-heavy": Action(0.5, 0.75, 0.75)}
# Share of agents ever infected that shows the epidemic took off: for the
# mixed action, five times the seeded share. At 2k agents about a fifth of
# seeds stay below it under the mixed action; the pinned 2k mixed seeds 0,
# 1 and 3 infect 295, 348 and 108 agents. The trace-heavy action holds
# every seed small, so its floor is three times the seeded share and its
# pinned seeds are the first two above it, 5 (34 agents) and 9 (37).
INFECTED_FLOOR = {"null": 0.5, "mixed": 0.025, "trace-heavy": 0.015}

FINGERPRINTS = {
    (2000, 10, "mixed", 0): "838226c99940d485b0a579602f0db0ec127b8800fc6435c0f88bbe1875b53ab5",
    (2000, 10, "mixed", 1): "59741adfb57179e86c2d4a5368dc3dc504fa159bc35e8bf65e90a4dfff048a81",
    (2000, 10, "mixed", 3): "2db367ce7e2ec53c39d2f6f5f3db74c3b9aa99cc27043653190e3d0c992600db",
    (2000, 10, "null", 0): "9bd960fd7d897d77fa4b049751c455384c8446362e2a43db7e4c3d49ee372812",
    (2000, 10, "null", 1): "b78e6d79d403cc68e72246578db8657682ae4c86c477de6a95cac327458ee698",
    (2000, 10, "null", 2): "595d7198e364db1ce65e839d2421e6c2df3a6dc97d1ce94f903ce96cc80cf287",
    (2000, 10, "trace-heavy", 5): "6238b9f1a83629205d9e247d7364bbabe59cef07bc0c0c21d341cf0b959ee9fe",
    (2000, 10, "trace-heavy", 9): "628e0c13815e7e1259069c99fcefbab4f1f99caff2bd8a1ac5ba0f119ae7ec12",
    (10000, 50, "mixed", 0): "28fe58adabaa7df6d9e9b568ed449f085dafd02cd0ab6ef81c1e008e60b012d3",
    (10000, 50, "mixed", 1): "2853c4adf626db96598dd0f2c6d501c2590dfc0bd14fe46fd786e814f284cb8c",
    (10000, 50, "mixed", 2): "7986d86ae0c4b1bd45b9c9ecd80f9ab8492a40ab16652097b94c7d9f010a9217",
    (10000, 50, "null", 0): "757d7319130aec05a3d82ec56b051de46e377385c4d4f3d19b0b5d735c83b876",
    (10000, 50, "null", 1): "ec5c54abe54fe90c570cc0162515adce2ad8c67670541e23e270f731e819a74d",
    (10000, 50, "null", 2): "2e5525d801b30dcad25f2737fdb53cba2046872e07c0186e8a6831bf77a316f5",
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def make_cfg(agents: int = 2000, seeded: int = 10) -> FullConfig:
    cfg = FullConfig()
    cfg.population.pop_size = agents
    cfg.population.total_pop = float(agents)
    cfg.population.pop_infected = float(seeded)
    return cfg


# 2k agents, ten seeded, at a community mean of 7.3: three full offsets and
# a partial one that joins only a window of agents. Under the mixed action
# seeds 0-2 infect 23, 27 and 39 agents, below the floor, and seed 3 53.
COMMUNITY_FINGERPRINTS = {
    (7.3, "mixed", 3): "503993347bb91790bb4094a27739fd1e521c5a978bc9cff505fe3e9f5a45b123",
    (7.3, "null", 0): "b7220222a2025e5d3b9b5ced8c225e911017d9669a3df7d8fa8fb9e4dae12be0",
    (7.3, "null", 1): "482a4b3aa00cd59b55493b25d6606cd0a780dece0b8e74085f86cc12b7ad40aa",
}


def series_run(agents, seeded, action, seed, contacts_c=None) -> tuple[int, str]:
    """Agents ever infected and the series digest of one fixed-action run."""
    cfg = make_cfg(agents, seeded)
    if contacts_c is not None:
        cfg.population.contacts_c = contacts_c
    sim = Simulation(cfg.population, cfg.disease, cfg.interventions, seed)
    series = [sim.step_day(ACTIONS[action]) for _ in range(N_DAYS)]
    return agents - series[-1].S, digest(series)


@pytest.mark.parametrize("agents,seeded,action,seed", sorted(FINGERPRINTS))
def test_series_fingerprint(agents, seeded, action, seed):
    infected, value = series_run(agents, seeded, action, seed)
    assert infected > INFECTED_FLOOR[action] * agents, "the epidemic did not take off"
    assert value == FINGERPRINTS[(agents, seeded, action, seed)]


@pytest.mark.parametrize("contacts_c,action,seed", sorted(COMMUNITY_FINGERPRINTS))
def test_community_mean_fingerprint(contacts_c, action, seed):
    infected, value = series_run(2000, 10, action, seed, contacts_c)
    assert infected > INFECTED_FLOOR[action] * 2000, "the epidemic did not take off"
    assert value == COMMUNITY_FINGERPRINTS[(contacts_c, action, seed)]


# 100k agents, 500 seeded, 14 days under the mixed action: the population
# of the benchmark's episodes, with new infections and quarantines on the
# last day.
HUNDRED_K_DAYS, HUNDRED_K_FINGERPRINT = 14, "70f22de8ebe74d3e6ec6aae085f605333aecd6fa7009018fe8e67d4344696db7"


def hundred_k_run() -> tuple[int, int, str]:
    """The last day's new infections and quarantines, and the series digest."""
    cfg = make_cfg(100_000, 500)
    sim = Simulation(cfg.population, cfg.disease, cfg.interventions, 0)
    series = [sim.step_day(ACTIONS["mixed"]) for _ in range(HUNDRED_K_DAYS)]
    return series[-1].new_infections, series[-1].new_quarantined, digest(series)


def test_series_fingerprint_at_100k():
    infections, quarantined, value = hundred_k_run()
    assert infections and quarantined
    assert value == HUNDRED_K_FINGERPRINT


@dataclass
class PermutedCommunityDay:
    """The community layer as it was before it was laid on the agents' own ids.

    Each day draws a relabelling (``rng.permutation(n)``), then the offsets;
    each full offset o joins every slot p to (p + o) mod n, and the partial
    offset joins only the slots p < ``partial_edges``. It answers
    ``contacts(ids)`` in the order population.CommunityDay does.
    """

    agent_at: np.ndarray  # slot -> agent
    slot_of: np.ndarray   # agent -> slot
    offsets: np.ndarray
    partial_edges: int

    @classmethod
    def sample(cls, n: int, full: int, partial: int, rng: np.random.Generator) -> "PermutedCommunityDay":
        agent_at = rng.permutation(n)
        slot_of = np.empty(n, np.int64)
        slot_of[agent_at] = np.arange(n)
        offsets = rng.choice((n - 1) // 2, size=full + (partial > 0), replace=False) + 1
        return cls(agent_at, slot_of, offsets, partial)

    def contacts(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(ids, dtype=np.int64)
        n = len(self.agent_at)
        steps = np.repeat(self.offsets, 2)
        steps[0::2] -= n
        steps[1::2] *= -1
        slots = self.slot_of[ids]
        nbr = slots[:, None] + steps  # in [-n, n): negative indexing wraps
        if not self.partial_edges:
            return np.full(len(ids), len(steps), dtype=np.int64), self.agent_at[nbr.ravel()]
        m = self.partial_edges
        exists = np.ones(nbr.shape, dtype=bool)
        exists[:, -2] = slots < m
        exists[:, -1] = nbr[:, -1] % n < m
        return len(steps) - 2 + exists[:, -2] + exists[:, -1], self.agent_at[nbr[exists]]


# The series and training cases of the code whose community layer was a
# circulant graph over a fresh relabelling of the agents each day, drawn a
# day ahead on a worker thread (hence the names). Run with that layer in
# place of population.CommunityDay, the code reproduces their digests bit
# for bit: laying the layer on the agents' own ids changed nothing else.
PERMUTED_FINGERPRINTS = {
    (2000, 10, "mixed", 0): "6ca2416b25c55d6fafd3beee40c7f6a9880fc0e888a04832700bdfb57ed0e6a2",
    (2000, 10, "mixed", 1): "eea9d3dd09525e07133f6d824ec87bd9678e0ae181e5f1d0ffb59b9700f571bd",
    (2000, 10, "mixed", 3): "e04b7ba6b0f9c89ab16b89f3b47f0b860f2bb813aee1f497823ad15f5a91176b",
    (2000, 10, "null", 0): "6fcd9561654655cf0f76d14406c3c4824e2ca1e7f58d4bdb5eadaee69f99a2bd",
    (2000, 10, "null", 1): "fc343801620885dae0684c567d18263ef6a5037a8fb8b02559de4271de72d36f",
    (2000, 10, "null", 2): "acfe5c0a851719bc05725fbeeb2099cca821670cb3c91d34bfd7c67828e5926a",
    (2000, 10, "trace-heavy", 1): "96825b717d3a49bdbd57877f95a356a544836a65bcd007e74011bac3eb5c8f3f",
    (2000, 10, "trace-heavy", 3): "8b1bdf81dae089ff973efe93fe2a8e2636b78d27fb7ddaf7ed380e8ce13d45e7",
    (10000, 50, "mixed", 0): "3bce691add8a7d711ce340e8cd5383d55b4ea257a6d8428c71cc6f6768b8e449",
    (10000, 50, "mixed", 1): "db0613e6f60572146e5509cb2231d196fc53a77a52c4f7e60dd12d0046ecaa3d",
    (10000, 50, "mixed", 2): "d39c788ac48ab0abd9dd0a2aa2fe3fc45dc955d8117f1b6f8de3470483ce8afb",
    (10000, 50, "null", 0): "74f2e0fbc6a0adfb1bd335d6d5e845cf2e3b7ee269c3ae9c50b88843863c6346",
    (10000, 50, "null", 1): "2147d1d36728d9091c7c39cb15fc0e3b29120c1f9bcc166be62ee6c3dd912c5a",
    (10000, 50, "null", 2): "ba3c452f4a4676496d3a7483f2d7ce11ab5a70169698e8f9a68d5523f4d07f80",
}

PERMUTED_COMMUNITY_FINGERPRINTS = {
    (7.3, "mixed", 1): "175e01872af845edaa6e120577821e5bf3cf0ead7943c940b24323f3c30d5f44",
    (7.3, "null", 0): "fb27f9707bb18b8702f852be09961b4f878cd6a694f02e19a91683d29cdd163e",
    (7.3, "null", 1): "e69d4803e82e0d8ab165348b6352427faa854a276a5ed2b5f25194e6b3153cae",
}

PIPELINED_CASES = [(*key, None, PERMUTED_FINGERPRINTS[key]) for key in sorted(PERMUTED_FINGERPRINTS)] + [
    (2000, 10, action, seed, contacts_c, PERMUTED_COMMUNITY_FINGERPRINTS[(contacts_c, action, seed)])
    for contacts_c, action, seed in sorted(PERMUTED_COMMUNITY_FINGERPRINTS)
]


@pytest.mark.parametrize("agents,seeded,action,seed,contacts_c,expected", PIPELINED_CASES)
def test_series_fingerprint_pipelined(monkeypatch, agents, seeded, action, seed, contacts_c, expected):
    monkeypatch.setattr(simulator, "CommunityDay", PermutedCommunityDay)
    infected, value = series_run(agents, seeded, action, seed, contacts_c)
    assert infected > INFECTED_FLOOR[action] * agents, "the epidemic did not take off"
    assert value == expected


SCHEDULES = {"7w7l": seven_work_seven_lockdown, "uk-approx": uk_approximation_schedule}

# 2k agents, ten seeded, the schedule applied from day 0 (no gating).
SCHEDULE_FINGERPRINTS = {
    ("7w7l", 0): "4f9d1f0ab5d231d91a9dcd1444cfb2906b4aa00d93b2253da36ac3d0e31ade3d",
    ("7w7l", 1): "ca83f30bbad14315832479af9bf0b83caaa5eee7a16ef5dbb7f878b92e8571c4",
    ("7w7l", 2): "f5e2a917dbce848a2e64abca58adb125472355078e4450a141d59788fab45d79",
    ("uk-approx", 0): "d59742a96db68bf2f4a5e77857bc0936bd9c79e7205b7bc6e7061b415ca9f8de",
    ("uk-approx", 1): "fd577ae78830344c8fb1db14fadbc7708489d1e9e44b59d0b5da55a5b5824a1d",
    ("uk-approx", 2): "78f1ff8ff213cbcd33ce4e4e7ff685ec11c9a9cb08dad64cb59cab931c5dbc45",
}


def schedule_digest(name, seed) -> str:
    return digest(ungated_series(make_cfg(), N_DAYS, seed, SCHEDULES[name]()))


@pytest.mark.parametrize("name,seed", sorted(SCHEDULE_FINGERPRINTS))
def test_ungated_schedule_fingerprint(name, seed):
    assert schedule_digest(name, seed) == SCHEDULE_FINGERPRINTS[(name, seed)]


# Gating holds 7w7l's lockdowns back until 50 diagnoses, so at seed 1 more
# agents get infected (1189) than when the schedule applies from day 0 (562).
GATED_INFECTIONS, GATED_FINGERPRINT = 1189, "2252f8dc548fcc7c7e0758e5e9d942921e4489f127da8ccaa5dc3b2794bb518d"


def gated_run() -> tuple[int, str]:
    episode = evaluate(seven_work_seven_lockdown(), EpidemicEnv(make_cfg()), [1])[0]
    return episode.cumulative_infections, digest(episode.series)


def test_gated_schedule_fingerprint():
    assert gated_run() == (GATED_INFECTIONS, GATED_FINGERPRINT)


TRAINING_FINGERPRINTS = {
    ("dqn", "discrete"): "90c72043f326632cc0fda578cfbe18d70a61b1204e59724c07cabe5ad89495f9",
    ("ppo", "continuous"): "02b6a34d2d7ed807ab9f73dea75e3cb62c40b62a5750da79ba00905f9b3509f2",
    ("ppo", "discrete"): "c782d9d010e539198def9f2669a7af63f56976d5c7ab40390757abe9c51a04f0",
}


# SHA-256 of the bytes of the same runs' checkpoint_final.json.
CHECKPOINT_FINGERPRINTS = {
    ("dqn", "discrete"): "ef3224d39f129a39849307924dd4c3568a0a2fb3e102c7cdb2286b59893240c9",
    ("ppo", "continuous"): "e391296379142fd8ca3cfdb5378c5cb65557d9620517b271c8bd420fb0ac8dd9",
    ("ppo", "discrete"): "bca528d090bd32df5cd07c4ad4e8e4dacee782918226ca9ef1869f1a46e057f1",
}


def training_digests(kind, space) -> tuple[str, str]:
    """Digests of the return curve and of the final checkpoint file."""
    cfg = make_cfg()
    cfg.env.action_space_kind = space
    cfg.ppo.n_steps = 38  # two PPO updates within the five episodes
    with tempfile.TemporaryDirectory() as out:
        result = train(lambda: EpidemicEnv(cfg), kind, space, cfg, total_episodes=5, seed=3,
                       checkpoint_dir=out)
        checkpoint = Path(out, "checkpoint_final.json").read_bytes()
    return digest([float(r) for r in result.curve]), hashlib.sha256(checkpoint).hexdigest()


@pytest.mark.parametrize("kind,space", sorted(TRAINING_FINGERPRINTS))
def test_training_curve_fingerprint(kind, space):
    assert training_digests(kind, space)[0] == TRAINING_FINGERPRINTS[(kind, space)]


@pytest.mark.parametrize("kind,space", sorted(CHECKPOINT_FINGERPRINTS))
def test_training_checkpoint_fingerprint(kind, space):
    assert training_digests(kind, space)[1] == CHECKPOINT_FINGERPRINTS[(kind, space)]


# The ("ppo", "continuous") return curve and checkpoint digests under
# PermutedCommunityDay, as for PIPELINED_CASES.
PERMUTED_TRAINING_FINGERPRINTS = (
    "d3cddc6fd44bc49cec03c799920c3b622474aacd601d0f92fdfca5fbec9e898e",
    "178f317d7d65909bdc76bf485aa5ac9c18e9e417c2015483b2b0d9ffb335e62e",
)


def test_training_fingerprints_pipelined(monkeypatch):
    monkeypatch.setattr(simulator, "CommunityDay", PermutedCommunityDay)
    assert training_digests("ppo", "continuous") == PERMUTED_TRAINING_FINGERPRINTS


SEARCH_FINGERPRINT = "696451eb8edd81486f2521138d41eb0668d1a7e227c29740da0f342f8f1e2018"


def search_digest() -> str:
    cfg, days = cheap_setup()
    observed = synthetic_observed(cfg, days)
    spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                           trials=6, replications=2, seed=5)
    result = search(spec, observed, cfg, policy=seven_work_seven_lockdown(), n_days=days)
    return digest([t.replication_losses for t in result.trials])


def test_search_fingerprint():
    assert search_digest() == SEARCH_FINGERPRINT


# SHA-256 of the bytes of each output file of `epictrl calibrate` at 400
# agents: four trials (three Sobol points, one local step) of two
# replications each, and the winning trial's mean replication beside the
# observed series.
CALIBRATE_CLI_FINGERPRINTS = {
    "best_params.yaml": "a441581e9061f18d831ad83c899e2560c38c856bc51e7a29a30c2093cce05526",
    "fit_comparison.csv": "688df5b15ce5999b824c5d09e64cede4cd441a8deafb1dd3161a67138158dcbe",
    "trial_log.csv": "1d6dee799de1b8b726940d2d21348094fdeb1e285d81b047f3d440a1472bbe69",
}


def calibrate_cli_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "cal")
        args = ["calibrate", "--out", str(out), "--seed", "1", "--data", str(write_observed(Path(tmp))),
                "--trials", "4", "--replications", "2",
                "--pop-infected-range", "4,20", "--beta-range", "0.02,0.2", *BASE_OVERRIDES]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) == 0
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in sorted(CALIBRATE_CLI_FINGERPRINTS)}


def test_calibrate_cli_fingerprint():
    assert calibrate_cli_digests() == CALIBRATE_CLI_FINGERPRINTS


# SHA-256 of the bytes of every file that `epictrl simulate`, `evaluate` and
# `compare` write at 1,000 agents, ten seeded, over 63 days. Each run writes
# to the relative directory "run", so the manifests record the same out_dir
# wherever the tests run. Under every policy R_t falls below 1 on each of
# seeds 1-3, so every compare row has a crossing day.
CLI_OVERRIDES = ["--set", "population.pop_size=1000", "--set", "population.total_pop=1000",
                 "--set", "population.pop_infected=10", "--set", "env.episode_days=63"]

SIMULATE_CLI_FINGERPRINTS = {
    "daily_counts.csv": "ff94c18118f7f499db39b0b9cfc3386319598cd1bf2695bf494566b901cb18e2",
    "manifest.json": "7617128d4de387f20b1535ec01a4ad1657da9020963f8f720bb365e50193ec9e",
    "summary.json": "f85931a254f1c1cb615aafffdd7e13b7bf50647fd4356b13a192e2335269cf94",
}

EVALUATE_CLI_FINGERPRINTS = {
    "manifest.json": "70a1a3fad47ecdaa8e7a801ebd33880053b483974b39a1960e92fb134618d2ff",
    "metrics.csv": "63166c725a587c47a44a02eaf5b5e0c31e20f4e15e8f4a304d25ae76981ddf5e",
    "summary.json": "6a5079c2324f96f344598504df5f089a7718419b11c01d3bb3a64ce3ee8b4207",
    "trace_seed1.jsonl": "dc7c8bf26f7e138d5eac433d4bdd1a6ec3e126675f5aa7d7647d4025e1ade9c9",
    "trace_seed2.jsonl": "1978f8519a81f6b48585974594f973c57515a2c43eeda6abe464c83e39e7215b",
    "trace_seed3.jsonl": "f90a136b0777b6e453aa2c104ae4f9da5994dd0de0e1ff77fee1b3c3a953f50a",
}

COMPARE_CLI_FINGERPRINTS = {
    "manifest.json": "e99ec340d790822fd9f617b63fe30b20fd73ad0a5e56371419c3b0eab022b1e7",
    "report.csv": "7db58525bbd962ca6d16a125d1ed7cf842bbde07ae28a146cbda848a196c0459",
    "report.txt": "d33b88b168b0975d3655aae4db282f5a5c0845c47dcca3a1aaddfff655db6218",
    "rt_7w7l_seed1.csv": "0c21c31de9e61a0c9643cd2bfdd58b8d307d10f2d4900eddb533c9a3d4a07c87",
    "rt_7w7l_seed2.csv": "fa1f28848c22dc44dea762d8123872064b1b5fb2ea55ccea70ece7673a21b6e6",
    "rt_7w7l_seed3.csv": "444339bd55222624c79cf4a830daecabab0b30be01a767ade1687d6a8c2819aa",
    "rt_none_seed1.csv": "d69109ed7ae7f2ffa457f15e38e4acab60005756146085290c93c38854dd7869",
    "rt_none_seed2.csv": "ea12e6742f51aa72e0c04d598b5ba11bf37eea0023a8d35d336bda1d6c835dbd",
    "rt_none_seed3.csv": "8a0b20ec6e851509498eaf8609d4842d77c13011426aa76bc6b03a07c7cc4eef",
    "rt_uk-approx_seed1.csv": "320f2c53dfb585218f795e906ff82eab8674d0ce7c950e985bfa4e2b7f284ded",
    "rt_uk-approx_seed2.csv": "0350614189ec4be199541f93ae526b4f61e5df653ab9db02fcafe4b4a767aa68",
    "rt_uk-approx_seed3.csv": "fd270610d937933d5ef28aa0f3913991fb30be81553d6d5490584f05eb04feb6",
    "traces/7w7l_seed1.csv": "ff94c18118f7f499db39b0b9cfc3386319598cd1bf2695bf494566b901cb18e2",
    "traces/7w7l_seed2.csv": "e9f229605f418c1d60046e871eaa166e7aa98ac7331dd5d3d490728f93515428",
    "traces/7w7l_seed3.csv": "606e694210702aa8c4474a5234bad8fd04609862a5103c629898443f5c91995d",
    "traces/none_seed1.csv": "f6db4c3d7a08cadc198918d8c25e12e1a1fb9e9dfba1bf3853f0ffdc65bf78e0",
    "traces/none_seed2.csv": "4de5ad974b8e6614d5382079fc4350ddbbf381422f9c697c178d3f0e92f7cce9",
    "traces/none_seed3.csv": "1132e0d803101c6ba64dcc92c5df3eb38bb035bc7d2010c24d93d9def1213553",
    "traces/uk-approx_seed1.csv": "b35f56012f7cd7786731b1113566d3695d034ad8109cdb239f629615832ae946",
    "traces/uk-approx_seed2.csv": "ea849bff7f8897d2e9b5dd32ad847379cbdef805aeb66d49dce2767507edb679",
    "traces/uk-approx_seed3.csv": "3d34c0fdbe91762d2f0d426d954f19a7d2a2e92adf50ec2041512d96b6b318ae",
}

CLI_RUNS = {
    "simulate": (["simulate", "--seed", "1", "--policy", "schedule:7w7l"], SIMULATE_CLI_FINGERPRINTS),
    "evaluate": (["evaluate", "--seeds", "1-3", "--policy", "schedule:uk-approx"], EVALUATE_CLI_FINGERPRINTS),
    "compare": (["compare", "--seeds", "1-3", "--policy", "none", "--policy", "schedule:7w7l",
                 "--policy", "schedule:uk-approx"], COMPARE_CLI_FINGERPRINTS),
}


def cli_digests(command) -> dict[str, str]:
    """Run one pinned command into ./run and hash each file it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*CLI_RUNS[command][0], "--out", "run", *CLI_OVERRIDES]) == 0
    root = Path("run")
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", sorted(CLI_RUNS))
def test_cli_fingerprint(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digests(command) == CLI_RUNS[command][1]


def _table(name, rows) -> str:
    body = "".join(f"    {key!r}: {value!r},\n".replace("'", '"') for key, value in rows)
    return f"{name} = {{\n{body}}}"


def print_current_digests() -> None:
    """Print every case's digest as the code computes it now, in the tables' layout."""
    rows = []
    for key in sorted(FINGERPRINTS):
        infected, value = series_run(*key)
        rows.append((key, value))
        print(f"# {key}: {infected} agents infected")
    print(_table("FINGERPRINTS", rows))
    print(_table("COMMUNITY_FINGERPRINTS",
                 [(key, series_run(2000, 10, key[1], key[2], key[0])[1]) for key in sorted(COMMUNITY_FINGERPRINTS)]))
    print(f'HUNDRED_K_DAYS, HUNDRED_K_FINGERPRINT = {HUNDRED_K_DAYS}, "{hundred_k_run()[2]}"')
    community_day, simulator.CommunityDay = simulator.CommunityDay, PermutedCommunityDay
    try:
        print(_table("PERMUTED_FINGERPRINTS", [(key, series_run(*key)[1]) for key in sorted(PERMUTED_FINGERPRINTS)]))
        print(_table("PERMUTED_COMMUNITY_FINGERPRINTS", [(key, series_run(2000, 10, key[1], key[2], key[0])[1])
                                                          for key in sorted(PERMUTED_COMMUNITY_FINGERPRINTS)]))
        print(f"PERMUTED_TRAINING_FINGERPRINTS = {training_digests('ppo', 'continuous')!r}".replace("'", '"'))
    finally:
        simulator.CommunityDay = community_day
    print(_table("SCHEDULE_FINGERPRINTS", [(key, schedule_digest(*key)) for key in sorted(SCHEDULE_FINGERPRINTS)]))
    infections, value = gated_run()
    print(f'GATED_INFECTIONS, GATED_FINGERPRINT = {infections}, "{value}"')
    training = {key: training_digests(*key) for key in sorted(TRAINING_FINGERPRINTS)}
    print(_table("TRAINING_FINGERPRINTS", [(key, value[0]) for key, value in training.items()]))
    print(_table("CHECKPOINT_FINGERPRINTS", [(key, value[1]) for key, value in training.items()]))
    print(f'SEARCH_FINGERPRINT = "{search_digest()}"')
    print(_table("CALIBRATE_CLI_FINGERPRINTS", calibrate_cli_digests().items()))
    cwd = os.getcwd()
    for command in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                print(_table(f"{command.upper()}_CLI_FINGERPRINTS", cli_digests(command).items()))
            finally:
                os.chdir(cwd)


if __name__ == "__main__":
    print_current_digests()
