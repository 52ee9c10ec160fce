"""Committed fingerprints of whole simulation runs.

Each case hashes ``repr`` of a run's output with SHA-256: the DailyCounts
series of 133 ``step_day`` calls under one fixed action, of a schedule
policy's episode with and without activation gating, the per-episode
returns of short training runs (PPO in both action spaces, DQN in the
discrete one), and the trial losses of a small
calibration search. The final checkpoint files of those training runs, and
the output files of small ``epictrl calibrate``, ``simulate``, ``evaluate``
and ``compare`` runs, are hashed byte for byte. Any change that moves a single random draw or count
fails here, not only a change that makes two runs in one process disagree.

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
from pathlib import Path

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
# seeds stay below it under the mixed action, so the pinned 2k mixed seeds
# are 0, 1 and 3: seed 2 infects 39 agents (1.95%). The trace-heavy action
# holds every seed small, so its floor is three times the seeded share and
# its pinned seeds are 1 (63 agents) and 3 (36).
INFECTED_FLOOR = {"null": 0.5, "mixed": 0.025, "trace-heavy": 0.015}

FINGERPRINTS = {
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


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def make_cfg(agents: int = 2000, seeded: int = 10) -> FullConfig:
    cfg = FullConfig()
    cfg.population.pop_size = agents
    cfg.population.total_pop = float(agents)
    cfg.population.pop_infected = float(seeded)
    return cfg


# 2k agents, ten seeded, at a community mean of 7.3: three full offsets and
# a partial one that joins only some slots. Seed 0 under the mixed action
# infects 33 agents, below the floor.
COMMUNITY_FINGERPRINTS = {
    (7.3, "mixed", 1): "175e01872af845edaa6e120577821e5bf3cf0ead7943c940b24323f3c30d5f44",
    (7.3, "null", 0): "fb27f9707bb18b8702f852be09961b4f878cd6a694f02e19a91683d29cdd163e",
    (7.3, "null", 1): "e69d4803e82e0d8ab165348b6352427faa854a276a5ed2b5f25194e6b3153cae",
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


# Every series case again, each Simulation drawing its community layer on the
# worker thread (simulator.PIPELINE_MIN_AGENTS patched to 2): one day ahead,
# the same draws.
PIPELINED_CASES = [(*key, None, FINGERPRINTS[key]) for key in sorted(FINGERPRINTS)] + [
    (2000, 10, action, seed, contacts_c, COMMUNITY_FINGERPRINTS[(contacts_c, action, seed)])
    for contacts_c, action, seed in sorted(COMMUNITY_FINGERPRINTS)
]


@pytest.mark.parametrize("agents,seeded,action,seed,contacts_c,expected", PIPELINED_CASES)
def test_series_fingerprint_pipelined(monkeypatch, agents, seeded, action, seed, contacts_c, expected):
    monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 2)
    assert series_run(agents, seeded, action, seed, contacts_c)[1] == expected


def test_pipelined_equals_inline_at_100k(monkeypatch):
    cfg = make_cfg(100_000, 500)

    def run(pipelined: bool) -> list:
        sim = Simulation(cfg.population, cfg.disease, cfg.interventions, 0)
        assert (sim._next_community is not None) == pipelined
        return [sim.step_day(ACTIONS["mixed"]) for _ in range(14)]

    pipelined = run(True)  # the default threshold is below 100k
    monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 100_001)
    assert pipelined == run(False)
    assert pipelined[-1].new_infections and pipelined[-1].new_quarantined


SCHEDULES = {"7w7l": seven_work_seven_lockdown, "uk-approx": uk_approximation_schedule}

# 2k agents, ten seeded, the schedule applied from day 0 (no gating).
SCHEDULE_FINGERPRINTS = {
    ("7w7l", 0): "6cbfd939c75d0d222b359bb37dec9092eeec7003cb325fc90a7bde95a1a14677",
    ("7w7l", 1): "b25bf5f73bd27ac69dfc1a1d0c2ff47c6fc14a7dfcf05e7c8a27e048429f6e56",
    ("7w7l", 2): "d8f12f99e0a9be2072856eee3ddab92a007694e5f4de532babefc67ff12b4b65",
    ("uk-approx", 0): "08b33e2b1a3782aa91ddf94c32177285363b2027c7585a9e1b8e7091d0bc72f5",
    ("uk-approx", 1): "742890c177418e23e9f501416a36e0b7fd4a224eb22eed38b893361da78f37d4",
    ("uk-approx", 2): "ec08df12552e66590a498527702fa5c8b47a9eda42adb51165c9069edd71ec7f",
}


def schedule_digest(name, seed) -> str:
    return digest(ungated_series(make_cfg(), N_DAYS, seed, SCHEDULES[name]()))


@pytest.mark.parametrize("name,seed", sorted(SCHEDULE_FINGERPRINTS))
def test_ungated_schedule_fingerprint(name, seed):
    assert schedule_digest(name, seed) == SCHEDULE_FINGERPRINTS[(name, seed)]


# Gating holds 7w7l's lockdowns back until 50 diagnoses, so at seed 1 more
# agents get infected (1191) than when the schedule applies from day 0 (608).
GATED_INFECTIONS, GATED_FINGERPRINT = 1191, "ac8fe77c0c50526de239e06636e69641e0a7b6d3140b63ed22038a2c6b0d61a1"


def gated_run() -> tuple[int, str]:
    episode = evaluate(seven_work_seven_lockdown(), EpidemicEnv(make_cfg()), [1])[0]
    return episode.cumulative_infections, digest(episode.series)


def test_gated_schedule_fingerprint():
    assert gated_run() == (GATED_INFECTIONS, GATED_FINGERPRINT)


TRAINING_FINGERPRINTS = {
    ("dqn", "discrete"): "f5786fc1bb87334b0bea475f5ac2ed3fded682dff0b73b5b0edcfb108b2c0d36",
    ("ppo", "continuous"): "d3cddc6fd44bc49cec03c799920c3b622474aacd601d0f92fdfca5fbec9e898e",
    ("ppo", "discrete"): "51c23a6bdb3225cfee4c7f44eafa4ee050c1a0f9a2f0ccca59efc0b8254f10ec",
}


# SHA-256 of the bytes of the same runs' checkpoint_final.json.
CHECKPOINT_FINGERPRINTS = {
    ("dqn", "discrete"): "990b802e486a996ff19dcd47085b58aa49405f790d61ba4b676b7b46469fc726",
    ("ppo", "continuous"): "178f317d7d65909bdc76bf485aa5ac9c18e9e417c2015483b2b0d9ffb335e62e",
    ("ppo", "discrete"): "245b7d4fb8bd7f7dd3f88f443321e13fd34777a5e4f58aa6604a14cd18d4361c",
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


def test_training_fingerprints_pipelined(monkeypatch):
    monkeypatch.setattr(simulator, "PIPELINE_MIN_AGENTS", 2)
    key = ("ppo", "continuous")
    assert training_digests(*key) == (TRAINING_FINGERPRINTS[key], CHECKPOINT_FINGERPRINTS[key])


SEARCH_FINGERPRINT = "d06eb1129be4c4adb626436d9d330999e2e842b8cab533e032f5402418cf1690"


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
    "fit_comparison.csv": "1ecea6bbd2eaa9c9c1ca1f795dd68bfe6198b6e0051611f72d71897bc23acfa4",
    "trial_log.csv": "422778104812b20b70ad2c3eaf8c6bb9462872060b4a4ec91f7cf41f6ff8a444",
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
    "daily_counts.csv": "f9132ad1176d2138252c2a31b35db296b2327f4677a9357ad68192f048480770",
    "manifest.json": "7617128d4de387f20b1535ec01a4ad1657da9020963f8f720bb365e50193ec9e",
    "summary.json": "906fe1c56a2d257ccd7e93d02fcb7a05c37edb68198de64d6ad3035d62fe13dc",
}

EVALUATE_CLI_FINGERPRINTS = {
    "manifest.json": "70a1a3fad47ecdaa8e7a801ebd33880053b483974b39a1960e92fb134618d2ff",
    "metrics.csv": "05c1f5593e49308a1ad1e62091691e43e1c87430bc01e9700e7f81cbec4733af",
    "summary.json": "d84dfe2770ca65f0c7eba33c48a90675511b01b71aa219f9fac063e202e36a96",
    "trace_seed1.jsonl": "051f4492bd15bf3e54d2e65b79765b126431db905d4b07196db71bea2ccdcdaa",
    "trace_seed2.jsonl": "33f0cc8995f1919089e9d1d123a0f60fd1f975f806f836f314b12f74436a552f",
    "trace_seed3.jsonl": "38d11f0bafc358ac7db8d126fc2b9d45bea1d39667059ef0a45554b08fd14ce5",
}

COMPARE_CLI_FINGERPRINTS = {
    "manifest.json": "e99ec340d790822fd9f617b63fe30b20fd73ad0a5e56371419c3b0eab022b1e7",
    "report.csv": "abbfdf542a13ecfeb739642b1c101918aa848ce56080cb03de68ad0d749abd7e",
    "report.txt": "f70e3c441c4379f72b22870c26409b14d30a2e48f321df1cada16c3c5bc37fd8",
    "rt_7w7l_seed1.csv": "bc156e7e9c681e84b6e553409e14d8053337022e1d349ef972b87d18ae29e3ed",
    "rt_7w7l_seed2.csv": "8610af1b94048241b1f8d8cf979e0c65b0b71dd3b3b1b247687c9d2dcc4d6598",
    "rt_7w7l_seed3.csv": "9fc81b71903de1336a0947e141ccd4ee071fa1f3891965a3274d570853fdd2f4",
    "rt_none_seed1.csv": "5732412bd95872c14448df7063249de8022b0fa4a7efc90deac5b06620304f26",
    "rt_none_seed2.csv": "1877367f971eb6d51558c68d3d12477b30c0fe2db26bb27c2e42f89d3ee4e029",
    "rt_none_seed3.csv": "ce63dd3477ada4558ce6469f4b752a0c8d60d16331f397e7ff31aff64e8dbde8",
    "rt_uk-approx_seed1.csv": "792d1538bebfba1501cc21b7ce3bc623ccd7389eb436ca039ac2f46e576762a9",
    "rt_uk-approx_seed2.csv": "14bc5dd1fbfb2604203fc8a475adb5e718907f4aa7eca01850ca12c430d4ea6e",
    "rt_uk-approx_seed3.csv": "5c157c9532e75326f4ba79db0bef66a8c48697ac223a7af90ef6c7ce2368efe8",
    "traces/7w7l_seed1.csv": "f9132ad1176d2138252c2a31b35db296b2327f4677a9357ad68192f048480770",
    "traces/7w7l_seed2.csv": "15651706948ae16946ec706f55d4a45950782fc382cb33f9205e85826df6beb9",
    "traces/7w7l_seed3.csv": "adb886de39a9fbf114150cdf1c86fac91009fd6c4a267412628d1803be8032be",
    "traces/none_seed1.csv": "2157fb845bc8f17bd0c87862c92f2731da5a10d34896e3301f8b58d89b42313f",
    "traces/none_seed2.csv": "9f00f0f4649ac735e85f6890c0287d2302f83ed8d53fec26f261c09a97397592",
    "traces/none_seed3.csv": "447dc2e571f6e61cd07b0c9647109417bddd6f9248290cecd02276cb17a05404",
    "traces/uk-approx_seed1.csv": "412cc272935c9e2da6772d6e70d7e44979892c131e534a05218a0af5bfcc4646",
    "traces/uk-approx_seed2.csv": "11019f87fd080305ed6c7ce25cabd8f537b947a884e7027099b8cd6339703b2a",
    "traces/uk-approx_seed3.csv": "4dab9cc799b27f7a0b5630c2ab8f5ef3c13956b8823695c2623b5da085871dab",
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
