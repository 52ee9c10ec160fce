"""Committed fingerprints of whole simulation runs.

Each case hashes ``repr`` of a run's output with SHA-256: the DailyCounts
series of 133 ``step_day`` calls under one fixed action, of a schedule
policy's episode with and without activation gating, the per-episode
returns of short PPO and DQN training runs, and the trial losses of a small
calibration search. The step_day hashes were recorded before the
simulator's hot paths were rewritten on the per-layer CSR index, the others
before episodes were driven through one runner, so any change that moves a
single random draw or count fails here, not only a change that makes two
runs in one process disagree.
"""

import hashlib

import pytest

from epictrl import Action, EpidemicEnv, FullConfig, NULL_ACTION, Simulation
from epictrl.agents import train
from epictrl.baselines import seven_work_seven_lockdown, uk_approximation_schedule
from epictrl.calibration import CalibrationSpec, search
from epictrl.env import evaluate

from tests.episodes import ungated_series
from tests.test_calibration import cheap_setup, synthetic_observed

N_DAYS = 133
ACTIONS = {"null": NULL_ACTION, "mixed": Action(0.75, 0.5, 0.5)}
# Share of agents ever infected that shows the epidemic took off. At 2k
# agents and seed 2 the mixed action infects 2.8% (56 agents from 10 seeded),
# so the mixed floor is 2.5%, five times the seeded share.
INFECTED_FLOOR = {"null": 0.5, "mixed": 0.025}

FINGERPRINTS = {
    (2000, 10, "null", 0): "2ef41a8aebb12dffb5361003f04ddfb1b5477e14a09586c3c884eca780346af4",
    (2000, 10, "null", 1): "ef6eccbdd70418c3d7d392fe6b1ecab44f9a8df0cfaf3d01457e58a45dbf1071",
    (2000, 10, "null", 2): "69e0bd70337f4cdbd31febcea9f5fff3c22ca1bed7de6b825e218bf8b4eadf14",
    (2000, 10, "mixed", 0): "b5e92717359918c47377f7b83b83a5f70f64a52c0dd4bd386a9cad85a02fd9e2",
    (2000, 10, "mixed", 1): "e0131a4642a7786d0faa8b882f24217f64f5bc1f47f1450fdd76e5df3009c88d",
    (2000, 10, "mixed", 2): "9367b30b06ed70ae6b2a304750098862f848a25299f7f8250f21fb7013bca1ba",
    (10000, 50, "null", 0): "ab3440b644fb34a52af64f99001d773d0a2c95631a623dbd08d692177cba2ec1",
    (10000, 50, "null", 1): "21c52d5705b05ae101b2184ddb6b448c9b40b60716c92be9bbf5fe26713c4bb0",
    (10000, 50, "null", 2): "8891a9d6b345c61de747ca8f4c3f4d826cf585504663efa319544b026f198335",
    (10000, 50, "mixed", 0): "e69b6a961b625b4efc33f3a71947d45128ee9621e7c4eb06ae4f0301e6a563aa",
    (10000, 50, "mixed", 1): "199d0e11f1e8ffc269cbd7128b18e7d22c101fc35e889800f19a439e56191351",
    (10000, 50, "mixed", 2): "eba50aa7971328d2232e1133da5fbe78411e51ab534836286f97dfd86f01d660",
}




def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def make_cfg(agents: int = 2000, seeded: int = 10) -> FullConfig:
    cfg = FullConfig()
    cfg.population.pop_size = agents
    cfg.population.total_pop = float(agents)
    cfg.population.pop_infected = float(seeded)
    return cfg


@pytest.mark.parametrize("agents,seeded,action,seed", sorted(FINGERPRINTS))
def test_series_fingerprint(agents, seeded, action, seed):
    cfg = make_cfg(agents, seeded)
    sim = Simulation(cfg.population, cfg.disease, cfg.interventions, seed)
    series = [sim.step_day(ACTIONS[action]) for _ in range(N_DAYS)]

    infected = agents - series[-1].S
    assert infected > INFECTED_FLOOR[action] * agents, "the epidemic did not take off"
    assert digest(series) == FINGERPRINTS[(agents, seeded, action, seed)]


SCHEDULES = {"7w7l": seven_work_seven_lockdown, "uk-approx": uk_approximation_schedule}

# 2k agents, ten seeded, the schedule applied from day 0 (no gating).
SCHEDULE_FINGERPRINTS = {
    ("7w7l", 0): "994bfaa04f38fa48510cc033b3857352169f2d656f47043da89f6e1d561e4cd8",
    ("7w7l", 1): "e53485fbe69ded034c70344be957b670af3094daee20c70365ba6e9556a54f91",
    ("7w7l", 2): "193cd7103071031b064508bb61db3cce1567fd7492845a6d3da1773c3a5a009d",
    ("uk-approx", 0): "56055000b06f3453a11291a92b2380e3d768355b036f1e19f9b8e960f1ae12a1",
    ("uk-approx", 1): "b91893d40fede6d003e085b33058df80d97a1d445d80faf928e86156aa836991",
    ("uk-approx", 2): "2c504b64262ed7c6be8836762f155b66b60b7d66412203271b6d0aff7f69ff6c",
}


@pytest.mark.parametrize("name,seed", sorted(SCHEDULE_FINGERPRINTS))
def test_ungated_schedule_fingerprint(name, seed):
    series = ungated_series(make_cfg(), N_DAYS, seed, SCHEDULES[name]())
    assert digest(series) == SCHEDULE_FINGERPRINTS[(name, seed)]


def test_gated_schedule_fingerprint():
    # Gating holds 7w7l's lockdowns back until 50 diagnoses: 1216 agents get
    # infected at seed 1, against 559 when the schedule applies from day 0.
    episode = evaluate(seven_work_seven_lockdown(), EpidemicEnv(make_cfg()), [1])[0]
    assert episode.cumulative_infections == 1216
    assert digest(episode.series) == "c94229762ce883e19b3543996b425b2a75aca1d748be6232a7b29ea151941991"


TRAINING_FINGERPRINTS = {
    ("ppo", "continuous"): "736911c6a7948a190083521cc575d827c98860b9398a7b76e7bd1c131baf3c79",
    ("dqn", "discrete"): "60e69572c68e6dd5d068f4b90b1c1f058b8714f44a29d75219b8ef2d9d7fdf3c",
}


@pytest.mark.parametrize("kind,space", sorted(TRAINING_FINGERPRINTS))
def test_training_curve_fingerprint(kind, space):
    cfg = make_cfg()
    cfg.env.action_space_kind = space
    cfg.ppo.n_steps = 38  # two PPO updates within the five episodes
    result = train(lambda: EpidemicEnv(cfg), kind, space, cfg, total_episodes=5, seed=3)
    assert digest([float(r) for r in result.curve]) == TRAINING_FINGERPRINTS[(kind, space)]


def test_search_fingerprint():
    pop_cfg, disease, ivs, days = cheap_setup()
    observed = synthetic_observed(pop_cfg, disease, ivs, days)
    spec = CalibrationSpec(pop_infected_range=(2, 30), beta_range=(0.02, 0.2),
                           trials=6, replications=2, seed=5)
    result = search(spec, observed, pop_cfg, disease, ivs,
                    policy=seven_work_seven_lockdown(), n_days=days)
    losses = [t.replication_losses for t in result.trials]
    assert digest(losses) == "4b340158aceaa75fadc26edcc03481bda1a7571bc491b91058dacfaf92b8c3eb"
