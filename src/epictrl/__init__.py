"""epictrl: layered agent-based epidemic simulator with learned interventions.

A deterministic SEIRD agent-based model over household/school/work/community
contact layers, wrapped behind a reset/step environment with weekly decision
steps; PPO and DQN+PER agents trained from scratch on numpy; fixed baseline
strategies; calibration against observed case/death series; and analysis
tooling (reproduction-number estimation, economic-loss comparison).
"""

__version__ = "0.1.0"

from .config import (
    DiseaseConfig,
    DqnConfig,
    EnvConfig,
    FullConfig,
    InterventionConfig,
    PopulationConfig,
    PpoConfig,
    RewardWeights,
    load_config,
    save_config,
)
from .env import EpidemicEnv
from .interventions import Action, NULL_ACTION, encode_discrete
from .simulator import DailyCounts, EpiState, Simulation

__all__ = [
    "Action",
    "DailyCounts",
    "DiseaseConfig",
    "DqnConfig",
    "EnvConfig",
    "EpiState",
    "EpidemicEnv",
    "FullConfig",
    "InterventionConfig",
    "NULL_ACTION",
    "PopulationConfig",
    "PpoConfig",
    "RewardWeights",
    "Simulation",
    "encode_discrete",
    "load_config",
    "save_config",
    "__version__",
]
