"""Swarm behavior cloning: MLP policy ensembles trained with a pairwise
hidden-activation alignment penalty, plus the desk-scale control tasks,
metrics, and experiment harness used to evaluate it."""

from .data import Dataset, DatasetMeta, load_dataset, save_dataset
from .ensemble import (
    Ensemble,
    LossBreakdown,
    TrainConfig,
    load_ensemble,
    save_ensemble,
    standard_loss,
    swarm_loss,
    train,
)
from .envs import ENV_IDS, EnvSpec, generate_dataset, make_env
from .errors import (
    ConfigError,
    DegenerateBaselineError,
    DimensionMismatchError,
    EpisodeDoneError,
    SwarmBCError,
    TiedModeError,
    TrainingDivergedError,
)
from .metrics import (
    RunRecord,
    Trajectory,
    baseline_returns,
    mean_action_difference,
    rollout,
    scaled_return,
)
from .theory import (
    GridDensity,
    concentration_report,
    gaussian_grid_density,
    mode_mass,
    power_density,
    uniform_grid_density,
)

__version__ = "0.1.0"
