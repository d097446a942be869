"""Trace-driven simulator and federated DQN trainer for runtime DNN
partitioning across a wearable-phone-cloud tier."""

__version__ = "0.1.0"

from .profiles import (  # noqa: F401
    ApplicationProfile,
    DeviceProfile,
    PartitionConfig,
    ProfileSpec,
    enumerate_configs,
    extend_profile,
    load_profile,
    save_profile,
    synthesize_profile,
)
from .traces import (  # noqa: F401
    PerturbedReplay,
    Trace,
    TraceSynthesisSpec,
    load_trace,
    sample_cloud_latency,
    save_trace,
    synthesize_trace,
)
from .env import CostWeights, ObservationBounds, OffloadEnv  # noqa: F401
from .agent import AgentSettings, DQNAgent, ReplayBuffer, ValidationProbe  # noqa: F401
from .network import QNetwork, load_checkpoint, save_checkpoint  # noqa: F401
from .federation import (  # noqa: F401
    AggregationState,
    FederationConfig,
    aggregate_incremental,
    aggregate_mean,
    run_federation,
)
from .baseline import BaselineObservation, neurosurgeon_select, run_baseline  # noqa: F401
from .metrics import band, moving_avg_violations  # noqa: F401
from .config import ExperimentConfig, ConfigError, load_config, parse_config  # noqa: F401
from .runner import run_experiment, run_one, write_experiment  # noqa: F401
