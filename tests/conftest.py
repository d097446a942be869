import numpy as np
import pytest

from fedpart.agent import AgentSettings, DQNAgent, ValidationProbe
from fedpart.config import ExperimentConfig, InputsSection
from fedpart.env import CostWeights, ObservationBounds
from fedpart.network import QNetwork
from fedpart.profiles import ProfileSpec, synthesize_profile
from fedpart.runner import AgentBuilder
from fedpart.traces import Trace, TraceSynthesisSpec, synthesize_trace


@pytest.fixture(scope="session")
def default_profile():
    return synthesize_profile(ProfileSpec(), ObservationBounds().latencies)


@pytest.fixture(scope="session")
def tiny_profile():
    """10-config space (2 cut points): fast to evaluate exhaustively."""
    return synthesize_profile(
        ProfileSpec(
            name="tiny",
            cut_points=2,
            delta0=2.0,
            total_flops=1000.0,
            sew_mflops_per_ms=3.0,
            phone_mflops_per_ms=20.0,
            cloud_mflops_per_ms=40.0,
            rng_seed=5,
        ),
        ObservationBounds().latencies,
    )


@pytest.fixture(scope="session")
def tiny_settings():
    return AgentSettings(
        hidden=(8, 8, 4),
        dropout_rates=(0.2, 0.1, 0.0),
        lr=0.01,
        batch_size=16,
        buffer_capacity=64,
        target_update_freq=20,
    )


def subnormal_count(a: np.ndarray) -> int:
    """Number of nonzero entries smaller in magnitude than ``finfo(a.dtype).tiny``."""
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def make_net(dims, dropout, seed, dtype):
    """A ``QNetwork`` of layer widths ``dims``, its weights drawn from ``default_rng(seed)``."""
    return QNetwork(dims, dropout, rng=np.random.default_rng(seed), dtype=dtype)


def paper_net(n_actions, seed):
    """A network as ``[agent]``'s defaults build it, weights drawn from ``default_rng(seed)``."""
    return AgentSettings().network(n_actions, np.random.default_rng(seed))


def default_floors(bounds):
    """The Wi-Fi and 5G throughput floors of ``bounds`` at ``[inputs]``'s default floor_frac."""
    floor_frac = InputsSection().floor_frac
    return floor_frac * bounds.wifi, floor_frac * bounds.fiveg


def make_tiny_env(profile, seed=0, l_max=400.0, weights=None):
    config = ExperimentConfig(cost=weights or CostWeights(l_max=l_max))
    wifi = synthesize_trace(
        TraceSynthesisSpec(length=60, mean=50.0, variability=10.0), 11, config.bounds.wifi
    )
    fiveg = synthesize_trace(
        TraceSynthesisSpec(length=80, mean=20.0, variability=5.0), 12, config.bounds.fiveg
    )
    return AgentBuilder(config, profile, wifi, fiveg).env(np.random.SeedSequence(seed))


def quiet_probe(profile, seed=0):
    """A one-step probe that runs only at step 0 of runs under a million steps."""
    return ValidationProbe(make_tiny_env(profile, seed=seed), steps=1, interval=10**6)


def make_tiny_agent(profile, settings, env_seed=0, seed=0, probe=None):
    """An agent on ``make_tiny_env(profile, env_seed)`` whose learner streams
    ``SeedSequence(seed)`` spawns; ``probe`` defaults to a ``quiet_probe``."""
    return DQNAgent(
        make_tiny_env(profile, seed=env_seed),
        settings,
        np.random.SeedSequence(seed),
        probe or quiet_probe(profile, env_seed),
    )


@pytest.fixture()
def tiny_env(tiny_profile):
    return make_tiny_env(tiny_profile)


@pytest.fixture(scope="session")
def constant_trace():
    return Trace(samples=np.full(40, 25.0), granularity_ms=250.0)
