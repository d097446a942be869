import dataclasses

import numpy as np
import pytest

from fedpart.baseline import BaselineObservation, neurosurgeon_select, run_baseline
from fedpart.config import ExperimentConfig
from fedpart.env import CostWeights, ObservationBounds, energy_per_window, total_latency_ms
from fedpart.profiles import DeviceProfile, enumerate_configs
from fedpart.runner import AgentBuilder
from fedpart.traces import TraceSynthesisSpec, synthesize_trace

from conftest import default_floors

OBJECTIVES = ("latency", "energy")
FLOORS = default_floors(ObservationBounds())


def brute_force(profile, obs, objective, devices, weights, wifi_floor, fiveg_floor):
    """Lowest-id config minimizing the objective at the floored throughputs."""
    r_wifi = max(obs.last_r_wifi, wifi_floor)
    r_5g = max(obs.last_r_5g, fiveg_floor)

    def value(cfg):
        if objective == "latency":
            return total_latency_ms(cfg, r_wifi, r_5g, obs.last_cloud_latency)
        return sum(energy_per_window(cfg, r_wifi, r_5g, devices, weights, weights.tau_normal))

    return min(profile.configs, key=lambda cfg: (value(cfg), cfg.id)).id


class TestSelect:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_matches_brute_force(self, default_profile, objective):
        devices, weights = DeviceProfile(), CostWeights()
        rng = np.random.default_rng(17)
        chosen = set()
        for _ in range(300):
            # a tenth of the draws are outages at zero, below the floor
            r_wifi, r_5g = rng.uniform(0.0, [580.0, 350.0]) * (rng.random(2) > 0.1)
            obs = BaselineObservation(r_wifi, r_5g, rng.exponential(25.0))
            got = neurosurgeon_select(default_profile, obs, objective, devices, weights, *FLOORS)
            assert got == brute_force(default_profile, obs, objective, devices, weights, *FLOORS)
            chosen.add(got)
        assert len(chosen) > 1

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_ties_go_to_the_lowest_id(self, tiny_profile, objective):
        devices, weights = DeviceProfile(), CostWeights()
        obs = BaselineObservation(40.0, 20.0, 25.0)
        best = neurosurgeon_select(tiny_profile, obs, objective, devices, weights, *FLOORS)
        for twin_id in {0, tiny_profile.n_configs - 1} - {best}:
            configs = list(tiny_profile.configs)
            configs[twin_id] = dataclasses.replace(configs[best], id=twin_id)
            tied = dataclasses.replace(tiny_profile, configs=tuple(configs))
            choice = neurosurgeon_select(tied, obs, objective, devices, weights, *FLOORS)
            assert choice == min(best, twin_id)

    def test_unknown_objective_rejected(self, tiny_profile):
        obs = BaselineObservation(40.0, 20.0, 25.0)
        with pytest.raises(ValueError, match="objective"):
            neurosurgeon_select(tiny_profile, obs, "cost", DeviceProfile(), CostWeights(), *FLOORS)


def varying_env(profile, seed):
    """A 5G link that swings widely, so choices move between cloud and local."""
    config = ExperimentConfig()
    wifi = synthesize_trace(
        TraceSynthesisSpec(length=60, mean=50.0, variability=10.0), 11, config.bounds.wifi
    )
    fiveg = synthesize_trace(
        TraceSynthesisSpec(length=80, mean=100.0, variability=50.0, correlation=0.5),
        12, config.bounds.fiveg,
    )
    return AgentBuilder(config, profile, wifi, fiveg).env(np.random.SeedSequence(seed))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_run_baseline_matches_a_loop_over_a_twin_env(tiny_profile, objective):
    """The selector sees the last raw throughputs, and the last cloud latency
    of a config with a cloud stage; each row is the step it chose."""
    steps = 300
    log = run_baseline(varying_env(tiny_profile, seed=3), objective, steps)
    assert len(log) == steps

    twin = varying_env(tiny_profile, seed=3)
    floors = default_floors(twin.bounds)
    r_wifi, r_5g = twin.wifi_replay.base.mean, twin.fiveg_replay.base.mean
    cloud = tiny_profile.configs[2].t3
    assert enumerate_configs(tiny_profile.cut_points)[2] == (0, 0)  # full cloud
    kinds = set()
    for row in log:
        obs = BaselineObservation(r_wifi, r_5g, cloud)
        choice = neurosurgeon_select(
            tiny_profile, obs, objective, twin.devices, twin.weights, *floors
        )
        assert row.item() == tuple(twin.step(choice))
        r_wifi, r_5g = float(twin.raw[0]), float(twin.raw[1])
        has_cloud = tiny_profile.configs[choice].has_cloud_stage
        if has_cloud:
            cloud = float(twin.raw[4])
        kinds.add(has_cloud)
    assert kinds == {True, False}
