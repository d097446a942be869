"""Double-partition Neurosurgeon baseline.

Picks a configuration by exhaustively minimizing a single predicted metric
(end-to-end latency or device energy) under the previously observed network
conditions. No latency constraint is enforced: the energy variant will
happily pick configurations that violate the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import STEP_LOG, CostWeights, OffloadEnv, energy_per_window, total_latency_ms
from .profiles import ApplicationProfile, DeviceProfile

OBJECTIVES = ("latency", "energy")


@dataclass
class BaselineObservation:
    """What the selector saw during the previous decision epoch."""

    last_r_wifi: float
    last_r_5g: float
    last_cloud_latency: float

    def __post_init__(self) -> None:
        if min(self.last_r_wifi, self.last_r_5g, self.last_cloud_latency) < 0:
            raise ValueError("observations must be nonnegative")


def neurosurgeon_select(
    profile: ApplicationProfile,
    obs: BaselineObservation,
    objective: str,
    devices: DeviceProfile,
    weights: CostWeights,
    wifi_floor: float,
    fiveg_floor: float,
) -> int:
    """Config id minimizing the predicted single metric, ties to lowest id.

    Observed throughputs are raised to the env's floors first.

    The latency objective predicts total latency with the last observed
    cloud latency for any cloud-using config; the energy objective predicts
    SEW-plus-phone energy only (no 5G monetary term, no latency check).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    r_wifi = max(obs.last_r_wifi, wifi_floor)
    r_5g = max(obs.last_r_5g, fiveg_floor)
    best_id = -1
    best_value = np.inf
    for cfg in profile.configs:
        if objective == "latency":
            value = total_latency_ms(cfg, r_wifi, r_5g, obs.last_cloud_latency)
        else:
            e_sew, e_phone = energy_per_window(
                cfg, r_wifi, r_5g, devices, weights, weights.tau_normal
            )
            value = e_sew + e_phone
        if value < best_value:
            best_value = value
            best_id = cfg.id
    return best_id


def run_baseline(env: OffloadEnv, objective: str, steps: int) -> np.ndarray:
    """Run the selector for ``steps`` decision epochs; return their ``STEP_LOG``.

    Epoch 1 bootstraps from the base-trace means and the mean cloud latency
    of the fully-offloaded config; afterwards the observation carries the
    latest observed throughputs and, when the deployed config used the
    cloud, the latest sampled cloud latency.
    """
    profile = env.profile
    obs = BaselineObservation(
        last_r_wifi=env.wifi_replay.base.mean,
        last_r_5g=env.fiveg_replay.base.mean,
        last_cloud_latency=profile.configs[2].t3,  # full-cloud, as ``validate`` pins it
    )
    log = np.zeros(steps, dtype=STEP_LOG)
    for i in range(steps):
        choice = neurosurgeon_select(
            profile, obs, objective, env.devices, env.weights, env.wifi_floor, env.fiveg_floor
        )
        log[i] = env.step(choice)
        obs.last_r_wifi, obs.last_r_5g = env.raw[:2].tolist()
        if profile.configs[choice].has_cloud_stage:
            obs.last_cloud_latency = float(env.raw[4])
    return log
