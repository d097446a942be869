"""MDP environment for runtime selection of partition configurations.

State is (wifi throughput, 5G throughput, SEW latency, phone latency, cloud
latency), kept raw in ``OffloadEnv.raw`` and normalized by
:meth:`ObservationBounds.normalize`; actions are configuration indices plus
a final "keep current" action. Each step advances the throughput replays by
one decision window, samples cloud latency for the deployed configuration,
and scores the window with a weighted sum of normalized energy and 5G cost
plus latency-violation and reconfiguration indicators. A step returns one
:class:`Step`, which is also one row of the ``STEP_LOG`` array every caller
keeps.

Unit conventions: latencies in ms, transfer sizes in MB, throughput in MB/s
(so transfer latency is ``1000 * delta / r`` ms and transmit energy uses
``delta / r`` seconds), energies in joules per decision window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from .profiles import ApplicationProfile, DeviceProfile, PartitionConfig
from .traces import PerturbedReplay, sample_cloud_latency

OBS_DIM = 5  # observation entries: Wi-Fi and 5G throughput, SEW, phone and cloud latency


@dataclass(frozen=True)
class ObservationBounds:
    """The observation space, as per-dimension maxima (every minimum is 0);
    synthesis stays inside it, and loaded traces and profiles go unchecked."""

    wifi: float = 580.0
    fiveg: float = 350.0
    l_sew: float = 450.0
    l_phone: float = 65.0
    l_cloud: float = 30.0

    def __post_init__(self) -> None:
        for name in ("wifi", "fiveg", "l_sew", "l_phone", "l_cloud"):
            if getattr(self, name) <= 0:
                raise ValueError(f"bound {name} must be positive")

    @property
    def latencies(self) -> tuple[float, float, float]:
        """The SEW, phone and cloud latency maxima, in that order."""
        return self.l_sew, self.l_phone, self.l_cloud

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        """Scale a raw observation into [0, 1], clipping values out of bounds."""
        highs = np.array([self.wifi, self.fiveg, self.l_sew, self.l_phone, self.l_cloud])
        return np.clip(raw / highs, 0.0, 1.0)


@dataclass(frozen=True)
class CostWeights:
    """Weights and constants of the scalarized per-window cost.

    The five weights must be nonnegative and sum to one; the energy and 5G
    terms' scales are the profile's :func:`cost_scales`. ``alpha`` is cost per
    joule, ``g`` cost per MB over 5G, ``lambda_fps`` the frame rate, ``tau_*``
    the decision window durations in seconds, ``l_max`` the latency threshold in ms.
    """

    w_sew: float = 0.03
    w_phone: float = 0.02
    w_5g: float = 0.0
    w_lat: float = 0.93
    w_rcfg: float = 0.02
    alpha: float = 1.0
    g: float = 0.1
    lambda_fps: float = 1.0
    tau_normal: float = 10.0
    tau_fast: float = 1.0
    l_max: float = 400.0

    def __post_init__(self) -> None:
        weights = (self.w_sew, self.w_phone, self.w_5g, self.w_lat, self.w_rcfg)
        if any(w < 0 for w in weights):
            raise ValueError("cost weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"cost weights must sum to 1, got {sum(weights)}")
        if self.tau_normal <= 0 or self.tau_fast <= 0 or self.lambda_fps <= 0:
            raise ValueError("tau_normal, tau_fast and lambda_fps must be positive")
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")


class Step(NamedTuple):
    """One decision, as the ``STEP_LOG`` row that records it."""

    cost: float
    violated: bool
    action: int
    config_id: int
    e_sew: float
    e_phone: float
    c_5g: float
    l_total: float


# One row per decision, shared by the agent, the baseline and the artifact
# writer, which takes the steps.csv columns from these names. Aligned fields
# reduce (np.sum, np.mean) to the same bits as a contiguous copy; packed,
# unaligned ones are buffered in chunks that change the summation order.
_LOG_TYPES = {float: np.float64, bool: np.bool_, int: np.int64}
STEP_LOG = np.dtype(
    [(name, _LOG_TYPES[kind]) for name, kind in get_type_hints(Step).items()], align=True
)


def total_latency_ms(
    config: PartitionConfig, r_wifi: float, r_5g: float, cloud_latency_ms: float
) -> float:
    """End-to-end latency: compute plus both transfers plus the cloud stage.

    Throughputs must already be floored to positive values; the cloud term
    contributes only when the configuration has a cloud stage.
    """
    if r_wifi <= 0 or r_5g <= 0:
        raise ValueError("throughputs must be positive (apply the floor first)")
    latency = (
        config.t1
        + config.t2
        + 1000.0 * config.delta12 / r_wifi
        + 1000.0 * config.delta23 / r_5g
    )
    if config.has_cloud_stage:
        latency += cloud_latency_ms
    return latency


def energy_per_window(
    config: PartitionConfig,
    r_wifi: float,
    r_5g: float,
    devices: DeviceProfile,
    weights: CostWeights,
    tau: float,
) -> tuple[float, float]:
    """Joules consumed by the SEW and by the phone over a decision window of ``tau`` s.

    Each device pays compute energy proportional to its partition's FLOPs
    plus interface power times transmit time for the data it sends (the
    phone sends over 5G).
    """
    if r_wifi <= 0 or r_5g <= 0:
        raise ValueError("throughputs must be positive (apply the floor first)")
    window = tau * weights.lambda_fps
    e_sew = window * (
        devices.z_sew * config.mu1 + devices.theta_sew * config.delta12 / r_wifi
    )
    e_phone = window * (
        devices.z_phone * config.mu2 + devices.theta_phone * config.delta23 / r_5g
    )
    return e_sew, e_phone


def comm_cost_5g(config: PartitionConfig, weights: CostWeights, tau: float) -> float:
    """Monetary cost of the phone-to-cloud transfers in a window of ``tau`` s."""
    window = tau * weights.lambda_fps
    return window * weights.g * config.delta23


def step_cost(
    c_sew: float,
    c_phone: float,
    c_5g: float,
    violated: bool,
    reconfigured: bool,
    weights: CostWeights,
    scales: tuple[float, float, float],
) -> float:
    """Weighted additive cost; energy/5G ratios to their ``scales`` are clamped to [0, 1]."""
    ratio_sew = min(max(c_sew / scales[0], 0.0), 1.0)
    ratio_phone = min(max(c_phone / scales[1], 0.0), 1.0)
    ratio_5g = min(max(c_5g / scales[2], 0.0), 1.0)
    return (
        weights.w_sew * ratio_sew
        + weights.w_phone * ratio_phone
        + weights.w_5g * ratio_5g
        + weights.w_lat * (1.0 if violated else 0.0)
        + weights.w_rcfg * (1.0 if reconfigured else 0.0)
    )


def cost_scales(
    weights: CostWeights,
    profile: ApplicationProfile,
    devices: DeviceProfile,
    wifi_floor: float,
    fiveg_floor: float,
) -> tuple[float, float, float]:
    """The SEW energy, phone energy and 5G cost scales of :func:`step_cost`.

    Each is the maximum per-window cost over the whole config space at
    ``wifi_floor`` and ``fiveg_floor`` (the worst transmit conditions), so
    clamped ratios reach 1 only in genuinely extreme windows; a maximum of
    0 becomes 1.
    """
    e_sew_max = e_phone_max = c5_max = 0.0
    for cfg in profile.configs:
        e_sew, e_phone = energy_per_window(
            cfg, wifi_floor, fiveg_floor, devices, weights, weights.tau_normal
        )
        e_sew_max = max(e_sew_max, weights.alpha * e_sew)
        e_phone_max = max(e_phone_max, weights.alpha * e_phone)
        c5_max = max(c5_max, comm_cost_5g(cfg, weights, weights.tau_normal))
    return e_sew_max or 1.0, e_phone_max or 1.0, c5_max or 1.0


# Consecutive latency violations after which the window shrinks to tau_fast.
FAST_MODE_AFTER = 5


class OffloadEnv:
    """Single-agent decision environment over perturbed trace replays.

    :meth:`fedpart.runner.AgentBuilder.env` builds every env from the config.
    The profile must already be valid: :func:`~fedpart.profiles.load_profile`
    and :func:`~fedpart.profiles.synthesize_profile` check it, and the env
    does not check it again. The special action ``n_configs`` keeps the
    current configuration and avoids the reconfiguration penalty. After
    ``FAST_MODE_AFTER`` consecutive latency violations the decision window
    shrinks to ``tau_fast`` until a non-violating window occurs. Trajectories
    are fully determined by the profile, the replay seeds and the action
    sequence.

    ``step`` returns the decision's :class:`Step`, ready to store as a
    ``STEP_LOG`` row. ``raw`` holds the unnormalized state after the last
    step: the Wi-Fi and 5G throughputs as replayed (before the floor), the
    deployed config's SEW and phone latencies, and the sampled cloud latency
    (0 without a cloud stage). ``observe`` returns it normalized.
    ``wifi_floor`` and ``fiveg_floor`` are the throughput floors applied
    before any division: ``floor_frac`` of the Wi-Fi and 5G bounds, at
    which ``scales`` are the :func:`cost_scales` of ``weights``.
    """

    def __init__(
        self,
        profile: ApplicationProfile,
        devices: DeviceProfile,
        weights: CostWeights,
        bounds: ObservationBounds,
        wifi_replay: PerturbedReplay,
        fiveg_replay: PerturbedReplay,
        cloud_rng: np.random.Generator,
        floor_frac: float,
    ):
        self.profile = profile
        self.devices = devices
        self.wifi_floor = floor_frac * bounds.wifi
        self.fiveg_floor = floor_frac * bounds.fiveg
        self.weights = weights
        self.scales = cost_scales(weights, profile, devices, self.wifi_floor, self.fiveg_floor)
        self.bounds = bounds
        self.wifi_replay = wifi_replay
        self.fiveg_replay = fiveg_replay
        self.cloud_rng = cloud_rng
        self.reset()

    @property
    def n_actions(self) -> int:
        return self.profile.n_configs + 1

    @property
    def keep_action(self) -> int:
        return self.profile.n_configs

    def reset(self) -> None:
        """Deploy the fully-local config and observe the first trace samples."""
        self._config = self.profile.configs[0]
        self._consecutive_violations = 0
        r_wifi = self.wifi_replay.next_window(1)
        r_5g = self.fiveg_replay.next_window(1)
        self.raw = np.array([r_wifi, r_5g, self._config.t1, self._config.t2, 0.0])

    def observe(self) -> np.ndarray:
        return self.bounds.normalize(self.raw)

    def current_tau(self) -> float:
        if self._consecutive_violations >= FAST_MODE_AFTER:
            return self.weights.tau_fast
        return self.weights.tau_normal

    def _advance(self, replay: PerturbedReplay, tau: float) -> float:
        n = max(1, round(tau * 1000.0 / replay.granularity_ms))
        return replay.next_window(n)

    def step(self, action: int) -> Step:
        n_configs = self.profile.n_configs
        if not (0 <= action <= n_configs):
            raise ValueError(f"action {action} out of range [0, {n_configs}]")
        tau = self.current_tau()
        reconfigured = action != self.keep_action
        if reconfigured:
            self._config = self.profile.configs[action]
        cfg = self._config

        r_wifi_raw = self._advance(self.wifi_replay, tau)
        r_5g_raw = self._advance(self.fiveg_replay, tau)
        r_wifi = max(r_wifi_raw, self.wifi_floor)
        r_5g = max(r_5g_raw, self.fiveg_floor)

        cloud = sample_cloud_latency(cfg.t3, self.cloud_rng) if cfg.has_cloud_stage else 0.0
        l_total = total_latency_ms(cfg, r_wifi, r_5g, cloud)
        e_sew, e_phone = energy_per_window(cfg, r_wifi, r_5g, self.devices, self.weights, tau)
        c_5g = comm_cost_5g(cfg, self.weights, tau)
        violated = l_total > self.weights.l_max
        cost = step_cost(
            self.weights.alpha * e_sew, self.weights.alpha * e_phone, c_5g,
            violated, reconfigured, self.weights, self.scales,
        )

        self._consecutive_violations = self._consecutive_violations + 1 if violated else 0
        self.raw = np.array([r_wifi_raw, r_5g_raw, cfg.t1, cfg.t2, cloud])
        return Step(cost, violated, action, cfg.id, e_sew, e_phone, c_5g, l_total)
