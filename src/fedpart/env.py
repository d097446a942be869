"""MDP environment for runtime selection of partition configurations.

State is (wifi throughput, 5G throughput, SEW latency, phone latency, cloud
latency); actions are configuration indices plus a final "keep current"
action. Each step advances the throughput replays by one decision window,
samples cloud latency for the deployed configuration, and scores the window
with a weighted sum of normalized energy and 5G cost plus latency-violation
and reconfiguration indicators.

Unit conventions: latencies in ms, transfer sizes in MB, throughput in MB/s
(so transfer latency is ``1000 * delta / r`` ms and transmit energy uses
``delta / r`` seconds), energies in joules per decision window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .profiles import ApplicationProfile, DeviceProfile, PartitionConfig
from .traces import PerturbedReplay, sample_cloud_latency


@dataclass(frozen=True)
class ObservationBounds:
    """Per-dimension [min, max] used for min-max state normalization."""

    wifi: tuple[float, float] = (0.0, 580.0)
    fiveg: tuple[float, float] = (0.0, 350.0)
    l_sew: tuple[float, float] = (0.0, 450.0)
    l_phone: tuple[float, float] = (0.0, 65.0)
    l_cloud: tuple[float, float] = (0.0, 30.0)

    def __post_init__(self) -> None:
        for name in ("wifi", "fiveg", "l_sew", "l_phone", "l_cloud"):
            lo, hi = getattr(self, name)
            if hi <= lo:
                raise ValueError(f"bounds for {name} must satisfy max > min")

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = (self.wifi, self.fiveg, self.l_sew, self.l_phone, self.l_cloud)
        lows = np.array([p[0] for p in pairs])
        highs = np.array([p[1] for p in pairs])
        return lows, highs


@dataclass(frozen=True)
class CostWeights:
    """Weights and constants of the scalarized per-window cost.

    The five weights must be nonnegative and sum to one. Normalization
    constants may be left as None and resolved against a profile with
    :func:`resolve_cost_weights`. ``alpha`` is cost per joule, ``g`` cost
    per MB over 5G, ``lambda_fps`` the frame rate, ``tau_*`` the decision
    window durations in seconds, ``l_max`` the latency threshold in ms.
    """

    w_sew: float = 0.03
    w_phone: float = 0.02
    w_5g: float = 0.0
    w_lat: float = 0.93
    w_rcfg: float = 0.02
    c_sew_max: float | None = None
    c_phone_max: float | None = None
    c_5g_max: float | None = None
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
        for name in ("c_sew_max", "c_phone_max", "c_5g_max"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.tau_normal <= 0 or self.tau_fast <= 0 or self.lambda_fps <= 0:
            raise ValueError("tau_normal, tau_fast and lambda_fps must be positive")
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")

    @property
    def resolved(self) -> bool:
        return None not in (self.c_sew_max, self.c_phone_max, self.c_5g_max)


@dataclass(frozen=True)
class EnvState:
    """Raw (unnormalized) observation plus the bounds used to normalize it."""

    r_wifi: float
    r_5g: float
    l_sew: float
    l_phone: float
    l_cloud: float
    bounds: ObservationBounds

    def normalized(self) -> np.ndarray:
        lows, highs = self.bounds.as_arrays()
        raw = np.array([self.r_wifi, self.r_5g, self.l_sew, self.l_phone, self.l_cloud])
        return np.clip((raw - lows) / (highs - lows), 0.0, 1.0)


@dataclass(frozen=True)
class CostBreakdown:
    """All terms entering the scalar cost, recomputable into it exactly."""

    c_sew: float
    c_phone: float
    c_5g: float
    c_lat: float
    c_rcfg: float
    l_total: float
    e_sew: float
    e_phone: float


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    cost: float
    violated: bool
    components: CostBreakdown
    config_id: int
    action: int
    tau: float
    cloud_latency: float


# One row per decision, shared by the agent, the baseline and the artifact
# writer, which takes the steps.csv columns from these names. Aligned fields
# reduce (np.sum, np.mean) to the same bits as a contiguous copy; packed,
# unaligned ones are buffered in chunks that change the summation order.
STEP_LOG = np.dtype([
    ("cost", np.float64),
    ("violated", np.bool_),
    ("action", np.int64),
    ("config_id", np.int64),
    ("e_sew", np.float64),
    ("e_phone", np.float64),
    ("c_5g", np.float64),
    ("l_total", np.float64),
], align=True)


def log_step(log: np.ndarray, i: int, outcome: StepOutcome) -> None:
    """Fill row ``i`` of a ``STEP_LOG`` array from one step's outcome."""
    c = outcome.components
    log[i] = (outcome.cost, outcome.violated, outcome.action, outcome.config_id,
              c.e_sew, c.e_phone, c.c_5g, c.l_total)


def throughput_floor(bound_max: float, floor_frac: float = 0.001) -> float:
    """Positive floor applied to raw throughput before any division."""
    return floor_frac * bound_max


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
    tau: float | None = None,
) -> tuple[float, float]:
    """Joules consumed by the SEW and by the phone over one decision window.

    Each device pays compute energy proportional to its partition's FLOPs
    plus interface power times transmit time for the data it sends (the
    phone sends over 5G).
    """
    if r_wifi <= 0 or r_5g <= 0:
        raise ValueError("throughputs must be positive (apply the floor first)")
    window = (weights.tau_normal if tau is None else tau) * weights.lambda_fps
    e_sew = window * (
        devices.z_sew * config.mu1 + devices.theta_sew * config.delta12 / r_wifi
    )
    e_phone = window * (
        devices.z_phone * config.mu2 + devices.theta_phone * config.delta23 / r_5g
    )
    return e_sew, e_phone


def comm_cost_5g(
    config: PartitionConfig, weights: CostWeights, tau: float | None = None
) -> float:
    """Monetary cost of the phone-to-cloud transfers in one window."""
    window = (weights.tau_normal if tau is None else tau) * weights.lambda_fps
    return window * weights.g * config.delta23


def step_cost(
    c_sew: float,
    c_phone: float,
    c_5g: float,
    violated: bool,
    reconfigured: bool,
    weights: CostWeights,
) -> float:
    """Weighted additive cost; energy/5G ratios are clamped to [0, 1]."""
    if not weights.resolved:
        raise ValueError("normalization constants not resolved; use resolve_cost_weights")
    ratio_sew = min(max(c_sew / weights.c_sew_max, 0.0), 1.0)
    ratio_phone = min(max(c_phone / weights.c_phone_max, 0.0), 1.0)
    ratio_5g = min(max(c_5g / weights.c_5g_max, 0.0), 1.0)
    return (
        weights.w_sew * ratio_sew
        + weights.w_phone * ratio_phone
        + weights.w_5g * ratio_5g
        + weights.w_lat * (1.0 if violated else 0.0)
        + weights.w_rcfg * (1.0 if reconfigured else 0.0)
    )


def cost_from_components(components: CostBreakdown, weights: CostWeights) -> float:
    """Recompute the scalar cost from a step's component breakdown."""
    return step_cost(
        components.c_sew,
        components.c_phone,
        components.c_5g,
        components.c_lat > 0.0,
        components.c_rcfg > 0.0,
        weights,
    )


def resolve_cost_weights(
    weights: CostWeights,
    profile: ApplicationProfile,
    devices: DeviceProfile,
    bounds: ObservationBounds,
    floor_frac: float = 0.001,
) -> CostWeights:
    """Fill unset normalization constants from the profile's worst case.

    Each constant is the maximum per-window component over the whole config
    space evaluated at the throughput floor (the worst transmit conditions),
    so clamped ratios reach 1 only in genuinely extreme windows.
    """
    if weights.resolved:
        return weights
    r_wifi = throughput_floor(bounds.wifi[1], floor_frac)
    r_5g = throughput_floor(bounds.fiveg[1], floor_frac)
    e_sew_max = 0.0
    e_phone_max = 0.0
    c5_max = 0.0
    for cfg in profile.configs:
        e_sew, e_phone = energy_per_window(cfg, r_wifi, r_5g, devices, weights)
        e_sew_max = max(e_sew_max, weights.alpha * e_sew)
        e_phone_max = max(e_phone_max, weights.alpha * e_phone)
        c5_max = max(c5_max, comm_cost_5g(cfg, weights))
    return replace(
        weights,
        c_sew_max=weights.c_sew_max or e_sew_max or 1.0,
        c_phone_max=weights.c_phone_max or e_phone_max or 1.0,
        c_5g_max=weights.c_5g_max or c5_max or 1.0,
    )


class OffloadEnv:
    """Single-agent decision environment over perturbed trace replays.

    The special action ``n_configs`` keeps the current configuration and
    avoids the reconfiguration penalty. After five consecutive latency
    violations the decision window shrinks to ``tau_fast`` until a
    non-violating window occurs. Trajectories are fully determined by the
    profile, the replay seeds and the action sequence.
    """

    KEEP_ACTION_NAME = "keep-current"

    def __init__(
        self,
        profile: ApplicationProfile,
        devices: DeviceProfile,
        weights: CostWeights,
        bounds: ObservationBounds,
        wifi_replay: PerturbedReplay,
        fiveg_replay: PerturbedReplay,
        cloud_rng: np.random.Generator,
        floor_frac: float = 0.001,
        fast_mode_after: int = 5,
    ):
        profile.validate()
        self.profile = profile
        self.devices = devices
        self.weights = resolve_cost_weights(weights, profile, devices, bounds, floor_frac)
        self.bounds = bounds
        self.wifi_replay = wifi_replay
        self.fiveg_replay = fiveg_replay
        self.cloud_rng = cloud_rng
        self.floor_frac = floor_frac
        self.fast_mode_after = fast_mode_after
        self._wifi_floor = throughput_floor(bounds.wifi[1], floor_frac)
        self._fiveg_floor = throughput_floor(bounds.fiveg[1], floor_frac)
        self.reset()

    @classmethod
    def from_seed(
        cls,
        profile: ApplicationProfile,
        devices: DeviceProfile,
        weights: CostWeights,
        bounds: ObservationBounds,
        wifi_base,
        fiveg_base,
        seed,
        noise_rel: float = 0.10,
        shift_enabled: bool = True,
        inversion_enabled: bool = True,
        floor_frac: float = 0.001,
    ) -> "OffloadEnv":
        """Build an env with replay/cloud streams derived from one seed."""
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        wifi_seq, fiveg_seq, cloud_seq = seq.spawn(3)
        return cls(
            profile,
            devices,
            weights,
            bounds,
            PerturbedReplay(wifi_base, wifi_seq, noise_rel, shift_enabled, inversion_enabled),
            PerturbedReplay(fiveg_base, fiveg_seq, noise_rel, shift_enabled, inversion_enabled),
            np.random.default_rng(cloud_seq),
            floor_frac=floor_frac,
        )

    @property
    def n_actions(self) -> int:
        return self.profile.n_configs + 1

    @property
    def keep_action(self) -> int:
        return self.profile.n_configs

    @property
    def current_config(self) -> PartitionConfig:
        return self._config

    def reset(self) -> EnvState:
        """Deploy the fully-local config and observe the first trace samples."""
        self._config = self.profile.configs[0]
        self._consecutive_violations = 0
        r_wifi = self.wifi_replay.next_sample()
        r_5g = self.fiveg_replay.next_sample()
        self._state = EnvState(
            r_wifi, r_5g, self._config.t1, self._config.t2, 0.0, self.bounds
        )
        return self._state

    @property
    def state(self) -> EnvState:
        return self._state

    def observe(self) -> np.ndarray:
        return self._state.normalized()

    def current_tau(self) -> float:
        if self._consecutive_violations >= self.fast_mode_after:
            return self.weights.tau_fast
        return self.weights.tau_normal

    def _advance(self, replay: PerturbedReplay, tau: float) -> float:
        n = max(1, round(tau * 1000.0 / replay.granularity_ms))
        return float(replay.next_window(n)[-1])

    def step(self, action: int) -> StepOutcome:
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
        r_wifi = max(r_wifi_raw, self._wifi_floor)
        r_5g = max(r_5g_raw, self._fiveg_floor)

        cloud = sample_cloud_latency(cfg.t3, self.cloud_rng) if cfg.has_cloud_stage else 0.0
        l_total = total_latency_ms(cfg, r_wifi, r_5g, cloud)
        e_sew, e_phone = energy_per_window(cfg, r_wifi, r_5g, self.devices, self.weights, tau)
        c_sew = self.weights.alpha * e_sew
        c_phone = self.weights.alpha * e_phone
        c_5g = comm_cost_5g(cfg, self.weights, tau)
        violated = l_total > self.weights.l_max
        cost = step_cost(c_sew, c_phone, c_5g, violated, reconfigured, self.weights)

        self._consecutive_violations = self._consecutive_violations + 1 if violated else 0
        self._state = EnvState(r_wifi_raw, r_5g_raw, cfg.t1, cfg.t2, cloud, self.bounds)
        return StepOutcome(
            next_state=self._state,
            cost=cost,
            violated=violated,
            components=CostBreakdown(
                c_sew=c_sew,
                c_phone=c_phone,
                c_5g=c_5g,
                c_lat=1.0 if violated else 0.0,
                c_rcfg=1.0 if reconfigured else 0.0,
                l_total=l_total,
                e_sew=e_sew,
                e_phone=e_phone,
            ),
            config_id=cfg.id,
            action=action,
            tau=tau,
            cloud_latency=cloud,
        )


def oracle_best_config(
    profile: ApplicationProfile,
    devices: DeviceProfile,
    weights: CostWeights,
    bounds: ObservationBounds,
    r_wifi: float,
    r_5g: float,
    floor_frac: float = 0.001,
) -> int:
    """Exhaustive minimizer of per-window cost under the latency constraint.

    Evaluates every config at the given (floored) throughputs using mean
    cloud latencies; among configs whose total latency does not violate the
    threshold, returns the one with the lowest energy-plus-5G objective
    (ties to the lowest id). With no feasible config, returns the latency
    minimizer.
    """
    weights = resolve_cost_weights(weights, profile, devices, bounds, floor_frac)
    r_wifi = max(r_wifi, throughput_floor(bounds.wifi[1], floor_frac))
    r_5g = max(r_5g, throughput_floor(bounds.fiveg[1], floor_frac))
    best_id = -1
    best_objective = np.inf
    fallback_id = -1
    fallback_latency = np.inf
    for cfg in profile.configs:
        cloud = cfg.t3 if cfg.has_cloud_stage else 0.0
        latency = total_latency_ms(cfg, r_wifi, r_5g, cloud)
        if latency < fallback_latency:
            fallback_latency = latency
            fallback_id = cfg.id
        if latency > weights.l_max:
            continue
        e_sew, e_phone = energy_per_window(cfg, r_wifi, r_5g, devices, weights)
        objective = weights.alpha * (e_sew + e_phone) + comm_cost_5g(cfg, weights)
        if objective < best_objective:
            best_objective = objective
            best_id = cfg.id
    return best_id if best_id >= 0 else fallback_id
