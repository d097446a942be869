"""Partition-configuration spaces for three-tier DNN offloading.

A model with P joinable cut points is split into up to three consecutive
partitions mapped to fixed devices: partition 1 runs on the wearable (SEW),
partition 2 on the phone, partition 3 on the cloud. A configuration is a
pair of cut indices ``(cut_a, cut_b)`` with ``cut_a <= cut_b``; the value 0
is the sentinel "before the first layer" and ``P + 1`` the sentinel "after
the last layer", so degenerate (empty) partitions encode full-device
execution and single-split placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

class ProfileError(ValueError):
    """Invalid profile data (construction, synthesis, or file parsing)."""


def config_count(cut_points: int) -> int:
    """Number of configurations generated from ``cut_points`` cut points."""
    if cut_points < 0:
        raise ProfileError(f"cut_points must be >= 0, got {cut_points}")
    p = cut_points
    return 3 + 3 * p + p * (p - 1) // 2


def enumerate_configs(cut_points: int) -> list[tuple[int, int]]:
    """Every configuration's ``(cut_a, cut_b)`` for a model with ``cut_points`` cuts.

    Deterministic order: the three full-device placements (SEW, phone,
    cloud), then single splits grouped by pair type (SEW-phone, SEW-cloud,
    phone-cloud) ascending by cut, then double splits in lexicographic
    ``(cut_a, cut_b)`` order.
    """
    if cut_points < 0:
        raise ProfileError(f"cut_points must be >= 0, got {cut_points}")
    p = cut_points
    end = p + 1
    cuts = [(end, end), (0, end), (0, 0)]
    cuts += [(j, end) for j in range(1, p + 1)]
    cuts += [(j, j) for j in range(1, p + 1)]
    cuts += [(0, j) for j in range(1, p + 1)]
    cuts += [(a, b) for a in range(1, p + 1) for b in range(a + 1, p + 1)]
    assert len(cuts) == config_count(p)
    return cuts


@dataclass(frozen=True)
class PartitionConfig:
    """One placement of the three partitions with its profiled parameters.

    Latencies are in milliseconds, FLOP counts in MFLOPs, transfer sizes in
    MB. ``delta12`` is the SEW-to-phone transfer, ``delta23`` the
    phone-to-cloud transfer (the phone relays when the SEW partition feeds
    the cloud directly).
    """

    id: int
    cut_a: int
    cut_b: int
    t1: float
    t2: float
    t3: float
    mu1: float
    mu2: float
    mu3: float
    delta12: float
    delta23: float

    @property
    def has_cloud_stage(self) -> bool:
        return self.mu3 > 0.0 or self.t3 > 0.0


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device energy constants.

    ``z_*`` is compute energy in joules per MFLOP; ``theta_*`` is network
    interface power in watts while transmitting.
    """

    z_sew: float = 1.5e-3
    z_phone: float = 8.0e-4
    theta_sew: float = 7.9
    theta_phone: float = 4.5

    def __post_init__(self) -> None:
        for name in ("z_sew", "z_phone", "theta_sew", "theta_phone"):
            if getattr(self, name) <= 0:
                raise ProfileError(f"{name} must be strictly positive")


def _isclose(a: float, b: float, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """``np.isclose(a, b, rtol, atol)`` for finite Python floats, without its array round trip."""
    return abs(a - b) <= atol + rtol * abs(b)


@dataclass(frozen=True)
class ApplicationProfile:
    """The full configuration space of one application."""

    name: str
    cut_points: int
    delta0: float
    total_flops: float
    configs: tuple[PartitionConfig, ...]

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    def validate(self) -> None:
        """Raise :class:`ProfileError` on any violated structural invariant.

        Two floats ``a`` and ``b`` count as equal when
        ``abs(a - b) <= atol + rtol * abs(b)``, the test ``np.isclose`` makes:
        each config's ``mu1 + mu2 + mu3`` against ``total_flops`` with
        ``rtol = atol = 1e-6``, and the fully-offloaded config's transfers
        against ``delta0`` with NumPy's defaults, ``rtol = 1e-5`` and
        ``atol = 1e-8``.
        """
        p = self.cut_points
        n, expected = len(self.configs), config_count(p)
        if self.delta0 <= 0 or self.total_flops <= 0:
            raise ProfileError("delta0 and total_flops must be positive")
        if n != expected:
            raise ProfileError(f"profile has {n} configs; cut_points={p} requires {expected}")
        for i, cfg in enumerate(self.configs):
            if cfg.id != i:
                raise ProfileError(f"config ids must be dense, got {cfg.id} at {i}")
            if not (0 <= cfg.cut_a <= cfg.cut_b <= p + 1):
                raise ProfileError(
                    f"config {i}: cuts ({cfg.cut_a}, {cfg.cut_b}) out of range"
                )
            for field in ("t1", "t2", "t3", "mu1", "mu2", "mu3", "delta12", "delta23"):
                if getattr(cfg, field) < 0:
                    raise ProfileError(f"config {i}: {field} must be >= 0")
            mu_sum = cfg.mu1 + cfg.mu2 + cfg.mu3
            if not _isclose(mu_sum, self.total_flops, rtol=1e-6, atol=1e-6):
                raise ProfileError(
                    f"config {i}: mu1+mu2+mu3 = {mu_sum} != total {self.total_flops}"
                )
        for (a, b), cfg in zip(enumerate_configs(p), self.configs):
            if (cfg.cut_a, cfg.cut_b) != (a, b):
                raise ProfileError(
                    f"config {cfg.id}: cuts ({cfg.cut_a}, {cfg.cut_b}) do not match "
                    f"the enumeration order ({a}, {b})"
                )
        full_sew = self.configs[0]
        if full_sew.delta12 != 0 or full_sew.delta23 != 0 or full_sew.t2 != 0 or full_sew.t3 != 0:
            raise ProfileError("fully-local config must have zero transfers and t2=t3=0")
        full_cloud = self.configs[2]
        if not (
            _isclose(full_cloud.delta12, self.delta0)
            and _isclose(full_cloud.delta23, self.delta0)
        ):
            raise ProfileError("fully-offloaded config must transfer the input tensor twice")


@dataclass(frozen=True)
class ProfileSpec:
    """Parameters for synthesizing a profile.

    ``*_mflops_per_ms`` are device speeds; ``tensor_decay`` shrinks cut
    tensor sizes from the first cut to the last (deep feature maps are
    smaller than early ones), with ``tensor_noise`` relative jitter so sizes
    are not monotone. A spec needs at least one cut point and positive
    sizes and speeds; the latencies' bounds come from ``[bounds]``.
    """

    name: str = "yolov5-like"
    cut_points: int = 12
    delta0: float = 6.25
    total_flops: float = 5427.0
    sew_mflops_per_ms: float = 12.6
    phone_mflops_per_ms: float = 90.5
    cloud_mflops_per_ms: float = 217.0
    tensor_decay: float = 0.85
    tensor_noise: float = 0.10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.cut_points < 1:
            raise ProfileError(f"cut_points must be >= 1 for synthesis, got {self.cut_points}")
        for name in (
            "delta0", "total_flops",
            "sew_mflops_per_ms", "phone_mflops_per_ms", "cloud_mflops_per_ms",
        ):
            if not getattr(self, name) > 0:
                raise ProfileError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise ProfileError(f"rng_seed must be >= 0, got {self.rng_seed}")


def synthesize_profile(spec: ProfileSpec, latency_bounds: tuple[float, ...]) -> ApplicationProfile:
    """Build a profile from a monotone chain model.

    Cumulative FLOPs F(0)=0 < F(1) < ... < F(P+1)=total are drawn from
    normalized positive gaps; each cut j gets a tensor size in (0, delta0]
    (the sentinels map to delta0 at cut 0 and 0 after the last layer).
    Partition latencies are FLOPs divided by device speed, each at most its
    ``latency_bounds`` (SEW, phone, cloud). Deterministic for a fixed ``rng_seed``.
    """
    p = spec.cut_points
    rng = np.random.default_rng(spec.rng_seed)

    gaps = rng.uniform(0.5, 1.5, size=p + 1)
    cumulative = np.concatenate(([0.0], np.cumsum(gaps)))
    flops_at = spec.total_flops * cumulative / cumulative[-1]
    flops_at[-1] = spec.total_flops

    # index j in [0, P+1]: tensor size crossing cut j
    fracs = np.arange(1, p + 1) / (p + 1)
    jitter = 1.0 + spec.tensor_noise * rng.standard_normal(p)
    shape = np.clip((1.0 - spec.tensor_decay * fracs) * jitter, 0.02, 1.0)
    sizes = np.concatenate(([1.0], shape, [0.0])) * spec.delta0

    configs = []
    for i, (a, b) in enumerate(enumerate_configs(p)):
        mu1 = float(flops_at[a])
        mu2 = float(flops_at[b] - flops_at[a])
        mu3 = float(spec.total_flops - flops_at[b])
        configs.append(
            PartitionConfig(
                id=i,
                cut_a=a,
                cut_b=b,
                t1=mu1 / spec.sew_mflops_per_ms,
                t2=mu2 / spec.phone_mflops_per_ms,
                t3=mu3 / spec.cloud_mflops_per_ms,
                mu1=mu1,
                mu2=mu2,
                mu3=mu3,
                delta12=float(sizes[a]),
                delta23=float(sizes[b]),
            )
        )

    l_sew, l_phone, l_cloud = latency_bounds
    offending = [
        cfg.id for cfg in configs if cfg.t1 > l_sew or cfg.t2 > l_phone or cfg.t3 > l_cloud
    ]
    if offending:
        raise ProfileError(
            "speed factors produce out-of-range latencies for configs "
            f"{offending} ([bounds] l_sew={l_sew}, l_phone={l_phone}, l_cloud={l_cloud})"
        )

    profile = ApplicationProfile(
        name=spec.name,
        cut_points=p,
        delta0=spec.delta0,
        total_flops=spec.total_flops,
        configs=tuple(configs),
    )
    profile.validate()
    return profile


_COLUMNS = "id,cut_a,cut_b,t1_ms,t2_ms,t3_ms,mu1,mu2,mu3,delta12_mb,delta23_mb"


def save_profile(profile: ApplicationProfile, path) -> None:
    """Write the line-oriented profile format: key=value header, then CSV rows."""
    lines = [
        f"name={profile.name}",
        f"cut_points={profile.cut_points}",
        f"delta0={profile.delta0!r}",
        f"total_flops={profile.total_flops!r}",
        _COLUMNS,
    ]
    for c in profile.configs:
        lines.append(
            f"{c.id},{c.cut_a},{c.cut_b},{c.t1!r},{c.t2!r},{c.t3!r},"
            f"{c.mu1!r},{c.mu2!r},{c.mu3!r},{c.delta12!r},{c.delta23!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _number(path, lineno: int, text: str, kind=float):
    """One numeric field of a profile file; NaN and infinities are rejected."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ProfileError(f"{path}:{lineno}: {exc}") from exc
    if not math.isfinite(value):
        raise ProfileError(f"{path}:{lineno}: not a finite number: {text.strip()!r}")
    return value


def load_profile(path) -> ApplicationProfile:
    """Parse a profile file; errors name the file and, where one is to blame, the line."""
    header: dict[str, tuple[int, str]] = {}
    configs: list[PartitionConfig] = []
    in_rows = False
    kinds = (int,) * 3 + (float,) * 8  # the _COLUMNS
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not in_rows:
                if line == _COLUMNS:
                    in_rows = True
                    continue
                if "=" not in line:
                    raise ProfileError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                header[key.strip()] = (lineno, value.strip())
                continue
            fields = line.split(",")
            if len(fields) != 11:
                raise ProfileError(f"{path}:{lineno}: expected 11 fields, got {len(fields)}")
            configs.append(PartitionConfig(
                *(_number(path, lineno, f, kind) for f, kind in zip(fields, kinds))
            ))
    if not in_rows:
        raise ProfileError(f"{path}: missing column header line")
    missing = {"name", "cut_points", "delta0", "total_flops"} - set(header)
    if missing:
        raise ProfileError(f"{path}: missing header fields: {sorted(missing)}")
    profile = ApplicationProfile(
        name=header["name"][1],
        cut_points=_number(path, *header["cut_points"], int),
        delta0=_number(path, *header["delta0"]),
        total_flops=_number(path, *header["total_flops"]),
        configs=tuple(configs),
    )
    try:
        profile.validate()
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None
    return profile
