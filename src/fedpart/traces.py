"""Throughput traces, perturbed replay, and cloud-latency sampling.

Throughput values are unit-agnostic scalars (MB/s by default, matching the
MB-scale transfer sizes in profiles). Traces are replayed cyclically; each
full pass is re-randomized with a circular shift, a multiplicative noise
factor, and an optional mid-point inversion so training never sees the same
periodic signal twice; a replay returns one sample per decision window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TraceError(ValueError):
    """Invalid trace data or synthesis parameters."""


@dataclass(frozen=True)
class Trace:
    """A time series of throughput samples at a fixed sampling period."""

    samples: np.ndarray
    granularity_ms: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise TraceError("trace needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise TraceError("trace samples must be finite")
        if np.any(samples < 0):
            raise TraceError("trace samples must be >= 0")
        if not 0 < self.granularity_ms < math.inf:
            raise TraceError("granularity_ms must be positive and finite")

    @property
    def mean(self) -> float:
        return float(self.samples.mean())


@dataclass(frozen=True)
class TraceSynthesisSpec:
    """Parameters for a synthetic throughput trace.

    The signal is a stationary AR(1) process around ``mean`` with standard
    deviation ``variability``, clipped to ``[0, max_value]`` by :func:`synthesize_trace`.
    Optional outages model bursts of degraded connectivity: entered with
    probability ``outage_rate`` per sample, lasting a geometric number of
    samples with the given mean (at least 1), scaling throughput by
    ``outage_depth``; the rate and the depth are in [0, 1].
    """

    length: int = 3000
    granularity_ms: float = 250.0
    mean: float = 100.0
    variability: float = 20.0
    correlation: float = 0.98
    outage_rate: float = 0.0
    outage_depth: float = 0.05
    outage_duration_mean: float = 120.0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise TraceError("length must be >= 1")
        if not (0.0 <= self.correlation < 1.0):
            raise TraceError("correlation must be in [0, 1)")
        if self.variability < 0 or self.mean < 0:
            raise TraceError("mean and variability must be >= 0")
        if not self.granularity_ms > 0:
            raise TraceError(f"granularity_ms must be > 0, got {self.granularity_ms}")
        for name in ("outage_rate", "outage_depth"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise TraceError(f"{name} must be in [0, 1], got {value}")
        if not self.outage_duration_mean >= 1.0:  # a geometric duration is at least one sample
            raise TraceError(f"outage_duration_mean must be >= 1, got {self.outage_duration_mean}")


def synthesize_trace(spec: TraceSynthesisSpec, seed: int, max_value: float) -> Trace:
    """Generate a trace deterministically from ``(spec, seed)``, clipped to ``[0, max_value]``."""
    rng = np.random.default_rng(seed)
    phi = spec.correlation
    innovation = spec.variability * math.sqrt(1.0 - phi * phi)
    # Both loops run on Python floats, whose arithmetic is the same IEEE
    # double arithmetic as NumPy's float64 but without per-sample indexing.
    level = []
    x = 0.0
    for e in rng.standard_normal(spec.length).tolist():
        x = phi * x + innovation * e
        level.append(spec.mean + x)

    if spec.outage_rate > 0.0:
        enter = rng.random(spec.length).tolist()
        durations = rng.geometric(1.0 / spec.outage_duration_mean, size=spec.length).tolist()
        in_outage = 0
        for t in range(spec.length):
            if in_outage > 0:
                level[t] *= spec.outage_depth
                in_outage -= 1
            elif enter[t] < spec.outage_rate:
                in_outage = durations[t]
                level[t] *= spec.outage_depth

    samples = np.clip(level, 0.0, max_value)
    return Trace(samples=samples, granularity_ms=spec.granularity_ms)


def load_trace(path) -> Trace:
    """Read a two-column ``timestamp_ms,throughput`` text file.

    Timestamps must increase by the same step throughout; the first two rows
    set it (250 ms for a one-row file). A row that breaks this is rejected
    with its line number, since the samples are replayed on a uniform grid;
    so is a NaN, an infinity or a negative throughput.
    """
    timestamps: list[float] = []
    values: list[float] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise TraceError(f"{path}:{lineno}: expected 'timestamp_ms,throughput'")
            try:
                timestamp, value = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from exc
            for number, text in ((timestamp, parts[0]), (value, parts[1])):
                if not math.isfinite(number):
                    raise TraceError(f"{path}:{lineno}: not a finite number: {text.strip()!r}")
            if value < 0:
                raise TraceError(f"{path}:{lineno}: negative throughput sample {value!r}")
            timestamps.append(timestamp)
            values.append(value)
            linenos.append(lineno)
    if not values:
        raise TraceError(f"{path}: empty trace file")
    granularity = timestamps[1] - timestamps[0] if len(timestamps) > 1 else 250.0
    for i in range(1, len(timestamps)):
        step = timestamps[i] - timestamps[i - 1]
        if step <= 0:
            raise TraceError(
                f"{path}:{linenos[i]}: timestamp {timestamps[i]!r} does not increase"
            )
        # Rounding in decimal timestamps stays far below this tolerance.
        if abs(step - granularity) > 1e-6 * granularity:
            raise TraceError(
                f"{path}:{linenos[i]}: timestamp step {step!r} ms differs from the "
                f"{granularity!r} ms of the first two rows"
            )
    return Trace(samples=np.asarray(values), granularity_ms=granularity)


def save_trace(trace: Trace, path) -> None:
    """Write the ``timestamp_ms,throughput`` text that :func:`load_trace` reads back exactly.

    Both columns go out as Python floats, whose repr is the shortest exact
    text; a NumPy 2 scalar would print as ``np.float64(...)``.
    """
    granularity = float(trace.granularity_ms)
    with open(path, "w", encoding="utf-8") as fh:
        for i, v in enumerate(trace.samples.tolist()):
            fh.write(f"{i * granularity!r},{v!r}\n")


class PerturbedReplay:
    """Cyclic replay of a base trace with per-pass random transformations.

    At the start of every full pass three draws are made (always in the same
    order, so streams are reproducible): a circular shift offset, a
    multiplicative factor ``1 + eps`` with ``eps ~ Normal(0, noise_rel)``,
    and a coin flip for a mid-point inversion (second half of the trace
    played before the first). Disabled transformations still consume their
    draw. A pass is thus the base trace rotated left by the shift plus, if
    inverted, half its length, and scaled by the factor (exactly 1 when
    ``noise_rel`` is 0). Only a window's last sample is read, and clamped at zero.
    """

    def __init__(
        self,
        base: Trace,
        seed,
        noise_rel: float,
        shift_enabled: bool,
        inversion_enabled: bool,
    ):
        if noise_rel < 0:
            raise TraceError("noise_rel must be >= 0")
        self.base = base
        self.noise_rel = noise_rel
        self.shift_enabled = shift_enabled
        self.inversion_enabled = inversion_enabled
        self._rng = np.random.default_rng(seed)
        self._rotation = 0
        self._factor = 1.0
        self._pos = base.samples.size  # at a pass's end: the first sample begins one

    @property
    def granularity_ms(self) -> float:
        return self.base.granularity_ms

    def _begin_pass(self) -> None:
        n = self.base.samples.size
        shift = int(self._rng.integers(0, n))
        factor = 1.0 + float(self._rng.normal(0.0, self.noise_rel))
        invert = bool(self._rng.random() < 0.5)
        rotation = shift if self.shift_enabled else 0
        if self.inversion_enabled and invert:
            rotation += n // 2
        self._rotation = rotation % n
        self._factor = factor  # exactly 1.0 when noise_rel is 0: the multiply is then exact

    def next_window(self, n: int) -> float:
        """Move ``n`` samples on and return the last one, scaled and clamped at zero.

        Each pass boundary crossed makes its three draws, as emitting every sample would."""
        if n < 1:
            raise TraceError("window size must be >= 1")
        size = self.base.samples.size
        pos = self._pos + n
        while pos > size:
            self._begin_pass()
            pos -= size
        self._pos = pos
        v = float(self.base.samples[(self._rotation + pos - 1) % size]) * self._factor
        return max(0.0, v)  # keeps np.maximum's +0.0 for a -0.0 product


def sample_cloud_latency(t3: float, rng: np.random.Generator) -> float:
    """Exponential service time with mean ``t3`` ms (M/M/1 cloud model)."""
    if t3 < 0:
        raise TraceError(f"t3 must be >= 0, got {t3}")
    if t3 == 0.0:
        return 0.0
    return -t3 * math.log(1.0 - float(rng.random()))  # inverse CDF at a u in (0, 1]
