import math

import numpy as np
import pytest

from fedpart.config import ExperimentConfig
from fedpart.env import ObservationBounds
from fedpart.traces import (
    PerturbedReplay,
    Trace,
    TraceError,
    TraceSynthesisSpec,
    load_trace,
    sample_cloud_latency,
    save_trace,
    synthesize_trace,
)


def numpy_loop_synthesis(spec: TraceSynthesisSpec, seed: int, max_value: float) -> np.ndarray:
    """Reference for ``synthesize_trace``: the same loops, indexing NumPy arrays per sample."""
    rng = np.random.default_rng(seed)
    phi = spec.correlation
    innovation = spec.variability * math.sqrt(1.0 - phi * phi)
    noise = rng.standard_normal(spec.length)
    level = np.empty(spec.length)
    x = 0.0
    for t in range(spec.length):
        x = phi * x + innovation * noise[t]
        level[t] = spec.mean + x
    if spec.outage_rate > 0.0:
        enter = rng.random(spec.length)
        durations = rng.geometric(1.0 / spec.outage_duration_mean, size=spec.length)
        in_outage = 0
        for t in range(spec.length):
            if in_outage > 0:
                level[t] *= spec.outage_depth
                in_outage -= 1
            elif enter[t] < spec.outage_rate:
                in_outage = int(durations[t])
                level[t] *= spec.outage_depth
    return np.clip(level, 0.0, max_value)


LONG_OUTAGE_SPEC = TraceSynthesisSpec(
    length=20000, mean=120.0, variability=60.0,
    outage_rate=0.01, outage_depth=0.1, outage_duration_mean=30.0,
)
WIFI_BOUND = ObservationBounds().wifi  # 580, the ceiling of the other specs here


class TestSynthesis:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("name", ["wifi", "fiveg", "long_outages"])
    def test_bits_equal_the_numpy_loop(self, name, seed):
        config = ExperimentConfig()
        spec, bound = {
            "wifi": (config.wifi, config.bounds.wifi),
            "fiveg": (config.fiveg, config.bounds.fiveg),
            "long_outages": (LONG_OUTAGE_SPEC, 200.0),
        }[name]
        samples = synthesize_trace(spec, seed, bound).samples
        expected = numpy_loop_synthesis(spec, seed, bound)
        assert samples.dtype == expected.dtype == np.float64
        assert samples.tobytes() == expected.tobytes()
        if name == "long_outages":  # the spec exercises both the outages and the clip
            assert np.count_nonzero(samples < spec.outage_depth * spec.mean) > 100
            assert np.count_nonzero(samples == bound) > 100

    def test_constant_mean_zero_variability(self):
        trace = synthesize_trace(
            TraceSynthesisSpec(length=200, mean=42.0, variability=0.0), 1, WIFI_BOUND
        )
        assert np.all(trace.samples == 42.0)

    def test_deterministic_for_seed(self):
        spec = TraceSynthesisSpec(length=500, mean=80.0, variability=20.0, outage_rate=0.01)
        a = synthesize_trace(spec, 9, WIFI_BOUND)
        b = synthesize_trace(spec, 9, WIFI_BOUND)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("bound", [350.0, 200.0])
    def test_clipped_at_the_bound_it_is_given(self, bound):
        spec = TraceSynthesisSpec(length=5000, mean=300.0, variability=120.0, outage_rate=0.01)
        trace = synthesize_trace(spec, 2, bound)
        assert trace.samples.min() >= 0.0
        assert trace.samples.max() == bound
        unclipped = synthesize_trace(spec, 2, math.inf).samples
        assert np.array_equal(trace.samples, np.minimum(unclipped, bound))

    def test_negative_samples_rejected(self):
        with pytest.raises(TraceError):
            Trace(samples=np.array([1.0, -0.5]), granularity_ms=250.0)

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace(samples=np.array([]), granularity_ms=250.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TraceError, match="samples must be finite"):
            Trace(samples=np.array([1.0, bad]), granularity_ms=250.0)
        with pytest.raises(TraceError, match="granularity_ms must be positive and finite"):
            Trace(samples=np.array([1.0]), granularity_ms=bad)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        trace = synthesize_trace(TraceSynthesisSpec(length=64, variability=10.0), 3, WIFI_BOUND)
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.samples.size == 64
        assert np.array_equal(loaded.samples, trace.samples)
        assert loaded.granularity_ms == trace.granularity_ms

    def test_malformed_line_names_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0.0,5.0\n250.0,np.float64(6.0)\n")
        with pytest.raises(TraceError, match=r"bad\.trace:2: "):
            load_trace(path)
        path.write_text("0.0,5.0,1.0\n")
        with pytest.raises(TraceError, match=r"bad\.trace:1: expected"):
            load_trace(path)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("0,5\n250,6\n1000,7\n900,8\n", 3, "differs from the 250.0 ms"),
            ("0,5\n250,6\n500,7\n400,8\n", 4, "does not increase"),
            ("0,5\n0,6\n", 2, "does not increase"),
        ],
    )
    def test_irregular_timestamps_rejected(self, tmp_path, text, line, reason):
        path = tmp_path / "irregular.trace"
        path.write_text(text)
        with pytest.raises(TraceError, match=rf"irregular\.trace:{line}: .*{reason}"):
            load_trace(path)

    def test_fractional_granularity_round_trips(self, tmp_path):
        trace = Trace(samples=np.full(20000, 3.0), granularity_ms=100.0 / 3.0)
        path = tmp_path / "frac.trace"
        save_trace(trace, path)
        assert load_trace(path).samples.size == 20000

    def test_length_matches_rows(self, tmp_path):
        path = tmp_path / "rows.trace"
        path.write_text("0.0,5.0\n250.0,6.0\n500.0,7.0\n")
        assert load_trace(path).samples.size == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(path)

    @pytest.mark.parametrize("text, line, field", [
        ("0.0,5.0\n250.0,nan\n", 2, "nan"),
        ("0.0,inf\n250.0,5.0\n", 1, "inf"),
        ("0.0,5.0\n250.0,6.0\n500.0, -Infinity\n", 3, "-Infinity"),
        ("0.0,5.0\nnan,6.0\n", 2, "nan"),
    ])
    def test_non_finite_number_names_file_and_line(self, tmp_path, text, line, field):
        path = tmp_path / "nan.trace"
        path.write_text(text)
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}:{line}: not a finite number: {field!r}"

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.trace"
        path.write_text("0.0,5.0\n250.0,-1.0\n")
        with pytest.raises(TraceError, match=r"neg\.trace:2: negative throughput sample -1\.0"):
            load_trace(path)


class PassArrayReplay:
    """Reference for ``PerturbedReplay``: it builds each pass as a whole array
    and emits every sample of a window."""

    def __init__(self, base, seed, noise_rel, shift_enabled, inversion_enabled):
        self.base, self.noise_rel = base, noise_rel
        self.shift_enabled, self.inversion_enabled = shift_enabled, inversion_enabled
        self._rng = np.random.default_rng(seed)
        self._pass = None
        self._pos = 0

    def _begin_pass(self):
        samples = self.base.samples
        n = samples.size
        shift = int(self._rng.integers(0, n))
        factor = 1.0 + float(self._rng.normal(0.0, self.noise_rel))
        invert = bool(self._rng.random() < 0.5)
        if self.inversion_enabled and invert:
            samples = np.concatenate((samples[n // 2 :], samples[: n // 2]))
        if self.shift_enabled and shift:
            samples = np.roll(samples, -shift)
        if self.noise_rel > 0.0:
            samples = samples * factor
        self._pass = np.maximum(samples, 0.0)
        self._pos = 0

    def next_window(self, n):
        out = np.empty(n)
        filled = 0
        while filled < n:
            if self._pass is None or self._pos >= self._pass.size:
                self._begin_pass()
            take = min(n - filled, self._pass.size - self._pos)
            out[filled : filled + take] = self._pass[self._pos : self._pos + take]
            self._pos += take
            filled += take
        return out


def stream(replay: PerturbedReplay, count: int) -> list[float]:
    """``count`` consecutive samples, one window of one sample at a time."""
    return [replay.next_window(1) for _ in range(count)]


class TestPerturbedReplay:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("shift", [True, False])
    @pytest.mark.parametrize("inversion", [True, False])
    @pytest.mark.parametrize("noise_rel", [0.0, 0.1, 2.0])  # 2.0 draws negative factors
    def test_bits_equal_the_pass_array_replay(self, seed, shift, inversion, noise_rel):
        """Windows shorter and longer than a pass, across its boundaries, with
        single samples between them; an odd length makes the halves unequal."""
        spec = TraceSynthesisSpec(length=37, mean=20.0, variability=15.0, outage_rate=0.05)
        base = synthesize_trace(spec, seed, WIFI_BOUND)
        replay = PerturbedReplay(base, seed, noise_rel, shift, inversion)
        reference = PassArrayReplay(base, seed, noise_rel, shift, inversion)
        sizes = np.random.default_rng(seed).integers(-20, 100, size=80)
        for n in sizes.tolist():
            n = max(n, 1)
            got, want = replay.next_window(n), reference.next_window(n)[-1]
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()

    def test_a_negative_factor_on_a_zero_sample_gives_positive_zero(self):
        """As ``np.maximum(-0.0, 0.0)`` does; a pass of ``[1, 0]`` shows the factor's sign."""
        base = Trace(samples=np.array([1.0, 0.0]), granularity_ms=250.0)
        replay = PerturbedReplay(
            base, seed=0, noise_rel=100.0, shift_enabled=False, inversion_enabled=False
        )
        negative_passes = 0
        for _ in range(20):
            negative_passes += replay.next_window(1) == 0.0
            assert math.copysign(1.0, replay.next_window(1)) == 1.0
        assert negative_passes > 0

    def test_identity_transformation(self):
        base = Trace(samples=np.arange(1.0, 11.0), granularity_ms=250.0)
        replay = PerturbedReplay(
            base, seed=0, noise_rel=0.0, shift_enabled=False, inversion_enabled=False
        )
        expected = list(np.tile(base.samples, 3)[:25])
        assert stream(replay, 25) == expected

    def test_shift_only_preserves_multiset(self):
        base = Trace(samples=np.arange(1.0, 32.0), granularity_ms=250.0)
        replay = PerturbedReplay(
            base, seed=4, noise_rel=0.0, shift_enabled=True, inversion_enabled=False
        )
        one_pass = stream(replay, base.samples.size)
        assert sorted(one_pass) == sorted(base.samples.tolist())

    def test_inversion_swaps_halves(self):
        base = Trace(samples=np.arange(1.0, 9.0), granularity_ms=250.0)
        replay = PerturbedReplay(
            base, seed=0, noise_rel=0.0, shift_enabled=False, inversion_enabled=True
        )
        seen = set()
        for _ in range(12):  # inversion is a per-pass coin flip
            seen.add(tuple(stream(replay, 8)))
        assert tuple(base.samples.tolist()) in seen
        inverted = tuple(np.concatenate([base.samples[4:], base.samples[:4]]).tolist())
        assert inverted in seen

    def test_deterministic_given_seed(self):
        base = synthesize_trace(TraceSynthesisSpec(length=100, variability=15.0), 8, WIFI_BOUND)
        a, b = (PerturbedReplay(base, 123, noise_rel=0.10, shift_enabled=True,
                                inversion_enabled=True) for _ in range(2))
        assert stream(a, 1000) == stream(b, 1000)

    def test_samples_never_negative(self):
        base = synthesize_trace(
            TraceSynthesisSpec(length=50, mean=5.0, variability=4.0), 1, WIFI_BOUND
        )
        replay = PerturbedReplay(  # huge noise to force clamps
            base, seed=2, noise_rel=2.0, shift_enabled=True, inversion_enabled=True
        )
        assert min(stream(replay, 5000)) >= 0.0

    def test_mean_preserved_with_default_noise(self):
        """Zero-mean multiplicative noise keeps the long-run mean of the base."""
        base = synthesize_trace(
            TraceSynthesisSpec(length=400, mean=60.0, variability=12.0), 5, WIFI_BOUND
        )
        replay = PerturbedReplay(
            base, seed=6, noise_rel=0.10, shift_enabled=True, inversion_enabled=True
        )
        emitted = np.array(stream(replay, 1_000_000))
        assert abs(emitted.mean() - base.mean) / base.mean < 0.02


class TestCloudLatency:
    def test_zero_mean_returns_zero(self):
        rng = np.random.default_rng(0)
        assert sample_cloud_latency(0.0, rng) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(TraceError):
            sample_cloud_latency(-1.0, np.random.default_rng(0))

    def test_draws_are_the_inverse_cdf_of_one_minus_a_uniform(self):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(1000):
            assert sample_cloud_latency(25.0, rng) == -25.0 * math.log(1.0 - ref.random())

    def test_sample_moments(self):
        rng = np.random.default_rng(42)
        t3 = 25.0
        draws = np.array([sample_cloud_latency(t3, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - t3) / t3 < 0.01
        assert abs(draws.var() - t3 * t3) / (t3 * t3) < 0.03
