import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedpart.env import ObservationBounds
from fedpart.profiles import (
    DeviceProfile,
    ProfileError,
    ProfileSpec,
    _isclose,
    config_count,
    enumerate_configs,
    load_profile,
    save_profile,
    synthesize_profile,
)

LATENCY_BOUNDS = ObservationBounds().latencies  # 450, 65 and 30 ms


def brute_force_counts(p):
    """Independent enumeration: count placements of two ordered cuts in [0, p+1].

    Category membership is decided from the cut pair alone, without reusing
    the production enumeration logic.
    """
    full = single = double = 0
    for a in range(p + 2):
        for b in range(a, p + 2):
            real = {c for c in (a, b) if 1 <= c <= p}
            if not real:
                # only sentinel cuts: valid placements are all-SEW (p+1, p+1),
                # all-phone (0, p+1), all-cloud (0, 0)
                if (a, b) in ((p + 1, p + 1), (0, p + 1), (0, 0)):
                    full += 1
            elif len(real) == 1:
                single += 1
            else:
                double += 1
    return full, single, double


def counts_by_cuts(cuts, p):
    """(full-device, single-split, double-split) counts read from the cut pairs:
    a full-device placement has both cuts in {0, p+1}, a double split has
    0 < a < b < p+1."""
    full = sum(a in (0, p + 1) and b in (0, p + 1) for a, b in cuts)
    double = sum(0 < a < b < p + 1 for a, b in cuts)
    return full, len(cuts) - full - double, double


class TestEnumeration:
    @pytest.mark.parametrize(
        "p,total", [(12, 105), (0, 3), (18, 210), (1, 6), (2, 10)]
    )
    def test_counts(self, p, total):
        assert len(enumerate_configs(p)) == total
        assert config_count(p) == total

    def test_category_counts_at_12(self):
        assert counts_by_cuts(enumerate_configs(12), 12) == (3, 36, 66)

    @pytest.mark.parametrize("p", range(0, 31))
    def test_matches_brute_force(self, p):
        cuts = enumerate_configs(p)
        assert len(set(cuts)) == len(cuts)
        full, single, double = counts_by_cuts(cuts, p)
        assert (full, single, double) == brute_force_counts(p)
        assert full == 3 and single == 3 * p and double == p * (p - 1) // 2

    def test_order_is_stable_and_documented(self):
        cuts = enumerate_configs(3)
        assert cuts == enumerate_configs(3)
        # full SEW, full phone, full cloud; then SEW-phone, SEW-cloud and
        # phone-cloud splits ascending by cut; then double splits
        assert cuts == [
            (4, 4), (0, 4), (0, 0),
            (1, 4), (2, 4), (3, 4),
            (1, 1), (2, 2), (3, 3),
            (0, 1), (0, 2), (0, 3),
            (1, 2), (1, 3), (2, 3),
        ]

    def test_negative_cut_points_rejected(self):
        with pytest.raises(ProfileError):
            enumerate_configs(-1)


class TestSynthesis:
    def test_fully_local_endpoints(self, default_profile):
        local = default_profile.configs[0]
        assert local.mu1 == default_profile.total_flops
        assert local.delta12 == 0.0 and local.delta23 == 0.0
        assert local.t2 == 0.0 and local.t3 == 0.0

    def test_fully_offloaded_transfers_input(self, default_profile):
        cloud = default_profile.configs[2]
        assert cloud.delta12 == pytest.approx(default_profile.delta0)
        assert cloud.delta23 == pytest.approx(default_profile.delta0)
        assert cloud.mu3 == pytest.approx(default_profile.total_flops)

    def test_default_ranges(self, default_profile):
        for cfg in default_profile.configs:
            assert 0.0 <= cfg.t1 <= 450.0
            assert 0.0 <= cfg.t2 <= 65.0
            assert 0.0 <= cfg.t3 <= 30.0
            assert 0.0 <= cfg.delta12 <= 6.25
            assert 0.0 <= cfg.delta23 <= 6.25

    def test_flops_conservation(self, default_profile):
        for cfg in default_profile.configs:
            assert cfg.mu1 + cfg.mu2 + cfg.mu3 == pytest.approx(
                default_profile.total_flops, rel=1e-9
            )

    def test_same_seed_identical(self):
        spec = ProfileSpec(rng_seed=3)
        assert synthesize_profile(spec, LATENCY_BOUNDS) == synthesize_profile(
            spec, LATENCY_BOUNDS
        )

    @pytest.mark.parametrize("spec, latency_bounds", [
        # a SEW this slow pushes t1 past the default 450 ms bound
        (ProfileSpec(sew_mflops_per_ms=2.0), LATENCY_BOUNDS),
        # the default profile's latencies peak at about 431, 60 and 25 ms
        (ProfileSpec(), (400.0, 65.0, 30.0)),
        (ProfileSpec(), (450.0, 55.0, 30.0)),
        (ProfileSpec(), (450.0, 65.0, 20.0)),
    ])
    def test_out_of_range_speeds_rejected(self, spec, latency_bounds):
        l_sew, l_phone, l_cloud = latency_bounds
        with pytest.raises(ProfileError, match=(
            r"out-of-range latencies for configs \[.*\] "
            rf"\(\[bounds\] l_sew={l_sew}, l_phone={l_phone}, l_cloud={l_cloud}\)$"
        )):
            synthesize_profile(spec, latency_bounds)

    def test_device_profile_positivity(self):
        with pytest.raises(ProfileError):
            DeviceProfile(z_sew=0.0)

    @pytest.mark.parametrize("name", [
        "sew_mflops_per_ms", "phone_mflops_per_ms", "cloud_mflops_per_ms"
    ])
    @pytest.mark.parametrize("speed", [0.0, -1.0, float("nan")])
    def test_device_speeds_must_be_positive(self, name, speed):
        with pytest.raises(ProfileError, match=f"{name} must be > 0, got {speed}"):
            ProfileSpec(**{name: speed})


HAND_WRITTEN = (
    "name=by-hand\n"
    "cut_points=0\n"
    "delta0=1.5\n"
    "total_flops=100.0\n"
    "id,cut_a,cut_b,t1_ms,t2_ms,t3_ms,mu1,mu2,mu3,delta12_mb,delta23_mb\n"
    "0,1,1,50.0,0.0,0.0,100.0,0.0,0.0,0.0,0.0\n"
    "1,0,1,0.0,10.0,0.0,0.0,100.0,0.0,1.5,0.0\n"
    "2,0,0,0.0,0.0,5.0,0.0,0.0,100.0,1.5,1.5\n"
)


class TestFileFormat:
    def test_round_trip(self, default_profile, tmp_path):
        path = tmp_path / "p.profile"
        save_profile(default_profile, path)
        assert load_profile(path) == default_profile

    def test_wrong_config_count_rejected(self, default_profile, tmp_path):
        """Too few configs, or too many even when the extra ones duplicate
        existing configs under fresh ids."""
        for count in (50, 140):
            path = tmp_path / f"bad_{count}.profile"
            configs = tuple(
                dataclasses.replace(default_profile.configs[i % 105], id=i) for i in range(count)
            )
            save_profile(dataclasses.replace(default_profile, configs=configs), path)
            with pytest.raises(ProfileError, match="requires 105"):
                load_profile(path)

    def test_hand_written_three_config_file(self, tmp_path):
        path = tmp_path / "p0.profile"
        path.write_text(HAND_WRITTEN)
        profile = load_profile(path)
        assert profile.n_configs == 3
        assert profile.configs[2].has_cloud_stage

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text(
            "name=x\ncut_points=0\ndelta0=1.0\ntotal_flops=1.0\n"
            "id,cut_a,cut_b,t1_ms,t2_ms,t3_ms,mu1,mu2,mu3,delta12_mb,delta23_mb\n"
            "0,1,1,oops\n"
        )
        with pytest.raises(ProfileError, match=r"bad\.profile:6: expected 11 fields, got 4"):
            load_profile(path)

    @pytest.mark.parametrize("line, old, new, field", [
        (6, "0,1,1,50.0,", "0,1,1,nan,", "nan"),
        (8, ",1.5,1.5\n", ",1.5,inf\n", "inf"),
        (3, "delta0=1.5", "delta0=NaN", "NaN"),
        (4, "total_flops=100.0", "total_flops=-inf", "-inf"),
    ])
    def test_non_finite_number_names_file_and_line(self, tmp_path, line, old, new, field):
        """Without the check, ``t1 = nan`` passes every invariant of ``validate``."""
        path = tmp_path / "nan.profile"
        path.write_text(HAND_WRITTEN.replace(old, new))
        with pytest.raises(ProfileError) as info:
            load_profile(path)
        assert str(info.value) == f"{path}:{line}: not a finite number: {field!r}"

    @pytest.mark.parametrize("old, new, message", [
        ("1,0,1,", "1,0,x,", ":7: invalid literal for int() with base 10: 'x'"),
        ("cut_points=0", "cut_points=zero", ":2: invalid literal for int() with base 10: 'zero'"),
        ("delta0=1.5\n", "", ": missing header fields: ['delta0']"),
        ("id,cut_a", "cut_a", ":5: expected key=value"),
    ])
    def test_other_errors_name_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "bad.profile"
        path.write_text(HAND_WRITTEN.replace(old, new))
        with pytest.raises(ProfileError) as info:
            load_profile(path)
        assert str(info.value).startswith(f"{path}{message}")


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_pairs(draw):
    """Two finite floats, often within a few tolerances of each other."""
    a = draw(finite)
    if draw(st.booleans()):
        return a, draw(finite)
    scale = draw(st.sampled_from([1e-8, 1e-6, 1e-5, 1e-3])) * max(abs(a), 1.0)
    b = a + draw(st.floats(-3.0, 3.0)) * scale
    assume(math.isfinite(b))
    return a, b


@settings(max_examples=500, deadline=None)
@given(float_pairs(), st.sampled_from([(1e-6, 1e-6), (1e-5, 1e-8)]))
def test_validate_tolerance_is_numpys_isclose(pair, tolerances):
    """The two (rtol, atol) pairs ``validate`` uses, on finite Python floats."""
    (a, b), (rtol, atol) = pair, tolerances
    with np.errstate(over="ignore"):
        expected = bool(np.isclose(a, b, rtol=rtol, atol=atol))
    assert _isclose(a, b, rtol=rtol, atol=atol) == expected
