import numpy as np
import pytest

from fedpart.env import (
    STEP_LOG,
    CostWeights,
    ObservationBounds,
    Step,
    comm_cost_5g,
    cost_scales,
    energy_per_window,
    step_cost,
    total_latency_ms,
)
from fedpart.profiles import DeviceProfile, PartitionConfig

from conftest import default_floors, make_tiny_env


def make_config(**kw):
    base = dict(
        id=0, cut_a=1, cut_b=1, t1=0.0, t2=0.0, t3=0.0,
        mu1=0.0, mu2=0.0, mu3=0.0, delta12=0.0, delta23=0.0,
    )
    base.update(kw)
    return PartitionConfig(**base)


def recomputed_cost(env, step, reconfigured=None):
    """The step's cost from its row, via ``step_cost``.

    Any action other than keep-current counts as a reconfiguration, even one
    that redeploys the config already in place.
    """
    if reconfigured is None:
        reconfigured = step.action != env.keep_action
    w = env.weights
    return step_cost(w.alpha * step.e_sew, w.alpha * step.e_phone, step.c_5g, step.violated,
                     reconfigured, w, env.scales)


class TestTotalLatency:
    def test_fully_local_is_t1(self):
        cfg = make_config(t1=374.0, mu1=1000.0)
        assert total_latency_ms(cfg, 10.0, 5.0, 999.0) == 374.0

    def test_worked_example(self):
        cfg = make_config(t1=50.0, t2=20.0, delta12=2.0, delta23=1.0, mu3=10.0, t3=10.0)
        assert total_latency_ms(cfg, 10.0, 5.0, 10.0) == pytest.approx(480.0)

    def test_matches_independent_recomputation(self, default_profile):
        """Dual implementation: re-derive the latency formula from scratch."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            cfg = default_profile.configs[rng.integers(default_profile.n_configs)]
            r_w = float(rng.uniform(0.5, 580.0))
            r_5 = float(rng.uniform(0.35, 350.0))
            cloud = float(rng.uniform(0.0, 90.0))
            expected = cfg.t1 + cfg.t2 + cfg.delta12 / r_w * 1e3 + cfg.delta23 / r_5 * 1e3
            if cfg.mu3 > 0 or cfg.t3 > 0:
                expected += cloud
            assert total_latency_ms(cfg, r_w, r_5, cloud) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_throughput_rejected(self):
        with pytest.raises(ValueError):
            total_latency_ms(make_config(), 0.0, 1.0, 0.0)


class TestEnergy:
    def test_fully_cloud_limit(self):
        cfg = make_config(cut_a=0, cut_b=0, delta12=6.25, delta23=6.25, mu3=5427.0, t3=25.0)
        weights = CostWeights()
        e_sew, e_phone = energy_per_window(
            cfg, 1e12, 1e12, DeviceProfile(), weights, weights.tau_normal
        )
        assert e_sew == pytest.approx(0.0, abs=1e-9)
        assert e_phone == pytest.approx(0.0, abs=1e-9)

    def test_fully_local(self):
        cfg = make_config(mu1=5427.0, t1=374.0)
        weights = CostWeights(tau_normal=10.0, lambda_fps=1.0)
        devices = DeviceProfile(z_sew=1.5e-3)
        e_sew, e_phone = energy_per_window(cfg, 10.0, 10.0, devices, weights, weights.tau_normal)
        assert e_phone == 0.0
        assert e_sew == pytest.approx(10.0 * 1.0 * 1.5e-3 * 5427.0)

    def test_worked_example(self):
        # tau*lambda*(z*mu1 + theta*delta/r) = 10*(0.001*1000 + 7.9*1/10) = 17.9 J
        cfg = make_config(mu1=1000.0, delta12=1.0)
        weights = CostWeights(tau_normal=10.0, lambda_fps=1.0)
        devices = DeviceProfile(z_sew=1e-3, theta_sew=7.9)
        e_sew, _ = energy_per_window(cfg, 10.0, 1.0, devices, weights, weights.tau_normal)
        assert e_sew == pytest.approx(17.9)


class TestCommCost:
    def test_no_cloud_stage_is_free(self):
        assert comm_cost_5g(make_config(), CostWeights(), 10.0) == 0.0

    def test_zero_rate_is_free(self):
        cfg = make_config(delta23=5.0)
        weights = CostWeights(g=0.0)
        assert comm_cost_5g(cfg, weights, weights.tau_normal) == 0.0

    def test_worked_example(self):
        cfg = make_config(delta23=1.0)
        weights = CostWeights(g=0.1, lambda_fps=1.0, tau_normal=10.0)
        assert comm_cost_5g(cfg, weights, weights.tau_normal) == pytest.approx(1.0)


class TestStepCost:
    WEIGHTS = CostWeights()
    SCALES = (10.0, 10.0, 10.0)

    def test_all_zero(self):
        assert step_cost(0.0, 0.0, 0.0, False, False, self.WEIGHTS, self.SCALES) == 0.0

    def test_violation_plus_reconfiguration(self):
        got = step_cost(0.0, 0.0, 0.0, True, True, self.WEIGHTS, self.SCALES)
        assert got == pytest.approx(0.95)

    def test_matches_direct_substitution(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c_sew, c_phone, c_5g = rng.uniform(0.0, 30.0, size=3)
            violated = bool(rng.integers(2))
            reconf = bool(rng.integers(2))
            w = self.WEIGHTS
            expected = (
                w.w_sew * min(c_sew / 10.0, 1.0)
                + w.w_phone * min(c_phone / 10.0, 1.0)
                + w.w_5g * min(c_5g / 10.0, 1.0)
                + w.w_lat * violated
                + w.w_rcfg * reconf
            )
            got = step_cost(c_sew, c_phone, c_5g, violated, reconf, w, self.SCALES)
            assert got == pytest.approx(expected, rel=1e-12)
            assert 0.0 <= got <= 1.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CostWeights(w_sew=0.5)


class TestObservation:
    BOUNDS = ObservationBounds()

    def test_min_bounds_map_to_zero(self):
        assert np.array_equal(self.BOUNDS.normalize(np.zeros(5)), np.zeros(5))

    def test_max_bounds_map_to_one(self):
        raw = np.array([580.0, 350.0, 450.0, 65.0, 30.0])
        assert np.array_equal(self.BOUNDS.normalize(raw), np.ones(5))

    def test_wifi_midpoint(self):
        raw = np.array([290.0, 0.0, 0.0, 0.0, 0.0])
        assert self.BOUNDS.normalize(raw)[0] == pytest.approx(0.5)

    def test_out_of_bounds_clamped(self):
        normalized = self.BOUNDS.normalize(np.array([1000.0, -5.0, 500.0, 70.0, 1000.0]))
        assert np.all(normalized <= 1.0)
        assert np.all(normalized >= 0.0)


class TestEnvStep:
    def test_keep_action_never_pays_reconfiguration(self, tiny_profile):
        env = make_tiny_env(tiny_profile)
        keep = env.keep_action
        out1 = env.step(keep)
        out2 = env.step(keep)
        assert out1.cost == recomputed_cost(env, out1, reconfigured=False)
        assert out2.cost == recomputed_cost(env, out2, reconfigured=False)
        assert out1.config_id == out2.config_id == 0  # still the initial local config

    def test_cost_recomputable_from_components(self, tiny_profile):
        env = make_tiny_env(tiny_profile, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(60):
            out = env.step(int(rng.integers(env.n_actions)))
            assert recomputed_cost(env, out) == out.cost
            assert out.violated == (out.l_total > env.weights.l_max)
            assert 0.0 <= out.cost <= 1.0

    def test_fast_mode_after_five_violations(self, tiny_profile):
        env = make_tiny_env(tiny_profile, l_max=1e-6)  # everything violates
        taus = []
        for _ in range(7):
            taus.append(env.current_tau())
            env.step(env.keep_action)
        assert taus[:5] == [env.weights.tau_normal] * 5
        assert taus[5] == env.weights.tau_fast
        assert taus[6] == env.weights.tau_fast

    def test_fast_mode_reverts_after_clean_step(self, tiny_profile):
        env = make_tiny_env(tiny_profile, l_max=1e-6)
        for _ in range(6):
            env.step(env.keep_action)
        env._consecutive_violations = 0  # simulate a clean window
        assert env.current_tau() == env.weights.tau_normal

    def test_deterministic_given_seed(self, tiny_profile):
        a = make_tiny_env(tiny_profile, seed=9)
        b = make_tiny_env(tiny_profile, seed=9)
        actions = np.random.default_rng(2).integers(0, a.n_actions, size=50)
        for act in actions:
            oa, ob = a.step(int(act)), b.step(int(act))
            assert oa == ob
            assert np.array_equal(a.raw, b.raw)

    def test_out_of_range_action_rejected(self, tiny_env):
        with pytest.raises(ValueError):
            tiny_env.step(tiny_env.n_actions)

    def test_local_config_pays_no_5g_or_cloud(self, tiny_profile):
        env = make_tiny_env(tiny_profile)
        out = env.step(0)  # fully-local config id 0
        assert out.c_5g == 0.0
        assert env.raw[4] == 0.0  # no cloud latency
        assert out.l_total == tiny_profile.configs[0].t1

    def test_raw_state_explains_the_row(self, tiny_profile):
        """``raw`` holds the unfloored throughputs, the deployed config's
        latencies and the cloud latency the row's total latency used."""
        env = make_tiny_env(tiny_profile, seed=4)
        assert np.array_equal(env.raw[2:], [tiny_profile.configs[0].t1,
                                            tiny_profile.configs[0].t2, 0.0])
        wifi_floor, fiveg_floor = default_floors(env.bounds)
        assert (env.wifi_floor, env.fiveg_floor) == (wifi_floor, fiveg_floor)
        rng = np.random.default_rng(6)
        clouds = 0
        for _ in range(80):
            out = env.step(int(rng.integers(env.n_actions)))
            cfg = tiny_profile.configs[out.config_id]
            r_wifi, r_5g, l_sew, l_phone, cloud = env.raw.tolist()
            assert (l_sew, l_phone) == (cfg.t1, cfg.t2)
            assert (cloud > 0.0) == cfg.has_cloud_stage
            clouds += cfg.has_cloud_stage
            assert out.l_total == total_latency_ms(
                cfg, max(r_wifi, wifi_floor), max(r_5g, fiveg_floor), cloud
            )
            assert np.array_equal(env.observe(), env.bounds.normalize(env.raw))
        assert clouds > 0


class TestStepLog:
    def test_rows_hold_the_outcomes(self, tiny_profile):
        assert STEP_LOG.names == Step._fields
        env = make_tiny_env(tiny_profile, seed=5)
        actions = (3, env.keep_action, 0)
        log = np.zeros(len(actions), dtype=STEP_LOG)
        steps = []
        for i, action in enumerate(actions):
            steps.append(env.step(action))
            log[i] = steps[-1]
        for row, out, action in zip(log, steps, actions):
            assert row.item() == tuple(out)
            assert (row["action"], row["config_id"]) == (action, out.config_id)

    def test_field_means_match_a_contiguous_copy(self):
        """The baseline's mean energies are taken over log fields, and must
        read the same bits as over plain arrays at any episode length."""
        rng = np.random.default_rng(3)
        log = np.zeros(20000, dtype=STEP_LOG)
        for name in ("cost", "e_sew", "e_phone", "c_5g", "l_total"):
            log[name] = rng.random(log.size) * np.exp(rng.normal(scale=5.0, size=log.size))
            assert np.mean(log[name]) == np.mean(log[name].copy())


class TestCostScales:
    def test_scales_are_positive(self, default_profile):
        floors = default_floors(ObservationBounds())
        scales = cost_scales(CostWeights(), default_profile, DeviceProfile(), *floors)
        assert len(scales) == 3 and min(scales) > 0

    @pytest.mark.parametrize("weights", [
        CostWeights(),
        CostWeights(alpha=2.0, g=0.3, lambda_fps=2.0, tau_normal=7.0),
    ], ids=["default", "scaled"])
    def test_env_scales_are_the_maxima_over_the_configs(self, tiny_profile, weights):
        """Each scale is the largest window cost over every config at the
        floors, computed here by a direct loop; the weights are kept as given."""
        env = make_tiny_env(tiny_profile, weights=weights)
        assert env.weights is weights
        window = weights.tau_normal * weights.lambda_fps
        devices = env.devices
        sew, phone, fiveg = [], [], []
        for cfg in tiny_profile.configs:
            sew.append(weights.alpha * (window * (
                devices.z_sew * cfg.mu1 + devices.theta_sew * cfg.delta12 / env.wifi_floor
            )))
            phone.append(weights.alpha * (window * (
                devices.z_phone * cfg.mu2 + devices.theta_phone * cfg.delta23 / env.fiveg_floor
            )))
            fiveg.append(window * weights.g * cfg.delta23)
        assert env.scales == (max(sew), max(phone), max(fiveg))

    def test_a_zero_maximum_scales_by_one(self, tiny_profile):
        """With no 5G charge every 5G cost is 0, and its scale falls back to 1."""
        floors = default_floors(ObservationBounds())
        scales = cost_scales(CostWeights(g=0.0), tiny_profile, DeviceProfile(), *floors)
        assert scales[2] == 1.0 and min(scales[:2]) > 0
