import dataclasses

import numpy as np
import pytest

from fedpart.env import (
    STEP_LOG,
    CostBreakdown,
    CostWeights,
    EnvState,
    ObservationBounds,
    OffloadEnv,
    comm_cost_5g,
    cost_from_components,
    energy_per_window,
    log_step,
    oracle_best_config,
    resolve_cost_weights,
    step_cost,
    throughput_floor,
    total_latency_ms,
)
from fedpart.profiles import ApplicationProfile, DeviceProfile, PartitionConfig

from conftest import make_tiny_env


def make_config(**kw):
    base = dict(
        id=0, cut_a=1, cut_b=1, t1=0.0, t2=0.0, t3=0.0,
        mu1=0.0, mu2=0.0, mu3=0.0, delta12=0.0, delta23=0.0,
    )
    base.update(kw)
    return PartitionConfig(**base)


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
        e_sew, e_phone = energy_per_window(
            cfg, 1e12, 1e12, DeviceProfile(), CostWeights()
        )
        assert e_sew == pytest.approx(0.0, abs=1e-9)
        assert e_phone == pytest.approx(0.0, abs=1e-9)

    def test_fully_local(self):
        cfg = make_config(mu1=5427.0, t1=374.0)
        weights = CostWeights(tau_normal=10.0, lambda_fps=1.0)
        devices = DeviceProfile(z_sew=1.5e-3)
        e_sew, e_phone = energy_per_window(cfg, 10.0, 10.0, devices, weights)
        assert e_phone == 0.0
        assert e_sew == pytest.approx(10.0 * 1.0 * 1.5e-3 * 5427.0)

    def test_worked_example(self):
        # tau*lambda*(z*mu1 + theta*delta/r) = 10*(0.001*1000 + 7.9*1/10) = 17.9 J
        cfg = make_config(mu1=1000.0, delta12=1.0)
        weights = CostWeights(tau_normal=10.0, lambda_fps=1.0)
        devices = DeviceProfile(z_sew=1e-3, theta_sew=7.9)
        e_sew, _ = energy_per_window(cfg, 10.0, 1.0, devices, weights)
        assert e_sew == pytest.approx(17.9)


class TestCommCost:
    def test_no_cloud_stage_is_free(self):
        assert comm_cost_5g(make_config(), CostWeights()) == 0.0

    def test_zero_rate_is_free(self):
        cfg = make_config(delta23=5.0)
        weights = CostWeights(g=0.0)
        assert comm_cost_5g(cfg, weights) == 0.0

    def test_worked_example(self):
        cfg = make_config(delta23=1.0)
        weights = CostWeights(g=0.1, lambda_fps=1.0, tau_normal=10.0)
        assert comm_cost_5g(cfg, weights) == pytest.approx(1.0)


class TestStepCost:
    WEIGHTS = CostWeights(c_sew_max=10.0, c_phone_max=10.0, c_5g_max=10.0)

    def test_all_zero(self):
        assert step_cost(0.0, 0.0, 0.0, False, False, self.WEIGHTS) == 0.0

    def test_violation_plus_reconfiguration(self):
        assert step_cost(0.0, 0.0, 0.0, True, True, self.WEIGHTS) == pytest.approx(0.95)

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
            got = step_cost(c_sew, c_phone, c_5g, violated, reconf, w)
            assert got == pytest.approx(expected, rel=1e-12)
            assert 0.0 <= got <= 1.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CostWeights(w_sew=0.5)


class TestObservation:
    BOUNDS = ObservationBounds()

    def test_min_bounds_map_to_zero(self):
        state = EnvState(0.0, 0.0, 0.0, 0.0, 0.0, self.BOUNDS)
        assert np.array_equal(state.normalized(), np.zeros(5))

    def test_max_bounds_map_to_one(self):
        state = EnvState(580.0, 350.0, 450.0, 65.0, 30.0, self.BOUNDS)
        assert np.array_equal(state.normalized(), np.ones(5))

    def test_wifi_midpoint(self):
        state = EnvState(290.0, 0.0, 0.0, 0.0, 0.0, self.BOUNDS)
        assert state.normalized()[0] == pytest.approx(0.5)

    def test_out_of_bounds_clamped(self):
        state = EnvState(1000.0, -5.0, 500.0, 70.0, 1000.0, self.BOUNDS)
        assert np.all(state.normalized() <= 1.0)
        assert np.all(state.normalized() >= 0.0)


class TestEnvStep:
    def test_keep_action_never_pays_reconfiguration(self, tiny_profile):
        env = make_tiny_env(tiny_profile)
        keep = env.keep_action
        out1 = env.step(keep)
        out2 = env.step(keep)
        assert out1.components.c_rcfg == 0.0
        assert out2.components.c_rcfg == 0.0
        assert out1.config_id == out2.config_id == 0  # still the initial local config

    def test_cost_recomputable_from_components(self, tiny_profile):
        env = make_tiny_env(tiny_profile, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(60):
            out = env.step(int(rng.integers(env.n_actions)))
            assert cost_from_components(out.components, env.weights) == out.cost
            assert out.violated == (out.components.l_total > env.weights.l_max)
            assert 0.0 <= out.cost <= 1.0

    def test_fast_mode_after_five_violations(self, tiny_profile):
        env = make_tiny_env(tiny_profile, l_max=1e-6)  # everything violates
        taus = []
        for _ in range(7):
            taus.append(env.step(env.keep_action).tau)
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

    def test_out_of_range_action_rejected(self, tiny_env):
        with pytest.raises(ValueError):
            tiny_env.step(tiny_env.n_actions)

    def test_local_config_pays_no_5g_or_cloud(self, tiny_profile):
        env = make_tiny_env(tiny_profile)
        out = env.step(0)  # fully-local config id 0
        assert out.components.c_5g == 0.0
        assert out.cloud_latency == 0.0
        assert out.components.l_total == tiny_profile.configs[0].t1


class TestStepLog:
    def test_rows_hold_the_outcomes(self, tiny_profile):
        env = make_tiny_env(tiny_profile, seed=5)
        outcomes = [env.step(a) for a in (3, env.keep_action, 0)]
        log = np.zeros(len(outcomes), dtype=STEP_LOG)
        for i, out in enumerate(outcomes):
            log_step(log, i, out)
        for row, out in zip(log, outcomes):
            assert (row["cost"], row["violated"]) == (out.cost, out.violated)
            assert (row["action"], row["config_id"]) == (out.action, out.config_id)
            for name in ("e_sew", "e_phone", "c_5g", "l_total"):
                assert row[name] == getattr(out.components, name)

    def test_field_means_match_a_contiguous_copy(self):
        """The baseline's mean energies are taken over log fields, and must
        read the same bits as over plain arrays at any episode length."""
        rng = np.random.default_rng(3)
        log = np.zeros(20000, dtype=STEP_LOG)
        for name in ("cost", "e_sew", "e_phone", "c_5g", "l_total"):
            log[name] = rng.random(log.size) * np.exp(rng.normal(scale=5.0, size=log.size))
            assert np.mean(log[name]) == np.mean(log[name].copy())


class TestOracle:
    def test_single_config_space(self):
        cfg = make_config(t1=100.0, mu1=10.0)
        profile = ApplicationProfile(
            name="one", cut_points=0, delta0=1.0, total_flops=10.0, configs=(cfg,)
        )
        choice = oracle_best_config(
            profile, DeviceProfile(), CostWeights(), ObservationBounds(), 10.0, 10.0
        )
        assert choice == 0

    def test_floored_throughput_prefers_local(self, default_profile):
        """At the throughput floor every transfer is huge; local is feasible."""
        local_t1 = default_profile.configs[0].t1
        choice = oracle_best_config(
            default_profile, DeviceProfile(), CostWeights(l_max=local_t1 + 50.0),
            ObservationBounds(), 0.0, 0.0,
        )
        assert choice == 0

    def test_matches_brute_force(self, default_profile):
        devices = DeviceProfile()
        bounds = ObservationBounds()
        weights = resolve_cost_weights(CostWeights(), default_profile, devices, bounds)
        rng = np.random.default_rng(11)
        for _ in range(100):
            r_w = float(rng.uniform(0.0, 580.0))
            r_5 = float(rng.uniform(0.0, 350.0))
            got = oracle_best_config(default_profile, devices, weights, bounds, r_w, r_5)

            fw = max(r_w, throughput_floor(580.0))
            f5 = max(r_5, throughput_floor(350.0))
            best, best_obj = None, np.inf
            fallback, fallback_lat = None, np.inf
            for cfg in default_profile.configs:
                cloud = cfg.t3 if cfg.has_cloud_stage else 0.0
                lat = total_latency_ms(cfg, fw, f5, cloud)
                if lat < fallback_lat:
                    fallback, fallback_lat = cfg.id, lat
                if lat > weights.l_max:
                    continue
                e_sew, e_phone = energy_per_window(cfg, fw, f5, devices, weights)
                obj = weights.alpha * (e_sew + e_phone) + comm_cost_5g(cfg, weights)
                if obj < best_obj:
                    best, best_obj = cfg.id, obj
            assert got == (best if best is not None else fallback)


def test_resolved_constants_are_positive(default_profile):
    weights = resolve_cost_weights(
        CostWeights(), default_profile, DeviceProfile(), ObservationBounds()
    )
    assert weights.c_sew_max > 0
    assert weights.c_phone_max > 0
    assert weights.c_5g_max > 0
    # already-resolved weights pass through untouched
    assert resolve_cost_weights(
        weights, default_profile, DeviceProfile(), ObservationBounds()
    ) is weights
