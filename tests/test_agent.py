import numpy as np
import pytest

from fedpart.agent import (
    AgentSettings,
    DQNAgent,
    ReplayBuffer,
    ValidationProbe,
    select_action,
    train_step,
)
from fedpart.network import AdamOptimizer, QNetwork

from conftest import make_tiny_env, subnormal_count


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, state_dim=2)
        for i in range(5):
            buf.push([i, i], i, float(i), [i, i])
        assert len(buf) == 3
        assert sorted(buf.actions.tolist()) == [2, 3, 4]  # 0 and 1 evicted first

    def test_size_never_exceeds_capacity(self):
        buf = ReplayBuffer(capacity=10, state_dim=2)
        for i in range(50):
            buf.push([0, 0], 0, 0.0, [0, 0])
            assert len(buf) <= 10

    def test_sample_too_large_rejected(self):
        buf = ReplayBuffer(capacity=8, state_dim=2)
        buf.push([0, 0], 0, 0.0, [0, 0])
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_sample_shapes(self):
        buf = ReplayBuffer(capacity=8, state_dim=5)
        for i in range(6):
            buf.push(np.full(5, i), i, float(i), np.full(5, i + 1))
        s, a, r, s2 = buf.sample(4, np.random.default_rng(1))
        assert s.shape == (4, 5) and s2.shape == (4, 5)
        assert a.shape == (4,) and r.shape == (4,)


class TestSelectAction:
    def test_greedy_takes_argmax(self):
        net = QNetwork(4, hidden=(4,), dropout_rates=(0.0,), rng=np.random.default_rng(0))
        state = np.random.default_rng(1).random(5)
        q = net.forward(state)
        act = select_action(net, state, 0.0, np.random.default_rng(2))
        assert act == int(np.argmax(q))

    def test_tie_breaks_to_lowest_index(self):
        net = QNetwork(8, hidden=(4,), dropout_rates=(0.0,), rng=np.random.default_rng(0))
        net.set_weights(np.zeros(net.flat.size))  # all q equal zero
        assert select_action(net, np.ones(5), 0.0, np.random.default_rng(0)) == 0

    def test_argmax_invariant_under_constant_shift(self):
        net = QNetwork(5, hidden=(6,), dropout_rates=(0.0,), rng=np.random.default_rng(3))
        state = np.random.default_rng(4).random(5)
        base = select_action(net, state, 0.0, np.random.default_rng(0))
        shifted = net.clone()
        shifted.flat[-shifted.n_actions:] += 7.5  # shift every output bias equally
        assert select_action(shifted, state, 0.0, np.random.default_rng(0)) == base

    def test_full_exploration_is_uniform(self):
        """epsilon = 1: empirical action frequencies close to uniform."""
        net = QNetwork(4, hidden=(4,), dropout_rates=(0.0,), rng=np.random.default_rng(0))
        rng = np.random.default_rng(123)
        state = np.zeros(5)
        counts = np.zeros(4)
        n = 1_000_000
        for _ in range(n):
            counts[select_action(net, state, 1.0, rng)] += 1
        assert np.all(np.abs(counts / n - 0.25) / 0.25 < 0.01)

    def test_epsilon_out_of_range_rejected(self):
        net = QNetwork(3, hidden=(4,), dropout_rates=(0.0,))
        with pytest.raises(ValueError):
            select_action(net, np.zeros(5), 1.5, np.random.default_rng(0))


class TestTrainStep:
    def test_gamma_zero_single_transition_loss(self):
        net = QNetwork(3, hidden=(4, 4, 3), dropout_rates=(0.0, 0.0, 0.0),
                       rng=np.random.default_rng(5), dtype=np.float64)
        target = net.clone()
        opt = AdamOptimizer(net.flat, lr=0.0)  # lr 0: measure loss only
        s = np.random.default_rng(6).random((1, 5))
        batch = (s, np.array([1]), np.array([0.7]), s)
        q_before = net.forward(s[0])
        loss = train_step(net, target, batch, 0.0, opt)
        assert loss == pytest.approx((0.7 - q_before[1]) ** 2, rel=1e-9)

    def test_single_transition_converges_to_reward(self):
        """gamma=0 fixed-point: Q(s, a) is driven to r."""
        net = QNetwork(3, hidden=(8, 8, 4), dropout_rates=(0.0, 0.0, 0.0),
                       rng=np.random.default_rng(7), dtype=np.float64)
        target = net.clone()
        opt = AdamOptimizer(net.flat, lr=0.01)
        s = np.random.default_rng(8).random((1, 5))
        batch = (s, np.array([2]), np.array([-0.4]), s)
        losses = [train_step(net, target, batch, 0.0, opt) for _ in range(5000)]
        assert abs(net.forward(s[0])[2] - (-0.4)) < 1e-3
        # coarse monotonicity: block means of the loss decrease to convergence
        blocks = np.asarray(losses[:2000]).reshape(20, 100).mean(axis=1)
        assert np.all(np.diff(blocks) < 1e-9)

    def test_target_network_treated_as_constant(self):
        net = QNetwork(3, hidden=(4,), dropout_rates=(0.0,), rng=np.random.default_rng(9))
        target = net.clone()
        before = target.get_weights()
        rng = np.random.default_rng(10)
        batch = (rng.random((4, 5)), rng.integers(0, 3, 4), rng.random(4), rng.random((4, 5)))
        train_step(net, target, batch, 0.99, AdamOptimizer(net.flat), rng)
        assert np.array_equal(target.get_weights(), before)


class TestAgentLoop:
    def test_zero_steps_leave_weights_unchanged(self, tiny_profile, tiny_settings):
        agent = DQNAgent(make_tiny_env(tiny_profile), tiny_settings, seed=0)
        before = agent.get_weights()
        agent.run_training_phase(0)
        assert np.array_equal(agent.get_weights(), before)

    def test_buffer_grows_with_steps(self, tiny_profile, tiny_settings):
        agent = DQNAgent(make_tiny_env(tiny_profile), tiny_settings, seed=0)
        agent.run_training_phase(30)
        assert len(agent.buffer) == 30
        assert agent.total_steps == 30

    def test_identical_agents_identical_histories(self, tiny_profile, tiny_settings):
        a = DQNAgent(make_tiny_env(tiny_profile, seed=3), tiny_settings, seed=11)
        b = DQNAgent(make_tiny_env(tiny_profile, seed=3), tiny_settings, seed=11)
        a.run_training_phase(120)
        b.run_training_phase(120)
        assert np.array_equal(a.log["cost"], b.log["cost"])
        assert np.array_equal(a.log["action"], b.log["action"])
        assert np.array_equal(a.get_weights(), b.get_weights())

    def test_target_sync_schedule(self, tiny_profile, tiny_settings):
        # The first update comes on the step that brings the buffer to
        # batch_size, so batch_size - 1 + target_update_freq steps make
        # exactly target_update_freq updates.
        assert tiny_settings.train_every == 1
        batch, freq = tiny_settings.batch_size, tiny_settings.target_update_freq
        agent = DQNAgent(make_tiny_env(tiny_profile), tiny_settings, seed=1)
        agent.run_training_phase(batch - 1)
        assert agent.grad_updates == 0
        agent.run_training_phase(1)
        assert agent.grad_updates == 1
        agent.run_training_phase(freq - 2)
        assert agent.grad_updates == freq - 1
        assert not np.array_equal(agent.target_net.flat, agent.net.flat)
        agent.run_training_phase(1)
        # exactly target_update_freq gradient updates -> target equals online
        assert agent.grad_updates == freq
        assert np.array_equal(agent.target_net.flat, agent.net.flat)

    def test_set_weights_resets_target_and_optimizer(self, tiny_profile, tiny_settings):
        agent = DQNAgent(make_tiny_env(tiny_profile), tiny_settings, seed=2)
        agent.run_training_phase(40)
        fresh = np.zeros(agent.net.flat.size)
        agent.set_weights(fresh)
        assert np.array_equal(agent.net.get_weights(), fresh)
        assert np.array_equal(agent.target_net.get_weights(), fresh)
        assert agent.optimizer.t == 0

    def test_stability_at_default_hyperparameters(self, default_profile):
        """No NaN/Inf parameters and no subnormal Adam moments across a long
        run at the defaults."""
        env = make_tiny_env(default_profile)
        agent = DQNAgent(env, AgentSettings(), seed=3)
        for _ in range(21):
            agent.run_training_phase(1000)
            assert np.isfinite(agent.net.flat).all()
            assert np.isfinite(agent.target_net.flat).all()
            assert subnormal_count(agent.optimizer.m) == 0
            assert subnormal_count(agent.optimizer.v) == 0


class TestValidationProbe:
    def test_schedule_and_rates(self, tiny_profile, tiny_settings):
        probe = ValidationProbe(make_tiny_env(tiny_profile, seed=4), steps=20, interval=25)
        agent = DQNAgent(make_tiny_env(tiny_profile), tiny_settings, seed=5, validation=probe)
        agent.run_training_phase(60)
        agent.finalize_validation()
        assert probe.steps_trained == [0, 25, 50]
        assert all(0.0 <= r <= 1.0 for r in probe.rates)

    def test_validation_does_not_disturb_training(self, tiny_profile, tiny_settings):
        """Bit-identical training with and without interleaved validation."""
        plain = DQNAgent(make_tiny_env(tiny_profile, seed=6), tiny_settings, seed=12)
        probe = ValidationProbe(make_tiny_env(tiny_profile, seed=7), steps=15, interval=20)
        probed = DQNAgent(make_tiny_env(tiny_profile, seed=6), tiny_settings, seed=12,
                          validation=probe)
        plain.run_training_phase(100)
        probed.run_training_phase(100)
        assert np.array_equal(plain.get_weights(), probed.get_weights())
        assert np.array_equal(plain.log["cost"], probed.log["cost"])
