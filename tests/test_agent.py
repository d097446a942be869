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
from fedpart.env import STEP_LOG
from fedpart.network import AdamOptimizer, QNetwork

from conftest import make_net, make_tiny_agent, make_tiny_env, subnormal_count


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(3, 2, 5, np.float32)
        for i in range(5):
            buf.push([i, i], i, float(i), [i, i])
        assert len(buf) == 3
        assert sorted(buf.actions.tolist()) == [2, 3, 4]  # 0 and 1 evicted first

    def test_actions_take_the_smallest_unsigned_type(self, default_profile):
        agent = make_tiny_agent(default_profile, AgentSettings())
        assert agent.env.n_actions == 106
        assert agent.buffer.actions.dtype == np.uint8
        assert ReplayBuffer(1, 2, 256, np.float32).actions.dtype == np.uint8
        assert ReplayBuffer(1, 2, 257, np.float32).actions.dtype == np.uint16

    def test_size_never_exceeds_capacity(self):
        buf = ReplayBuffer(10, 2, 3, np.float32)
        for i in range(50):
            buf.push([0, 0], 0, 0.0, [0, 0])
            assert len(buf) <= 10

    def test_sample_too_large_rejected(self):
        buf = ReplayBuffer(8, 2, 3, np.float32)
        buf.push([0, 0], 0, 0.0, [0, 0])
        target = make_net((2, 4, 3), (0.0,), 0, np.float32)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0), target)

    def test_sample_shapes(self):
        target = make_net((5, 4, 3), (0.0,), 0, np.float32)
        buf = ReplayBuffer(8, 5, 6, np.float32)
        for i in range(6):
            buf.push(np.full(5, i), i, float(i), np.full(5, i + 1))
        s, a, r, next_q = buf.sample(4, np.random.default_rng(1), target)
        assert s.shape == (4, 5) and next_q.shape == (4,)
        assert a.shape == (4,) and r.shape == (4,)
        # rows stay transitions: the bootstrap value belongs to the row's next state
        assert np.array_equal(s, np.repeat(a[:, None], 5, axis=1)) and np.array_equal(r, a)
        expected = [target.forward(np.full(5, i + 1)).max() for i in a]
        np.testing.assert_allclose(next_q, expected, rtol=1e-6)


class TestSelectAction:
    def test_greedy_takes_argmax(self):
        net = make_net((5, 4, 4), (0.0,), 0, np.float32)
        state = np.random.default_rng(1).random(5)
        q = net.forward(state)
        act = select_action(net, state, 0.0, np.random.default_rng(2))
        assert act == int(np.argmax(q))

    def test_tie_breaks_to_lowest_index(self):
        net = make_net((5, 4, 8), (0.0,), 0, np.float32)
        net.set_weights(np.zeros(net.flat.size))  # all q equal zero
        assert select_action(net, np.ones(5), 0.0, np.random.default_rng(0)) == 0

    def test_argmax_invariant_under_constant_shift(self):
        net = make_net((5, 6, 5), (0.0,), 3, np.float32)
        state = np.random.default_rng(4).random(5)
        base = select_action(net, state, 0.0, np.random.default_rng(0))
        shifted = net.clone()
        shifted.flat[-shifted.n_actions:] += 7.5  # shift every output bias equally
        assert select_action(shifted, state, 0.0, np.random.default_rng(0)) == base

    def test_full_exploration_is_uniform(self):
        """epsilon = 1: empirical action frequencies close to uniform."""
        net = make_net((5, 4, 4), (0.0,), 0, np.float32)
        rng = np.random.default_rng(123)
        state = np.zeros(5)
        counts = np.zeros(4)
        n = 1_000_000
        for _ in range(n):
            counts[select_action(net, state, 1.0, rng)] += 1
        assert np.all(np.abs(counts / n - 0.25) / 0.25 < 0.01)

    def test_epsilon_out_of_range_rejected(self):
        net = make_net((5, 4, 3), (0.0,), 0, np.float32)
        with pytest.raises(ValueError):
            select_action(net, np.zeros(5), 1.5, np.random.default_rng(0))


def max_target_q(target: QNetwork, next_states) -> np.ndarray:
    """Uncached bootstrap values: one eval-mode target forward over the rows."""
    q, _ = target.forward_cached(np.asarray(next_states, dtype=target.dtype), train=False)
    return q.max(axis=1)


class TestTrainStep:
    def test_gamma_zero_single_transition_loss(self):
        net = make_net((5, 4, 4, 3, 3), (0.0, 0.0, 0.0), 5, np.float64)
        target = net.clone()
        opt = AdamOptimizer(net.flat, lr=0.0)  # lr 0: measure loss only
        s = np.random.default_rng(6).random((1, 5))
        batch = (s, np.array([1]), np.array([0.7]), max_target_q(target, s))
        q_before = net.forward(s[0])
        loss = train_step(net, batch, 0.0, opt, np.random.default_rng(0))
        assert loss == pytest.approx((0.7 - q_before[1]) ** 2, rel=1e-9)

    def test_single_transition_converges_to_reward(self):
        """gamma=0 fixed-point: Q(s, a) is driven to r."""
        net = make_net((5, 8, 8, 4, 3), (0.0, 0.0, 0.0), 7, np.float64)
        target = net.clone()
        opt = AdamOptimizer(net.flat, lr=0.01)
        s = np.random.default_rng(8).random((1, 5))
        batch = (s, np.array([2]), np.array([-0.4]), max_target_q(target, s))
        rng = np.random.default_rng(0)  # no dropout: nothing is drawn from it
        losses = [train_step(net, batch, 0.0, opt, rng) for _ in range(5000)]
        assert abs(net.forward(s[0])[2] - (-0.4)) < 1e-3
        # coarse monotonicity: block means of the loss decrease to convergence
        blocks = np.asarray(losses[:2000]).reshape(20, 100).mean(axis=1)
        assert np.all(np.diff(blocks) < 1e-9)

    def test_target_network_treated_as_constant(self):
        net = make_net((5, 4, 3), (0.0,), 9, np.float32)
        target = net.clone()
        before = target.get_weights()
        rng = np.random.default_rng(10)
        buf = ReplayBuffer(4, 5, 3, np.float32)
        for _ in range(4):
            buf.push(rng.random(5), rng.integers(0, 3), rng.random(), rng.random(5))
        for _ in range(3):
            batch = buf.sample(4, rng, target)
            train_step(net, batch, 0.99, AdamOptimizer(net.flat, lr=0.04), rng)
        assert np.array_equal(target.get_weights(), before)
        assert not np.array_equal(net.get_weights(), before)


# Default dims and float32, as in a paper run; the small ring wraps and the
# short sync period gives several target changes in a few hundred updates.
CACHE_SETTINGS = AgentSettings(buffer_capacity=600, target_update_freq=50)


def averaged_weights(agent: DQNAgent, seed: int) -> np.ndarray:
    """Weights as a federated round installs them: a mean with another agent's."""
    other = make_tiny_agent(agent.env.profile, agent.settings, env_seed=seed, seed=seed)
    return (agent.net.get_weights() + other.net.get_weights()) / 2.0


def fresh_512_row_max_q(target: QNetwork, next_states: np.ndarray) -> np.ndarray:
    """max_a Q_target of each row from zero-padded 512-row eval forwards."""
    out = np.empty(len(next_states), dtype=target.dtype)
    for start in range(0, len(next_states), 512):
        rows = next_states[start : start + 512]
        block = np.zeros((512, rows.shape[1]), dtype=target.dtype)
        block[: len(rows)] = rows
        q, _ = target.forward_cached(block, train=False)
        out[start : start + len(rows)] = q[: len(rows)].max(axis=1)
    return out


def run_uncached_phase(agent: DQNAgent, steps: int) -> np.ndarray:
    """Reference for ``run_training_phase``: the target net runs on every
    update's 512 sampled next states, and the buffer's cache is never read."""
    s, buf = agent.settings, agent.buffer
    log = np.zeros(steps, dtype=STEP_LOG)
    for i in range(steps):
        state = agent._state_vec
        action = select_action(agent.net, state, s.epsilon, agent._action_rng)
        log[i] = step = agent.env.step(action)
        agent._state_vec = agent.env.observe()
        buf.push(state, action, -step.cost, agent._state_vec)
        agent.total_steps += 1
        if len(buf) >= s.batch_size and agent.total_steps % s.train_every == 0:
            idx = agent._sample_rng.integers(0, len(buf), size=s.batch_size)
            q_next, _ = agent.target_net.forward_cached(buf.next_states[idx], train=False)
            batch = (buf.states[idx], buf.actions[idx], buf.rewards[idx], q_next.max(axis=1))
            train_step(agent.net, batch, s.gamma, agent.optimizer, agent._dropout_rng)
            agent.grad_updates += 1
            if agent.grad_updates % s.target_update_freq == 0:
                agent.target_net.set_weights(agent.net.flat)
    return log


class TestTargetCache:
    def check_cache(self, agent: DQNAgent) -> None:
        buf = agent.buffer
        fresh = ~buf.stale[: len(buf)]
        assert fresh.sum() >= CACHE_SETTINGS.batch_size  # the check covers most slots
        expected = fresh_512_row_max_q(agent.target_net, buf.next_states[: len(buf)][fresh])
        assert np.array_equal(buf.next_q[: len(buf)][fresh], expected)

    def test_cached_targets_equal_a_fresh_512_row_forward(self, default_profile):
        agent = make_tiny_agent(default_profile, CACHE_SETTINGS, env_seed=8, seed=21)
        batch, freq = CACHE_SETTINGS.batch_size, CACHE_SETTINGS.target_update_freq
        agent.run_training_phase(batch - 1 + 2 * freq + 10)  # two syncs, ring wrapped
        assert agent.total_steps > CACHE_SETTINGS.buffer_capacity
        assert agent.grad_updates == 2 * freq + 10
        self.check_cache(agent)
        agent.set_weights(averaged_weights(agent, seed=9))
        assert agent.buffer.stale.all()
        agent.run_training_phase(freq - 20)
        assert 2 * freq < agent.grad_updates < 3 * freq  # no sync since set_weights
        self.check_cache(agent)

    def test_cached_agent_equals_uncached_reference(self, default_profile):
        cached = make_tiny_agent(default_profile, CACHE_SETTINGS, env_seed=8, seed=21)
        plain = make_tiny_agent(default_profile, CACHE_SETTINGS, env_seed=8, seed=21)
        freq = CACHE_SETTINGS.target_update_freq
        ref_logs = []
        for steps in (CACHE_SETTINGS.batch_size - 1 + 2 * freq + 10, freq - 20, freq):
            cached.run_training_phase(steps)
            ref_logs.append(run_uncached_phase(plain, steps))
            assert np.array_equal(cached.net.flat, plain.net.flat)
            assert np.array_equal(cached.target_net.flat, plain.target_net.flat)
            weights = averaged_weights(cached, seed=9)
            cached.set_weights(weights)
            plain.set_weights(weights)
        ref_log = np.concatenate(ref_logs)
        assert cached.grad_updates == plain.grad_updates > 3 * freq
        for name in STEP_LOG.names:
            assert np.array_equal(cached.log[name], ref_log[name]), name


class TestAgentLoop:
    def test_zero_steps_leave_weights_unchanged(self, tiny_profile, tiny_settings):
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=0)
        before = agent.net.get_weights()
        agent.run_training_phase(0)
        assert np.array_equal(agent.net.get_weights(), before)

    def test_buffer_grows_with_steps(self, tiny_profile, tiny_settings):
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=0)
        agent.run_training_phase(30)
        assert len(agent.buffer) == 30
        assert agent.total_steps == 30

    def test_identical_agents_identical_histories(self, tiny_profile, tiny_settings):
        a = make_tiny_agent(tiny_profile, tiny_settings, env_seed=3, seed=11)
        b = make_tiny_agent(tiny_profile, tiny_settings, env_seed=3, seed=11)
        a.run_training_phase(120)
        b.run_training_phase(120)
        assert np.array_equal(a.log["cost"], b.log["cost"])
        assert np.array_equal(a.log["action"], b.log["action"])
        assert np.array_equal(a.net.get_weights(), b.net.get_weights())

    def test_target_sync_schedule(self, tiny_profile, tiny_settings):
        # The first update comes on the step that brings the buffer to
        # batch_size, so batch_size - 1 + target_update_freq steps make
        # exactly target_update_freq updates.
        assert tiny_settings.train_every == 1
        batch, freq = tiny_settings.batch_size, tiny_settings.target_update_freq
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=1)
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

    def test_sync_target_copies_the_online_weights_bit_for_bit(self, tiny_profile, tiny_settings):
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=4)
        agent.run_training_phase(tiny_settings.batch_size + 5)
        assert agent.grad_updates < tiny_settings.target_update_freq  # no sync yet
        assert agent.target_net.flat.tobytes() != agent.net.flat.tobytes()
        agent.sync_target()
        assert agent.target_net.flat.tobytes() == agent.net.flat.tobytes()
        assert agent.target_net.flat is not agent.net.flat
        assert agent.buffer.stale.all()

    def test_set_weights_resets_target_and_optimizer(self, tiny_profile, tiny_settings):
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=2)
        agent.run_training_phase(40)
        fresh = np.zeros(agent.net.flat.size)
        agent.set_weights(fresh)
        assert np.array_equal(agent.net.get_weights(), fresh)
        assert np.array_equal(agent.target_net.get_weights(), fresh)
        assert agent.optimizer.t == 0

    def test_stability_at_default_hyperparameters(self, default_profile):
        """No NaN/Inf parameters and no subnormal Adam moments across a long
        run at the defaults."""
        agent = make_tiny_agent(default_profile, AgentSettings(), seed=3)
        for _ in range(21):
            agent.run_training_phase(1000)
            assert np.isfinite(agent.net.flat).all()
            assert np.isfinite(agent.target_net.flat).all()
            assert subnormal_count(agent.optimizer.m) == 0
            assert subnormal_count(agent.optimizer.v) == 0


class TestValidationProbe:
    def test_schedule_and_rates(self, tiny_profile, tiny_settings):
        probe = ValidationProbe(make_tiny_env(tiny_profile, seed=4), steps=20, interval=25)
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=5, probe=probe)
        agent.run_training_phase(60)
        agent.finalize_validation()
        assert probe.steps_trained == [0, 25, 50]
        assert all(0.0 <= r <= 1.0 for r in probe.rates)

    def test_phases_of_unequal_lengths_run_each_due_count_once(self, tiny_profile, tiny_settings):
        """As a straggler's phases run: each count is checked before its step,
        and the final one, which no phase reaches, by finalize_validation."""
        probe = ValidationProbe(make_tiny_env(tiny_profile, seed=4), steps=2, interval=5)
        agent = make_tiny_agent(tiny_profile, tiny_settings, seed=5, probe=probe)
        for steps in (7, 13, 5):
            agent.run_training_phase(steps)
        agent.finalize_validation()
        assert probe.steps_trained == [0, 5, 10, 15, 20, 25]

    def test_validation_does_not_disturb_training(self, tiny_profile, tiny_settings):
        """Bit-identical training under two different validation schedules."""
        probes = [
            ValidationProbe(make_tiny_env(tiny_profile, seed=7), steps=15, interval=20),
            ValidationProbe(make_tiny_env(tiny_profile, seed=7), steps=3, interval=7),
        ]
        a, b = (make_tiny_agent(tiny_profile, tiny_settings, env_seed=6, seed=12, probe=probe)
                for probe in probes)
        a.run_training_phase(100)
        b.run_training_phase(100)
        assert [len(probe.rates) for probe in probes] == [5, 15]
        assert np.array_equal(a.net.get_weights(), b.net.get_weights())
        assert np.array_equal(a.log["cost"], b.log["cost"])
