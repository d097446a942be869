import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedpart.agent import AgentSettings, DQNAgent
from fedpart.federation import (
    AgentError,
    AgentHost,
    FederationConfig,
    ScheduleRow,
    _Pool,
    aggregate_incremental,
    aggregate_mean,
    aggregate_round,
    derive_seed_sequences,
    run_federation,
    schedule_roles,
    slow_step_count,
)

from conftest import make_tiny_env, quiet_probe


@st.composite
def vector_sets(draw):
    length = draw(st.integers(1, 16))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vectors = draw(st.lists(arrays(np.float64, length, elements=values), min_size=1, max_size=12))
    return draw(st.permutations(vectors))


class TestAggregation:
    @settings(max_examples=200, deadline=None)
    @given(vector_sets())
    def test_incremental_fold_equals_mean(self, vectors):
        current = vectors[0].copy()
        for count, theta in enumerate(vectors[1:], start=1):
            current = aggregate_incremental(current, count, theta)
        # Each fold rounds three times (scale, add, divide), each within eps of
        # a value bounded by the largest magnitude, or within half the
        # smallest subnormal; earlier errors shrink by count / (count + 1).
        # np.mean's own error is below one fold's.
        info = np.finfo(np.float64)
        scale = max(float(np.abs(v).max()) for v in vectors)
        tol = 4 * len(vectors) * (info.eps * scale + info.smallest_subnormal)
        assert np.abs(current - aggregate_mean(vectors)).max() <= tol


@st.composite
def weight_stacks(draw):
    """1-16 vectors of one length in 1-64, with any finite values."""
    count, length = draw(st.integers(1, 16)), draw(st.integers(1, 64))
    values = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.floats(-1e3, 1e3)
    return draw(st.lists(arrays(np.float64, length, elements=values),
                         min_size=count, max_size=count))


def in_order_mean(vectors: list[np.ndarray]) -> np.ndarray:
    """Each coordinate summed one vector after another from +0.0 in Python floats."""
    means = []
    for column in zip(*(v.tolist() for v in vectors)):
        total = 0.0
        for x in column:
            total += x
        means.append(total / len(vectors))
    return np.array(means)


@settings(max_examples=200, deadline=None)
@given(weight_stacks())
@example([np.array([x]) for x in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)])
def test_aggregate_mean_has_the_bits_of_np_mean_over_the_stack(vectors):
    """The in-order sum without the stacked copy, which is the sum ``np.mean``
    runs over a stack of vectors longer than one. A stack of 1-vectors is a
    single column, which NumPy sums pairwise from 8 rows on (the example)."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge values may overflow both alike
        got = aggregate_mean(vectors)
        assert got.tobytes() == in_order_mean(vectors).tobytes()
        if vectors[0].size > 1 or len(vectors) < 8:
            assert got.tobytes() == np.mean(np.stack(vectors), axis=0).tobytes()
    assert all(got is not v for v in vectors)


def test_aggregate_mean_of_negative_zeros_is_positive_zero_as_in_np_mean():
    vectors = [np.array([-0.0, 1.0]), np.array([-0.0, -1.0])]
    for count in (1, 2):
        expected = np.mean(np.stack(vectors[:count]), axis=0)
        assert aggregate_mean(vectors[:count]).tobytes() == expected.tobytes()


@st.composite
def rounds(draw):
    """Per-agent weight vectors, step counts (ties likely) and a slow mask."""
    m = draw(st.integers(1, 8))
    length = draw(st.integers(1, 16))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    thetas = draw(st.lists(arrays(np.float64, length, elements=values), min_size=m, max_size=m))
    steps = draw(st.lists(st.integers(20, 24), min_size=m, max_size=m))
    slow_mask = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return thetas, steps, slow_mask


class TestAggregateRound:
    """The round rule on plain vectors: no agent is built."""

    @settings(max_examples=300, deadline=None)
    @given(rounds(), st.integers(0, 50))
    @example(([np.arange(3.0), -np.arange(3.0), np.ones(3)], [20, 20, 20], [False] * 3), 0)
    @example(([np.arange(3.0), -np.arange(3.0), np.ones(3)], [22, 20, 22], [True] * 3), 4)
    def test_fast_mean_then_slow_fold_in_steps_then_id_order(self, round_, iteration):
        thetas, steps, slow_mask = round_
        theta, next_init, rows = aggregate_round(iteration, thetas, steps, np.array(slow_mask))

        fast = [m for m, slow in enumerate(slow_mask) if not slow]
        slow = sorted((m for m, s in enumerate(slow_mask) if s), key=lambda m: (steps[m], m))
        current, count = None, 0
        if fast:
            current, count = aggregate_mean([thetas[m] for m in fast]), len(fast)
            for m in fast:
                assert np.array_equal(next_init[m], current)
        for m in slow:
            current = thetas[m] if current is None else (count * current + thetas[m]) / (count + 1)
            count += 1
            assert np.array_equal(next_init[m], current)
        assert np.array_equal(theta, current)

        info = np.finfo(np.float64)
        scale = max(float(np.abs(v).max()) for v in thetas)
        tol = 4 * len(thetas) * (info.eps * scale + info.smallest_subnormal)
        assert np.abs(theta - aggregate_mean(thetas)).max() <= tol

        assert rows == [ScheduleRow(iteration, m, "fast", steps[m], 0) for m in fast] + [
            ScheduleRow(iteration, m, "slow", steps[m], k) for k, m in enumerate(slow, start=1)
        ]


# Proportions in eighths are exact, so m * p lands on halves.
proportions = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)


class TestSchedule:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), p=proportions, policy=st.sampled_from(("fixed", "redraw")),
           n=st.integers(1, 12), seed=st.integers(0, 2**32))
    @example(m=3, p=0.5, policy="fixed", n=2, seed=0)  # 1.5 slow agents round up to 2
    def test_round_half_up_slow_agents_per_row(self, m, p, policy, n, seed):
        roles = schedule_roles(m, p, policy, np.random.default_rng(seed), n)
        assert roles.shape == (n, m)
        assert (roles.sum(axis=1) == math.floor(m * p + 0.5)).all()
        if policy == "fixed":
            assert (roles == roles[0]).all()

    @settings(max_examples=200, deadline=None)
    @given(freq=st.integers(1, 5000), delay=st.floats(0.0, 3.0), seed=st.integers(0, 2**32))
    def test_slow_step_count_within_bounds(self, freq, delay, seed):
        rng = np.random.default_rng(seed)
        counts = [slow_step_count(freq, delay, rng) for _ in range(20)]
        assert all(freq <= c <= math.floor(freq * (1.0 + delay) + 0.5) for c in counts)
        assert slow_step_count(freq, 0.0, rng) == freq


class _Builder:
    """Tiny agents; in its second phase, agent ``poisoned`` returns a NaN
    weight and agent ``exits`` ends its process with exit code 3."""

    def __init__(self, profile, settings, poisoned, exits=None):
        self.profile = profile
        self.settings = settings
        self.poisoned = poisoned
        self.exits = exits
        self.test_pid = os.getpid()

    def build(self, index, seq):
        agent = DQNAgent(
            make_tiny_env(self.profile, seed=index), self.settings, seq, quiet_probe(self.profile)
        )
        if index in (self.poisoned, self.exits):
            train = agent.run_training_phase

            def run_training_phase(steps):
                train(steps)
                if agent.total_steps > steps:
                    if index == self.exits:
                        assert os.getpid() != self.test_pid, "would end the test process"
                        os._exit(3)
                    agent.net.flat[3] = np.nan

            agent.run_training_phase = run_training_phase
        return agent

    def initial_weights(self, seq):
        n_actions = self.profile.n_configs + 1
        return self.settings.network(n_actions, np.random.default_rng(seq)).get_weights()


class TestRunFederation:
    @pytest.mark.parametrize("mode, slow, workers", [
        pytest.param("sync", 0.0, 1, id="sync-0.0"),
        pytest.param("async", 0.34, 1, id="async-0.34"),
        pytest.param("sync", 0.0, 2, id="sync-0.0-workers2"),
        pytest.param("async", 0.34, 2, id="async-0.34-workers2"),
    ])
    def test_non_finite_weights_name_agent_and_iteration(
        self, tiny_profile, tiny_settings, mode, slow, workers
    ):
        config = FederationConfig(agents=3, steps_per_agent=60, freq_updates=20, mode=mode,
                                  proportion_slow=slow)
        builder = _Builder(tiny_profile, tiny_settings, poisoned=1)
        with pytest.raises(FloatingPointError, match=r"agent 1 .* iteration 1$"):
            run_federation(config, builder, 2, None, workers)

    def test_dead_pool_worker_names_its_agents_and_exit_code(self, tiny_profile, tiny_settings):
        config = FederationConfig(agents=3, steps_per_agent=60, freq_updates=20)
        builder = _Builder(tiny_profile, tiny_settings, poisoned=None, exits=2)
        # Two workers: agents 0 and 2 share worker 0, agent 1 has worker 1.
        with pytest.raises(RuntimeError, match=r"worker 0 for agents \[0, 2\] exited with code 3$"):
            run_federation(config, builder, 2, None, 2)

    def test_a_dead_worker_is_reported_at_once_and_leaves_no_pool_process(self, default_profile):
        """The survivor's reply, five default networks, does not fit the pipe:
        it is read before the error is raised, so the survivor stops too."""
        config = FederationConfig(agents=10, steps_per_agent=40, freq_updates=20)
        builder = _Builder(default_profile, AgentSettings(), poisoned=None, exits=2)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=(
            r"^pool worker 0 for agents \[0, 2, 4, 6, 8\] exited with code 3$"
        )):
            run_federation(config, builder, 2, None, 2)
        assert time.perf_counter() - start < 5.0
        assert multiprocessing.active_children() == []

    def test_finite_run_completes(self, tiny_profile, tiny_settings):
        """Three workers put one agent in each: every worker count ends alike."""
        config = FederationConfig(agents=3, steps_per_agent=60, freq_updates=20)
        builder = _Builder(tiny_profile, tiny_settings, poisoned=None)
        results = [run_federation(config, builder, 2, None, workers) for workers in (1, 2, 3)]
        for result in results:
            assert np.isfinite(result.final_weights).all()
            assert len(result.schedule_rows) == 9
            assert result.final_weights.tobytes() == results[0].final_weights.tobytes()


def _round_jobs(config, builder):
    """Every agent's first-round job, from the master seed's initial weights."""
    agent_seqs, net_seq, _ = derive_seed_sequences(config, 2)
    theta = builder.initial_weights(net_seq)
    return agent_seqs, [(m, theta, config.freq_updates) for m in range(config.m_agents)]


class TestHosts:
    def test_a_host_runs_only_its_agents_and_returns_their_own_arrays(
        self, tiny_profile, tiny_settings
    ):
        config = FederationConfig(agents=3, steps_per_agent=20, freq_updates=20)
        builder = _Builder(tiny_profile, tiny_settings, poisoned=None)
        agent_seqs, jobs = _round_jobs(config, builder)
        host = AgentHost(builder, [(0, agent_seqs[0]), (2, agent_seqs[2])])
        returned = host.run_phases(jobs)
        assert sorted(returned) == [0, 2]
        for m, weights in returned.items():
            assert weights is host.agents[m].net.flat
            assert host.agents[m].total_steps == config.freq_updates

    def test_the_pool_returns_every_agent_in_the_networks_dtype(
        self, tiny_profile, tiny_settings
    ):
        config = FederationConfig(agents=3, steps_per_agent=20, freq_updates=20)
        builder = _Builder(tiny_profile, tiny_settings, poisoned=None)
        agent_seqs, jobs = _round_jobs(config, builder)
        pool = _Pool(builder, agent_seqs, 2)
        try:
            returned = pool.run_phases(jobs)
        finally:
            pool.close()
        assert not any(proc.is_alive() for proc in pool.procs)
        assert sorted(returned) == [0, 1, 2]
        assert {weights.dtype for weights in returned.values()} == {np.dtype(tiny_settings.dtype)}


class _UnbuildableBuilder(_Builder):
    def build(self, index, seq):
        raise AssertionError(f"agent {index} was built")


class TestFederationConfig:
    def test_single_runs_one_agent_for_steps_over_freq_phases(self):
        config = FederationConfig(mode="single", agents=7, steps_per_agent=60, freq_updates=20)
        assert (config.m_agents, config.n_iterations) == (1, 3)


class TestZeroSteps:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_returns_the_master_seeds_weights_without_agents(
        self, tiny_profile, tiny_settings, workers
    ):
        config = FederationConfig(agents=3, steps_per_agent=0, freq_updates=20)
        builder = _UnbuildableBuilder(tiny_profile, tiny_settings, poisoned=None)
        result = run_federation(config, builder, 2, None, workers)
        _, net_seq, _ = derive_seed_sequences(config, 2)
        n_actions = tiny_profile.n_configs + 1
        expected = tiny_settings.network(n_actions, np.random.default_rng(net_seq))
        assert np.array_equal(result.final_weights, expected.get_weights())
        assert result.schedule_rows == [] and result.agent_logs == []

    def test_returns_the_weights_passed_in(self, tiny_profile, tiny_settings):
        config = FederationConfig(agents=3, steps_per_agent=0, freq_updates=20)
        builder = _UnbuildableBuilder(tiny_profile, tiny_settings, poisoned=None)
        weights = np.linspace(-1.0, 1.0, 11)
        result = run_federation(config, builder, 2, weights, 1)
        assert np.array_equal(result.final_weights, weights)
        assert result.schedule_rows == [] and result.agent_logs == []


class _RaisingBuilder(_Builder):
    """Agent 1 raises ``ValueError`` in its first phase."""

    def build(self, index, seq):
        agent = super().build(index, seq)
        if index == 1:
            def run_training_phase(steps):
                raise ValueError("agent-side failure")

            agent.run_training_phase = run_training_phase
        return agent


AGENT_ERROR = r"^agent 1 raised ValueError: agent-side failure in iteration 0$"


class TestAgentErrors:
    def test_inline_agent_error_propagates(self, tiny_profile, tiny_settings):
        config = FederationConfig(agents=3, steps_per_agent=40, freq_updates=20)
        builder = _RaisingBuilder(tiny_profile, tiny_settings, poisoned=None)
        with pytest.raises(AgentError, match=AGENT_ERROR) as info:
            run_federation(config, builder, 2, None, 1)
        cause = info.value.__cause__
        assert type(cause) is ValueError and str(cause) == "agent-side failure"

    def test_pool_worker_reports_its_agents_exception(
        self, tiny_profile, tiny_settings, capfd
    ):
        config = FederationConfig(agents=3, steps_per_agent=40, freq_updates=20)
        builder = _RaisingBuilder(tiny_profile, tiny_settings, poisoned=None)
        # Two workers: agent 1 has worker 1 to itself.
        with pytest.raises(AgentError, match=AGENT_ERROR):
            run_federation(config, builder, 2, None, 2)
        err = capfd.readouterr().err  # the worker's own traceback
        assert "Traceback" in err and "ValueError: agent-side failure" in err

    def test_a_workers_build_failure_names_the_worker_not_an_agent(
        self, tiny_profile, tiny_settings
    ):
        config = FederationConfig(agents=3, steps_per_agent=40, freq_updates=20)
        builder = _UnbuildableBuilder(tiny_profile, tiny_settings, poisoned=None)
        with pytest.raises(RuntimeError, match=(
            r"^pool worker 0 for agents \[0, 2\] raised AssertionError: agent 0 was built$"
        )) as info:
            run_federation(config, builder, 2, None, 2)
        assert not isinstance(info.value, AgentError)
