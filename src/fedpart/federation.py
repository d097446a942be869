"""Master orchestration: synchronous rounds and asynchronous fast/slow rounds.

Synchronous mode barriers all agents every iteration and averages their
weights. Asynchronous mode aggregates the fast group first, then folds each
slow agent into the running average weighted by contributor count, handing
every slow agent back the aggregate that includes its own contribution.
Already-distributed aggregates are never modified retroactively, so fast
agents continue from the fast-group average.

Results are independent of physical scheduling: agents can run sequentially
or on worker processes and produce bit-identical weights and logs.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass, field

import numpy as np

from .agent import DQNAgent


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class FederationConfig:
    m_agents: int = 10
    n_iterations: int = 42
    freq_updates: int = 500
    mode: str = "sync"
    proportion_slow: float = 0.0
    max_delay_slow_relative: float = 0.0
    role_policy: str = "fixed"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.m_agents < 1:
            raise ValueError("m_agents must be >= 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.freq_updates < 1:
            raise ValueError("freq_updates must be >= 1")
        if self.mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if not (0.0 <= self.proportion_slow <= 1.0):
            raise ValueError("proportion_slow must be in [0, 1]")
        if self.max_delay_slow_relative < 0.0:
            raise ValueError("max_delay_slow_relative must be >= 0")
        if self.role_policy not in ("fixed", "redraw"):
            raise ValueError(f"role_policy must be 'fixed' or 'redraw', got {self.role_policy!r}")


@dataclass
class AggregationState:
    """Running average plus the number of contributions it already holds."""

    current: np.ndarray
    contributor_count: int


def aggregate_mean(vectors: list[np.ndarray]) -> np.ndarray:
    """Coordinate-wise arithmetic mean of equally sized weight vectors."""
    if not vectors:
        raise ValueError("need at least one weight vector")
    first = np.asarray(vectors[0], dtype=np.float64)
    for v in vectors[1:]:
        if np.asarray(v).shape != first.shape:
            raise ValueError("weight vectors must have equal lengths")
    return np.mean(np.stack([np.asarray(v, dtype=np.float64) for v in vectors]), axis=0)


def aggregate_incremental(state: AggregationState, theta: np.ndarray) -> AggregationState:
    """Fold one late contribution into the running average.

    With ``count`` prior contributors the new average is
    ``(count * current + theta) / (count + 1)``; after folding all late
    agents the result equals the plain mean of every contribution.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != state.current.shape:
        raise ValueError("weight vector length mismatch")
    count = state.contributor_count
    merged = (count * state.current + theta) / (count + 1)
    return AggregationState(current=merged, contributor_count=count + 1)


def schedule_roles(
    m_agents: int,
    proportion_slow: float,
    role_policy: str,
    rng: np.random.Generator,
    n_iterations: int,
) -> np.ndarray:
    """Boolean (n_iterations, m_agents) matrix, True where an agent is slow.

    Exactly round(m_agents * proportion_slow) agents are slow per iteration;
    the fixed policy draws the set once, the redraw policy resamples it
    every iteration.
    """
    if not (0.0 <= proportion_slow <= 1.0):
        raise ValueError("proportion_slow must be in [0, 1]")
    n_slow = _round_half_up(m_agents * proportion_slow)
    roles = np.zeros((n_iterations, m_agents), dtype=bool)
    if n_slow == 0:
        return roles
    if role_policy == "fixed":
        slow_ids = rng.choice(m_agents, size=n_slow, replace=False)
        roles[:, slow_ids] = True
    elif role_policy == "redraw":
        for n in range(n_iterations):
            slow_ids = rng.choice(m_agents, size=n_slow, replace=False)
            roles[n, slow_ids] = True
    else:
        raise ValueError(f"unknown role_policy {role_policy!r}")
    return roles


def slow_step_count(
    freq_updates: int, max_delay_slow_relative: float, rng: np.random.Generator
) -> int:
    """Uniform integer in [freq_updates, round(freq_updates * (1 + max_delay))]."""
    if max_delay_slow_relative < 0:
        raise ValueError("max_delay_slow_relative must be >= 0")
    upper = _round_half_up(freq_updates * (1.0 + max_delay_slow_relative))
    return int(rng.integers(freq_updates, upper + 1))


@dataclass
class FederationResult:
    final_weights: np.ndarray
    agents: list[DQNAgent] | None
    schedule_rows: list[dict] = field(default_factory=list)
    agent_logs: list[dict] = field(default_factory=list)


def derive_seed_sequences(config: FederationConfig):
    """Master-seed-derived streams: one per agent, plus net-init and scheduler."""
    root = np.random.SeedSequence(config.master_seed)
    children = root.spawn(config.m_agents + 2)
    return children[: config.m_agents], children[config.m_agents], children[config.m_agents + 1]


def _collect_log(agent: DQNAgent) -> dict:
    log = {
        "cost": np.asarray(agent.costs),
        "violated": np.asarray(agent.violations, dtype=bool),
        "action": np.asarray(agent.actions, dtype=np.int64),
        "config_id": np.asarray(agent.config_ids, dtype=np.int64),
        "e_sew": np.asarray(agent.e_sew),
        "e_phone": np.asarray(agent.e_phone),
        "c_5g": np.asarray(agent.c_5g),
        "l_total": np.asarray(agent.l_total),
    }
    if agent.validation is not None:
        log["val_k"] = np.asarray(agent.validation.phase_indices, dtype=np.int64)
        log["val_steps"] = np.asarray(agent.validation.steps_trained, dtype=np.int64)
        log["val_rate"] = np.asarray(agent.validation.rates)
    return log


class _InlineRunner:
    """Runs all agents in the master process."""

    def __init__(self, builder, agent_seqs):
        self.agents = {i: builder.build(i, seq) for i, seq in enumerate(agent_seqs)}

    def run_phases(self, jobs):
        out = []
        for agent_id, weights, steps in jobs:
            agent = self.agents[agent_id]
            agent.set_weights(weights)
            agent.run_training_phase(steps)
            out.append((agent_id, agent.get_weights()))
        return out

    def finalize(self):
        for agent in self.agents.values():
            agent.finalize_validation()
        return {i: _collect_log(a) for i, a in self.agents.items()}

    def close(self):
        pass


def _worker_main(conn, builder, assignments):
    agents = {i: builder.build(i, seq) for i, seq in assignments}
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "phase":
            replies = []
            for agent_id, weights, steps in message[1]:
                agent = agents[agent_id]
                agent.set_weights(weights)
                agent.run_training_phase(steps)
                replies.append((agent_id, agent.get_weights()))
            conn.send(replies)
        elif kind == "finalize":
            for agent in agents.values():
                agent.finalize_validation()
            conn.send({i: _collect_log(a) for i, a in agents.items()})
        elif kind == "stop":
            conn.close()
            return


class _PoolRunner:
    """Persistent worker processes, each owning a partition of the agents."""

    def __init__(self, builder, agent_seqs, workers: int):
        n = len(agent_seqs)
        workers = max(1, min(workers, n))
        ctx = mp.get_context("fork")
        self.conns = []
        self.procs = []
        self.owner = {}
        partitions = [[] for _ in range(workers)]
        for i, seq in enumerate(agent_seqs):
            partitions[i % workers].append((i, seq))
            self.owner[i] = i % workers
        for part in partitions:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child, builder, part), daemon=True)
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def run_phases(self, jobs):
        per_worker = [[] for _ in self.conns]
        for job in jobs:
            per_worker[self.owner[job[0]]].append(job)
        active = []
        for conn, batch in zip(self.conns, per_worker):
            if batch:
                conn.send(("phase", batch))
                active.append(conn)
        out = []
        for conn in active:
            out.extend(conn.recv())
        return out

    def finalize(self):
        logs = {}
        for conn in self.conns:
            conn.send(("finalize",))
        for conn in self.conns:
            logs.update(conn.recv())
        return logs

    def close(self):
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=10)


def run_federation(
    config: FederationConfig,
    builder,
    initial_weights: np.ndarray | None = None,
    workers: int = 1,
    keep_agents: bool = True,
) -> FederationResult:
    """Execute the full federated training loop.

    ``builder`` must provide ``build(agent_index, seed_sequence) -> DQNAgent``
    and ``network_spec() -> dict`` (QNetwork constructor arguments used for
    the initial global weights). Weight math runs in float64. Per-agent
    seeds derive from ``config.master_seed``, so repeated runs are
    bit-identical regardless of ``workers``.
    """
    agent_seqs, net_seq, sched_seq = derive_seed_sequences(config)
    sched_rng = np.random.default_rng(sched_seq)

    if initial_weights is None:
        from .network import QNetwork

        master_net = QNetwork(rng=np.random.default_rng(net_seq), **builder.network_spec())
        theta = master_net.get_weights()
    else:
        theta = np.asarray(initial_weights, dtype=np.float64).copy()

    roles = schedule_roles(
        config.m_agents,
        config.proportion_slow if config.mode == "async" else 0.0,
        config.role_policy,
        sched_rng,
        config.n_iterations,
    )

    use_pool = workers > 1 and config.m_agents > 1
    runner = (
        _PoolRunner(builder, agent_seqs, workers)
        if use_pool
        else _InlineRunner(builder, agent_seqs)
    )
    schedule_rows: list[dict] = []
    next_init = [theta] * config.m_agents

    try:
        for iteration in range(config.n_iterations):
            slow_mask = roles[iteration]
            steps = {}
            for m in range(config.m_agents):
                if config.mode == "async" and slow_mask[m]:
                    steps[m] = slow_step_count(
                        config.freq_updates, config.max_delay_slow_relative, sched_rng
                    )
                else:
                    steps[m] = config.freq_updates

            jobs = [(m, next_init[m], steps[m]) for m in range(config.m_agents)]
            thetas = dict(runner.run_phases(jobs))
            for m in range(config.m_agents):
                if not np.isfinite(thetas[m]).all():
                    raise FloatingPointError(
                        f"agent {m} returned weights that are not finite in iteration {iteration}"
                    )

            fast_ids = [m for m in range(config.m_agents) if not slow_mask[m]]
            slow_ids = sorted(
                (m for m in range(config.m_agents) if slow_mask[m]),
                key=lambda m: (steps[m], m),
            )
            agg_state = None
            if fast_ids:
                fast_agg = aggregate_mean([thetas[m] for m in fast_ids])
                agg_state = AggregationState(fast_agg, len(fast_ids))
                for m in fast_ids:
                    next_init[m] = fast_agg
                    schedule_rows.append(
                        {"iteration": iteration, "agent": m, "role": "fast",
                         "steps": steps[m], "agg_index": 0}
                    )
            for order, m in enumerate(slow_ids, start=1):
                if agg_state is None:
                    agg_state = AggregationState(
                        np.asarray(thetas[m], dtype=np.float64).copy(), 1
                    )
                else:
                    agg_state = aggregate_incremental(agg_state, thetas[m])
                next_init[m] = agg_state.current
                schedule_rows.append(
                    {"iteration": iteration, "agent": m, "role": "slow",
                     "steps": steps[m], "agg_index": order}
                )
            theta = agg_state.current

        logs = runner.finalize()
    finally:
        runner.close()

    agent_logs = [logs[m] for m in range(config.m_agents)]
    agents = list(runner.agents.values()) if isinstance(runner, _InlineRunner) and keep_agents else None
    return FederationResult(
        final_weights=theta,
        agents=agents,
        schedule_rows=schedule_rows,
        agent_logs=agent_logs,
    )
