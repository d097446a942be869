"""Master orchestration: synchronous rounds and asynchronous fast/slow rounds.

Synchronous mode barriers all agents every iteration and averages their
weights. Asynchronous mode aggregates the fast group first, then folds each
slow agent into the running average weighted by contributor count, handing
every slow agent back the aggregate that includes its own contribution.
Already-distributed aggregates are never modified retroactively, so fast
agents continue from the fast-group average.

Agents run in one ``AgentHost``: in the master with one worker, or one per
forked worker process, each serving its partition of the agents over a
pipe. Weights and logs are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass, field

import numpy as np

from .network import QNetwork


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
    schedule_rows: list[dict] = field(default_factory=list)
    agent_logs: list[dict] = field(default_factory=list)


def derive_seed_sequences(config: FederationConfig):
    """Master-seed-derived streams: one per agent, plus net-init and scheduler."""
    root = np.random.SeedSequence(config.master_seed)
    children = root.spawn(config.m_agents + 2)
    return children[: config.m_agents], children[config.m_agents], children[config.m_agents + 1]


def initial_global_weights(config: FederationConfig, network_spec: dict) -> np.ndarray:
    """The weights a run starts from: a ``QNetwork`` drawn from the net-init stream."""
    _, net_seq, _ = derive_seed_sequences(config)
    return QNetwork(rng=np.random.default_rng(net_seq), **network_spec).get_weights()


class AgentHost:
    """Owns some of the agents and runs their phases, in the master or a worker.

    ``run_phases`` takes ``(agent_id, weights, steps)`` jobs and returns
    ``(agent_id, weights)`` pairs; ``finalize`` returns each agent's step
    log and validation series.
    """

    def __init__(self, builder, assignments):
        self.agents = {i: builder.build(i, seq) for i, seq in assignments}

    def run_phases(self, jobs):
        out = []
        for agent_id, weights, steps in jobs:
            agent = self.agents[agent_id]
            agent.set_weights(weights)
            agent.run_training_phase(steps)
            out.append((agent_id, agent.get_weights()))
        return out

    def finalize(self):
        logs = {}
        for i, agent in self.agents.items():
            agent.finalize_validation()
            logs[i] = {"steps": agent.log}
            if agent.validation is not None:
                probe = agent.validation
                logs[i].update(val_k=probe.phase_indices, val_steps=probe.steps_trained,
                               val_rate=probe.rates)
        return logs

    def close(self):
        """Nothing to release: the agents live in this process."""


def _worker_main(conn, builder, assignments):
    """Pool worker: an ``AgentHost`` serving ``(method, *args)`` messages."""
    host = AgentHost(builder, assignments)
    while True:
        method, *args = conn.recv()
        if method == "stop":
            conn.close()
            return
        conn.send(getattr(host, method)(*args))


class _Pool:
    """Persistent worker processes, each hosting a partition of the agents.

    A worker that exits mid-run is reported as a ``RuntimeError`` naming its
    agents and exit code.
    """

    def __init__(self, builder, agent_seqs, workers: int):
        workers = min(workers, len(agent_seqs))
        ctx = mp.get_context("fork")
        self.conns = []
        self.procs = []
        self.owner = {}
        self.partitions = [[] for _ in range(workers)]
        for i, seq in enumerate(agent_seqs):
            self.partitions[i % workers].append((i, seq))
            self.owner[i] = i % workers
        for part in self.partitions:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child, builder, part), daemon=True)
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def _exchange(self, messages: dict) -> list:
        """Send each worker ``w`` its ``messages[w]``, then collect the replies."""
        try:
            for w, message in messages.items():
                self.conns[w].send(message)
            replies = []
            for w in messages:
                replies.append(self.conns[w].recv())
            return replies
        except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
            proc = self.procs[w]
            proc.join(timeout=10)
            agents = [i for i, _ in self.partitions[w]]
            raise RuntimeError(
                f"pool worker {w} for agents {agents} exited with code {proc.exitcode}"
            ) from exc

    def run_phases(self, jobs):
        batches = {}
        for job in jobs:
            batches.setdefault(self.owner[job[0]], []).append(job)
        replies = self._exchange({w: ("run_phases", batch) for w, batch in batches.items()})
        return [pair for reply in replies for pair in reply]

    def finalize(self):
        logs = {}
        for reply in self._exchange({w: ("finalize",) for w in range(len(self.conns))}):
            logs.update(reply)
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
) -> FederationResult:
    """Execute the full federated training loop.

    ``builder`` must provide ``build(agent_index, seed_sequence) -> DQNAgent``
    and ``network_spec() -> dict`` (QNetwork constructor arguments used for
    the initial global weights). Weight math runs in float64. Per-agent
    seeds derive from ``config.master_seed``, so repeated runs are
    bit-identical regardless of ``workers``.
    """
    agent_seqs, _, sched_seq = derive_seed_sequences(config)
    sched_rng = np.random.default_rng(sched_seq)

    if initial_weights is None:
        theta = initial_global_weights(config, builder.network_spec())
    else:
        theta = np.asarray(initial_weights, dtype=np.float64).copy()

    roles = schedule_roles(
        config.m_agents,
        config.proportion_slow if config.mode == "async" else 0.0,
        config.role_policy,
        sched_rng,
        config.n_iterations,
    )

    if workers > 1 and config.m_agents > 1:
        host = _Pool(builder, agent_seqs, workers)
    else:
        host = AgentHost(builder, enumerate(agent_seqs))
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
            thetas = dict(host.run_phases(jobs))
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

        logs = host.finalize()
    finally:
        host.close()

    return FederationResult(
        final_weights=theta,
        schedule_rows=schedule_rows,
        agent_logs=[logs[m] for m in range(config.m_agents)],
    )
