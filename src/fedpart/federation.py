"""Master orchestration: synchronous rounds and asynchronous fast/slow rounds.

``aggregate_round`` is the one place the round rule lives. Synchronous mode
barriers all agents every iteration and averages their weights.
Asynchronous mode aggregates the fast group first, then folds each slow
agent into the running average weighted by contributor count, handing every
slow agent back the aggregate that includes its own contribution.
Already-distributed aggregates are never modified retroactively, so fast
agents continue from the fast-group average.

Agents run in one ``AgentHost``: in the master with one worker, or one per
forked worker process, each holding its partition of the agents. Every
call goes to every worker with the whole round; each host runs the jobs of
the agents it holds and returns those agents' own weight arrays by id.
Weights and logs are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class FederationConfig:
    """The federation schedule, read from the ``[federation]`` config section.

    Every agent trains ``steps_per_agent`` steps in ``n_iterations`` phases
    of ``freq_updates`` steps, and the master aggregates after each phase.
    ``sync`` averages all ``agents``; ``async`` makes ``proportion_slow`` of
    them slow, running up to ``max_delay_slow`` relatively more steps and
    folded in after the fast ones. ``single`` runs one agent as ``sync``,
    whatever ``agents`` says. Zero steps trains nothing: the run ends on its
    initial weights.
    """

    mode: str = "sync"
    agents: int = 10
    steps_per_agent: int = 21000
    freq_updates: int = 500
    proportion_slow: float = 0.0
    max_delay_slow: float = 0.0
    role_policy: str = "fixed"

    def __post_init__(self) -> None:
        if self.mode not in ("sync", "async", "single"):
            raise ValueError(f"mode: expected sync|async|single, got {self.mode!r}")
        if self.agents < 1:
            raise ValueError("agents must be >= 1")
        if self.freq_updates < 1:
            raise ValueError("freq_updates must be >= 1")
        if not (0.0 <= self.proportion_slow <= 1.0):
            raise ValueError("proportion_slow must be in [0, 1]")
        if self.max_delay_slow < 0.0:
            raise ValueError("max_delay_slow must be >= 0")
        if self.role_policy not in ("fixed", "redraw"):
            raise ValueError(f"role_policy must be 'fixed' or 'redraw', got {self.role_policy!r}")
        if self.steps_per_agent < 0 or self.steps_per_agent % self.freq_updates != 0:
            raise ValueError(
                "steps_per_agent must be a nonnegative multiple of freq_updates "
                f"(got {self.steps_per_agent} and {self.freq_updates})"
            )

    @property
    def m_agents(self) -> int:
        return 1 if self.mode == "single" else self.agents

    @property
    def n_iterations(self) -> int:
        return self.steps_per_agent // self.freq_updates


def aggregate_mean(vectors: list[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of equally sized weight vectors: their float64 sum
    in order from +0.0, divided by their count: ``np.mean`` over their stack without
    the copy, bar 8 or more 1-entry vectors, a column that NumPy sums pairwise."""
    if not vectors:
        raise ValueError("need at least one weight vector")
    total = np.zeros(np.shape(vectors[0]))
    for v in vectors:
        if np.shape(v) != total.shape:
            raise ValueError("weight vectors must have equal lengths")
        total += v
    total /= len(vectors)
    return total


def aggregate_incremental(current: np.ndarray, count: int, theta: np.ndarray) -> np.ndarray:
    """Fold one late contribution into the average ``current`` of ``count`` others.

    The new average is ``(count * current + theta) / (count + 1)``; after
    folding all late agents the result equals the plain mean of every
    contribution.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != current.shape:
        raise ValueError("weight vector length mismatch")
    return (count * current + theta) / (count + 1)


class ScheduleRow(NamedTuple):
    """One agent's part in one aggregation round: a row of ``schedule.csv``."""

    iteration: int
    agent: int
    role: str  # "fast" or "slow"
    steps: int  # steps trained in the round's phase
    agg_index: int  # 0 in the fast group, then 1, 2, ... in fold order


def aggregate_round(
    iteration: int, thetas: list[np.ndarray], steps: list[int], slow_mask
) -> tuple[np.ndarray, list[np.ndarray], list[ScheduleRow]]:
    """Aggregate one round of per-agent weights ``thetas``.

    The fast agents are averaged; the slow ones are then folded in, ordered
    by ``(steps, id)``. Returns the new global weights, each agent's next
    initial weights, and the round's ``ScheduleRow``s, fast ones first.
    """
    fast_ids = [m for m, slow in enumerate(slow_mask) if not slow]
    slow_ids = sorted((m for m, slow in enumerate(slow_mask) if slow), key=lambda m: (steps[m], m))
    next_init = [None] * len(thetas)
    rows = []
    theta = None
    if fast_ids:
        theta = aggregate_mean([thetas[m] for m in fast_ids])
        for m in fast_ids:
            next_init[m] = theta
            rows.append(ScheduleRow(iteration, m, "fast", steps[m], 0))
    for order, m in enumerate(slow_ids, start=1):
        if theta is None:
            theta = np.asarray(thetas[m], dtype=np.float64).copy()
        else:
            theta = aggregate_incremental(theta, len(fast_ids) + order - 1, thetas[m])
        next_init[m] = theta
        rows.append(ScheduleRow(iteration, m, "slow", steps[m], order))
    return theta, next_init, rows


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
    n_slow = _round_half_up(m_agents * proportion_slow)
    roles = np.zeros((n_iterations, m_agents), dtype=bool)
    if n_slow == 0:
        return roles
    if role_policy == "fixed":
        slow_ids = rng.choice(m_agents, size=n_slow, replace=False)
        roles[:, slow_ids] = True
    else:
        for n in range(n_iterations):
            slow_ids = rng.choice(m_agents, size=n_slow, replace=False)
            roles[n, slow_ids] = True
    return roles


def slow_step_count(
    freq_updates: int, max_delay_slow: float, rng: np.random.Generator
) -> int:
    """Uniform integer in [freq_updates, round(freq_updates * (1 + max_delay))]."""
    upper = _round_half_up(freq_updates * (1.0 + max_delay_slow))
    return int(rng.integers(freq_updates, upper + 1))


class AgentLog(NamedTuple):
    """One agent's record of a run: its ``STEP_LOG`` rows and validation series."""

    steps: np.ndarray
    val_steps: list[int]  # steps trained at each validation
    val_rate: list[float]  # C_lat, the violation rate, of each validation


@dataclass
class FederationResult:
    final_weights: np.ndarray
    schedule_rows: list[ScheduleRow] = field(default_factory=list)
    agent_logs: list[AgentLog] = field(default_factory=list)


def derive_seed_sequences(config: FederationConfig, master_seed: int):
    """Master-seed-derived streams: one per agent, plus net-init and scheduler."""
    root = np.random.SeedSequence(master_seed)
    children = root.spawn(config.m_agents + 2)
    return children[: config.m_agents], children[config.m_agents], children[config.m_agents + 1]


class AgentError(RuntimeError):
    """An agent's exception in its phase: ``agent N raised Type: message``, then the iteration."""


class AgentHost:
    """Holds some of the agents and runs their phases, in the master or a worker.

    ``run_phases`` takes the round's ``(agent_id, weights, steps)`` jobs, runs
    those of the agents it holds in order, skips the rest, and returns
    ``{agent_id: agent.net.flat}``: each agent's own array, which nothing
    writes until that agent's next ``set_weights``, or an :class:`AgentError`.
    ``finalize`` returns each agent's ``AgentLog`` by id.
    """

    def __init__(self, builder, assignments):
        self.agents = {i: builder.build(i, seq) for i, seq in assignments}

    def run_phases(self, jobs):
        out = {}
        for agent_id, weights, steps in jobs:
            agent = self.agents.get(agent_id)
            if agent is not None:
                try:
                    agent.set_weights(weights)
                    agent.run_training_phase(steps)
                except Exception as exc:
                    raise AgentError(
                        f"agent {agent_id} raised {type(exc).__name__}: {exc}"
                    ) from exc
                out[agent_id] = agent.net.flat
        return out

    def finalize(self):
        logs = {}
        for i, agent in self.agents.items():
            agent.finalize_validation()
            logs[i] = AgentLog(agent.log, agent.validation.steps_trained, agent.validation.rates)
        return logs

    def close(self):
        """Nothing to release: the agents live in this process."""


def _worker_main(conn, builder, assignments):
    """Pool worker: an ``AgentHost`` serving ``(method, *args)`` messages.

    Each reply is ``(error, result)``: an exception raised while building or
    running the agents is printed with its traceback and comes back for the
    master to raise, an :class:`AgentError` as itself and any other as
    ``"raised Type: message"``; the worker then waits for the master's stop.
    """
    import traceback  # here, with multiprocessing in _Pool, to keep both off the import path

    host = None
    while True:
        method, *args = conn.recv()
        if method == "stop":
            conn.close()
            return
        try:
            if host is None:
                host = AgentHost(builder, assignments)
            reply = (None, getattr(host, method)(*args))
        except Exception as exc:
            traceback.print_exc()
            error = exc if isinstance(exc, AgentError) else f"raised {type(exc).__name__}: {exc}"
            reply = (error, None)
        conn.send(reply)


class _Pool:
    """Persistent worker processes, each hosting a partition of the agents.

    Every call goes to every worker, whose ``AgentHost`` answers for the
    agents it holds; the replies' dicts merge into one by agent id. A worker
    that exits mid-run or cannot build its agents is a ``RuntimeError`` naming
    them and the exit code or the exception; an ``AgentError`` comes as sent.
    """

    def __init__(self, builder, agent_seqs, workers: int):
        import multiprocessing  # only a run that forks pays for loading it

        workers = min(workers, len(agent_seqs))
        ctx = multiprocessing.get_context("fork")
        self.conns = []
        self.procs = []
        assignments = list(enumerate(agent_seqs))
        self.partitions = [assignments[w::workers] for w in range(workers)]
        for part in self.partitions:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child, builder, part), daemon=True)
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def _agents(self, w: int) -> list[int]:
        return [i for i, _ in self.partitions[w]]

    def _call(self, *message) -> dict:
        """Send every worker ``message``, read every reply, and merge the results.

        Every reply is read before any error is raised, so no surviving
        worker is left blocked on sending its reply. A worker that exited
        replies with its exit code; the lowest failing worker is reported.
        """
        for conn in self.conns:
            try:
                conn.send(message)
            except OSError:  # a dead worker: its recv below reports it
                pass
        replies = []
        for conn, proc in zip(self.conns, self.procs):
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):
                proc.join(timeout=10)
                replies.append((f"exited with code {proc.exitcode}", None))
        merged = {}
        for w, (error, result) in enumerate(replies):
            if isinstance(error, AgentError):
                raise error
            if error is not None:
                raise RuntimeError(f"pool worker {w} for agents {self._agents(w)} {error}")
            merged.update(result)
        return merged

    def run_phases(self, jobs):
        return self._call("run_phases", jobs)

    def finalize(self):
        return self._call("finalize")

    def close(self):
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)


def run_federation(
    config: FederationConfig,
    builder,
    master_seed: int,
    initial_weights: np.ndarray | None,
    workers: int,
) -> FederationResult:
    """Execute the full federated training loop.

    ``builder`` provides two methods: ``build(agent_index, seed_sequence)``
    returns a ``DQNAgent`` with its validation probe, and
    ``initial_weights(seed_sequence)`` returns a flat weight vector, called
    with the master seed's network stream when ``initial_weights`` is None.
    Above 1, ``workers`` forks that many processes, at most one per agent.
    An agent that raises, inline or pooled, is an ``AgentError`` naming the iteration.
    Weight math runs in float64. Per-agent seeds derive from
    ``master_seed``, so repeated runs are bit-identical regardless of
    ``workers``. With zero steps no agent is built: the initial weights
    come back with empty logs.
    """
    agent_seqs, net_seq, sched_seq = derive_seed_sequences(config, master_seed)
    sched_rng = np.random.default_rng(sched_seq)

    if initial_weights is None:
        theta = builder.initial_weights(net_seq)
    else:
        theta = np.asarray(initial_weights, dtype=np.float64).copy()
    if config.n_iterations == 0:
        return FederationResult(final_weights=theta)

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
    schedule_rows: list[ScheduleRow] = []
    next_init = [theta] * config.m_agents

    try:
        for iteration, slow_mask in enumerate(roles):
            steps = [
                slow_step_count(config.freq_updates, config.max_delay_slow, sched_rng)
                if slow else config.freq_updates
                for slow in slow_mask
            ]
            jobs = [(m, next_init[m], steps[m]) for m in range(config.m_agents)]
            try:
                returned = host.run_phases(jobs)
            except AgentError as exc:
                raise AgentError(f"{exc} in iteration {iteration}") from exc.__cause__
            thetas = [returned[m] for m in range(config.m_agents)]
            for m, weights in enumerate(thetas):
                if not np.isfinite(weights).all():
                    raise FloatingPointError(
                        f"agent {m} returned weights that are not finite in iteration {iteration}"
                    )
            theta, next_init, rows = aggregate_round(iteration, thetas, steps, slow_mask)
            schedule_rows += rows
            del returned, thetas, weights  # not through the next round's phases

        logs = host.finalize()
    finally:
        host.close()

    return FederationResult(
        final_weights=theta,
        schedule_rows=schedule_rows,
        agent_logs=[logs[m] for m in range(config.m_agents)],
    )
