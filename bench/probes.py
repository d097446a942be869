"""Probes that time calls into ``fedpart`` from outside the program.

A probe replaces a public module attribute or class method of ``fedpart``
with a wrapper. Call sites look the name up at call time, so the wrapper
reaches them, and forked pool workers inherit it. Two kinds exist:

* events: coarse calls (a training phase, a baseline episode, an
  aggregation, scenario and agent construction, artifact writing). They are
  always installed; each records its start and end on the monotonic clock,
  which forked processes share, plus a few public counters.
* spans: per-step calls (forwards, backward, Adam, replay, env, traces,
  baseline selection). They are installed only for a traced run. Each span
  keeps its duration and its self time, which is its duration minus the
  time covered by the spans it called.

Worker processes append what they recorded to a spool file after every
phase, so the benchmark process can read it after each invocation.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

# Percentiles tried, highest first, by the tail rule in ``tail_percentile``.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int, highest: float = 99.9) -> float | None:
    """Highest percentile, up to ``highest``, with ten of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if p <= highest and n * (100.0 - p) >= 1000.0 - 1e-6:  # n * (1 - p/100) >= 10
            return p
    return None


def summarize(durations, highest: float = 99.9) -> dict:
    """Sample count, median and rule-chosen tail of a list of durations."""
    values = np.asarray(durations, dtype=np.float64)
    p = tail_percentile(values.size, highest)
    return {
        "n": int(values.size),
        "p50": float(np.median(values)) if values.size else 0.0,
        "tail_p": p,
        "tail": float(np.percentile(values, p)) if p is not None else 0.0,
    }


class Recorder:
    """Spans and events of one process; spooled to disk in pool workers."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.owner_pid = os.getpid()
        self.events: list[tuple] = []
        self.durations: dict[str, array] = {}
        self.self_time: dict[str, float] = {}
        self.health: list[dict] = []
        self._stack: list[float] = []

    # -- span arithmetic -------------------------------------------------

    def _series(self, name: str) -> array:
        if name not in self.durations:
            self.durations[name] = array("d")
            self.self_time[name] = 0.0
        return self.durations[name]

    def enter(self) -> None:
        self._stack.append(0.0)

    def leave(self, name: str, duration: float) -> None:
        """Close the innermost open span; charge its time to its parent."""
        child = self._stack.pop()
        self._series(name).append(duration)
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1] += duration

    # -- exchange with workers -------------------------------------------

    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def _drain(self) -> dict:
        """Return what was recorded since the last drain and clear it."""
        record = {
            "events": list(self.events),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "self_time": dict(self.self_time),
            "health": list(self.health),
        }
        self.events.clear()
        self.health.clear()
        for series in self.durations.values():
            del series[:]
        for name in self.self_time:
            self.self_time[name] = 0.0
        return record

    def flush_worker(self) -> None:
        """Append this worker's records to its spool file."""
        path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self._drain()) + "\n")

    def take(self) -> dict:
        """Everything recorded since the last call, pool workers included."""
        merged = self._drain()
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    merged["events"].extend(tuple(e) for e in record["events"])
                    merged["health"].extend(record["health"])
                    for name, values in record["durations"].items():
                        merged["durations"].setdefault(name, []).extend(values)
                        merged["self_time"][name] = (
                            merged["self_time"].get(name, 0.0) + record["self_time"][name]
                        )
            path.unlink()
        return merged


def span(rec: Recorder, name: str, fn):
    """Wrap ``fn`` so each call records a span called ``name``."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter()
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(name, clock() - t0)

    return traced


def span_by(rec: Recorder, namer, fn):
    """Like ``span``, with the name chosen from the call's arguments."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter()
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(namer(*args, **kwargs), clock() - t0)

    return traced


def event(rec: Recorder, name: str, fn, traced: bool, before=None, after=None):
    """Wrap ``fn`` so each call records a timed event.

    ``before(args)`` returns a state that is passed on to
    ``after(args, result, error, state)``, which returns a dict stored with
    the event. An exception is recorded and
    re-raised. When ``traced``, the event is also a span, so the spans it
    calls are charged to it.
    """
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        state = before(args) if before else None
        if traced:
            rec.enter()
        t0 = clock()
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            t1 = clock()
            if traced:
                rec.leave(name, t1 - t0)
            info = after(args, result, error, state) if after else {}
            if error is not None:
                info["error"] = error
            rec.events.append((name, os.getpid(), t0, t1, info))
            if rec.in_worker() and name in WORKER_FLUSH_POINTS:
                rec.flush_worker()

    return wrapped


# Events after which a pool worker spools its records: the master reads
# them once the invocation returns, and a worker ends without notice.
WORKER_FLUSH_POINTS = ("agent.phase", "agent.finalize")


def learning_health(agent, forward_cached) -> dict:
    """Counters read from an agent's public state at the end of a run.

    ``forward_cached`` is the unwrapped ``QNetwork.forward_cached``, so the
    probe forward over the replay buffer records no span.
    """
    m = agent.optimizer.m
    tiny = np.finfo(m.dtype).tiny
    subnormal = np.count_nonzero((m != 0) & (np.abs(m) < tiny))
    states = agent.buffer.states[: len(agent.buffer)]
    dead = units = distinct = 0
    if len(states):
        q, (_, relu_masks, _) = forward_cached(agent.net, states, False)
        for mask in relu_masks:
            dead += int(np.count_nonzero(~mask.any(axis=0)))
            units += mask.shape[1]
        distinct = int(np.unique(q.argmax(axis=1)).size)
    return {
        "adam_m_subnormal": int(subnormal),
        "adam_m_size": int(m.size),
        "dead_units": dead,
        "hidden_units": units,
        "distinct_greedy_actions": distinct,
        "grad_updates": int(agent.grad_updates),
        "total_steps": int(agent.total_steps),
    }


class Instrumentation:
    """Installs probes on ``fedpart`` and restores the originals on exit."""

    def __init__(self, rec: Recorder, traced: bool):
        self.rec = rec
        self.traced = traced
        self._saved: list[tuple] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Instrumentation":
        from fedpart import agent, baseline, cli, env, federation, network, runner, traces

        rec, traced = self.rec, self.traced
        forward_cached = network.QNetwork.forward_cached

        def phase_before(args):
            return args[0].grad_updates

        def phase_after(args, result, error, updates_before):
            agent_ = args[0]
            return {
                "steps": int(args[1]),
                "updates": int(agent_.grad_updates - updates_before),
                "finite": bool(np.isfinite(agent_.net.flat).all()),
            }

        def finalize_after(args, result, error, state):
            if traced:
                rec.health.append(learning_health(args[0], forward_cached))
            return {}

        def episode_after(args, result, error, state):
            if result is None:
                return {"steps": int(args[2])}
            return {
                "steps": int(args[2]),
                "rows": int(len(result["cost"])),
                "finite": bool(np.isfinite(result["cost"]).all()),
            }

        ev = functools.partial(event, rec, traced=traced)
        self._patch(agent.DQNAgent, "run_training_phase", ev(
            "agent.phase", agent.DQNAgent.run_training_phase,
            before=phase_before, after=phase_after))
        self._patch(agent.DQNAgent, "finalize_validation", ev(
            "agent.finalize", agent.DQNAgent.finalize_validation, after=finalize_after))
        self._patch(runner, "run_baseline", ev(
            "baseline.episode", runner.run_baseline, after=episode_after))
        self._patch(federation, "aggregate_mean", ev(
            "federation.aggregate_mean", federation.aggregate_mean))
        self._patch(federation, "aggregate_incremental", ev(
            "federation.aggregate_incremental", federation.aggregate_incremental))
        self._patch(runner, "build_scenario", ev("runner.build_scenario", runner.build_scenario))
        self._patch(runner.AgentBuilder, "build", ev(
            "runner.agent_build", runner.AgentBuilder.build))
        self._patch(cli, "write_experiment", ev("runner.write", cli.write_experiment))
        if not traced:
            return self

        def forward_name(net, x, *args, **kwargs):
            return "network.single_forward" if np.ndim(x) == 1 else "network.batch_forward"

        def forward_cached_name(net, x, train, *args, **kwargs):
            return "network.online_forward" if train else "network.target_forward"

        Q = network.QNetwork
        self._patch(Q, "forward", span_by(rec, forward_name, Q.forward))
        self._patch(Q, "forward_cached", span_by(rec, forward_cached_name, Q.forward_cached))
        self._patch(Q, "backward", span(rec, "network.backward", Q.backward))
        self._patch(network.AdamOptimizer, "step",
                    span(rec, "network.adam_step", network.AdamOptimizer.step))
        self._patch(agent, "select_action", span(rec, "agent.select_action", agent.select_action))
        self._patch(agent, "train_step", span(rec, "agent.train_step", agent.train_step))
        self._patch(agent.ReplayBuffer, "sample",
                    span(rec, "agent.replay_sample", agent.ReplayBuffer.sample))
        self._patch(agent.ReplayBuffer, "push",
                    span(rec, "agent.replay_push", agent.ReplayBuffer.push))
        self._patch(agent.ValidationProbe, "run",
                    span(rec, "agent.validation", agent.ValidationProbe.run))
        self._patch(env.OffloadEnv, "step", span(rec, "env.step", env.OffloadEnv.step))
        self._patch(env.OffloadEnv, "observe", span(rec, "env.observe", env.OffloadEnv.observe))
        self._patch(traces.PerturbedReplay, "next_window",
                    span(rec, "traces.next_window", traces.PerturbedReplay.next_window))
        self._patch(env, "sample_cloud_latency",
                    span(rec, "traces.cloud_latency", env.sample_cloud_latency))
        self._patch(baseline, "neurosurgeon_select",
                    span(rec, "baseline.select", baseline.neurosurgeon_select))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
