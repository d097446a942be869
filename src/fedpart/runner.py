"""Experiment driver: wires profiles, traces, envs, agents and federation.

One "experiment" is n_runs seeded repetitions of a federated (or single
agent) training run on one scenario. ``AgentBuilder`` holds a run's inputs
(the config, profile and base traces that ``build_scenario`` resolves) and
builds every env and agent from them. Every run is fully determined by the
experiment config and its master seed, so identical invocations produce
identical artifacts. ``run_experiment`` writes each run's directory as the
run ends, and ``write_experiment`` the experiment's files after the last;
``train`` and ``report`` band the runs in master-seed order by ``write_band``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .agent import DQNAgent, ValidationProbe
from .baseline import run_baseline
from .config import ConfigError, ExperimentConfig, dump_config
from .env import STEP_LOG, OffloadEnv
from .federation import FederationResult, ScheduleRow, derive_seed_sequences, run_federation
from .metrics import band, moving_avg_violations
from .network import load_checkpoint, save_checkpoint
from .profiles import ApplicationProfile, load_profile, synthesize_profile
from .traces import PerturbedReplay, Trace, load_trace, synthesize_trace


@dataclass(frozen=True)
class AgentBuilder:
    """A run's inputs: the experiment config with the profile and base traces
    it resolves to, and everything built from them.

    :meth:`env` is the one place the config becomes an :class:`OffloadEnv`,
    and :meth:`build` the one place a seed becomes an agent. Per-agent seed
    sequences split into training-env, validation-env and learner streams,
    so validation never consumes training randomness.
    """

    config: ExperimentConfig
    profile: ApplicationProfile
    wifi_trace: Trace
    fiveg_trace: Trace

    def env(self, seq: np.random.SeedSequence) -> OffloadEnv:
        """The env whose Wi-Fi replay, 5G replay and cloud-latency streams
        ``seq`` spawns, in that order; ``[inputs]`` sets how the replays
        perturb the base traces and where throughput is floored."""
        config, inputs = self.config, self.config.inputs
        wifi_seq, fiveg_seq, cloud_seq = seq.spawn(3)
        perturb = (inputs.noise_rel, inputs.shift, inputs.inversion)
        return OffloadEnv(
            self.profile,
            config.devices,
            config.cost,
            config.bounds,
            PerturbedReplay(self.wifi_trace, wifi_seq, *perturb),
            PerturbedReplay(self.fiveg_trace, fiveg_seq, *perturb),
            np.random.default_rng(cloud_seq),
            inputs.floor_frac,
        )

    def build(self, index: int, seq: np.random.SeedSequence) -> DQNAgent:
        """One agent: training env, validation probe and learner."""
        env_seq, val_seq, learner_seq = seq.spawn(3)
        run = self.config.run
        probe = ValidationProbe(self.env(val_seq), run.validation_steps, run.validation_interval)
        return DQNAgent(self.env(env_seq), self.config.agent, learner_seq, probe)

    def initial_weights(self, seq: np.random.SeedSequence) -> np.ndarray:
        """A run's starting global weights: a fresh network drawn from ``seq``."""
        net = self.config.agent.network(self.dims()[-1], np.random.default_rng(seq))
        return net.get_weights()

    def dims(self) -> tuple[int, ...]:
        """Network layer widths, input to output, as a checkpoint records them."""
        return self.config.agent.dims(self.profile.n_configs + 1)


def build_scenario(config: ExperimentConfig) -> AgentBuilder:
    """Load or synthesize the profile and both base traces that ``config`` names."""
    inputs, bounds = config.inputs, config.bounds
    if inputs.profile_path:
        profile = load_profile(inputs.profile_path)
    else:
        profile = synthesize_profile(config.profile, bounds.latencies)
    if inputs.wifi_path:
        wifi = load_trace(inputs.wifi_path)
    else:
        wifi = synthesize_trace(config.wifi, inputs.trace_seed, bounds.wifi)
    if inputs.fiveg_path:
        fiveg = load_trace(inputs.fiveg_path)
    else:
        fiveg = synthesize_trace(config.fiveg, inputs.trace_seed + 1, bounds.fiveg)
    return AgentBuilder(config, profile, wifi, fiveg)


def master_seeds(config: ExperimentConfig) -> list[int]:
    return [config.run.base_seed + i for i in range(config.run.n_runs)]


def run_experiment(config: ExperimentConfig, checkpoint, out_dir) -> None:
    """Run every master seed on one scenario, warm-started from ``checkpoint``
    unless it is None, and write each seed's ``run_<seed>/`` under ``out_dir``
    as its run ends; a checkpoint of other network dims is a ``ConfigError``."""
    builder = build_scenario(config)
    dims, weights = builder.dims(), None
    if checkpoint is not None:
        found, weights = load_checkpoint(checkpoint)
        if found != dims:
            raise ConfigError(f"checkpoint dims {found} do not match the config's {dims}")
    for seed in master_seeds(config):
        _write_run(
            os.path.join(out_dir, f"run_{seed}"), dims, config.run.validation_interval,
            run_federation(config.federation, builder, seed, weights, config.run.workers),
        )


def run_baseline_suite(
    config: ExperimentConfig, objective: str
) -> list[tuple[int, int, np.ndarray]]:
    """Run the baseline over the same per-agent env streams the trainer uses.

    For each run seed and each agent index, the agent is built as the
    trainer builds it and the baseline runs on its training env, giving a
    paired comparison on the same perturbed trace replays. Returns ``(master_seed, agent,
    step_log)`` triples. Zero steps is a ``ConfigError``: a baseline episode
    needs at least one decision to have a violation rate.
    """
    steps = config.federation.steps_per_agent
    if steps < 1:
        raise ConfigError(f"[federation] steps_per_agent must be >= 1 for a baseline, got {steps}")
    builder = build_scenario(config)
    logs = []
    for seed in master_seeds(config):
        agent_seqs, _, _ = derive_seed_sequences(config.federation, seed)
        for m, seq in enumerate(agent_seqs):
            logs.append((seed, m, run_baseline(builder.build(m, seq).env, objective, steps)))
    return logs


# -- artifact writing -------------------------------------------------------


def write_csv(path, header: str, rows) -> None:
    """Write ``rows`` under ``header``: bools as 0/1, floats as their shortest repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_run(run_dir, dims, interval: int, run: FederationResult) -> None:
    """Write one run's logs, schedule and weights, and its curve: the mean over
    its agents at each validation point they share."""
    os.makedirs(run_dir, exist_ok=True)
    for m, log in enumerate(run.agent_logs):
        steps = log.steps
        names = ["step", *STEP_LOG.names]
        columns = [np.arange(1, len(steps) + 1), *(steps[name] for name in STEP_LOG.names)]
        after_violated = names.index("violated") + 1
        names.insert(after_violated, "ma_violations")
        columns.insert(after_violated, moving_avg_violations(steps["violated"]))
        write_csv(os.path.join(run_dir, f"agent_{m}.steps.csv"), ",".join(names), zip(*columns))
        write_csv(
            os.path.join(run_dir, f"agent_{m}.validation.csv"),
            "k,steps_trained,c_lat",
            ((s // interval, s, rate) for s, rate in zip(log.val_steps, log.val_rate)),
        )
    if run.schedule_rows:
        write_csv(
            os.path.join(run_dir, "schedule.csv"), ",".join(ScheduleRow._fields), run.schedule_rows
        )
    if run.agent_logs:  # every agent validates at step 0 once it trains
        curve, _, _ = band([log.val_rate for log in run.agent_logs])
        write_csv(
            os.path.join(run_dir, "run_validation.csv"),
            "steps_trained,c_lat",
            zip(run.agent_logs[0].val_steps, curve),
        )
    np.savetxt(os.path.join(run_dir, "final_weights.txt"), run.final_weights)
    save_checkpoint(os.path.join(run_dir, "final_weights.ckpt"), dims, run.final_weights)


class ReportError(ValueError):
    """No ``run_validation.csv``, or one that cannot be read; the message says where."""


def _read_validation(path) -> tuple[list[int], list[float]]:
    """A ``run_validation.csv``'s ``steps_trained`` and ``c_lat`` columns."""
    steps, rates = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.read().splitlines()[1:], start=2):
            try:
                step, rate = line.split(",")
                steps.append(int(step))
                rates.append(float(rate))
            except ValueError as exc:
                raise ReportError(f"{path}:{lineno}: {exc}") from None
    if not steps:
        raise ReportError(f"{path}:1: no rows after the header")
    return steps, rates


def write_band(parent, seeds, out) -> tuple[int, tuple[float, float, float]]:
    """Write to ``out`` the mean, min and max, cut to the shortest, of the
    curves of the ``run_<seed>`` under ``parent`` that have one, in ``seeds``'
    order; their steps must agree. Returns the run count and the last point."""
    runs = []
    for path in (os.path.join(parent, f"run_{seed}", "run_validation.csv") for seed in seeds):
        if not os.path.isfile(path):
            continue
        steps, rates = _read_validation(path)
        first_path, first_steps, _ = runs[0] if runs else (path, steps, rates)
        for lineno, step, want in zip(range(2, len(steps) + 2), steps, first_steps):
            if step != want:
                raise ReportError(
                    f"{path}:{lineno}: steps_trained {step} differs from {want} in {first_path}"
                )
        runs.append((path, steps, rates))
    if not runs:
        raise ReportError(f"no run_validation.csv files under {parent}")
    mean, mn, mx = band([rates for _, _, rates in runs])
    write_csv(out, "x,mean,min,max", zip(runs[0][1], mean, mn, mx))
    return len(runs), (float(mean[-1]), float(mn[-1]), float(mx[-1]))


def write_experiment(config: ExperimentConfig, out_dir) -> tuple[float, float, float]:
    """Write the manifest, the band over this experiment's runs (no other
    ``run_*`` in ``out_dir``) and the summary once ``run_experiment`` has
    written every run. Returns the band's last point, NaN if it has none."""
    seeds = master_seeds(config)
    manifest = (
        f"# fedpart-version: {__version__}\n"
        f"# master-seeds: {','.join(str(s) for s in seeds)}\n"
        + dump_config(config)
    )
    with open(os.path.join(out_dir, "manifest.ini"), "w", encoding="utf-8") as fh:
        fh.write(manifest)
    last = (float("nan"),) * 3
    if config.federation.n_iterations:  # a run that trains no step writes no curve
        _, last = write_band(out_dir, seeds, os.path.join(out_dir, "validation_band.csv"))
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            f"final_validation_c_lat mean={last[0]!r} min={last[1]!r} max={last[2]!r} "
            f"runs={len(seeds)}\n"
        )
    return last
