"""Experiment driver: wires profiles, traces, envs, agents and federation.

One "experiment" is n_runs seeded repetitions of a federated (or single
agent) training run. Every run is fully determined by the experiment config
and its master seed, so identical invocations produce identical artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .agent import AgentSettings, DQNAgent, ValidationProbe
from .baseline import run_baseline
from .config import ExperimentConfig, dump_config
from .env import STEP_LOG, CostWeights, ObservationBounds, OffloadEnv
from .federation import (
    FederationConfig,
    derive_seed_sequences,
    initial_global_weights,
    run_federation,
)
from .metrics import band, moving_avg_violations
from .network import save_checkpoint
from .profiles import (
    ApplicationProfile,
    DeviceProfile,
    extend_profile,
    load_profile,
    synthesize_profile,
)
from .traces import Trace, load_trace, synthesize_trace


@dataclass(frozen=True)
class Scenario:
    """Immutable experiment ingredients shared by every agent and run."""

    profile: ApplicationProfile
    devices: DeviceProfile
    weights: CostWeights
    bounds: ObservationBounds
    wifi_trace: Trace
    fiveg_trace: Trace
    noise_rel: float
    shift: bool
    inversion: bool
    floor_frac: float


def build_scenario(config: ExperimentConfig) -> Scenario:
    p = config.profile
    if p.source == "file":
        profile = load_profile(p.path)
    else:
        profile = synthesize_profile(p.to_spec())
    if p.extend_to:
        profile = extend_profile(profile, p.extend_to)

    t = config.traces
    if t.wifi_source == "file":
        wifi = load_trace(t.wifi_path)
    else:
        wifi = synthesize_trace(t.wifi_spec(), seed=t.trace_seed)
    if t.fiveg_source == "file":
        fiveg = load_trace(t.fiveg_path)
    else:
        fiveg = synthesize_trace(t.fiveg_spec(), seed=t.trace_seed + 1)

    return Scenario(
        profile=profile,
        devices=config.environment.to_devices(),
        weights=config.environment.to_weights(),
        bounds=config.environment.to_bounds(),
        wifi_trace=wifi,
        fiveg_trace=fiveg,
        noise_rel=t.noise_rel,
        shift=t.shift,
        inversion=t.inversion,
        floor_frac=config.environment.floor_frac,
    )


def make_env(scenario: Scenario, seed) -> OffloadEnv:
    return OffloadEnv.from_seed(
        scenario.profile,
        scenario.devices,
        scenario.weights,
        scenario.bounds,
        scenario.wifi_trace,
        scenario.fiveg_trace,
        seed,
        noise_rel=scenario.noise_rel,
        shift_enabled=scenario.shift,
        inversion_enabled=scenario.inversion,
        floor_frac=scenario.floor_frac,
    )


@dataclass(frozen=True)
class AgentBuilder:
    """Builds one agent (training env, validation probe, learner) per index.

    Per-agent seed sequences split into training-env, validation-env and
    learner streams, so validation never consumes training randomness.
    """

    scenario: Scenario
    settings: AgentSettings
    validation_interval: int = 250
    validation_steps: int = 300
    validation_initial: bool = True

    def build(self, index: int, seq: np.random.SeedSequence) -> DQNAgent:
        env_seq, val_seq, learner_seq = seq.spawn(3)
        env = make_env(self.scenario, env_seq)
        probe = ValidationProbe(
            make_env(self.scenario, val_seq),
            steps=self.validation_steps,
            interval=self.validation_interval,
            include_initial=self.validation_initial,
        )
        return DQNAgent(env, self.settings, seed=learner_seq, validation=probe)

    def network_spec(self) -> dict:
        return {
            "n_actions": self.scenario.profile.n_configs + 1,
            "hidden": self.settings.hidden,
            "dropout_rates": self.settings.dropout_rates,
            "dtype": np.dtype(self.settings.dtype),
        }


@dataclass
class RunResult:
    master_seed: int
    final_weights: np.ndarray
    dims: tuple[int, ...]  # network layer widths, input to output
    agent_logs: list[dict]
    schedule_rows: list[dict]
    val_steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    val_curve: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list[RunResult]
    band_steps: np.ndarray
    band_mean: np.ndarray
    band_min: np.ndarray
    band_max: np.ndarray

    @property
    def final_validation(self) -> tuple[float, float, float]:
        """(mean, min, max) of the last common validation point."""
        if self.band_steps.size == 0:
            return (float("nan"),) * 3
        return (
            float(self.band_mean[-1]),
            float(self.band_min[-1]),
            float(self.band_max[-1]),
        )


def _mean_validation_curve(agent_logs: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Per-run curve: mean over agents at each shared validation step count."""
    series = [log for log in agent_logs if "val_steps" in log and len(log["val_steps"])]
    if not series:
        return np.empty(0, dtype=np.int64), np.empty(0)
    n = min(len(log["val_steps"]) for log in series)
    steps = np.asarray(series[0]["val_steps"][:n], dtype=np.int64)
    for log in series[1:]:
        if not np.array_equal(np.asarray(log["val_steps"][:n]), steps):
            raise ValueError("agents disagree on the validation step grid")
    rates = np.stack([np.asarray(log["val_rate"][:n], dtype=np.float64) for log in series])
    return steps, rates.mean(axis=0)


def federation_config_from(config: ExperimentConfig, master_seed: int) -> FederationConfig:
    fed = config.federation
    mode = fed.mode
    agents = fed.agents
    if mode == "single":
        mode, agents = "sync", 1
    return FederationConfig(
        m_agents=agents,
        n_iterations=max(1, fed.steps_per_agent // fed.freq_updates),
        freq_updates=fed.freq_updates,
        mode=mode,
        proportion_slow=fed.proportion_slow,
        max_delay_slow_relative=fed.max_delay_slow,
        role_policy=fed.role_policy,
        master_seed=master_seed,
    )


def run_one(
    config: ExperimentConfig,
    master_seed: int,
    initial_weights: np.ndarray | None = None,
) -> RunResult:
    scenario = build_scenario(config)
    builder = AgentBuilder(
        scenario,
        config.agent.to_settings(),
        validation_interval=config.run.validation_interval,
        validation_steps=config.run.validation_steps,
        validation_initial=config.run.validation_initial,
    )
    spec = builder.network_spec()
    dims = (5, *spec["hidden"], spec["n_actions"])  # five observation entries
    fed = federation_config_from(config, master_seed)
    if config.federation.steps_per_agent == 0:
        if initial_weights is None:
            initial_weights = initial_global_weights(fed, spec)
        return RunResult(master_seed, np.asarray(initial_weights, dtype=np.float64), dims, [], [])
    result = run_federation(
        fed, builder, initial_weights=initial_weights, workers=config.run.workers
    )
    steps, curve = _mean_validation_curve(result.agent_logs)
    return RunResult(
        master_seed=master_seed,
        final_weights=result.final_weights,
        dims=dims,
        agent_logs=result.agent_logs,
        schedule_rows=result.schedule_rows,
        val_steps=steps,
        val_curve=curve,
    )


def master_seeds(config: ExperimentConfig) -> list[int]:
    return [config.run.base_seed + i for i in range(config.run.n_runs)]


def run_experiment(
    config: ExperimentConfig,
    initial_weights: np.ndarray | None = None,
) -> ExperimentResult:
    config.validate()
    runs = [run_one(config, seed, initial_weights=initial_weights) for seed in master_seeds(config)]
    curves = [r.val_curve for r in runs if r.val_curve.size]
    if curves:
        n = min(c.size for c in curves)
        mean, mn, mx = band([c[:n] for c in curves])
        steps = runs[0].val_steps[:n]
    else:
        steps = np.empty(0, dtype=np.int64)
        mean = mn = mx = np.empty(0)
    return ExperimentResult(config, runs, steps, mean, mn, mx)


def run_baseline_suite(
    config: ExperimentConfig, objective: str
) -> list[tuple[int, int, np.ndarray]]:
    """Run the baseline over the same per-agent env streams the trainer uses.

    For each run seed and each agent index, a fresh environment is derived
    exactly as the agent's training env would be, giving a paired comparison
    on the same perturbed trace replays. Returns ``(master_seed, agent,
    step_log)`` triples.
    """
    scenario = build_scenario(config)
    logs = []
    steps = config.federation.steps_per_agent
    for seed in master_seeds(config):
        fed = federation_config_from(config, seed)
        agent_seqs, _, _ = derive_seed_sequences(fed)
        for m, seq in enumerate(agent_seqs):
            env_seq, _, _ = seq.spawn(3)
            env = make_env(scenario, env_seq)
            logs.append((seed, m, run_baseline(env, objective, steps)))
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


def write_experiment(config: ExperimentConfig, result: ExperimentResult, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = (
        f"# fedpart-version: {__version__}\n"
        f"# master-seeds: {','.join(str(s) for s in master_seeds(config))}\n"
        + dump_config(config)
    )
    with open(os.path.join(out_dir, "manifest.ini"), "w", encoding="utf-8") as fh:
        fh.write(manifest)

    for run in result.runs:
        run_dir = os.path.join(out_dir, f"run_{run.master_seed}")
        os.makedirs(run_dir, exist_ok=True)
        for m, log in enumerate(run.agent_logs):
            steps = log["steps"]
            names = ["step", *STEP_LOG.names]
            columns = [np.arange(1, len(steps) + 1), *(steps[name] for name in STEP_LOG.names)]
            after_violated = names.index("violated") + 1
            names.insert(after_violated, "ma_violations")
            columns.insert(after_violated, moving_avg_violations(steps["violated"]))
            write_csv(
                os.path.join(run_dir, f"agent_{m}.steps.csv"), ",".join(names), zip(*columns)
            )
            write_csv(
                os.path.join(run_dir, f"agent_{m}.validation.csv"),
                "k,steps_trained,c_lat",
                zip(log["val_k"], log["val_steps"], log["val_rate"]),
            )
        if run.schedule_rows:
            write_csv(
                os.path.join(run_dir, "schedule.csv"),
                "iteration,agent,role,steps,agg_index",
                (
                    (r["iteration"], r["agent"], r["role"], r["steps"], r["agg_index"])
                    for r in run.schedule_rows
                ),
            )
        if run.val_steps.size:
            write_csv(
                os.path.join(run_dir, "run_validation.csv"),
                "steps_trained,c_lat",
                zip(run.val_steps, run.val_curve),
            )
        np.savetxt(os.path.join(run_dir, "final_weights.txt"), run.final_weights)
        save_checkpoint(os.path.join(run_dir, "final_weights.ckpt"), run.dims, run.final_weights)

    if result.band_steps.size:
        write_csv(
            os.path.join(out_dir, "validation_band.csv"),
            "x,mean,min,max",
            zip(result.band_steps, result.band_mean, result.band_min, result.band_max),
        )
    mean, mn, mx = result.final_validation
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            f"final_validation_c_lat mean={mean!r} min={mn!r} max={mx!r} "
            f"runs={len(result.runs)}\n"
        )
