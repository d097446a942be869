"""Command-line experiment driver.

Subcommands: train, transfer, baseline, enumerate, profile, traces, report.
Settings come from an INI config file (see :mod:`fedpart.config`); the
train, transfer and baseline flags override keys of its ``[run]`` and
``[federation]`` sections (baseline has no pool or straggler flags).
``profile synth`` and ``traces synth`` write what the config's
``[profile]``, ``[wifi]``, ``[fiveg]`` and ``[bounds]`` sections synthesize.
``train`` and ``transfer`` write ``manifest.ini`` (the resolved config),
per-agent step and validation CSVs and the final weights as text and as a
checkpoint that ``transfer --checkpoint`` reads; ``transfer`` is ``train``
warm-started from that checkpoint. Each run's directory is written as the
run ends. ``report DIR`` bands the ``run_<seed>`` under ``DIR`` as ``train``
does, in seed order. A bad config, profile, trace, checkpoint or
``run_validation.csv``, a path that cannot be opened, or a checkpoint whose
network dims differ from the config's prints ``error: ...`` and returns 2.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .network import CheckpointError
from .profiles import (
    ProfileError, enumerate_configs, load_profile, save_profile, synthesize_profile,
)
from .runner import (
    ReportError, run_baseline_suite, run_experiment, write_band, write_csv, write_experiment,
)
from .traces import TraceError, load_trace, save_trace, synthesize_trace


def _load_with_overrides(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {
        "run__base_seed": args.seed,
        "run__n_runs": args.runs,
        "run__output_dir": args.output,
        "run__workers": getattr(args, "workers", None),
        "federation__mode": args.mode,
        "federation__agents": args.agents,
        "federation__steps_per_agent": args.steps_per_agent,
        "federation__freq_updates": args.freq_updates,
        "federation__proportion_slow": getattr(args, "proportion_slow", None),
        "federation__max_delay_slow": getattr(args, "max_delay_slow", None),
    }
    return apply_overrides(config, **overrides)


def _add_common_train_flags(parser, training: bool) -> None:
    parser.add_argument("--config", help="experiment config file (INI)")
    parser.add_argument("--seed", type=int, help="base master seed")
    parser.add_argument("--runs", type=int, help="number of seeded repetitions")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--mode", choices=("single", "sync", "async"))
    parser.add_argument("--agents", type=int)
    parser.add_argument("--steps-per-agent", dest="steps_per_agent", type=int)
    parser.add_argument("--freq-updates", dest="freq_updates", type=int)
    if training:
        parser.add_argument("--workers", type=int, help="parallel agent workers")
        parser.add_argument("--proportion-slow", dest="proportion_slow", type=float)
        parser.add_argument("--max-delay-slow", dest="max_delay_slow", type=float)


def cmd_train(args) -> int:
    config = _load_with_overrides(args)
    out_dir = config.run.output_dir
    run_experiment(config, args.checkpoint, out_dir)
    mean, mn, mx = write_experiment(config, out_dir)
    line = f"final validation C_lat: mean={mean:.4f} band=[{mn:.4f}, {mx:.4f}]"
    if args.checkpoint is None:
        print(f"{line} ({config.run.n_runs} runs) -> {out_dir}")
    else:
        print(f"warm-started {line} -> {out_dir}")
    return 0


def cmd_baseline(args) -> int:
    config = _load_with_overrides(args)
    logs = run_baseline_suite(config, args.objective)
    rates = [float(np.mean(log["violated"])) for _, _, log in logs]
    out_dir = config.run.output_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"baseline_{args.objective}.csv")
    write_csv(
        path,
        "master_seed,agent,violation_rate,mean_e_sew,mean_e_phone",
        ((seed, agent, rate, np.mean(log["e_sew"]), np.mean(log["e_phone"]))
         for (seed, agent, log), rate in zip(logs, rates)),
    )
    print(
        f"baseline ({args.objective}): mean violation rate "
        f"{float(np.mean(rates)):.4f} over {len(rates)} episodes -> {path}"
    )
    return 0


def cmd_enumerate(args) -> int:
    cuts = enumerate_configs(args.cuts)
    end = args.cuts + 1
    n_full = sum(a in (0, end) and b in (0, end) for a, b in cuts)
    n_double = sum(0 < a < b < end for a, b in cuts)
    print(len(cuts))
    print(
        f"full-device={n_full} single-split={len(cuts) - n_full - n_double} "
        f"double-split={n_double} (cuts={args.cuts})"
    )
    return 0


def cmd_profile(args) -> int:
    if args.profile_command == "synth":
        config = load_config(args.config) if args.config else ExperimentConfig()
        profile = synthesize_profile(config.profile, config.bounds.latencies)
        save_profile(profile, args.out)
        print(f"wrote {profile.n_configs} configs to {args.out}")
        return 0
    profile = load_profile(args.path)
    print(
        f"{profile.name}: {profile.n_configs} configs, cut_points={profile.cut_points}, "
        f"delta0={profile.delta0}, total_flops={profile.total_flops} -- valid"
    )
    return 0


def cmd_traces(args) -> int:
    if args.traces_command == "synth":
        config = load_config(args.config) if args.config else ExperimentConfig()
        wifi = synthesize_trace(config.wifi, config.inputs.trace_seed, config.bounds.wifi)
        fiveg = synthesize_trace(config.fiveg, config.inputs.trace_seed + 1, config.bounds.fiveg)
        save_trace(wifi, args.wifi_out)
        save_trace(fiveg, args.fiveg_out)
        print(f"wrote {wifi.samples.size} wifi samples and {fiveg.samples.size} 5g samples")
        return 0
    trace = load_trace(args.path)
    s = trace.samples
    print(
        f"{args.path}: n={s.size} granularity_ms={trace.granularity_ms} "
        f"mean={float(s.mean())!r} var={float(s.var())!r} "
        f"min={float(s.min())!r} max={float(s.max())!r}"
    )
    return 0


def cmd_report(args) -> int:
    """The band over the ``run_<seed>`` directories' curves, in seed order."""
    seeds = sorted({
        int(entry[4:]) for entry in os.listdir(args.run_dir)
        if entry.startswith("run_") and entry[4:].isdecimal()
    })
    out = args.out or os.path.join(args.run_dir, "validation_band.csv")
    runs, _ = write_band(args.run_dir, seeds, out)
    print(f"band over {runs} runs -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpart",
        description="Federated DQN training for runtime DNN partition offloading",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run seeded training repetitions")
    _add_common_train_flags(p_train, training=True)
    p_train.set_defaults(func=cmd_train, checkpoint=None)

    p_transfer = sub.add_parser("transfer", help="warm-start training from a checkpoint")
    _add_common_train_flags(p_transfer, training=True)
    p_transfer.add_argument("--checkpoint", required=True)
    p_transfer.set_defaults(func=cmd_train)

    p_base = sub.add_parser("baseline", help="run the Neurosurgeon baseline")
    _add_common_train_flags(p_base, training=False)
    p_base.add_argument("--objective", choices=("latency", "energy"), required=True)
    p_base.set_defaults(func=cmd_baseline)

    p_enum = sub.add_parser("enumerate", help="count partition configurations")
    p_enum.add_argument("--cuts", type=int, required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_profile = sub.add_parser("profile", help="synthesize or validate profiles")
    profile_sub = p_profile.add_subparsers(dest="profile_command", required=True)
    p_synth = profile_sub.add_parser("synth")
    p_synth.add_argument("--config")
    p_synth.add_argument("--out", required=True)
    p_validate = profile_sub.add_parser("validate")
    p_validate.add_argument("path")
    p_profile.set_defaults(func=cmd_profile)

    p_traces = sub.add_parser("traces", help="synthesize traces or print stats")
    traces_sub = p_traces.add_subparsers(dest="traces_command", required=True)
    t_synth = traces_sub.add_parser("synth")
    t_synth.add_argument("--config")
    t_synth.add_argument("--wifi-out", dest="wifi_out", required=True)
    t_synth.add_argument("--fiveg-out", dest="fiveg_out", required=True)
    t_stats = traces_sub.add_parser("stats")
    t_stats.add_argument("path")
    p_traces.set_defaults(func=cmd_traces)

    p_report = sub.add_parser("report", help="recompute band files from run logs")
    p_report.add_argument("run_dir")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, CheckpointError, ProfileError, ReportError, TraceError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
