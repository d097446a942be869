"""Command-line experiment driver.

Subcommands: train, transfer, baseline, enumerate, profile, traces, report.
All heavy settings live in an INI config file; a handful of flags override
the most commonly swept parameters. FEDPART_OUTPUT_ROOT, when set, prefixes
relative output directories.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    dump_config,
    load_config,
)
from .env import OffloadEnv
from .metrics import band
from .network import load_checkpoint
from .profiles import (
    ProfileError,
    config_count,
    enumerate_configs,
    load_profile,
    save_profile,
)
from .runner import (
    build_scenario,
    master_seeds,
    run_baseline_suite,
    run_experiment,
    write_csv,
    write_experiment,
)
from .traces import TraceError, load_trace, save_trace, synthesize_trace


def _resolve_output(path: str) -> str:
    root = os.environ.get("FEDPART_OUTPUT_ROOT", "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _load_with_overrides(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {
        "run__base_seed": args.seed,
        "run__n_runs": args.runs,
        "run__output_dir": args.output,
        "run__workers": args.workers,
        "federation__mode": args.mode,
        "federation__agents": args.agents,
        "federation__steps_per_agent": args.steps_per_agent,
        "federation__freq_updates": args.freq_updates,
        "federation__proportion_slow": args.proportion_slow,
        "federation__max_delay_slow": args.max_delay_slow,
    }
    return apply_overrides(config, **overrides)


def _add_common_train_flags(parser) -> None:
    parser.add_argument("--config", help="experiment config file (INI)")
    parser.add_argument("--seed", type=int, help="base master seed")
    parser.add_argument("--runs", type=int, help="number of seeded repetitions")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--workers", type=int, help="parallel agent workers")
    parser.add_argument("--mode", choices=("single", "sync", "async"))
    parser.add_argument("--agents", type=int)
    parser.add_argument("--steps-per-agent", dest="steps_per_agent", type=int)
    parser.add_argument("--freq-updates", dest="freq_updates", type=int)
    parser.add_argument("--proportion-slow", dest="proportion_slow", type=float)
    parser.add_argument("--max-delay-slow", dest="max_delay_slow", type=float)


def cmd_train(args) -> int:
    config = _load_with_overrides(args)
    result = run_experiment(config)
    out_dir = _resolve_output(config.run.output_dir)
    write_experiment(config, result, out_dir)
    mean, mn, mx = result.final_validation
    print(
        f"final validation C_lat: mean={mean:.4f} band=[{mn:.4f}, {mx:.4f}] "
        f"({len(result.runs)} runs) -> {out_dir}"
    )
    return 0


def cmd_transfer(args) -> int:
    config = _load_with_overrides(args)
    dims, weights = load_checkpoint(args.checkpoint)
    scenario = build_scenario(config)
    n_actions = scenario.profile.n_configs + 1
    if dims[-1] != n_actions:
        print(
            f"error: checkpoint has {dims[-1]} actions but the target profile "
            f"needs {n_actions} ({scenario.profile.n_configs} configs + keep-current)",
            file=sys.stderr,
        )
        return 2
    result = run_experiment(config, initial_weights=weights)
    out_dir = _resolve_output(config.run.output_dir)
    write_experiment(config, result, out_dir)
    mean, mn, mx = result.final_validation
    print(
        f"warm-started final validation C_lat: mean={mean:.4f} "
        f"band=[{mn:.4f}, {mx:.4f}] -> {out_dir}"
    )
    return 0


def cmd_baseline(args) -> int:
    config = _load_with_overrides(args)
    logs = run_baseline_suite(config, args.objective)
    rates = [float(np.mean(log["violated"])) for _, _, log in logs]
    out_dir = _resolve_output(args.output or config.run.output_dir)
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
    skeletons = enumerate_configs(args.cuts)
    by_kind = {"full": 0, "single": 0, "double": 0}
    for s in skeletons:
        if s.category.startswith("full"):
            by_kind["full"] += 1
        elif s.category == "sew-phone-cloud":
            by_kind["double"] += 1
        else:
            by_kind["single"] += 1
    print(len(skeletons))
    print(
        f"full-device={by_kind['full']} single-split={by_kind['single']} "
        f"double-split={by_kind['double']} (cuts={args.cuts})"
    )
    return 0


def cmd_profile(args) -> int:
    if args.profile_command == "synth":
        config = load_config(args.config) if args.config else ExperimentConfig()
        scenario = build_scenario(config)
        save_profile(scenario.profile, args.out)
        print(f"wrote {scenario.profile.n_configs} configs to {args.out}")
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
        wifi = synthesize_trace(config.traces.wifi_spec(), seed=config.traces.trace_seed)
        fiveg = synthesize_trace(config.traces.fiveg_spec(), seed=config.traces.trace_seed + 1)
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
    curves = []
    steps = None
    for entry in sorted(os.listdir(args.run_dir)):
        path = os.path.join(args.run_dir, entry, "run_validation.csv")
        if not os.path.isfile(path):
            continue
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        curves.append(data[:, 1])
        steps = data[:, 0].astype(np.int64) if steps is None else steps
    if not curves:
        print(f"no run_validation.csv files under {args.run_dir}", file=sys.stderr)
        return 2
    n = min(c.size for c in curves)
    mean, mn, mx = band([c[:n] for c in curves])
    out = args.out or os.path.join(args.run_dir, "validation_band.csv")
    write_csv(out, "x,mean,min,max", zip(steps[:n], mean, mn, mx))
    print(f"band over {len(curves)} runs -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpart",
        description="Federated DQN training for runtime DNN partition offloading",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run seeded training repetitions")
    _add_common_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_transfer = sub.add_parser("transfer", help="warm-start training from a checkpoint")
    _add_common_train_flags(p_transfer)
    p_transfer.add_argument("--checkpoint", required=True)
    p_transfer.set_defaults(func=cmd_transfer)

    p_base = sub.add_parser("baseline", help="run the Neurosurgeon baseline")
    _add_common_train_flags(p_base)
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
    except (ConfigError, ProfileError, TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
