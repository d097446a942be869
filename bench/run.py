"""Benchmark of the fedpart trainer and simulator.

Usage (from the repository root):

    python3 bench/run.py --workload fed-sync --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 25 --trace 1

Each workload repeats one fixed ``fedpart`` command line, generated from the
seed, through ``fedpart.cli.main`` for about ``--seconds``, and checks every
repetition's artifacts. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` first repeats the workload untraced for a
third of the time, then with per-call spans for the rest, and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object. The exit code is 1 when a correctness
check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from probes import Instrumentation, Recorder, summarize

ROOT = Path(__file__).resolve().parent.parent
fedpart_cli = None  # set by import_fedpart
WORK_EVENTS = ("agent.phase", "baseline.episode")


@dataclass(frozen=True)
class Workload:
    """One fedpart command line, repeated for the length of a run."""

    name: str
    command: str  # "train" or "baseline"
    agents: int
    steps: int  # decisions per agent per invocation
    mode: str = "sync"
    freq_updates: int = 1
    workers: int = 1
    proportion_slow: float = 0.0
    max_delay_slow: float = 0.0
    identity_check: bool = False  # also run IDENTITY_CHECK after the timed part
    baseline_check: bool = False  # also run BASELINE_CHECK after the timed part

    def invocations(self, seed: int, out: Path) -> list[list[str]]:
        common = [
            "--seed", str(seed), "--runs", "1", "--agents", str(self.agents),
            "--steps-per-agent", str(self.steps), "--output", str(out),
        ]
        if self.command == "baseline":
            return [["baseline", "--objective", o, *common] for o in ("latency", "energy")]
        return [[
            "train", "--mode", self.mode, "--freq-updates", str(self.freq_updates),
            "--workers", str(self.workers),
            "--proportion-slow", repr(self.proportion_slow),
            "--max-delay-slow", repr(self.max_delay_slow), *common,
        ]]


# Paper defaults throughout: 12 cuts, 106 actions, batch 512, Adam. Why each
# workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("single-long", "train", agents=1, steps=3000, mode="single",
                 freq_updates=3000),
        Workload("fed-sync", "train", agents=10, steps=1000, mode="sync", freq_updates=500,
                 identity_check=True, baseline_check=True),
    )
}

# Short async run with stragglers, compared at workers=1 and workers=2: final
# weights and cost logs must be bit-identical. It is not timed: with the
# default BLAS threads, forked workers oversubscribe the cores and a round's
# wall time swings several-fold from run to run.
IDENTITY_CHECK = Workload(
    "async-identity", "train", agents=3, steps=600, mode="async",
    freq_updates=300, proportion_slow=0.34, max_delay_slow=0.5,
)

# Neurosurgeon baseline for both objectives, run once untraced and, in a
# traced run, once traced: its artifacts are checked and its spans and
# decision rate feed the baseline layer's metrics. It is not timed end to
# end: it is pure Python, whose speed on a shared host drifts by a quarter
# or more between minutes, so no bound on its decision rate could hold.
BASELINE_CHECK = Workload("baseline-check", "baseline", agents=3, steps=2000)


# -- machine record ---------------------------------------------------------


def blas_threads() -> str:
    """Thread count reported by NumPy's bundled OpenBLAS, queried read-only."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    prefixes = ("OPENBLAS", "OMP_", "MKL_", "BLIS_", "GOTO", "VECLIB", "NUMEXPR")
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.startswith(prefixes)},
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(),
    }


# -- one repetition ---------------------------------------------------------


@dataclass
class Rep:
    """Measurements and check results of one repetition of a workload."""

    wall_s: float = 0.0
    setups: list = field(default_factory=list)
    # (wall seconds, work units) of each round that trains, or of each
    # baseline episode; units are gradient updates or baseline decisions.
    rounds: list = field(default_factory=list)
    ipc: list = field(default_factory=list)
    idle: list = field(default_factory=list)
    events: list = field(default_factory=list)
    durations: dict = field(default_factory=dict)
    self_time: dict = field(default_factory=dict)
    health: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digest: str = ""
    c_lat: float = float("nan")


def invoke(argv: list[str]) -> tuple[float, float, str | None]:
    """Run one fedpart command line in this process; never raises."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = fedpart_cli.main(argv)
        if code != 0:
            error = f"fedpart {' '.join(argv[:1])} exited with {code}"
    except Exception:
        error = traceback.format_exc(limit=4)
    return t0, time.perf_counter(), error


def analyse_invocation(rep: Rep, data: dict, t0: float) -> None:
    """Fold one invocation's events into ``rep``: set-up, rounds, ops, IPC."""
    events = sorted(data["events"], key=lambda e: e[2])
    work = [e for e in events if e[0] in WORK_EVENTS]
    for name, _, _, _, info in work:
        rep.attempted += 1
        bad = info.get("error") or not info.get("finite", True) or (
            name == "baseline.episode" and info.get("rows") != info["steps"]
        )
        if bad:
            rep.failures.append(f"{name}: {info}")
    if not work:
        return
    first = work[0][2]
    rep.setups.append(first - t0)
    episodes = [e for e in work if e[0] == "baseline.episode"]
    rep.rounds += [(e[3] - e[2], e[4]["steps"]) for e in episodes]

    # A round ends with its sync (or fast-group) mean and any slow folds.
    groups = []
    for e in events:
        if e[0] == "federation.aggregate_mean":
            groups.append([e])
        elif e[0] == "federation.aggregate_incremental" and groups:
            groups[-1].append(e)
    phases = [e for e in work if e[0] == "agent.phase"]
    pids = sorted({e[1] for e in phases})
    start = first
    for group in groups:
        agg_start, end = group[0][2], group[-1][3]
        inside = [e for e in phases if start <= e[2] < agg_start]
        busy = {pid: sum(e[3] - e[2] for e in inside if e[1] == pid) for pid in pids}
        window = agg_start - start
        if window > 0:
            rep.ipc.append(window - max(busy.values()))
            rep.idle.append(sum(window - b for b in busy.values()) / (len(pids) * window))
        updates = sum(e[4]["updates"] for e in inside)
        if updates > 0:
            rep.rounds.append((end - start, updates))
        start = end


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_artifacts(w: Workload, seed: int, out: Path, rep: Rep) -> None:
    """Check one repetition's files; set its c_lat and content digest."""
    problems = rep.problems
    digest = hashlib.sha256()
    if w.command == "baseline":
        rates = []
        for objective in ("latency", "energy"):
            path = out / f"baseline_{objective}.csv"
            if not path.is_file():
                problems.append(f"missing {path.name}")
                continue
            rows = read_csv(path)
            if len(rows) != w.agents:
                problems.append(f"{path.name}: {len(rows)} rows, expected {w.agents}")
            for row in rows:
                rate = float(row["violation_rate"])
                if not 0.0 <= rate <= 1.0:
                    problems.append(f"{path.name}: violation rate {rate} outside [0, 1]")
                if not np.isfinite([float(row["mean_e_sew"]), float(row["mean_e_phone"])]).all():
                    problems.append(f"{path.name}: non-finite mean energy")
                rates.append(rate)
            digest.update(path.read_bytes())
        rep.c_lat = float(np.mean(rates)) if rates else float("nan")
        rep.digest = digest.hexdigest()
        return

    run_dir = out / f"run_{seed}"
    needed = ["final_weights.txt", "schedule.csv", "run_validation.csv"]
    needed += [f"agent_{m}.steps.csv" for m in range(w.agents)]
    missing = [n for n in needed if not (run_dir / n).is_file()]
    if missing:
        problems.append(f"missing artifacts: {', '.join(missing)}")
        return
    weights = np.loadtxt(run_dir / "final_weights.txt")
    if weights.size == 0 or not np.isfinite(weights).all():
        problems.append("final weights are empty or not finite")
    schedule = read_csv(run_dir / "schedule.csv")
    iterations = max(1, w.steps // w.freq_updates)
    if len(schedule) != iterations * w.agents:
        problems.append(f"schedule.csv: {len(schedule)} rows, expected {iterations * w.agents}")
    for m in range(w.agents):
        scheduled = sum(int(r["steps"]) for r in schedule if int(r["agent"]) == m)
        if w.mode != "async" and scheduled != w.steps:
            problems.append(f"agent {m}: {scheduled} scheduled steps, expected {w.steps}")
        rows = len(read_csv(run_dir / f"agent_{m}.steps.csv"))
        if rows != scheduled:
            problems.append(f"agent_{m}.steps.csv: {rows} rows, expected {scheduled}")
    curve = read_csv(run_dir / "run_validation.csv")
    rep.c_lat = float(curve[-1]["c_lat"]) if curve else float("nan")
    if not 0.0 <= rep.c_lat <= 1.0:
        problems.append(f"c_lat {rep.c_lat} outside [0, 1]")
    for name in sorted(os.listdir(run_dir)):
        if name != "manifest.ini":
            digest.update(name.encode() + (run_dir / name).read_bytes())
    rep.digest = digest.hexdigest()


def run_rep(w: Workload, seed: int, out: Path, rec: Recorder) -> Rep:
    shutil.rmtree(out, ignore_errors=True)
    rep = Rep()
    for argv in w.invocations(seed, out):
        t0, t1, error = invoke(argv)
        rep.wall_s += t1 - t0
        data = rec.take()
        failed_before = len(rep.failures)
        analyse_invocation(rep, data, t0)
        rep.events.extend(data["events"])
        rep.health.extend(data["health"])
        for name, values in data["durations"].items():
            rep.durations.setdefault(name, []).extend(values)
            rep.self_time[name] = rep.self_time.get(name, 0.0) + data["self_time"][name]
        if error is not None:
            rep.problems.append(f"invocation failed: {error.strip().splitlines()[-1]}")
            if len(rep.failures) == failed_before:  # failed outside any operation
                rep.attempted += 1
                rep.failures.append(error)
    if not rep.problems:
        check_artifacts(w, seed, out, rep)
    return rep


def run_reps(w: Workload, seed: int, out: Path, rec: Recorder, traced: bool,
             budget_s: float) -> list[Rep]:
    """Repeat the workload while the next repetition would end within half
    a repetition of ``budget_s``; always at least once.
    """
    reps = []
    start = time.perf_counter()
    with Instrumentation(rec, traced):
        while True:
            reps.append(run_rep(w, seed, out, rec))
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * statistics.median(r.wall_s for r in reps) > budget_s:
                return reps


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def identity_check(seed: int, out: Path, rec: Recorder) -> tuple[list[str], Rep]:
    """Final weights and cost logs must not depend on the worker count.

    Also returns the events of the run at workers=2, the only run with a
    worker pool, from which the IPC and idle metrics are taken.
    """
    files, pool = {}, Rep()
    with Instrumentation(rec, traced=False):
        for workers in (1, 2):
            w = replace(IDENTITY_CHECK, workers=workers)
            target = out / f"identity-w{workers}"
            t0, _, error = invoke(w.invocations(seed, target)[0])
            data = rec.take()
            if error is not None:
                return [f"identity run at workers={workers} failed: "
                        f"{error.strip().splitlines()[-1]}"], pool
            if workers == 2:
                analyse_invocation(pool, data, t0)
            files[workers] = {
                p.name: p.read_bytes()
                for p in sorted((target / f"run_{seed}").iterdir())
                if p.name == "final_weights.txt" or p.name.endswith(".steps.csv")
            }
    problems = [f"identity run at workers=2: {f}" for f in pool.failures]
    phases = IDENTITY_CHECK.agents * (IDENTITY_CHECK.steps // IDENTITY_CHECK.freq_updates)
    if pool.attempted != phases:
        problems.append(f"pool workers reported {pool.attempted} phases, expected {phases}")
    if not files[1] or files[1] != files[2]:
        problems.append("final weights or cost logs differ between workers=1 and workers=2")
    return problems, pool


def baseline_check(seed: int, out: Path, rec: Recorder,
                   trace: bool) -> tuple[list[str], list[Rep]]:
    """Run BASELINE_CHECK untraced and, when ``trace``, traced; check both."""
    reps = []
    for traced in (False, True) if trace else (False,):
        with Instrumentation(rec, traced):
            reps.append(run_rep(BASELINE_CHECK, seed, out / BASELINE_CHECK.name, rec))
    problems = [f"baseline check: {p}" for rep in reps for p in rep.problems + rep.failures]
    if len({rep.digest for rep in reps}) > 1:
        problems.append("baseline check: traced and untraced runs produced different artifacts")
    return problems, reps


# -- metrics ------------------------------------------------------------------


def describe(values, scale: float, unit: str) -> str:
    """Sample count, median and the tail percentile the rule allows."""
    s = summarize(values)
    text = f"n={s['n']} p50={s['p50'] * scale:.6g}{unit}"
    if s["tail_p"] not in (None, 50.0):
        text += f" p{s['tail_p']:g}={s['tail'] * scale:.6g}{unit}"
    return text


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(reps: list[Rep], import_s: float) -> dict:
    rounds = [r for rep in reps for r in rep.rounds]
    setups = [s for rep in reps for s in rep.setups]
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "setup_s": (import_s + median_or_zero(setups), "s"),
        "steps_per_s": (median_or_zero([units / wall for wall, units in rounds]), "steps/s"),
        "round_s.p50": (median_or_zero([wall for wall, _ in rounds]), "s"),
        "wall_s": (median_or_zero([rep.wall_s for rep in reps]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# Spans reported per layer, and whether their tail (p99) is reported too.
SPAN_METRICS = (
    ("network.adam_step", True),
    ("network.target_forward", True),
    ("network.online_forward", True),
    ("network.backward", True),
    ("network.single_forward", False),
    ("agent.select_action", False),
    ("agent.replay_sample", False),
    ("agent.replay_push", False),
    ("env.step", True),
    ("env.observe", False),
    ("traces.next_window", False),
)

# Layer self-time shares: spans whose names start with the layer's prefix.
SHARE_LAYERS = ("network", "env", "traces")
ROOT_SPANS = ("agent.phase", "agent.finalize")


def baseline_layer(sweep: list[Rep]) -> tuple[dict, list]:
    """Metrics of the baseline layer, from the runs of ``baseline_check``.

    The decision rate comes from the untraced run, spans from the traced one.
    """
    rates = [units / wall for wall, units in sweep[0].rounds] if sweep else []
    traced = sweep[1] if len(sweep) > 1 else Rep()
    select = traced.durations.get("baseline.select", [])
    episodes_s = sum(traced.durations.get("baseline.episode", []))
    own = sum(t for name, t in traced.self_time.items() if name.split(".")[0] == "baseline")
    metrics = {
        "baseline.env_steps_per_s": (median_or_zero(rates), "steps/s"),
        "baseline.select.p50_us": (summarize(select)["p50"] * 1e6, "us"),
        "baseline.self_share": (own / episodes_s if episodes_s > 0 else 0.0, "ratio"),
    }
    notes = [f"baseline.select: {describe(select, 1e6, 'us')} over the baseline check",
             f"baseline.episode decisions/s: {describe(rates, 1.0, '')} untraced"]
    return metrics, notes


def per_layer(plain: list[Rep], traced: list[Rep], plain_cpu_s: float,
              pool: Rep | None, sweep: list[Rep]) -> tuple[dict, list]:
    """Per-layer metrics and the human-readable lines that explain them.

    Spans come from the traced repetitions, coarse events from the untraced
    ones, IPC from ``pool``, the run with worker processes, and the baseline
    layer from ``sweep``, the runs of the baseline check; each may be absent.
    """
    metrics, notes = {}, []
    durations, self_time = {}, {}
    for rep in traced:
        for name, values in rep.durations.items():
            durations.setdefault(name, []).extend(values)
            self_time[name] = self_time.get(name, 0.0) + rep.self_time[name]

    for name, with_tail in SPAN_METRICS:
        values = durations.get(name, [])
        notes.append(f"{name}: {describe(values, 1e6, 'us')}")
        s = summarize(values, highest=99.0)
        metrics[f"{name}.p50_us"] = (s["p50"] * 1e6, "us")
        if with_tail:
            metrics[f"{name}.p99_us"] = (s["tail"] * 1e6, "us")
            if s["n"] and s["tail_p"] != 99.0:
                notes.append(f"{name}.p99_us holds p{s['tail_p']:g}: too few samples for p99")

    root_s = sum(sum(durations.get(name, [])) for name in ROOT_SPANS)

    def share(value: float) -> float:
        return value / root_s if root_s > 0 else 0.0

    metrics["agent.train_step.self_share"] = (share(self_time.get("agent.train_step", 0.0)), "ratio")
    metrics["agent.validation.share"] = (share(sum(durations.get("agent.validation", []))), "ratio")
    for layer in SHARE_LAYERS:
        own = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = (share(own), "ratio")

    health = traced[-1].health if traced else []

    def ratio(num: str, den: str) -> float:
        d = sum(h[den] for h in health)
        return sum(h[num] for h in health) / d if d else 0.0

    metrics["network.adam_m_subnormal_frac"] = (ratio("adam_m_subnormal", "adam_m_size"), "ratio")
    metrics["network.dead_relu_frac"] = (ratio("dead_units", "hidden_units"), "ratio")
    metrics["agent.updates_per_step"] = (ratio("grad_updates", "total_steps"), "ratio")
    metrics["agent.distinct_greedy_actions"] = (
        float(np.mean([h["distinct_greedy_actions"] for h in health])) if health else 0.0, "count")

    # Coarse events come from the untraced repetitions of this run.
    def event_durations(name: str) -> list:
        return [e[3] - e[2] for rep in plain for e in rep.events if e[0] == name]

    metrics["federation.ipc.p50_ms"] = (median_or_zero(pool.ipc if pool else []) * 1e3, "ms")
    metrics["federation.worker_idle_frac"] = (median_or_zero(pool.idle if pool else []), "ratio")
    if pool:
        notes.append(f"federation.ipc: {describe(pool.ipc, 1e3, 'ms')} over the workers=2 "
                     f"identity run's rounds")
    plain_wall = sum(r.wall_s for r in plain)
    metrics["host.cpu_per_wall"] = (plain_cpu_s / plain_wall if plain_wall else 0.0, "ratio")
    metrics["federation.aggregate.p50_ms"] = (median_or_zero(
        event_durations("federation.aggregate_mean")
        + event_durations("federation.aggregate_incremental")) * 1e3, "ms")
    metrics["runner.build_scenario_ms"] = (
        median_or_zero(event_durations("runner.build_scenario")) * 1e3, "ms")
    metrics["runner.agent_build_ms"] = (
        median_or_zero(event_durations("runner.agent_build")) * 1e3, "ms")
    metrics["runner.write_s"] = (median_or_zero(event_durations("runner.write")), "s")
    plain_wall_med = median_or_zero([r.wall_s for r in plain])
    traced_wall_med = median_or_zero([r.wall_s for r in traced])
    metrics["trace.overhead_frac"] = (
        traced_wall_med / plain_wall_med - 1.0 if plain_wall_med else 0.0, "ratio")
    metrics["c_lat"] = (plain[0].c_lat if plain else float("nan"), "ratio")
    baseline_metrics, baseline_notes = baseline_layer(sweep)
    metrics.update(baseline_metrics)
    return metrics, notes + baseline_notes


# -- one workload ---------------------------------------------------------------


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    lines: list


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 import_s: float) -> Result:
    out = work / w.name
    rec = Recorder(work)
    lines = [f"workload {w.name}"]
    if trace:
        t0, cpu0 = time.perf_counter(), cpu_seconds()
        plain = run_reps(w, seed, out, rec, False, seconds / 3.0)
        plain_cpu = cpu_seconds() - cpu0
        elapsed = time.perf_counter() - t0
        traced = run_reps(w, seed, out, rec, True, seconds - elapsed)
        reps = plain + traced
    else:
        reps = run_reps(w, seed, out, rec, False, seconds)
        # Before the identity check's pool workers add to the peak RSS.
        metrics = end_to_end(reps, import_s)

    problems = [f"rep {i}: {p}" for i, rep in enumerate(reps) for p in rep.problems]
    digests = {rep.digest for rep in reps if rep.digest}
    if len(digests) > 1:
        problems.append("repetitions with the same seed produced different artifacts")
    pool = None
    if w.identity_check:
        identity_problems, pool = identity_check(seed, out, rec)
        problems += identity_problems
    sweep = []
    if w.baseline_check:
        sweep_problems, sweep = baseline_check(seed, out, rec, trace)
        problems += sweep_problems
    if trace:
        metrics, notes = per_layer(plain, traced, plain_cpu, pool, sweep)
        lines += [f"  span {n}" for n in notes]
    failures = [f for rep in reps for f in rep.failures]
    attempted = sum(rep.attempted for rep in reps)

    rounds = [r for rep in reps for r in rep.rounds]
    lines.append(f"  repetitions={len(reps)} rounds_timed={len(rounds)} "
                 f"setups={sum(len(r.setups) for r in reps)} import_s={import_s:.4f}")
    lines.append("  repetition wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in reps))
    if rounds:
        lines.append(f"  round_s: {describe([wall for wall, _ in rounds], 1.0, 's')}")
    lines.append("  steps_per_s is train_steps_per_s")
    lines.append(f"  c_lat={reps[0].c_lat:.4f} ratio (final validation violation rate)")
    if sweep:
        lines.append(f"  baseline check c_lat={sweep[0].c_lat:.4f} ratio "
                     f"(violation rate of baseline decisions)")
    lines.append(f"  ops_failed_frac={len(failures) / max(attempted, 1):.4f} ratio "
                 f"({len(failures)} of {attempted} operations)")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key} = {value:.6g} {unit}")
    lines += [f"  FAILED op: {f.strip().splitlines()[-1]}" for f in failures]
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    return Result(metrics, attempted, len(failures), problems, lines)


# -- entry point --------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fedpart() -> bool:
    """Import the program from this checkout's sources.

    Returns False, with a message on stderr, when the sources are missing.
    """
    global fedpart_cli
    src = ROOT / "src"
    if not (src / "fedpart" / "cli.py").is_file():
        print(f"error: no fedpart sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import fedpart.cli as fedpart_cli

    if Path(fedpart_cli.__file__).resolve().parent != (src / "fedpart").resolve():
        print(f"error: fedpart imported from {fedpart_cli.__file__}, not {src}", file=sys.stderr)
        return False
    return True


# A single import's time swings by a third from run to run; the median of
# several, in fresh interpreters after the first import wrote the bytecode
# caches, is steady.
IMPORT_SAMPLES = 7
IMPORT_PROGRAM = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import fedpart.cli; print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Median time to import ``fedpart.cli`` in a fresh interpreter with NumPy loaded."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_fedpart():
        return 2
    import_s = import_seconds()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    work = ROOT / ".bench_out" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), work, import_s)
            print("\n".join(results[name].lines), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    metrics = {}
    for name, result in results.items():
        for key, (value, unit) in result.metrics.items():
            full = key if len(results) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": unit}
    correct = all(not r.problems and not r.failed for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
