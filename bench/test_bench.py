"""Tests of the benchmark itself: span arithmetic, the percentile rule, and
a tiny run of every workload. Run from the repository root with

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
from probes import Recorder, span, summarize, tail_percentile

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def fedpart_imported():
    assert run.import_fedpart()


def test_self_time_subtracts_direct_children_only(tmp_path):
    rec = Recorder(tmp_path)
    rec.enter()  # root, 10 s
    rec.enter()  # child, 4 s
    rec.enter()  # grandchild, 1 s
    rec.leave("grandchild", 1.0)
    rec.leave("child", 4.0)
    rec.enter()  # second child, 3 s
    rec.leave("child", 3.0)
    rec.leave("root", 10.0)
    assert rec.self_time == {"grandchild": 1.0, "child": 6.0, "root": 3.0}
    assert list(rec.durations["child"]) == [4.0, 3.0]


def test_span_wrapper_charges_nested_calls_to_the_caller(tmp_path):
    rec = Recorder(tmp_path)
    inner = span(rec, "inner", lambda: sum(range(1000)))
    outer = span(rec, "outer", lambda: [inner() for _ in range(3)])
    outer()
    assert len(rec.durations["inner"]) == 3
    (outer_total,) = rec.durations["outer"]
    assert rec.self_time["outer"] == pytest.approx(outer_total - sum(rec.durations["inner"]))
    assert 0.0 <= rec.self_time["outer"] <= outer_total


def test_worker_spool_is_merged_and_removed(tmp_path):
    rec = Recorder(tmp_path)
    rec.events.append(("agent.phase", 1, 0.0, 1.0, {}))
    rec.enter()
    rec.leave("env.step", 0.5)
    rec.flush_worker()
    rec.enter()
    rec.leave("env.step", 0.25)
    merged = rec.take()
    assert merged["durations"]["env.step"] == [0.25, 0.5]
    assert merged["self_time"]["env.step"] == 0.75
    assert merged["events"] == [("agent.phase", 1, 0.0, 1.0, {})]
    assert not list(tmp_path.glob("worker-*.jsonl"))


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_caps_the_tail_and_handles_no_samples():
    values = np.arange(1, 20001, dtype=float)
    capped = summarize(values, highest=99.0)
    assert capped["tail_p"] == 99.0
    assert capped["tail"] == pytest.approx(np.percentile(values, 99.0))
    assert summarize(values)["tail_p"] == 99.9
    assert summarize([]) == {"n": 0, "p50": 0.0, "tail_p": None, "tail": 0.0}


def test_workloads_match_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]


# Sizes small enough for a test, each still with rounds that train.
TINY = {
    "single-long": dict(steps=600, freq_updates=600),
    "fed-sync": dict(agents=2, steps=600, freq_updates=300),
}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, name, trace, section):
    w = replace(run.WORKLOADS[name], **TINY[name])
    result = run.run_workload(w, seed=5, seconds=0.0, trace=trace, work=tmp_path, import_s=0.0)
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert all(np.isfinite(value) for value, _ in result.metrics.values())
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
    if trace and run.WORKLOADS[name].baseline_check:
        assert all(result.metrics[f"baseline.{m}"][0] > 0
                   for m in ("env_steps_per_s", "select.p50_us", "self_share"))


def test_a_raising_phase_is_counted_and_does_not_abort(tmp_path, monkeypatch):
    from fedpart.agent import DQNAgent

    original = DQNAgent.run_training_phase

    def failing(self, steps):
        original(self, steps)
        if self.total_steps > 300:
            raise FloatingPointError("injected")

    monkeypatch.setattr(DQNAgent, "run_training_phase", failing)
    w = replace(run.WORKLOADS["fed-sync"], agents=2, steps=600, freq_updates=300,
                identity_check=False, baseline_check=False)
    result = run.run_workload(w, seed=5, seconds=0.0, trace=False, work=tmp_path, import_s=0.0)
    # Round 1: two phases; round 2: the first phase raises and ends the run.
    assert (result.failed, result.attempted) == (1, 3)
    assert any("FloatingPointError: injected" in line for line in result.lines)
    assert any("invocation failed" in p for p in result.problems)


def test_non_finite_weights_fail_the_phase_and_the_checks(tmp_path, monkeypatch):
    from fedpart.agent import DQNAgent

    original = DQNAgent.run_training_phase

    def poisoning(self, steps):
        original(self, steps)
        self.net.flat[0] = np.nan

    monkeypatch.setattr(DQNAgent, "run_training_phase", poisoning)
    w = replace(run.WORKLOADS["single-long"], steps=600, freq_updates=600)
    result = run.run_workload(w, seed=5, seconds=0.0, trace=False, work=tmp_path, import_s=0.0)
    assert result.failed == result.attempted == 1
    assert any("not finite" in p for p in result.problems)


def test_a_wrong_length_baseline_log_fails_the_check(tmp_path, monkeypatch):
    from fedpart import runner

    original = runner.run_baseline

    def short(env, objective, steps):
        return original(env, objective, steps - 1)

    monkeypatch.setattr(runner, "run_baseline", short)
    problems, reps = run.baseline_check(seed=5, out=tmp_path, rec=run.Recorder(tmp_path),
                                        trace=False)
    assert len(reps) == 1 and reps[0].attempted == 2 * run.BASELINE_CHECK.agents
    assert any(p.startswith("baseline check: baseline.episode") for p in problems)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fed-sync", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no fedpart sources" in proc.stderr
