import numpy as np
import pytest

from fedpart import cli, runner
from fedpart.baseline import run_baseline
from fedpart.config import apply_overrides, parse_config
from fedpart.federation import derive_seed_sequences

TINY_INI = """\
[profile]
cut_points = 2

[agent]
hidden = 4
dropout_rates = 0.1
batch_size = 8
"""


@pytest.mark.parametrize("objective", ("latency", "energy"))
def test_baseline_replays_each_agents_training_env(objective):
    config = apply_overrides(
        parse_config(TINY_INI), run__n_runs=2, federation__agents=3,
        federation__steps_per_agent=40, federation__freq_updates=20,
    )
    logs = runner.run_baseline_suite(config, objective)
    assert [(seed, m) for seed, m, _ in logs] == [
        (seed, m) for seed in runner.master_seeds(config) for m in range(3)
    ]
    builder = runner.AgentBuilder(runner.build_scenario(config))
    for seed, m, log in logs:
        agent_seqs, _, _ = derive_seed_sequences(config.federation, seed)
        env = builder.build(m, agent_seqs[m]).env
        assert np.array_equal(log, run_baseline(env, objective, 40))


def test_an_experiment_builds_its_scenario_once(tmp_path, monkeypatch):
    calls = []
    build = runner.build_scenario

    def counting(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(runner, "build_scenario", counting)
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI, encoding="utf-8")
    common = ["--config", str(ini), "--seed", "3", "--agents", "2",
              "--steps-per-agent", "20", "--freq-updates", "20"]
    trained = tmp_path / "trained"
    assert cli.main(["train", *common, "--runs", "3", "--output", str(trained)]) == 0
    assert len(calls) == 1

    ckpt = trained / "run_3" / "final_weights.ckpt"
    argv = ["transfer", *common, "--runs", "2", "--checkpoint", str(ckpt),
            "--output", str(tmp_path / "moved")]
    assert cli.main(argv) == 0
    assert len(calls) == 2


def test_schedule_csv_holds_the_runs_schedule_rows(tmp_path):
    config = apply_overrides(
        parse_config(TINY_INI), run__n_runs=1, federation__mode="async", federation__agents=3,
        federation__proportion_slow=0.34, federation__max_delay_slow=0.5,
        federation__steps_per_agent=40, federation__freq_updates=20,
    )
    experiment = runner.run_experiment(config)
    runner.write_experiment(config, experiment, tmp_path)
    [(seed, run)] = experiment.runs.items()
    assert {row.role for row in run.schedule_rows} == {"fast", "slow"}
    written = (tmp_path / f"run_{seed}" / "schedule.csv").read_text(encoding="utf-8")
    assert written.splitlines()[0] == "iteration,agent,role,steps,agg_index"
    expected = tmp_path / "expected.csv"
    runner.write_csv(expected, "iteration,agent,role,steps,agg_index", run.schedule_rows)
    assert written == expected.read_text(encoding="utf-8")
