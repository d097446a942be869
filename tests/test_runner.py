import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from fedpart import cli, runner
from fedpart.baseline import run_baseline
from fedpart.config import apply_overrides, parse_config
from fedpart.env import cost_scales
from fedpart.federation import derive_seed_sequences
from fedpart.network import QNetwork, expected_weight_count, load_checkpoint
from fedpart.profiles import ApplicationProfile
from fedpart.traces import PerturbedReplay

TINY_INI = """\
[profile]
cut_points = 2

[agent]
hidden = 4
dropout_rates = 0.1
batch_size = 8
"""


# Every [devices], [bounds] and [cost] value here differs from its default.
WIRING_INI = TINY_INI + """
[devices]
z_sew = 0.002
z_phone = 0.0009
theta_sew = 6.0
theta_phone = 3.0

[bounds]
wifi = 400.0
fiveg = 200.0
l_sew = 500.0
l_phone = 70.0
l_cloud = 40.0

[cost]
w_sew = 0.1
w_lat = 0.85
w_rcfg = 0.03
alpha = 2.0
g = 0.2
lambda_fps = 2.0
tau_normal = 8.0
tau_fast = 2.0
l_max = 300.0
"""


@pytest.mark.parametrize("inputs", [
    {"noise_rel": 0.25},
    {"shift": False},
    {"inversion": False},
    {"floor_frac": 0.02},
])
def test_scenario_env_takes_every_setting_from_the_config(inputs):
    """Each [inputs] key set alone away from its default reaches the replays
    or the floors, so swapping two of them in the wiring fails here."""
    config = apply_overrides(
        parse_config(WIRING_INI), **{f"inputs__{key}": v for key, v in inputs.items()}
    )
    scenario = runner.build_scenario(config)
    env = scenario.env(np.random.SeedSequence(3))
    settings = config.inputs
    for replay, base in ((env.wifi_replay, scenario.wifi_trace),
                         (env.fiveg_replay, scenario.fiveg_trace)):
        assert replay.base is base
        assert (replay.noise_rel, replay.shift_enabled, replay.inversion_enabled) == (
            settings.noise_rel, settings.shift, settings.inversion
        )
    assert env.wifi_floor == settings.floor_frac * config.bounds.wifi
    assert env.fiveg_floor == settings.floor_frac * config.bounds.fiveg
    assert env.profile is scenario.profile
    assert env.devices == config.devices
    assert env.bounds == config.bounds
    assert env.weights is config.cost
    assert env.scales == cost_scales(
        config.cost, scenario.profile, config.devices,
        settings.floor_frac * config.bounds.wifi, settings.floor_frac * config.bounds.fiveg,
    )


def test_scenario_env_spawns_wifi_fiveg_and_cloud_streams_in_that_order():
    scenario = runner.build_scenario(parse_config(TINY_INI))
    env = scenario.env(np.random.SeedSequence(3))
    inputs = scenario.config.inputs
    wifi_seq, fiveg_seq, cloud_seq = np.random.SeedSequence(3).spawn(3)
    for replay, base, seq in ((env.wifi_replay, scenario.wifi_trace, wifi_seq),
                              (env.fiveg_replay, scenario.fiveg_trace, fiveg_seq)):
        twin = PerturbedReplay(base, seq, inputs.noise_rel, inputs.shift, inputs.inversion)
        twin.next_window(1)  # the one the env's reset took
        n = 2 * base.samples.size  # two passes, two sets of pass draws
        assert [replay.next_window(1) for _ in range(n)] == [twin.next_window(1) for _ in range(n)]
    assert env.cloud_rng.random(8).tolist() == np.random.default_rng(cloud_seq).random(8).tolist()


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
    builder = runner.build_scenario(config)
    for seed, m, log in logs:
        agent_seqs, _, _ = derive_seed_sequences(config.federation, seed)
        env = builder.env(agent_seqs[m].spawn(3)[0])  # the agent's training-env stream
        assert np.array_equal(log, run_baseline(env, objective, 40))


def test_agents_and_initial_weights_share_the_checkpoint_dims():
    config = parse_config(TINY_INI)
    builder = runner.build_scenario(config)
    weights = builder.initial_weights(np.random.SeedSequence(4))
    assert weights.dtype == np.float64
    assert weights.size == expected_weight_count(builder.dims())
    assert builder.build(0, np.random.SeedSequence(4)).net.dims == builder.dims()
    assert config.agent.dims(builder.profile.n_configs + 1) == builder.dims()


PHASE_INI = """\
[profile]
cut_points = 2

[agent]
hidden = 64, 64, 32
dropout_rates = 0.2, 0.1, 0.0
batch_size = 32
"""


def test_only_the_training_agent_holds_a_batchs_scratch_buffers():
    builder = runner.build_scenario(parse_config(PHASE_INI))
    agents = [builder.build(m, seq) for m, seq in enumerate(np.random.SeedSequence(3).spawn(3))]
    dims, settings = builder.dims(), agents[0].settings
    itemsize = np.dtype(settings.dtype).itemsize
    # One batch's set: z and g per layer, a ReLU mask and a dropout buffer per hidden layer.
    scratch_set = settings.batch_size * (
        2 * itemsize * sum(dims[1:]) + (1 + itemsize) * sum(dims[1:-1])
    )
    held = []
    tracemalloc.start()
    try:
        for agent in agents:
            agent.run_training_phase(settings.batch_size + 8)
            snapshot = tracemalloc.take_snapshot()
            held.append(sum(stat.size for stat in snapshot.statistics("filename")))
            del snapshot
    finally:
        tracemalloc.stop()
    assert all(agent.grad_updates == 9 for agent in agents)
    growth = np.diff(held)
    assert (growth < scratch_set).all(), (growth.tolist(), scratch_set)


INVENTORY_INI = """\
[profile]
cut_points = 2

[agent]
dropout_rates = 0.2, 0.1, 0.0
batch_size = 32
buffer_capacity = 1000
"""


def test_an_idle_agent_holds_its_buffer_log_weights_and_moments_only():
    """After a phase an agent holds no gradient, Adam work array or trace copy.

    What else it holds (envs, generators, the probe's lists) fits in the
    slack, which is under half of one weight vector at these widths.
    """
    builder = runner.build_scenario(parse_config(INVENTORY_INI))
    tracemalloc.start()
    try:
        agent = builder.build(0, np.random.SeedSequence(3))
        agent.run_training_phase(agent.settings.batch_size + 8)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.statistics("filename"))
    assert agent.grad_updates == 9
    buffer = agent.buffer
    own = [buffer.states, buffer.actions, buffer.rewards, buffer.next_states, buffer.next_q,
           buffer.stale, agent.log, agent.net.flat, agent.target_net.flat,
           agent.optimizer.m, agent.optimizer.v]
    slack = 32 * 1024
    assert slack < agent.net.flat.nbytes / 2
    assert held <= sum(a.nbytes for a in own) + slack, (held, [a.nbytes for a in own])


def run_keeping_results(config, out_dir, monkeypatch) -> dict:
    """Run and write ``config``'s experiment under ``out_dir``; return each
    seed's ``FederationResult`` as ``run_federation`` gave it to the writer."""
    results = {}
    federate = runner.run_federation

    def keeping(federation, builder, seed, *args):
        results[seed] = federate(federation, builder, seed, *args)
        return results[seed]

    monkeypatch.setattr(runner, "run_federation", keeping)
    runner.run_experiment(config, None, out_dir)
    runner.write_experiment(config, out_dir)
    return results


def test_a_network_of_a_written_checkpoints_dims_takes_its_weights(tmp_path, monkeypatch):
    config = apply_overrides(
        parse_config(TINY_INI), run__n_runs=1, federation__agents=2,
        federation__steps_per_agent=20, federation__freq_updates=20,
    )
    [(seed, run)] = run_keeping_results(config, tmp_path, monkeypatch).items()
    dims, weights = load_checkpoint(tmp_path / f"run_{seed}" / "final_weights.ckpt")
    net = QNetwork(
        dims, config.agent.dropout_rates, rng=np.random.default_rng(0), dtype=np.float64
    )
    net.set_weights(weights)
    assert np.array_equal(net.get_weights(), run.final_weights)


def test_no_run_outlives_its_write(tmp_path, monkeypatch):
    """Each run's directory is written as the run ends, and the master keeps
    none of its step logs while the next run trains."""
    config = apply_overrides(
        parse_config(TINY_INI), run__n_runs=3, federation__agents=2,
        federation__steps_per_agent=20, federation__freq_updates=20,
    )
    logs, alive, written = [], [], []
    federate = runner.run_federation

    def watching(federation, builder, seed, *args):
        gc.collect()
        alive.append([ref() is not None for ref in logs])
        written.append(sorted(p.name for p in tmp_path.iterdir()))
        result = federate(federation, builder, seed, *args)
        logs.append(weakref.ref(result.agent_logs[0].steps))
        return result

    monkeypatch.setattr(runner, "run_federation", watching)
    runner.run_experiment(config, None, tmp_path)
    assert alive == [[], [False], [False, False]]
    assert written == [[], ["run_1000"], ["run_1000", "run_1001"]]


def test_a_stale_run_directory_stays_out_of_the_band(tmp_path):
    """A ``run_<seed>`` left by an earlier experiment with other seeds is not
    one of this experiment's runs."""
    base = apply_overrides(
        parse_config(TINY_INI), run__n_runs=2, federation__agents=2,
        federation__steps_per_agent=40, federation__freq_updates=20,
    )

    def experiment(out_dir, seed):
        config = apply_overrides(base, run__base_seed=seed)
        runner.run_experiment(config, None, out_dir)
        runner.write_experiment(config, out_dir)

    experiment(tmp_path / "reused", 9)
    experiment(tmp_path / "reused", 3)
    experiment(tmp_path / "fresh", 3)
    assert (tmp_path / "reused" / "run_9" / "run_validation.csv").is_file()
    for name in ("validation_band.csv", "summary.txt"):
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


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


def test_an_experiment_validates_its_profile_once(tmp_path, monkeypatch):
    """Synthesis validates the profile; the six envs of three agents do not again."""
    calls = []
    validate = ApplicationProfile.validate

    def counting(profile):
        calls.append(profile)
        validate(profile)

    monkeypatch.setattr(ApplicationProfile, "validate", counting)
    config = apply_overrides(
        parse_config(TINY_INI), run__n_runs=1, federation__agents=3,
        federation__steps_per_agent=20, federation__freq_updates=20,
    )
    runner.run_experiment(config, None, tmp_path)
    assert len(calls) == 1


def test_schedule_csv_holds_the_runs_schedule_rows(tmp_path, monkeypatch):
    config = apply_overrides(
        parse_config(TINY_INI), run__n_runs=1, federation__mode="async", federation__agents=3,
        federation__proportion_slow=0.34, federation__max_delay_slow=0.5,
        federation__steps_per_agent=40, federation__freq_updates=20,
    )
    [(seed, run)] = run_keeping_results(config, tmp_path, monkeypatch).items()
    assert {row.role for row in run.schedule_rows} == {"fast", "slow"}
    written = (tmp_path / f"run_{seed}" / "schedule.csv").read_text(encoding="utf-8")
    assert written.splitlines()[0] == "iteration,agent,role,steps,agg_index"
    expected = tmp_path / "expected.csv"
    runner.write_csv(expected, "iteration,agent,role,steps,agg_index", run.schedule_rows)
    assert written == expected.read_text(encoding="utf-8")
