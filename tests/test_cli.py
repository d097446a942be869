import numpy as np

from fedpart import cli
from fedpart.agent import AgentSettings
from fedpart.config import ExperimentConfig
from fedpart.network import load_checkpoint
from fedpart.traces import load_trace, synthesize_trace


def _synth(tmp_path):
    wifi, fiveg = tmp_path / "wifi.trace", tmp_path / "fiveg.trace"
    argv = ["traces", "synth", "--wifi-out", str(wifi), "--fiveg-out", str(fiveg)]
    assert cli.main(argv) == 0
    return wifi, fiveg


class TestTracesCommand:
    def test_synth_files_load_back_exactly(self, tmp_path):
        wifi, fiveg = _synth(tmp_path)
        traces = ExperimentConfig().traces
        for path, spec, seed in (
            (wifi, traces.wifi_spec(), traces.trace_seed),
            (fiveg, traces.fiveg_spec(), traces.trace_seed + 1),
        ):
            expected = synthesize_trace(spec, seed=seed)
            loaded = load_trace(path)
            assert np.array_equal(loaded.samples, expected.samples)
            assert loaded.granularity_ms == expected.granularity_ms

    def test_stats_prints_plain_numbers(self, tmp_path, capsys):
        wifi, _ = _synth(tmp_path)
        capsys.readouterr()
        assert cli.main(["traces", "stats", str(wifi)]) == 0
        fields = dict(
            item.split("=", 1) for item in capsys.readouterr().out.split() if "=" in item
        )
        samples = load_trace(wifi).samples
        assert float(fields["mean"]) == float(samples.mean())
        assert float(fields["var"]) == float(samples.var())
        assert float(fields["min"]) == float(samples.min())
        assert float(fields["max"]) == float(samples.max())


class TestTrainTransfer:
    def test_transfer_reads_the_checkpoint_train_writes(self, tmp_path):
        tiny = ["--runs", "1", "--agents", "1", "--mode", "single"]
        trained = tmp_path / "trained"
        argv = ["train", *tiny, "--seed", "4", "--steps-per-agent", "40",
                "--freq-updates", "40", "--output", str(trained)]
        assert cli.main(argv) == 0
        ckpt = trained / "run_4" / "final_weights.ckpt"
        dims, weights = load_checkpoint(ckpt)
        assert dims == (5, *AgentSettings().hidden, 106)
        assert np.array_equal(weights, np.loadtxt(trained / "run_4" / "final_weights.txt"))

        # Zero steps under another seed: the warm-started run ends on the
        # checkpoint's weights, not on ones drawn from its own seed.
        moved = tmp_path / "moved"
        argv = ["transfer", *tiny, "--seed", "9", "--steps-per-agent", "0",
                "--checkpoint", str(ckpt), "--output", str(moved)]
        assert cli.main(argv) == 0
        assert (moved / "run_9" / "final_weights.ckpt").read_bytes() == ckpt.read_bytes()
