from pathlib import Path

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


TINY_INI = """\
[profile]
cut_points = 3

[agent]
hidden = 8,8
dropout = 0.2,0.0
batch_size = 16

[run]
validation_interval = 20
validation_steps = 10
"""


class TestEndToEnd:
    def test_train_report_transfer(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI, encoding="utf-8")
        common = ["--config", str(ini), "--mode", "async", "--agents", "3",
                  "--proportion-slow", "0.34", "--max-delay-slow", "0.5",
                  "--steps-per-agent", "60", "--freq-updates", "20", "--runs", "2", "--seed", "7"]

        def train(name, workers):
            out = tmp_path / name
            assert cli.main(["train", *common, "--workers", str(workers), "--output", str(out)]) == 0
            return out

        def artifacts(out):
            """Every file but manifest.ini, which names the output directory."""
            return {
                p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.is_file() and p.name != "manifest.ini"
            }

        first = artifacts(train("first", workers=1))
        names = {str(p) for p in first}
        for seed in (7, 8):
            assert f"run_{seed}/final_weights.ckpt" in names
            assert {f"run_{seed}/agent_{m}.steps.csv" for m in range(3)} <= names
        assert first == artifacts(train("again", workers=1))
        assert first == artifacts(train("pooled", workers=2))

        band = tmp_path / "band.csv"
        assert cli.main(["report", str(tmp_path / "first"), "--out", str(band)]) == 0
        assert band.read_bytes() == first[Path("validation_band.csv")]

        ckpt = tmp_path / "first" / "run_7" / "final_weights.ckpt"
        moved = tmp_path / "moved"
        argv = ["transfer", *common, "--checkpoint", str(ckpt), "--output", str(moved)]
        assert cli.main(argv) == 0
        dims, weights = load_checkpoint(moved / "run_7" / "final_weights.ckpt")
        assert dims == load_checkpoint(ckpt)[0]
        assert np.isfinite(weights).all()
        # Had transfer ignored the checkpoint, seed 7 would reproduce the first
        # run's final weights, which are the checkpoint's.
        assert not np.array_equal(weights, load_checkpoint(ckpt)[1])
