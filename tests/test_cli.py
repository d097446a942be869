from pathlib import Path

import numpy as np
import pytest

from fedpart import cli, runner
from fedpart.agent import AgentSettings
from fedpart.config import ExperimentConfig
from fedpart.network import expected_weight_count, load_checkpoint, save_checkpoint
from fedpart.profiles import load_profile
from fedpart.traces import load_trace, synthesize_trace


def _synth(tmp_path):
    wifi, fiveg = tmp_path / "wifi.trace", tmp_path / "fiveg.trace"
    argv = ["traces", "synth", "--wifi-out", str(wifi), "--fiveg-out", str(fiveg)]
    assert cli.main(argv) == 0
    return wifi, fiveg


class TestTracesCommand:
    def test_synth_files_load_back_exactly(self, tmp_path):
        wifi, fiveg = _synth(tmp_path)
        config = ExperimentConfig()
        for path, spec, seed, bound in (
            (wifi, config.wifi, config.inputs.trace_seed, config.bounds.wifi),
            (fiveg, config.fiveg, config.inputs.trace_seed + 1, config.bounds.fiveg),
        ):
            expected = synthesize_trace(spec, seed, bound)
            loaded = load_trace(path)
            assert np.array_equal(loaded.samples, expected.samples)
            assert loaded.granularity_ms == expected.granularity_ms

    def test_synth_clips_at_the_bounds_of_the_config(self, tmp_path):
        """A ``[bounds] wifi`` below the synthetic range is the trace's ceiling."""
        ini = tmp_path / "b.ini"
        ini.write_text("[bounds]\nwifi = 150.0\n", encoding="utf-8")
        clipped = tmp_path / "clipped"
        clipped.mkdir()
        wifi, fiveg = clipped / "wifi.trace", clipped / "fiveg.trace"
        argv = ["traces", "synth", "--config", str(ini),
                "--wifi-out", str(wifi), "--fiveg-out", str(fiveg)]
        assert cli.main(argv) == 0
        samples = load_trace(wifi).samples
        default = load_trace(_synth(tmp_path)[0]).samples
        assert default.max() > 150.0 and samples.max() == 150.0
        assert np.array_equal(samples, np.minimum(default, 150.0))

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

    def test_stats_on_a_non_finite_sample_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "nan.trace"
        path.write_text("0.0,5.0\n250.0,nan\n")
        assert cli.main(["traces", "stats", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: not a finite number: 'nan'\n"


class TestProfileCommand:
    def test_validate_names_the_file_and_line_of_a_non_finite_number(self, tmp_path, capsys):
        path = tmp_path / "p.profile"
        assert cli.main(["profile", "synth", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")  # config 0, on line 6
        fields[3] = "nan"  # t1_ms
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["profile", "validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:6: not a finite number: 'nan'\n"


    def test_synth_writes_the_profile_section_even_with_a_profile_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """``[inputs] profile_path`` names what ``train`` reads; ``profile
        synth`` writes what ``[profile]`` synthesizes, and no trace."""
        existing = tmp_path / "a.profile"
        assert cli.main(["profile", "synth", "--out", str(existing)]) == 0
        assert load_profile(existing).n_configs == 105
        ini = tmp_path / "p.ini"
        ini.write_text(
            f"[inputs]\nprofile_path = {existing}\n\n[profile]\ncut_points = 3\n",
            encoding="utf-8",
        )

        def no_trace(spec, seed, max_value):
            raise AssertionError("a trace was synthesized")

        monkeypatch.setattr(runner, "synthesize_trace", no_trace)
        monkeypatch.setattr(cli, "synthesize_trace", no_trace)
        out = tmp_path / "b.profile"
        capsys.readouterr()
        assert cli.main(["profile", "synth", "--config", str(ini), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 15 configs to {out}\n"
        profile = load_profile(out)
        assert (profile.cut_points, profile.n_configs) == (3, 15)


@pytest.mark.parametrize("argv", [
    ["train", "--config", "DIR"],
    ["transfer", "--checkpoint", "DIR"],
    ["report", "FILE"],
    ["profile", "validate", "DIR"],
    ["traces", "stats", "DIR"],
])
def test_a_path_of_the_wrong_kind_is_an_error_naming_it(tmp_path, capsys, argv):
    """Before, ``IsADirectoryError`` and ``NotADirectoryError`` escaped as a traceback."""
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("", encoding="utf-8")
    path = str(tmp_path / argv[-1])
    out = tmp_path / "out"
    argv = [*argv[:-1], path]
    if argv[0] in ("train", "transfer"):
        argv += ["--mode", "single", "--runs", "1", "--output", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f": {path!r}\n") and err.count("\n") == 1
    assert not out.exists()


class TestEnumerateCommand:
    @pytest.mark.parametrize("cuts, expected", [
        (12, "105\nfull-device=3 single-split=36 double-split=66 (cuts=12)\n"),
        (0, "3\nfull-device=3 single-split=0 double-split=0 (cuts=0)\n"),
    ])
    def test_counts_by_kind(self, capsys, cuts, expected):
        assert cli.main(["enumerate", "--cuts", str(cuts)]) == 0
        assert capsys.readouterr().out == expected


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

    def test_zero_step_train_exports_the_initial_weights(self, tmp_path):
        out = tmp_path / "init"
        argv = ["train", "--runs", "1", "--mode", "single", "--seed", "4",
                "--steps-per-agent", "0", "--output", str(out)]
        assert cli.main(argv) == 0
        dims, weights = load_checkpoint(out / "run_4" / "final_weights.ckpt")
        assert dims == (5, *AgentSettings().hidden, 106)
        assert np.isfinite(weights).all()

    def test_train_on_an_invalid_profile_file_names_the_file(self, tmp_path, capsys):
        """Envs do not validate the profile again; the loader's check is the
        one that stops a bad file."""
        path = tmp_path / "bad.profile"
        assert cli.main(["profile", "synth", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        fields = lines[7].split(",")  # config 2, the fully-offloaded one, on line 8
        fields[-1] = "1.0"  # delta23, which must equal delta0
        lines[7] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[inputs]\nprofile_path = {path}\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["train", "--config", str(ini), "--runs", "1", "--mode", "single",
                "--steps-per-agent", "0", "--output", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: fully-offloaded config must transfer the input tensor twice\n"
        )
        assert not out.exists()

    def test_transfer_rejects_a_checkpoint_of_another_shape(self, tmp_path, capsys):
        dims = (5, 8, 8, 106)  # trained with [agent] hidden = 8,8
        ckpt = tmp_path / "small.ckpt"
        save_checkpoint(ckpt, dims, np.zeros(expected_weight_count(dims)))
        out = tmp_path / "out"
        argv = ["transfer", "--runs", "1", "--mode", "single", "--steps-per-agent", "0",
                "--checkpoint", str(ckpt), "--output", str(out)]
        assert cli.main(argv) == 2
        expected = (5, *AgentSettings().hidden, 106)
        assert capsys.readouterr().err == (
            f"error: checkpoint dims {dims} do not match the config's {expected}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("dims=5,2\n1.0\n", ": 1 values do not match dims (5, 2) (need 12)"),
        ("dims=5,2\n1.0\nabc\n", ":3: not a finite number: 'abc'"),
        ("dims=5,2\n1.0\n\nnan\n", ":4: not a finite number: 'nan'"),
        ("dims=5,x\n", ":1: dims must be integers, got 'dims=5,x'"),
    ])
    def test_malformed_checkpoint_is_an_error_naming_the_file(
        self, tmp_path, capsys, text, message
    ):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["transfer", "--runs", "1", "--mode", "single", "--steps-per-agent", "0",
                "--checkpoint", str(ckpt), "--output", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {ckpt}{message}\n"
        assert not out.exists()


TINY_INI = """\
[profile]
cut_points = 3

[agent]
hidden = 8,8
dropout_rates = 0.2,0.0
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

    def test_report_reproduces_trains_band_across_a_digit_boundary(self, tmp_path):
        """By name, ``run_10`` sorts before ``run_8``; a band in that order
        summed the runs in another order and changed the mean's last bits."""
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", "--config", str(ini), "--mode", "sync", "--agents", "3",
                "--steps-per-agent", "60", "--freq-updates", "20", "--runs", "3",
                "--seed", "8", "--output", str(out)]
        assert cli.main(argv) == 0
        trained = (out / "validation_band.csv").read_bytes()
        assert cli.main(["report", str(out)]) == 0
        assert (out / "validation_band.csv").read_bytes() == trained
