import argparse
import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpart import agent, cli, runner
from fedpart.agent import AgentSettings
from fedpart.config import (
    ConfigError,
    ExperimentConfig,
    InputsSection,
    RunSection,
    dump_config,
    load_config,
    parse_config,
)
from fedpart.env import CostWeights, ObservationBounds
from fedpart.federation import FederationConfig
from fedpart.profiles import DeviceProfile, ProfileSpec
from fedpart.traces import TraceSynthesisSpec

positive = st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0, allow_nan=False)
# Rates whose 16-bit threshold, round(rate * 65536), keeps some units.
dropout_rate = st.floats(0.0, 65535 / 65536)
names = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_./", min_size=1, max_size=12)


@st.composite
def cost_weights(draw):
    raw = draw(st.lists(st.integers(0, 100), min_size=5, max_size=5).filter(any))
    weights = [r / sum(raw) for r in raw]
    weights[3] = 1.0 - sum(weights[:3]) - weights[4]  # sum to 1 within rounding
    return CostWeights(*(max(w, 0.0) for w in weights),
                       alpha=draw(positive), g=draw(positive), lambda_fps=draw(positive),
                       tau_normal=draw(positive), tau_fast=draw(positive), l_max=draw(positive))


@st.composite
def traces(draw):
    return TraceSynthesisSpec(
        length=draw(st.integers(1, 20000)), granularity_ms=draw(positive), mean=draw(positive),
        variability=draw(positive), correlation=draw(st.floats(0.0, 1.0, exclude_max=True)),
        outage_rate=draw(unit), outage_depth=draw(unit),
        outage_duration_mean=draw(st.floats(1.0, 1e4)),
    )


@st.composite
def configs(draw):
    layers = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 1024))
    freq = draw(st.integers(1, 1000))
    return ExperimentConfig(
        profile=ProfileSpec(draw(names), *draw(st.tuples(st.integers(1, 30), *[positive] * 7)),
                            rng_seed=draw(st.integers(0, 2**32))),
        wifi=draw(traces()),
        fiveg=draw(traces()),
        cost=draw(cost_weights()),
        bounds=ObservationBounds(*draw(st.tuples(*[positive] * 5))),
        devices=DeviceProfile(*draw(st.tuples(*[positive] * 4))),
        agent=AgentSettings(
            hidden=tuple(draw(st.lists(st.integers(1, 512), min_size=layers, max_size=layers))),
            dropout_rates=tuple(draw(st.lists(dropout_rate, min_size=layers, max_size=layers))),
            lr=draw(positive), gamma=draw(unit), epsilon=draw(unit), batch_size=batch,
            buffer_capacity=draw(st.integers(batch, 100000)),
            target_update_freq=draw(st.integers(1, 1000)), train_every=draw(st.integers(1, 8)),
            dtype=draw(st.sampled_from(("float32", "float64"))),
        ),
        inputs=InputsSection(
            profile_path=draw(st.none() | names),
            wifi_path=draw(st.none() | names), fiveg_path=draw(st.none() | names),
            trace_seed=draw(st.integers(0, 2**32)), noise_rel=draw(unit),
            shift=draw(st.booleans()), inversion=draw(st.booleans()),
            floor_frac=draw(st.floats(0.0, 1.0, exclude_min=True)),
        ),
        federation=FederationConfig(
            mode=draw(st.sampled_from(("sync", "async", "single"))),
            agents=draw(st.integers(1, 50)),
            steps_per_agent=freq * draw(st.integers(0, 50)), freq_updates=freq,
            proportion_slow=draw(unit), max_delay_slow=draw(positive),
            role_policy=draw(st.sampled_from(("fixed", "redraw"))),
        ),
        run=RunSection(
            n_runs=draw(st.integers(1, 10)), base_seed=draw(st.integers(0, 2**32)),
            output_dir=draw(names), workers=draw(st.integers(1, 8)),
            validation_interval=draw(st.integers(1, 1000)),
            validation_steps=draw(st.integers(1, 1000)),
        ),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_dump_then_parse_is_the_identity(self, config):
        assert parse_config(dump_config(config)) == config

    def test_manifest_parses_back_to_the_config_the_run_used(self, tmp_path, monkeypatch):
        used = []
        write = cli.write_experiment

        def record(config, out_dir):
            used.append(config)
            return write(config, out_dir)

        monkeypatch.setattr(cli, "write_experiment", record)
        ini = tmp_path / "tiny.ini"
        ini.write_text("[profile]\ncut_points = 2\n[agent]\nhidden = 4\ndropout_rates = 0.1\n"
                       "batch_size = 8\n[cost]\nl_max = 250.5\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", "--config", str(ini), "--mode", "single", "--runs", "1",
                "--steps-per-agent", "20", "--freq-updates", "20", "--output", str(out)]
        assert cli.main(argv) == 0
        assert load_config(out / "manifest.ini") == used[0]
        assert used[0].cost.l_max == 250.5 and used[0].agent.hidden == (4,)


# The [federation] block as dump_config wrote it before the section became
# FederationConfig itself; old manifests must keep loading.
OLD_FEDERATION_BLOCK = """\
[federation]
mode = async
agents = 4
steps_per_agent = 1500
freq_updates = 500
proportion_slow = 0.25
max_delay_slow = 0.5
role_policy = redraw

"""


class TestParse:
    def test_old_federation_block_parses_and_dumps_back_unchanged(self):
        config = parse_config(OLD_FEDERATION_BLOCK)
        assert config.federation == FederationConfig(
            mode="async", agents=4, steps_per_agent=1500, freq_updates=500,
            proportion_slow=0.25, max_delay_slow=0.5, role_policy="redraw",
        )
        assert config.federation.m_agents == 4 and config.federation.n_iterations == 3
        assert OLD_FEDERATION_BLOCK in dump_config(config)

    def test_partial_section_keeps_that_sections_defaults(self):
        config = parse_config("[wifi]\nmean = 200\n")
        defaults = ExperimentConfig()
        assert config.wifi == dataclasses.replace(defaults.wifi, mean=200.0)
        assert config.wifi.length == 3000 and config.wifi.outage_rate == 0.0015
        assert config.fiveg == defaults.fiveg

    def test_empty_value_means_none(self):
        config = parse_config("[inputs]\nwifi_path = w.trace\n")
        assert config.inputs.wifi_path == "w.trace"
        assert parse_config("[inputs]\nwifi_path =\n").inputs.wifi_path is None

    @pytest.mark.parametrize("text, name", [
        ("[traces]\nwifi_mean = 1\n", "[traces]"),
        ("[environment]\nw_lat = 0.93\n", "[environment]"),
        ("[wifi]\nwifi_mean = 1\n", "'wifi_mean'"),
        ("[profile]\nsource = file\n", "'source'"),
        ("[agent]\ndropout = 0.1,0.1,0.0\n", "'dropout'"),
    ])
    def test_unknown_sections_and_keys_are_rejected_by_name(self, text, name):
        with pytest.raises(ConfigError, match=r"unknown .*" + name.replace("[", r"\[")):
            parse_config(text)

    @pytest.mark.parametrize("text, prefix", [
        ("[cost]\nw_lat = 0.5\n", "[cost] cost weights must sum to 1"),
        ("[agent]\ngamma = 2.0\n", "[agent] gamma must be in [0, 1]"),
        ("[bounds]\nwifi = 0\n", "[bounds] bound wifi must be positive"),
        ("[federation]\nproportion_slow = 2\n", "[federation] proportion_slow"),
        ("[federation]\nmax_delay_slow = -1\n", "[federation] max_delay_slow must be >= 0"),
        ("[federation]\nrole_policy = sometimes\n", "[federation] role_policy must be"),
        ("[federation]\nfreq_updates = 0\n", "[federation] freq_updates must be >= 1"),
        ("[federation]\nsteps_per_agent = 7\n", "[federation] steps_per_agent"),
        ("[federation]\nmode = solo\n", "[federation] mode"),
        ("[run]\nn_runs = 0\n", "[run] n_runs"),
        ("[run]\nworkers = 0\n", "[run] workers must be >= 1"),
        ("[run]\nvalidation_steps = 0\n", "[run] validation_steps must be >= 1"),
        ("[run]\nvalidation_interval = 0\n", "[run] validation_interval must be >= 1"),
        ("[fiveg]\ncorrelation = 1.0\n", "[fiveg] correlation must be in [0, 1)"),
        ("[agent]\nlr = -1\n", "[agent] lr must be > 0"),
        ("[agent]\nlr = 0\n", "[agent] lr must be > 0"),
        ("[agent]\ndtype = float16\n", "[agent] dtype must be float32 or float64"),
        ("[inputs]\nfloor_frac = 0\n", "[inputs] floor_frac must be in (0, 1]"),
        ("[inputs]\nfloor_frac = 1.5\n", "[inputs] floor_frac must be in (0, 1]"),
        ("[inputs]\nnoise_rel = -0.1\n", "[inputs] noise_rel must be >= 0, got -0.1"),
        ("[agent]\nhidden = 8,x\n", "[agent] hidden:"),
        ("[inputs]\nshift = maybe\n", "[inputs] shift: not a boolean"),
        ("[agent]\ndropout_rates = 1.5,0.3,0.0\n",
         "[agent] dropout_rates must be finite and in [0, 1), got 1.5"),
        ("[agent]\ndropout_rates = 0.4\n",
         "[agent] dropout_rates needs one rate per hidden layer (3), got 1"),
        ("[agent]\ndropout_rates = 0.4,0.3,nan\n",
         "[agent] dropout_rates must be finite and in [0, 1), got nan"),
        ("[agent]\ndropout_rates = 0.4,-0.1,0.0\n",
         "[agent] dropout_rates must be finite and in [0, 1), got -0.1"),
        ("[agent]\ndropout_rates = 0.4,0.999995,0.0\n",
         "[agent] dropout_rates: 0.999995 rounds to 65536/65536"),
        ("[cost]\nl_max = nan\n", "[cost] l_max: must be finite, got nan"),
        ("[cost]\nw_lat = nan\n", "[cost] w_lat: must be finite, got nan"),
        ("[bounds]\nwifi = inf\n", "[bounds] wifi: must be finite, got inf"),
        ("[devices]\nz_sew = nan\n", "[devices] z_sew: must be finite, got nan"),
        ("[wifi]\nmean = nan\n", "[wifi] mean: must be finite, got nan"),
        ("[agent]\nlr = inf\n", "[agent] lr: must be finite, got inf"),
        ("[federation]\nmax_delay_slow = nan\n",
         "[federation] max_delay_slow: must be finite, got nan"),
        ("[profile]\nsew_mflops_per_ms = 0\n", "[profile] sew_mflops_per_ms must be > 0, got 0.0"),
        ("[profile]\ncloud_mflops_per_ms = -1\n",
         "[profile] cloud_mflops_per_ms must be > 0, got -1.0"),
        ("[wifi]\ngranularity_ms = 0\n", "[wifi] granularity_ms must be > 0, got 0.0"),
        ("[fiveg]\ngranularity_ms = -250\n", "[fiveg] granularity_ms must be > 0, got -250.0"),
        ("[profile]\ndelta0 = -1\n", "[profile] delta0 must be > 0, got -1.0"),
        ("[profile]\ntotal_flops = 0\n", "[profile] total_flops must be > 0, got 0.0"),
        ("[profile]\ncut_points = 0\n", "[profile] cut_points must be >= 1 for synthesis, got 0"),
        ("[wifi]\noutage_rate = -1\n", "[wifi] outage_rate must be in [0, 1], got -1.0"),
        ("[wifi]\noutage_rate = 5\n", "[wifi] outage_rate must be in [0, 1], got 5.0"),
        ("[wifi]\noutage_depth = -0.5\n", "[wifi] outage_depth must be in [0, 1], got -0.5"),
        ("[fiveg]\noutage_depth = 1.5\n", "[fiveg] outage_depth must be in [0, 1], got 1.5"),
        ("[wifi]\noutage_duration_mean = -4\n",
         "[wifi] outage_duration_mean must be >= 1, got -4.0"),
        ("[fiveg]\noutage_duration_mean = 0.5\n",
         "[fiveg] outage_duration_mean must be >= 1, got 0.5"),
        ("[run]\nbase_seed = -1\n", "[run] base_seed must be >= 0, got -1"),
        ("[inputs]\ntrace_seed = -1\n", "[inputs] trace_seed must be >= 0, got -1"),
        ("[profile]\nrng_seed = -1\n", "[profile] rng_seed must be >= 0, got -1"),
        ("[agent]\nhidden = 100,-5,60\n",
         "[agent] hidden widths must be >= 1, got (100, -5, 60)"),
        ("[agent]\nhidden = 100,0,60\n", "[agent] hidden widths must be >= 1, got (100, 0, 60)"),
    ])
    def test_rejected_values_name_their_section(self, text, prefix):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value).startswith(prefix)


class TestCliErrors:
    @pytest.mark.parametrize("text, prefix", [
        ("[cost]\nw_lat = 0.5\n", "error: [cost] "),
        ("[agent]\ngamma = 2.0\n", "error: [agent] "),
        ("[run]\nvalidation_steps = 0\n", "error: [run] "),
        ("[run]\nworkers = 0\n", "error: [run] workers"),
        ("[run]\nvalidation_interval = 0\n", "error: [run] "),
        ("[wifi]\ncorrelation = 1.0\n", "error: [wifi] "),
        ("[agent]\nlr = -1\n", "error: [agent] lr"),
        ("[agent]\ndtype = float16\n", "error: [agent] dtype"),
        ("[inputs]\nfloor_frac = 0\n", "error: [inputs] floor_frac"),
        ("[inputs]\nnoise_rel = -0.1\n", "error: [inputs] noise_rel must be >= 0"),
        ("[agent]\noptimizer = rmsprop\n", "error: unknown key 'optimizer'"),
        ("[inputs]\nextend_to = 210\n", "error: unknown key 'extend_to'"),
        ("[agent]\ndropout_rates = 1.5,0.3,0.0\n", "error: [agent] dropout_rates"),
        ("[agent]\ndropout_rates = 0.4\n", "error: [agent] dropout_rates"),
        ("[agent]\ndropout_rates = 0.4,0.3,nan\n", "error: [agent] dropout_rates"),
        ("[agent]\ndropout_rates = 0.4,0.999995,0.0\n", "error: [agent] dropout_rates"),
        ("[cost]\nl_max = nan\n", "error: [cost] l_max: must be finite"),
        ("[cost]\nw_lat = nan\n", "error: [cost] w_lat: must be finite"),
        ("[bounds]\nwifi = inf\n", "error: [bounds] wifi: must be finite"),
        ("[devices]\nz_sew = nan\n", "error: [devices] z_sew: must be finite"),
        ("[wifi]\nmean = nan\n", "error: [wifi] mean: must be finite"),
        ("[profile]\nsew_mflops_per_ms = 0\n", "error: [profile] sew_mflops_per_ms must be > 0"),
        ("[wifi]\noutage_depth = -0.5\n", "error: [wifi] outage_depth must be in [0, 1]"),
    ])
    def test_domain_rejected_value_is_an_error_not_a_traceback(
        self, tmp_path, capsys, text, prefix
    ):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        assert cli.main(["train", "--config", str(ini), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(prefix.replace("error: ", f"error: {ini}: ", 1))

    @pytest.mark.parametrize("text, where", [
        ("[run]\nn_runs = 2\noops\n", "line 3: neither a [section] header nor 'key = value'"),
        ("[run]\nn_runs = 2\nn_runs = 3\n", "line 3: key 'n_runs' in section [run] appears twice"),
        ("n_runs = 2\n", "line 1: 'n_runs = 2\\n' comes before any [section] header"),
        ("[run]\nn_runs = 2\n[run]\n", "line 3: section [run] appears twice"),
        ("[run]\nn_runs = two\n", "[run] n_runs: invalid literal for int()"),
    ])
    def test_a_config_error_names_the_file(self, tmp_path, capsys, text, where):
        """Before, a syntax error named the source '<string>', and a bad value no file."""
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(ini), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: {where}")
        assert "<string>" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("cost", "c_sew_max"), ("cost", "c_phone_max"), ("cost", "c_5g_max"),
        ("wifi", "max_value"), ("fiveg", "max_value"),
        ("profile", "t1_max"), ("profile", "t2_max"), ("profile", "t3_max"),
    ])
    def test_a_derived_limit_is_not_a_key(self, tmp_path, capsys, section, key):
        """The cost scales come from the profile, and the synthesis limits from [bounds]."""
        ini = tmp_path / "old.ini"
        ini.write_text(f"[{section}]\n{key} = 10.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(ini), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {ini}: unknown key {key!r} in section [{section}]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "2"), ("--proportion-slow", "0.5"), ("--max-delay-slow", "0.5"),
    ])
    def test_baseline_refuses_the_flags_it_never_reads(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        argv = ["baseline", "--objective", "latency", flag, value, "--output", str(out)]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_step_baseline_is_an_error_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        """Before, it warned twice ("Mean of empty slice") and wrote nan rows."""
        def no_scenario(config):
            raise AssertionError("the scenario was built")

        monkeypatch.setattr(runner, "build_scenario", no_scenario)
        out = tmp_path / "o"
        argv = ["baseline", "--objective", "latency", "--steps-per-agent", "0",
                "--output", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: [federation] steps_per_agent must be >= 1 for a baseline, got 0\n"
        assert "Warning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("flags, prefix", [
        (["--max-delay-slow", "nan"],
         "error: [federation] max_delay_slow: must be finite, got nan"),
        (["--proportion-slow", "nan"], "error: [federation] proportion_slow"),
    ])
    def test_non_finite_flag_is_an_error_not_a_traceback(self, tmp_path, capsys, flags, prefix):
        argv = ["train", "--mode", "async", *flags, "--output", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_an_error_before_any_output(self, tmp_path, capsys):
        """Before, the seed reached NumPy: ``ValueError: expected non-negative integer``."""
        out = tmp_path / "o"
        argv = ["baseline", "--objective", "latency", "--seed", "-1", "--output", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: [run] base_seed must be >= 0, got -1\n"
        assert not out.exists()

    @staticmethod
    def write_runs(run_dir, second_rows):
        """Two runs' ``run_validation.csv``: three rows in run_1, ``second_rows`` in run_2."""
        for run, rows in (("run_1", "0,0.25\n250,0.5\n500,0.75\n"), ("run_2", second_rows)):
            (run_dir / run).mkdir()
            (run_dir / run / "run_validation.csv").write_text(
                "steps_trained,c_lat\n" + rows, encoding="utf-8"
            )

    @pytest.mark.parametrize("second, line, message", [
        ("0,0.5\n250,abc\n", 3, "could not convert string to float: 'abc'"),
        ("", 1, "no rows after the header"),
        ("0,0.5\n300,0.4\n", 3, "steps_trained 300 differs from 250 in "),
        ("0,0.5\n250\n", 3, "not enough values to unpack"),
    ])
    def test_report_on_a_bad_validation_file_names_its_line(
        self, tmp_path, capsys, second, line, message
    ):
        """Before: a ValueError or an IndexError and exit 1, or, for steps that
        differ, a band averaging run 2's step 300 with run 1's 250, labelled 250."""
        self.write_runs(tmp_path, second)
        assert cli.main(["report", str(tmp_path)]) == 2
        path = tmp_path / "run_2" / "run_validation.csv"
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: {message}")
        assert not (tmp_path / "validation_band.csv").exists()

    def test_report_without_runs_is_an_error(self, tmp_path, capsys):
        (tmp_path / "run_1").mkdir()
        assert cli.main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no run_validation.csv files under {tmp_path}\n"
        assert not (tmp_path / "validation_band.csv").exists()

    def test_report_cuts_runs_whose_steps_agree_to_the_shortest(self, tmp_path):
        self.write_runs(tmp_path, "0,0.75\n250,0\n")
        assert cli.main(["report", str(tmp_path)]) == 0
        assert (tmp_path / "validation_band.csv").read_text(encoding="utf-8") == (
            "x,mean,min,max\n0,0.5,0.25,0.75\n250,0.25,0.0,0.5\n"
        )


# What a user can set: the config's keys and each subcommand's flags and
# positional arguments. A change that adds or removes one edits these pins,
# and CHANGES.md says which and why.
CONFIG_KEYS = 77
RUN_FLAGS = {"--config", "--seed", "--runs", "--output", "--mode", "--agents",
             "--steps-per-agent", "--freq-updates"}
TRAINING_FLAGS = RUN_FLAGS | {"--workers", "--proportion-slow", "--max-delay-slow"}
SUBCOMMAND_INPUTS = {
    "train": TRAINING_FLAGS,
    "transfer": TRAINING_FLAGS | {"--checkpoint"},
    "baseline": RUN_FLAGS | {"--objective"},
    "enumerate": {"--cuts"},
    "profile synth": {"--config", "--out"},
    "profile validate": {"path"},
    "traces synth": {"--config", "--wifi-out", "--fiveg-out"},
    "traces stats": {"path"},
    "report": {"run_dir", "--out"},
}


def _subcommands(parser, prefix=()):
    """Each leaf subcommand's name, as typed, and its parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield " ".join(prefix), parser


class TestKnobCount:
    def test_the_config_has_the_pinned_number_of_keys(self):
        lines = dump_config(ExperimentConfig()).splitlines()
        keys = [line for line in lines if line and not line.startswith("[")]
        assert len(keys) == CONFIG_KEYS

    def test_each_subcommand_takes_the_pinned_inputs(self):
        found = {
            name: {opt for action in sub._actions
                   for opt in action.option_strings or [action.dest]} - {"-h", "--help"}
            for name, sub in _subcommands(cli.build_parser())
        }
        assert found == SUBCOMMAND_INPUTS


def test_a_non_finite_float_in_a_tuple_is_rejected(monkeypatch):
    """The dropout rates' own check rejects NaN first; without it, the shared
    finiteness check still looks inside the tuple."""
    monkeypatch.setattr(agent, "drop_threshold", lambda rate: None)
    with pytest.raises(ConfigError) as info:
        parse_config("[agent]\ndropout_rates = 0.4,0.3,nan\n")
    assert str(info.value) == "[agent] dropout_rates: must be finite, got nan"
