import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amqd
from amqd import ConfigError, ExperimentConfig, SnrGrid, error_analysis, run_validation
from amqd.cli import build_parser, main
from amqd.config import MAX_GRID_POINTS, SETTINGS


# the settings each command reads: its flags, and the keys its config file may set
CURVE_SETTINGS = ("l", "zeta", "snr_db_min", "snr_db_max", "snr_db_step", "out", "format")
COMMAND_SETTINGS = {
    "figure2": CURVE_SETTINGS,
    "analytic": CURVE_SETTINGS,
    "simulate": tuple(SETTINGS),
    "slope": ("l", "zeta", "snr_db_min", "snr_db_max", "snr_db_step", "seed", "workers"),
    "validate": ("trials", "seed", "workers"),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows)


def test_cli_import_leaves_integration_out():
    # only validate's outage oracle integrates, so it imports scipy.integrate
    # (and the scipy.optimize / scipy.sparse.linalg that come with it) itself;
    # the outage CDF and its inverse need no scipy at all
    env = dict(os.environ, PYTHONPATH=str(Path(amqd.__file__).resolve().parent.parent))
    report = "; import sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    for code in (
        "import amqd.cli",
        "from amqd.cli import main; main(['simulate', '--l', '3', '--trials', '1000'])",
        "from amqd import diversity_slope_scan; diversity_slope_scan(2, 0.0, seed=0)",
        "from amqd.cli import main; main(['slope', '--l', '2'])",
    ):
        out = subprocess.run([sys.executable, "-c", "import sys; " + code + report], env=env,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out.strip().splitlines()[-1] == "[]", code


def test_readme_commands_parse():
    # every `amqd ...` line of README's sh blocks, continuations joined and
    # comments dropped
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").split("\n"):
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["amqd"]:
                commands.append(tokens[1:])
    assert {argv[0] for argv in commands} == set(COMMAND_SETTINGS)
    for argv in commands:
        build_parser().parse_args(argv)  # argparse exits 2 on a flag it does not know


class TestSlope:
    def test_prints_gate_4_scan(self, capsys):
        # gate 4's l = 2 scan: seed 7000 + l, 20..40 dB in 5 dB steps
        assert main(["slope", "--l", "2", "--seed", "7002"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "l=2: slope 1.9540 (diversity order 2.00)"
        assert [line.split()[1] for line in lines[1:]] == ["100", "316.2", "1000", "3162",
                                                          "1e+04"]
        # every point's relative half-width, which its %.4g interval cannot
        # show: about 3e-5 from the Sobol replicates, 2.8e-3 from iid draws
        for words in (line.split() for line in lines[1:]):
            assert words[-2] == "rhw" and re.fullmatch(r"\d\.\d\de-\d\d", words[-1])
            assert float(words[-1]) < 1e-4

    @pytest.mark.parametrize("flags", [
        ["--l", "0"],
        ["--snr-db-max", "inf"],
        ["--snr-db-max", "25"],  # two points
        ["--l", "1", "--l", "2"],
        # a ratio snr_max / snr_min beyond the float range
        ["--snr-db-min", "-3000", "--snr-db-max", "3000", "--snr-db-step", "1000"],
        # every threshold underflows to 0, so no point has p > 0 to fit
        ["--l", "10", "--snr-db-max", "1000", "--snr-db-step", "250"],
    ])
    def test_bad_input_is_a_config_error(self, flags, capsys):
        assert main(["slope"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "Traceback" not in captured.err


class TestFigure2:
    def test_reference_curves(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure2", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["snr", "p_single", "p_amqd_l5", "p_amqd_l10"]
        assert len(rows) == 41
        snr = rows[:, 0]
        assert np.allclose(rows[:, 1], snr**-0.4, rtol=1e-12)
        assert np.allclose(rows[:, 2], snr**-2.0, rtol=1e-12)
        assert np.allclose(rows[:, 3], snr**-4.0, rtol=1e-12)
        # strict ordering once the curves separate
        sep = snr > 1.0
        assert np.all(rows[sep, 1] > rows[sep, 2])
        assert np.all(rows[sep, 2] > rows[sep, 3])

    def test_spot_row_at_ten_db(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["figure2", "--out", str(out)])
        _, rows = _read_csv(out)
        row = rows[np.argmin(np.abs(rows[:, 0] - 10.0))]
        assert row[1] == pytest.approx(0.3981071705534972, rel=1e-12)
        assert row[2] == pytest.approx(0.01, rel=1e-12)
        assert row[3] == pytest.approx(0.0001, rel=1e-12)

    def test_output_bytes_are_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure2", "--out", str(a)])
        main(["figure2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gnuplot_script_written_next_to_csv(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["figure2", "--out", str(out)])
        script = (tmp_path / "fig.csv.gp").read_text()
        assert "fig.csv" in script
        assert "logscale" in script

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["figure2", "--snr-db-max", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("snr,p_single,")

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig.json"
        main(["figure2", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "snr"
        assert len(payload["rows"]) == 41


class TestAnalytic:
    def test_custom_l_and_zeta(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["analytic", "--l", "2", "--l", "4", "--zeta", "0.5",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["snr", "p_single", "p_amqd_l2", "p_amqd_l4"]
        snr = rows[:, 0]
        assert np.allclose(rows[:, 2], snr**-1.0, rtol=1e-12)
        assert np.allclose(rows[:, 3], snr**-2.0, rtol=1e-12)

    def test_factorial_flag(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["analytic", "--l", "3", "--zeta", "0", "--factorial", "--out", str(out)])
        _, rows = _read_csv(out)
        snr = rows[:, 0]
        assert np.allclose(rows[:, 2], snr**-3.0 / 6.0, rtol=1e-12)

    def test_gnuplot_script_written_next_to_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["analytic", "--l", "2", "--out", str(out)]) == 0
        script = (tmp_path / "t.csv.gp").read_text()
        assert "t.csv" in script and "p_amqd_l2" in script


# `simulate --seed 0 --snr-db-max 10 --snr-db-step 5` of the importance
# sampler's scrambled Sobol replicates (l <= 8), by (l, trials): at l = 3
# replicate 0 is sliced over two batches, at l = 1, 2 and 8 a batch packs
# several whole replicates.  At l = 1 and snr 1 (t = 1) the proposal is
# untilted, so the estimate is exact and its interval a point
SOBOL_SIMULATE_SEED_0 = {
    (1, 100000): (
        'snr,p_hat,ci_low,ci_high,analytic',
        '1,0.63212055882855767,0.63212055882855767,0.63212055882855767,0.63212055882855767',
        ('3.1622776601683795,0.27110501788968816,0.27110186008031439,'
         '0.27110817569906193,0.27110658588997538'),
        ('10,0.095161404623848644,0.095159947682378163,'
         '0.095162861565319126,0.095162581964040427'),
    ),
    (3, 1048577): (
        'snr,p_hat,ci_low,ci_high,analytic',
        ('1,0.080301415735044096,0.080301379356666938,'
         '0.080301452113421254,0.080301397071394193'),
        ('3.1622776601683795,0.0041655792314987767,0.0041655790347345486,'
         '0.0041655794282630049,0.0041655791760751492'),
        ('10,0.00015465305828102338,0.00015465300648823468,'
         '0.00015465311007381208,0.00015465307026467153'),
    ),
    (2, 300000): (
        'snr,p_hat,ci_low,ci_high,analytic',
        '1,0.26424040592298881,0.26423811099019601,0.26424270085578161,0.26424111765711533',
        ('3.1622776601683795,0.040610686877268792,0.040610231245336269,'
         '0.040611142509201316,0.040610249881576403'),
        ('10,0.0046788455623777928,0.0046788079851543063,'
         '0.0046788831396012793,0.0046788401604444694'),
    ),
    (8, 70000): (
        'snr,p_hat,ci_low,ci_high,analytic',
        ('1,1.0254686293487714e-05,1.0233422480458231e-05,'
         '1.0275950106517198e-05,1.0249196674641706e-05'),
        ('3.1622776601683795,1.8749861099332459e-09,1.8691454492477418e-09,'
         '1.88082677061875e-09,1.87335791407747e-09'),
        ('10,2.2719660560223561e-13,2.2684416258494757e-13,'
         '2.2754904861952364e-13,2.2693269500714743e-13'),
    ),
}


class TestSimulate:
    def test_analytic_column_matches_oracle(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--l", "1", "--snr-db-min", "10", "--snr-db-max", "10",
                     "--snr-db-step", "2", "--trials", "200000", "--seed", "0",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["snr", "p_hat", "ci_low", "ci_high", "analytic"]
        assert rows[0, 4] == pytest.approx(0.09516258196404044, rel=1e-12)
        assert rows[0, 2] <= rows[0, 4] <= rows[0, 3]

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path):
        args = ["simulate", "--l", "2", "--snr-db-min", "6", "--snr-db-max", "10",
                "--snr-db-step", "2", "--trials", "200000", "--seed", "5"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        main(args + ["--workers", "1", "--out", str(a)])
        main(args + ["--workers", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rate_event_on_all_pass_channel(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--l", "1", "--model", "fixed=1", "--event", "rate",
              "--rate-bits", "20", "--snr-db-min", "0", "--snr-db-max", "0",
              "--snr-db-step", "1", "--trials", "1000", "--out", str(out)])
        _, rows = _read_csv(out)
        assert rows[0, 1] == 1.0  # 20 bits through unit snr never fits

    @pytest.mark.parametrize("model, event, p", [
        ("uniform-phase=0.5", "threshold", 0.0),  # l |F|^2 = 2.5e11 >= 1
        ("uniform-phase=1e-7", "threshold", 1.0),  # l |F|^2 = 0.01 < 1
        ("uniform-phase=0.5", "rate", None),  # the rate event takes l = 1 only
    ])
    def test_deterministic_model_with_huge_l(self, tmp_path, capsys, model, event, p):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", model, "--event", event, "--rate-bits", "0.1",
                     "--l", "1000000000000", "--snr-db-max", "0", "--trials", "10",
                     "--out", str(out)])
        if p is None:
            assert code == 2 and not out.exists()
            assert "config error: the rate event takes l = 1 only" in capsys.readouterr().err
            return
        assert code == 0
        header, rows = _read_csv(out)
        assert rows[:, header.index("p_hat")].tolist() == [p]
        assert rows[:, header.index("analytic")].tolist() == [p]

    @pytest.mark.parametrize("event", ["threshold", "rate"])
    @pytest.mark.parametrize("model", ["fixed=nan", "fixed=inf", "fixed=1+nanj"])
    def test_non_finite_fixed_gain_exits_2(self, capsys, model, event):
        # no comparison with NaN holds, so such a gain would read as p = 0
        assert main(["simulate", "--model", model, "--event", event, "--snr-db-max", "4",
                     "--trials", "10"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("model, l", [("fixed=1e200", "1"), ("fixed=1e200,1e200", "2")])
    def test_gain_whose_square_overflows_is_never_an_error(self, tmp_path, model, l):
        # |F|^2 = 1e400 lies above every threshold: p = 0, not an overflow.
        # The rate event takes l = 1 only
        out = tmp_path / "sim.csv"
        for event in ("threshold", "rate") if l == "1" else ("threshold",):
            assert main(["simulate", "--model", model, "--l", l, "--event", event,
                         "--snr-db-max", "4", "--trials", "10", "--out", str(out)]) == 0
            header, rows = _read_csv(out)
            assert rows[:, header.index("p_hat")].tolist() == [0.0] * 3
            assert rows[:, header.index("analytic")].tolist() == [0.0] * 3

    def test_one_trial_interval_holds_the_analytic_value(self, tmp_path):
        # one weight gives no variance estimate: the interval is
        # [0, min(scale, 1)], scale being the largest weight a hit can carry,
        # which holds p because p is a mean weight
        out = tmp_path / "mc.csv"
        for l in ("1", "2", "5"):
            assert main(["simulate", "--l", l, "--snr-db-max", "2", "--trials", "1",
                         "--out", str(out)]) == 0
            header, rows = _read_csv(out)
            lo, hi, p = (rows[:, header.index(c)] for c in ("ci_low", "ci_high", "analytic"))
            assert np.all(lo < hi)
            assert np.all((lo <= p) & (p <= hi))

    def test_two_trials_report_intervals_not_points(self, tmp_path):
        # two trials are two Sobol replicates of one point each, whose
        # Student-t interval has one degree of freedom; only its width is
        # checked here
        out = tmp_path / "mc.csv"
        assert main(["simulate", "--l", "2", "--snr-db-max", "2", "--trials", "2",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert np.all(rows[:, header.index("ci_low")] < rows[:, header.index("ci_high")])

    @staticmethod
    def _sobol_output(capsys, l, trials, workers=1) -> list:
        assert main(["simulate", "--l", str(l), "--trials", str(trials), "--seed", "0",
                     "--snr-db-max", "10", "--snr-db-step", "5", "--workers", str(workers)]) == 0
        return capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("l, trials", list(SOBOL_SIMULATE_SEED_0))
    def test_sobol_output_is_pinned(self, capsys, l, trials):
        assert self._sobol_output(capsys, l, trials) == list(SOBOL_SIMULATE_SEED_0[l, trials])

    def test_sliced_replicates_identical_at_any_worker_count(self, capsys):
        # over 16 x 65536 trials a replicate is sliced over two batches, which
        # share its point's scramble state with every other batch of the point
        pinned = list(SOBOL_SIMULATE_SEED_0[3, 1048577])
        for workers in (1, 2, 4):
            assert self._sobol_output(capsys, 3, 1048577, workers) == pinned

    def test_readme_overlay_reaches_figure2_range(self, tmp_path, monkeypatch):
        def no_count(args):
            raise AssertionError("simulate counted crude errors")

        monkeypatch.setattr(error_analysis, "_count_batch", no_count)
        for l in (5, 10):
            out = tmp_path / ("mc_l%d.csv" % l)
            assert main(["simulate", "--l", str(l), "--snr-db-min", "0",
                         "--snr-db-max", "40", "--snr-db-step", "5", "--trials", "100000",
                         "--seed", "0", "--out", str(out)]) == 0
            header, rows = _read_csv(out)
            p_hat = rows[:, header.index("p_hat")]
            analytic = rows[:, header.index("analytic")]
            assert len(rows) == 9
            assert np.all(p_hat > 0.0)
            assert np.all(np.abs(p_hat / analytic - 1.0) <= 0.05)
        assert analytic[-1] == pytest.approx(2.7555e-47, rel=1e-3)  # snr^-l / l! at l = 10, 40 dB


class TestConfigPrecedence:
    def test_scalar_l_is_one_value(self, tmp_path):
        # as a config file's scalar l is
        assert ExperimentConfig(l=5).l == (5,)
        assert ExperimentConfig(l=np.int64(3)).l == (3,)
        assert ExperimentConfig(l=[2, 4]).l == (2, 4)
        with pytest.raises(ConfigError):
            ExperimentConfig(l=0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l": 5}))
        out = tmp_path / "t.csv"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        assert _read_csv(out)[0] == ["snr", "p_single", "p_amqd_l5"]

    def test_cli_beats_file_beats_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.5, "l": [2]}))
        out = tmp_path / "t.csv"
        assert main(["analytic", "--config", str(cfg), "--zeta", "0.25",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        # l came from the file, zeta from the flag
        assert header == ["snr", "p_single", "p_amqd_l2"]
        snr = rows[:, 0]
        assert np.allclose(rows[:, 1], snr**-0.75, rtol=1e-12)
        assert np.allclose(rows[:, 2], snr**-1.5, rtol=1e-12)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["analytic", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["analytic", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_model_spec_exits_2(self, capsys):
        assert main(["simulate", "--model", "fancy"]) == 2
        assert "model" in capsys.readouterr().err

    def test_worker_count_above_cap_exits_2(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a rejected worker count must open no pool")

        monkeypatch.setattr(error_analysis, "ThreadPoolExecutor", no_pool)
        assert main(["simulate", "--workers", "65", "--trials", "200000"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--nonsense"])
        assert exc.value.code == 2


# a value of each setting that every command reading it accepts
_GOOD_VALUES = {
    "l": 2, "zeta": 0.5, "snr_db_min": 0.0, "snr_db_max": 2.0, "snr_db_step": 1.0,
    "trials": 20000, "seed": 3, "model": "rayleigh", "event": "threshold", "rate_bits": 1.0,
    "workers": 1, "out": "out.csv", "format": "csv",
}
_UNREAD = [(command, key) for command, keys in COMMAND_SETTINGS.items()
           for key in SETTINGS if key not in keys]


class TestCommandSettings:
    """Each command has a flag and a config key for every setting it reads,
    and for no other."""

    @pytest.mark.parametrize("command, key", _UNREAD)
    def test_setting_the_command_does_not_read_exits_2(self, tmp_path, monkeypatch, capsys,
                                                       command, key):
        monkeypatch.chdir(tmp_path)
        value = _GOOD_VALUES[key]
        with pytest.raises(SystemExit) as exc:
            main([command, _flag(key), str(value)])
        assert exc.value.code == 2
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert main([command, "--config", "cfg.json"]) == 2
        assert "unknown config keys: [%r]" % key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_every_setting_read_is_a_flag_and_a_config_key(self, tmp_path, monkeypatch, capsys,
                                                           command):
        monkeypatch.chdir(tmp_path)
        keys = COMMAND_SETTINGS[command]
        out = tmp_path / "out.csv"

        def run(argv):
            assert main([command] + argv) == 0
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return capsys.readouterr().out, written

        by_flags = run([token for key in keys for token in (_flag(key), str(_GOOD_VALUES[key]))])
        (tmp_path / "cfg.json").write_text(json.dumps({key: _GOOD_VALUES[key] for key in keys}))
        assert run(["--config", "cfg.json"]) == by_flags
        assert (by_flags[1] is not None) == ("out" in keys)


class TestInputContract:
    """Every bad input is a config error with exit code 2, never a traceback."""

    @pytest.mark.parametrize("key, value", [
        ("trials", "abc"), ("zeta", "x"), ("trials", None), ("trials", 1.9),
        ("trials", True), ("l", [True]), ("l", "25"), ("model", 5), ("format", "xml"),
        ("event", "outage"), ("rate_bits", "x"),
    ])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, key, value):
        # each key's type follows from its flag: type, choices, repeats, null
        # when its default is None
        expected = {"trials": "an integer", "zeta": "a number", "model": "a string",
                    "l": "an integer or a list of integers", "format": "'csv' or 'json'",
                    "event": "'rate' or 'threshold'", "rate_bits": "a number or null"}[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        # each value fails its type check, before any draw
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: config key %r must be %s, got %r\n" % (
            key, expected, value)

    def test_integral_numbers_are_integers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "t.csv"
        cfg.write_text(json.dumps({"l": [2, 3.0]}))
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        header, _ = _read_csv(out)
        assert header == ["snr", "p_single", "p_amqd_l2", "p_amqd_l3"]
        cfg.write_text(json.dumps({"trials": 1000.0, "seed": 2.0}))
        assert main(["simulate", "--config", str(cfg), "--snr-db-max", "0"]) == 0
        from_file = capsys.readouterr().out
        assert main(["simulate", "--trials", "1000", "--seed", "2", "--snr-db-max", "0"]) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("flags", [
        ["--snr-db-max", "1e400"],
        ["--snr-db-min", "nan"],
        ["--snr-db-max", "1e9", "--snr-db-step", "1e-9"],
        ["--snr-db-max", "100", "--snr-db-step", "0.001"],
    ])
    def test_bad_snr_grid_exits_2(self, capsys, flags):
        assert main(["analytic"] + flags) == 2
        assert "snr" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--l", "100", "--snr-db-min", "-40"],
        ["--l", "171", "--factorial"],
    ])
    def test_probability_beyond_float_range_exits_2(self, capsys, flags):
        assert main(["analytic"] + flags) == 2
        assert "float" in capsys.readouterr().err

    def test_rate_beyond_float_range_fails_every_draw(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["simulate", "--event", "rate", "--rate-bits", "2000", "--snr-db-max", "0",
                     "--trials", "1000", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert rows[:, header.index("p_hat")].tolist() == [1.0]
        assert rows[:, header.index("analytic")].tolist() == [1.0]

    def test_huge_l_gives_the_exact_answer(self, capsys):
        # an importance-sampled batch holds at most two draws per trial
        # (l <= 8 multiplies the l - 1 coordinates of Sobol points into two
        # arrays, larger l draws one gamma), so l is no memory bound
        assert main(["simulate", "--l", "1000000000000", "--snr-db-max", "0"]) == 0
        header, *rows = capsys.readouterr().out.strip().split("\n")
        row = dict(zip(header.split(","), map(float, rows[0].split(","))))
        assert row["p_hat"] == row["analytic"] == 0.0
        # the closed forms draw nothing
        assert main(["analytic", "--l", "1000000000000", "--snr-db-max", "0"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_trials_beyond_the_cap_exit_2(self, capsys, command):
        # 1e15 trials would plan 1.5e10 batches before the first one ran
        argv = [command, "--trials", str(10**15)]
        assert main(argv + (["--snr-db-max", "0"] if command == "simulate" else [])) == 2
        assert "config error: trials must lie in" in capsys.readouterr().err

    def test_grid_size_cap(self):
        step = 0.25
        assert len(SnrGrid(0.0, (MAX_GRID_POINTS - 1) * step, step)) == MAX_GRID_POINTS
        with pytest.raises(ConfigError):
            SnrGrid(0.0, MAX_GRID_POINTS * step, step)

    @pytest.mark.parametrize("flag", ["--n", "--sigma-noise"])
    def test_removed_flags_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["n", "sigma_noise"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
# near-valid values reach the checks past the type check
_VALUES = st.one_of(
    _JSON_VALUES,
    st.integers(-3, 300),
    st.lists(st.integers(-3, 300), max_size=3),
    st.floats(-4000.0, 4000.0),
    st.sampled_from(["rayleigh", "fixed=0.5", "uniform-phase=2", "rate", "threshold",
                     "csv", "json"]),
)


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: _VALUES for key in CURVE_SETTINGS
                                           if key != "out"}))
def test_any_config_file_exits_0_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analytic", "--config", path]) in (0, 2)


# models that simulate decides without drawing, at any l
_SIMULATE_VALUES = _VALUES | st.sampled_from(["uniform-phase=0.5", "fixed=0.5,0.5"])


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: _SIMULATE_VALUES for key in SETTINGS
                                           if key not in ("out", "trials", "workers")}))
def test_any_simulate_config_file_exits_0_or_2(config):
    # few trials and no pool, so no example draws millions of trials or forks
    config.update(trials=100, workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", "--config", path]) in (0, 2)


def _tokens(near):
    # mostly near-valid values, so many examples run to the end; otherwise
    # any float (nan and inf too) or text that argparse may reject
    pick = {0: st.text(max_size=4), 1: st.floats(), 2: st.floats()}
    return st.integers(0, 9).flatmap(lambda k: pick.get(k, near)).map(str)


_CLI_FLAGS = {
    "--l": st.lists(st.integers(1, 12) | st.integers(), min_size=1, max_size=2),
    "--zeta": _tokens(st.floats(0.0, 1.0)),
    "--snr-db-min": _tokens(st.floats(-60.0, 60.0)),
    "--snr-db-max": _tokens(st.floats(-60.0, 60.0)),
    "--snr-db-step": _tokens(st.floats(0.1, 20.0)),
    "--rate-bits": _tokens(st.floats(0.0, 40.0)),
    "--model": st.sampled_from(["rayleigh", "fixed=0.5", "fixed=0.5,0.5", "fixed=nan",
                                "fixed=1e400", "fixed=1e200", "fixed=1e200,1e200",
                                "uniform-phase=0.5", "uniform-phase=nan"])
               | st.text(max_size=12),
    "--event": st.sampled_from(["rate", "threshold", "rate", "threshold", "outage"]),
    "--seed": st.integers(0, 2**32) | st.integers() | st.integers(2**64 - 3, 2**64 + 3),
}


_CURVE_FLAGS = {_flag(key) for key in CURVE_SETTINGS}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["analytic", "simulate"]),
       st.fixed_dictionaries({}, optional=_CLI_FLAGS),
       st.integers(1, 1000) | st.integers(-2, 1000), st.integers(1, 2) | st.integers(-1, 2))
def test_any_command_line_exits_0_or_2(command, flags, trials, workers):
    if command == "analytic":  # only the flags analytic takes
        argv = [command]
        flags = {flag: value for flag, value in flags.items() if flag in _CURVE_FLAGS}
    else:  # at most 1000 trials is one batch per point, so no example opens a pool
        argv = [command, "--trials=%d" % trials, "--workers=%d" % workers]
    for flag, value in flags.items():
        # --flag=value passes values that start with '-' (such as -inf) through
        argv += ["%s=%s" % (flag, token) for token in (value if isinstance(value, list)
                                                       else [value])]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value with exit code 2
            code = exc.code
    assert code in (0, 2), argv


# stdout of `amqd validate --seed 0`, line for line
VALIDATE_SEED_0 = (
    ('PASS transform_unitarity: max roundtrip err 1.99e-15, max Parseval rel err 6.75e-16 '
     '(gate 1e-12)'),
    ('PASS transform_distribution: transformed E|entry|^2 = 2.0049 (expect 2.0 +- 0.0285), '
     'cross moment 4.15e-04'),
    'PASS transform_linearity: max abs deviation 1.99e-15 (gate 1e-12)',
    ('PASS source_moments: E|z|^2 = 2.0020 (expect 2), Pr[|F|^2<0.1] = 0.09534 (expect '
     '0.09516), Re-var 0.5001 (expect 0.5)'),
    'PASS noise_moments: per-quadrature noise variances (1.0002, 3.9968), expect (1, 4)',
    ('PASS determinism: repeated substream identical: True; worker counts agree: True (7430 '
     'vs 7430 errors)'),
    ('PASS channel_identity: all-pass err 6.66e-16, scalar err 2.78e-16, zero-gain err 0 '
     '(gate 1e-12)'),
    'PASS channel_second_moment: noiseless E|F d|^2 = 2.9978 (expect 3.00 +- 0.0739)',
    ("PASS rate_allocation: zeta=0 rate 0; zeta=0.5 n_min=2 P'=4 -> 1.000; zeta=0.6 n_min=1 "
     "P'=1 -> 0.600; S' <= P': True"),
    'PASS worst_case_set: selection True, empty-set True, tie-break True, monotone True',
    ('PASS constellation: set-equality True, identity hook True, scaling rel err 1.52e-15, '
     'bound values True'),
    ('PASS closed_form_consistency: l=1 vs single rel err 0, reference spot rel errs 0, '
     'ordering True'),
    'PASS outage_oracle: max rel diff quadrature vs closed form 1.09e-14 (gate 1e-10)',
    'PASS outage_approx: approx formula exact: True; approx/exact in [1, 1+t]: True',
    ('PASS mc_calibration: l=1: p_hat 0.09417 vs 0.09516 (+- 0.00418); l=3: p_hat 0.08067 '
     'vs 0.08030 (+- 0.00387); all-pass unreachable rate p_hat 1.0 (expect 1.0)'),
    '15 checks, 0 failed, 0 warnings',
)


class TestValidate:
    def test_seed_0_output_is_pinned(self, capsys):
        # each check draws from its own keyed stream, so a change to the
        # sampling, channel or transform code that moves one draw shows here
        assert main(["validate", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == list(VALIDATE_SEED_0)

    def test_validate_passes_and_prints_every_check(self, capsys):
        assert main(["validate", "--trials", "50000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().split("\n") if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 10
        assert all(ln.startswith("PASS") for ln in lines)
        assert "0 failed" in out

    def test_default_validate_prints_no_warning(self, capsys):
        assert main(["validate"]) == 0
        assert "WARN" not in capsys.readouterr().out

    def test_grid_end_does_not_warn(self, capsys):
        # mc_calibration samples fixed thresholds, about 1900 and 1600 expected
        # errors at 20000 trials; validate has no snr grid to warn about
        assert main(["validate", "--trials", "20000"]) == 0
        out = capsys.readouterr().out
        assert "WARN" not in out
        assert "0 warnings" in out

    def test_few_trials_warn_about_the_sampled_events(self, capsys):
        assert main(["validate", "--trials", "500"]) == 0
        warnings = [ln for ln in capsys.readouterr().out.split("\n") if ln.startswith("WARN")]
        assert len(warnings) == 2
        assert "~47.6 expected errors at threshold=0.1 (l=1)" in warnings[0]
        assert "~40.2 expected errors at threshold=1 (l=3)" in warnings[1]

    def test_fault_injection_is_caught(self, monkeypatch):
        config = ExperimentConfig(l=(1,), zeta=0.0, snr_db_min=0, snr_db_max=10, snr_db_step=5,
                                  trials=20000, seed=3)
        # a non-unitary transform pair must trip the transform suites
        monkeypatch.setattr("amqd.validation.unitary_dft", np.fft.fft)
        report = run_validation(config)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert any("transform" in name for name in failed)
