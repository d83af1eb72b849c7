import argparse
import csv
import io
import os
import re
import resource
import subprocess
import sys

import pytest

import switchsim
from switchsim import cli
from switchsim.cli import (
    _finite_float,
    _non_negative_float,
    _parse_float_list,
    _parse_int_range,
    build_parser,
    main,
)
from switchsim.plant import PlantConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(switchsim.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestValidate:
    def test_default_config_clean(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "0 violations" in out

    def test_broken_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[layout]\ncenter_distance_mm = 100.0\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "validate")
        assert code == 1
        assert "no-engagement" in err


class TestSwitchingTime:
    def test_reference_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "switching-time", "--trials", "10", "--no-jitter")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["mean_up_ms"]) == pytest.approx(302.0, abs=1e-6)
        assert float(row["mean_down_ms"]) == pytest.approx(302.0, abs=1e-6)
        assert float(row["sigma_up_ms"]) == 0.0

    def test_check_flag_pass_and_fail(self, capsys):
        code, _, _ = run_cli(
            capsys, "switching-time", "--no-jitter", "--check", "298", "302"
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "switching-time", "--no-jitter", "--check", "100", "200"
        )
        assert code == 1
        assert "check failed" in err

    def test_jitter_past_the_float_range_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "switching-time", "--jitter-sigma-ms", "1e308")
        assert (code, out) == (1, "")
        assert err == "SwitchSimError: jitter_sigma_ms 1e+308 drives the durations past the float range\n"

    def test_per_trial_file(self, capsys, tmp_path):
        per_trial = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            capsys,
            "switching-time",
            "--trials",
            "3",
            "--no-jitter",
            "--out",
            str(tmp_path / "stats.csv"),
            "--per-trial",
            str(per_trial),
        )
        assert code == 0
        rows = parse_csv(per_trial.read_text())
        assert len(rows) == 3
        assert float(rows[0]["up_ms"]) == pytest.approx(302.0, abs=1e-6)

    @pytest.mark.parametrize(
        "flags, stats, trials",
        [
            pytest.param(
                (),
                "10,301.7659316434992,0.4696086711881228,302.4048105733914,0.48715745963846785\n",
                "0,301.84647182693146,302.30685890750993\n"
                "1,302.22404910177437,303.51984727283684\n"
                "2,301.4355458695829,302.133611803853\n"
                "3,301.427769795162,301.7245435058968\n"
                "4,301.2655563945716,302.226552918981\n"
                "5,301.1328873862321,302.13973589393345\n"
                "6,301.94838860826826,302.91085547974507\n"
                "7,302.73168796167215,302.58114137505464\n"
                "8,302.0896908636895,301.9800949435637\n"
                "9,301.55726862710753,302.52486363253945\n",
                id="jitter",
            ),
            pytest.param(
                ("--no-jitter",),
                "10,302.0,0.0,302.0,0.0\n",
                "".join(f"{i},302.0,302.0\n" for i in range(10)),
                id="no-jitter",
            ),
        ],
    )
    def test_seeded_output_pinned(self, capsys, tmp_path, flags, stats, trials):
        """Byte-exact output recorded before the per-trial draws were skipped without jitter."""
        per_trial = tmp_path / "trials.csv"
        code, out, _ = run_cli(
            capsys,
            "switching-time", "--trials", "10", "--seed", "7", *flags,
            "--per-trial", str(per_trial),
        )
        assert code == 0
        assert out == "n_trials,mean_up_ms,sigma_up_ms,mean_down_ms,sigma_down_ms\n" + stats
        assert per_trial.read_text() == "trial,up_ms,down_ms\n" + trials


class TestIndependence:
    def test_zero_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "independence", "--check-zero")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["max_engaged_deviation_mm"]) == 0.0
        assert float(row["rom_min_deg"]) == pytest.approx(-90.0, abs=1e-6)
        assert float(row["rom_max_deg"]) == pytest.approx(90.0, abs=1e-6)

    def test_negative_control_fails_check(self, capsys):
        code, _, err = run_cli(
            capsys, "independence", "--target", "engaged", "--check-zero"
        )
        assert code == 1
        assert "deviated" in err


class TestDisturbanceStep:
    @pytest.mark.parametrize(
        "command, script",
        [("simulate", "disturb disengaged 5.0\n"), ("independence", "")],
    )
    def test_a_disturbance_on_steps_over_the_shortest_gap_exits_1(self, tmp_path, command, script):
        # Past the shortest gap a step may toggle a pulse without bound: at
        # dt_s = 1e15 the gaps round away and the run would never end.
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(f"[sim]\ndt_s = 1e15\n[script]\n{script}wait 1e15\n")
        result = subprocess.run(
            [sys.executable, "-m", "switchsim.cli", "--config", str(cfg), command],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert "disturbance pulses need dt of at most 0.05 s, got 1000000000000000.0 s" in result.stderr

    def test_a_pulse_narrower_than_a_step_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("[script]\ndisturb plus 5.0 1e-06\nwait 1.0\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "simulate")
        assert (code, out) == (1, "")
        assert err == "config error: line 2: disturbance width 1e-06 s is under one step of dt=0.001 s\n"


class TestSweep:
    def test_fit_recovers_travel(self, capsys):
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 0
        rows = parse_csv(out)
        times = [float(r["t_switch_ms"]) for r in rows]
        assert all(b < a for a, b in zip(times, times[1:]))
        assert float(rows[0]["fit_travel_deg"]) == pytest.approx(122.6, rel=0.01)


class TestOptimize:
    def test_small_space(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize",
            "--drive-teeth", "18:22:2",
            "--switch-teeth", "10:16:2",
            "--driven-teeth", "20",
            "--top", "5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert 0 < len(rows) <= 5
        times = [float(r["predicted_t_switch_ms"]) for r in rows]
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "flag, values, axis",
        [
            ("--modules", "1.0,1.0", "modules"),
            ("--phi-d-deg", "25,25", "half_angles"),
            ("--psi-star-deg", "9.9,9.9", "psi_star_targets"),
            ("--center-distance-mm", "30,30", "center_distances"),
            ("--switch-teeth", "12,14,12", "switch_teeth"),
        ],
    )
    def test_a_repeated_grid_value_exits_1(self, capsys, flag, values, axis):
        code, out, err = run_cli(capsys, "optimize", flag, values, "--top", "2")
        assert (code, out) == (1, "")
        assert f"ValueError: {axis} must not repeat a value, got (" in err

    def test_uses_config_backlash_margin(self, capsys, tmp_path):
        cfg = tmp_path / "margin.cfg"
        cfg.write_text("[layout]\nbacklash_margin_mm = 1.5\n")
        code, default_out, _ = run_cli(capsys, "optimize", "--switch-teeth", "8:16")
        assert code == 0
        code, margin_out, _ = run_cli(
            capsys, "--config", str(cfg), "optimize", "--switch-teeth", "8:16"
        )
        assert code == 0
        # A wider margin empties the neutral band of some designs.
        assert len(parse_csv(default_out)) == 729
        assert len(parse_csv(margin_out)) == 596

    def test_cap_enforcement(self, capsys):
        code, _, err = run_cli(
            capsys,
            "optimize",
            "--drive-teeth", "8:40",
            "--switch-teeth", "8:40",
            "--driven-teeth", "8:40",
            "--cap", "100",
        )
        assert code == 1
        assert "SpaceTooLarge" in err

    def test_huge_tooth_range_meets_the_cap_unbuilt(self):
        # A billion tooth counts would take gigabytes as a tuple; under a
        # 1 GB address-space limit the range must reach the cap check as is.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        def optimize(drive_teeth):
            return subprocess.run(
                [sys.executable, "-m", "switchsim.cli", "optimize", "--drive-teeth", drive_teeth],
                env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
                preexec_fn=limit_memory,
                capture_output=True,
                text=True,
                timeout=60,
            )

        huge, known = optimize("16:1000000000"), optimize("16:100000")
        message = "SpaceTooLarge: design space has {} candidates, cap is 1000000\n"
        # Times 13 switch and 9 driven tooth counts, the defaults.
        assert (known.returncode, known.stdout) == (1, "")
        assert known.stderr == message.format((100_000 - 15) * 13 * 9)
        assert (huge.returncode, huge.stdout) == (1, "")
        assert huge.stderr == message.format((1_000_000_000 - 15) * 13 * 9)

    @pytest.mark.parametrize(
        "text, teeth",
        [
            ("16:24:2", [16, 18, 20, 22, 24]),
            ("24:16:-2", [24, 22, 20, 18, 16]),
            ("9:8:-1", [9, 8]),
            ("24:20", [24, 23, 22, 21, 20]),
            ("7:7", [7]),
        ],
    )
    def test_tooth_range_includes_both_ends_either_way(self, text, teeth):
        assert list(_parse_int_range(text)) == teeth

    def test_a_descending_tooth_range_writes_the_ascending_ones_csv(self, capsys):
        flags = ("--switch-teeth", "8:12", "--driven-teeth", "16:18")
        down = run_cli(capsys, "optimize", "--drive-teeth", "24:16", *flags)
        up = run_cli(capsys, "optimize", "--drive-teeth", "16:24", *flags)
        assert down == up
        assert up[0] == 0 and len(parse_csv(up[1])) > 1

    @pytest.mark.parametrize("text", ["16:24:-1", "24:16:2"])
    def test_a_tooth_range_holding_no_count_exits_2(self, capsys, text):
        code, out, err = run_cli(capsys, "optimize", "--drive-teeth", text)
        assert (code, out) == (2, "")
        assert f"argument --drive-teeth: tooth range '{text}' holds no tooth count" in err

    def test_tooth_range_of_more_than_three_parts_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--drive-teeth", "16:24:2:99")
        assert (code, out) == (2, "")
        assert "argument --drive-teeth: a tooth range is 'a:b' or 'a:b:step', got '16:24:2:99'" in err

    def test_subnormal_module_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--modules", "1e-320")
        assert (code, out) == (1, "")
        assert err == "EmptyFeasibleSet: no design in the space passed validation and constraints\n"

    def test_tooth_count_beyond_the_float_range_exits_1(self, capsys):
        huge = str(10**400)
        code, out, err = run_cli(capsys, "optimize", "--drive-teeth", huge)
        assert (code, out, err) == (1, "", f"ValueError: tooth_count must be finite, got {huge}\n")

    def test_tooth_count_beyond_the_float_range_in_config_exits_1(self, capsys, tmp_path):
        huge = str(10**400)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"[layout]\ndrive_teeth = {huge}\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "validate")
        assert (code, out) == (1, "")
        assert err == f"config error: line 2: drive_teeth must be finite, got {huge}\n"

    def test_subnormal_module_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[layout]\nmodule_mm = 1e-300\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "validate")
        assert (code, out) == (1, "")
        assert "config error: line 2: switch-driven-interference: track radius 1.8e-299 mm" in err


class TestCalibrate:
    def test_calibration_over_the_step_budget_exits_1(self, capsys):
        # A config with this calibration is refused; so is the calibration itself.
        code, out, err = run_cli(capsys, "calibrate", "--switch-time-ms", "1e12")
        assert (code, out) == (1, "")
        assert err.startswith("SwitchSimError: 2 x 1000000000.0 s takes 2 x 1e+12 steps")

    def test_reference_measurements(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["profile_accel_deg_s2"]) == pytest.approx(5466.05, abs=0.01)
        assert float(row["k_eff"]) == pytest.approx(6.1919, abs=1e-4)
        assert float(row["slip"]) == pytest.approx(0.7093, abs=1e-4)
        assert float(row["reproduced_time_ms"]) == pytest.approx(302.0, abs=1e-6)

    def test_reports_the_plant_the_config_builds(self, capsys, tmp_path):
        cfg = tmp_path / "rev.cfg"
        cfg.write_text("[traversal]\nrevolution_travel_deg = 20.5\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "calibrate")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["profile_accel_deg_s2"]) == pytest.approx(5234.97, abs=0.01)
        code, out, _ = run_cli(capsys, "--config", str(cfg), "switching-time", "--no-jitter")
        assert code == 0
        mean_up_ms = float(parse_csv(out)[0]["mean_up_ms"])
        assert mean_up_ms == 302.0
        assert float(row["reproduced_time_ms"]) == pytest.approx(mean_up_ms, abs=1e-6)

    def test_defaults_come_from_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "[traversal]\nmotor_travel_deg = 120.0\nrevolution_travel_deg = 20.0\n"
            "[motor]\ntarget_switch_time_ms = 290.0\n"
        )
        code, out, _ = run_cli(capsys, "--config", str(cfg), "calibrate")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["reproduced_time_ms"]) == pytest.approx(290.0, abs=1e-6)
        assert float(row["k_eff"]) == pytest.approx(6.0, abs=1e-12)
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "calibrate", "--switch-time-ms", "300"
        )
        assert float(parse_csv(out)[0]["reproduced_time_ms"]) == pytest.approx(300.0, abs=1e-6)


class TestSimulate:
    SCRIPT_CFG = "[script]\nset_velocity 360.0\nwait 0.05\n"

    def test_trace_and_events(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.SCRIPT_CFG)
        trace_path = tmp_path / "trace.csv"
        events_path = tmp_path / "events.csv"
        code, _, _ = run_cli(
            capsys,
            "--config", str(cfg),
            "simulate",
            "--out", str(trace_path),
            "--events", str(events_path),
        )
        assert code == 0
        rows = parse_csv(trace_path.read_text())
        assert len(rows) == 51
        assert events_path.read_text().startswith("t_s,kind,detail")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[script]\ndisturb disengaged 4.0\nmove_to 150.0\n")
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "--config", str(cfg), "simulate", "--out", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_builds_one_plant(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.SCRIPT_CFG)
        # Every PlantConfig construction, whichever builder or copy makes it.
        calls = []
        check = PlantConfig.__post_init__

        def counted(plant):
            calls.append(plant)
            check(plant)

        monkeypatch.setattr(PlantConfig, "__post_init__", counted)
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "--config", str(cfg), "simulate", "--out", str(out))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("duration", ["1e-300", "0", "0.0009", "-1"])
    def test_duration_under_one_step_exits_2(self, capsys, duration):
        # Only -1 is a usage error (exit 2): the range rule refuses it as the
        # flag is parsed. A duration that covers no step fails as a run, with
        # the wording of a wait that covers no step (exit 1); 0.0009 s covers one.
        code, out, err = run_cli(capsys, "simulate", "--duration", duration)
        if duration == "0.0009":
            assert code == 0
            assert len(parse_csv(out)) == 2
            return
        if duration == "-1":
            assert code == 2
            assert "argument --duration: value must be finite and not negative, got -1.0" in err
        else:
            assert code == 1
            message = f"duration of {float(duration)!r} s covers no step of dt=0.001 s"
            assert message in err
        assert out == ""

    def test_duration_of_one_step_runs_it(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--duration", "0.001")
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SWITCHSIM_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "simulate", "--duration", "0.01", "--out", "t.csv")
        assert code == 0
        assert (tmp_path / "t.csv").exists()


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_bad_flag_exits_2(self, capsys):
        assert main(["switching-time", "--trials", "not-a-number"]) == 2

    def test_conflicting_optimizer_grids_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "optimize",
            "--psi-star-deg", "9.9",
            "--center-distance-mm", "34.76",
        )
        assert code == 2
        assert "argument --center-distance-mm: not allowed with argument --psi-star-deg" in err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_must_be_positive(self, capsys, top):
        code, _, err = run_cli(capsys, "optimize", "--top", top)
        assert code == 2
        assert "must be finite and positive" in err

    @pytest.mark.parametrize("command, flag", [("optimize", "--cap"), ("switching-time", "--trials")])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_must_be_positive(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, command, flag, value)
        assert code == 2
        assert f"{flag}: value must be finite and positive, got {value}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (("nan", "400"), "--check LO must be finite, got nan"),
            (("100", "inf"), "--check HI must be finite, got inf"),
            (("400", "100"), "--check LO 400.0 exceeds HI 100.0"),
        ],
    )
    def test_bad_check_bounds_exit_2(self, capsys, bounds, message):
        code, out, err = run_cli(capsys, "switching-time", "--check", *bounds)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "command, flag", [("switching-time", "--jitter-sigma-ms"), ("independence", "--magnitude")]
    )
    @pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
    def test_negative_or_non_finite_amount_exits_2(self, capsys, command, flag, value, shown):
        code, out, err = run_cli(capsys, command, f"{flag}={value}")
        assert code == 2
        assert f"argument {flag}: value must be finite and not negative, got {shown}" in err
        assert out == ""

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/nonexistent.cfg", "validate")
        assert code == 1


def _typed_flags():
    """(subcommand, flag, value count, type) of every flag the parser declares with a
    type; each of them takes numbers."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        (command, action.option_strings[0], action.nargs or 1, action.type)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.type is not None
    ]


def _float_flags():
    """(subcommand, flag, value count) of every float-valued flag the parser declares."""
    floats = (float, _finite_float, _parse_float_list, _non_negative_float)
    return [flag[:3] for flag in _typed_flags() if flag[3] in floats]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, count", _float_flags())
def test_non_finite_float_flag_fails_cleanly(capsys, command, flag, count, value):
    code, out, err = run_cli(capsys, command, flag, *[value] * count)
    assert (code, out) == (2, "")
    # --check checks its bounds itself, so that its message names the bound.
    assert (f"{flag} LO must be finite" if flag == "--check" else f"argument {flag}:") in err


@pytest.mark.parametrize("command, flag, count", [flag[:3] for flag in _typed_flags()])
def test_non_numeric_flag_is_a_usage_error_naming_the_flag(capsys, command, flag, count):
    code, out, err = run_cli(capsys, command, flag, *["abc"] * count)
    assert (code, out) == (2, "")
    assert f"argument {flag}:" in err
    assert "invalid _" not in err  # argparse names a type callable that raises ValueError


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("optimize", "--modules"),
        ("optimize", "--phi-d-deg"),
        ("optimize", "--psi-star-deg"),
        ("optimize", "--center-distance-mm"),
        ("sweep", "--omegas"),
    ],
)
def test_non_finite_list_item_is_a_usage_error(capsys, command, flag, value):
    code, out, err = run_cli(capsys, command, flag, f"25,{value}")
    assert code == 2
    assert f"argument {flag}: value must be finite, got {value}" in err
    assert out == ""


@pytest.mark.parametrize("value", ["-1", "0", "1e-320", "1e308", "nan", "inf", ""])
@pytest.mark.parametrize("command, flag, count", [flag[:3] for flag in _typed_flags()])
def test_numeric_flag_fuzz_exits_0_1_or_2(capsys, command, flag, count, value):
    # Huge tooth ranges have their own memory-capped subprocess test above.
    argv = [command, f"{flag}={value}"] if count == 1 else [command, flag, *[value] * count]
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.strip()


SIM_CFG = "[script]\nset_velocity 360\nwait 0.02\n"

# One valid argv per subcommand, then help, abbreviations, odd --config
# values, a config file named like a command, no command, unknown flags and
# the mutually exclusive optimize grid. ``main`` parses each as the full parser.
DIFFERENTIAL_ARGV = [
    ["validate"],
    ["--config", "sim.cfg", "simulate", "--duration", "0.01"],
    ["switching-time", "--trials", "1", "--no-jitter"],
    ["independence", "--magnitude", "1"],
    ["sweep", "--omegas", "360,720"],
    ["optimize", "--drive-teeth", "16", "--switch-teeth", "12", "--driven-teeth", "18"],
    ["calibrate", "--switch-time-ms", "300"],
    ["-h"],
    ["simulate", "-h"],
    ["--conf", "sim.cfg", "validate"],
    ["--config=sim.cfg", "validate"],
    ["--config", "-x", "validate"],
    ["--config", "simulate", "validate"],
    ["--config", "sim.cfg", "--config=simulate", "simulate"],
    ["--config", "sim.cfg"],
    ["--config"],
    ["bogus"],
    [],
    ["--"],
    ["simulate", "--bogus", "1"],
    ["validate", "extra"],
    ["sweep", "--position-mode", "--omegas"],
    ["optimize", "--psi-star-deg", "9", "--center-distance-mm", "30"],
]


@pytest.mark.parametrize("argv", DIFFERENTIAL_ARGV, ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    # The shared parser gives the same result on its first use, after an
    # error, and as a parser built for this call alone.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    (tmp_path / "simulate").write_text(SIM_CFG)  # a config file named like a command
    first = run_cli(capsys, *argv)
    run_cli(capsys, "bogus")
    again = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert first == again == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv", [["simulate"], ["--config", "sim.cfg", "simulate"], ["--config=sim.cfg", "simulate"]]
)
def test_a_second_main_call_builds_no_subparser(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    assert run_cli(capsys, "validate")[0] == 0
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, built) == (0, [])
    assert out.startswith("t_s,motor_deg,")


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "from switchsim import cli\n"
        "print(len(built), cli._parser.cache_info().currsize)\n"
        "cli.main(['validate'])\n"
        "print(len(built), cli._parser.cache_info().currsize)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    # The top parser and its seven subparsers, on the first main call only.
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 0\n0 violations\n8 1\n", "")


def test_help_lists_every_subcommand():
    result = subprocess.run(
        [sys.executable, "-m", "switchsim.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="200"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert list(cli._COMMANDS) == [
        "validate", "simulate", "switching-time", "independence", "sweep", "optimize", "calibrate"
    ]
    for name, (help_line, _, _) in cli._COMMANDS.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+{re.escape(help_line)}$", result.stdout, re.M)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_a_missing_or_unknown_command_is_named_command(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"switchsim: error: {message}" in err
