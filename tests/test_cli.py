import argparse
import csv
import io

import pytest

from switchsim.cli import _parse_float_list, build_parser, main
from switchsim.config import Config


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


class TestCalibrate:
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
        calls = []
        build = Config.plant

        def counted(config):
            calls.append(config)
            return build(config)

        monkeypatch.setattr(Config, "plant", counted)
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "--config", str(cfg), "simulate", "--out", str(out))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("duration", ["1e-300", "0", "0.0009", "-1"])
    def test_duration_under_one_step_exits_2(self, capsys, duration):
        code, out, err = run_cli(capsys, "simulate", "--duration", duration)
        assert code == 2
        assert "--duration must be finite and at least one step of dt_s = 0.001 s" in err
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
        assert "not both" in err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_must_be_positive(self, capsys, top):
        code, _, err = run_cli(capsys, "optimize", "--top", top)
        assert code == 2
        assert "must be a positive integer" in err

    @pytest.mark.parametrize("command, flag", [("optimize", "--cap"), ("switching-time", "--trials")])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_must_be_positive(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, command, flag, value)
        assert code == 2
        assert f"{flag}: must be a positive integer, got {value}" in err
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

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/nonexistent.cfg", "validate")
        assert code == 1


def _float_flags():
    """(subcommand, flag, value count) of every float-valued flag the parser declares."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        (command, action.option_strings[0], action.nargs or 1)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.type in (float, _parse_float_list)
    ]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, count", _float_flags())
def test_non_finite_float_flag_fails_cleanly(capsys, command, flag, count, value):
    code, _, err = run_cli(capsys, command, flag, *[value] * count)
    assert code != 0
    assert err
