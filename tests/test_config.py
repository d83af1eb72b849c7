import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from switchsim import (
    Config,
    ConfigError,
    DisturbancePulses,
    InjectDisturbance,
    MoveMotorTo,
    PathSpec,
    SetVelocity,
    Wait,
    parse_config,
    serialize_config,
)


class TestDefaults:
    def test_empty_file_is_reference_config(self):
        assert parse_config("") == Config()

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n[layout]  # trailing\n# another\n"
        assert parse_config(text) == Config()

    def test_partial_override(self):
        cfg = parse_config("[layout]\nswitch_teeth = 16\n")
        assert cfg == Config()
        cfg = parse_config("[layout]\nswitch_teeth = 14\n")
        assert cfg == Config(switch_teeth=14)

    def test_reference_plant_numbers(self):
        plant = Config().plant()
        assert math.degrees(plant.engagement.theta_track) == pytest.approx(19.8, abs=1e-9)
        assert plant.traversal.effective_ratio == pytest.approx(122.6 / 19.8)
        assert plant.motor.profile_accel == pytest.approx(5466.05, abs=0.01)


class TestErrors:
    def assert_errors(self, text, *fragments):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        message = str(exc.value)
        for fragment in fragments:
            assert fragment in message
        return exc.value

    def test_unknown_section(self):
        err = self.assert_errors("[gears]\nfoo = 1\n", "unknown section")
        assert err.errors[0][0] == 1

    def test_unknown_key_with_line(self):
        err = self.assert_errors("[layout]\ndrive_teeth = 20\nbogus = 3\n", "unknown key")
        assert err.errors[0][0] == 3

    def test_syntax_error(self):
        self.assert_errors("[layout]\ndrive_teeth\n", "expected 'key = value'")

    def test_bad_number(self):
        self.assert_errors("[layout]\ndrive_teeth = many\n", "cannot parse")

    def test_duplicate_key(self):
        self.assert_errors("[sim]\nseed = 1\nseed = 2\n", "duplicate key")

    def test_mixed_modules_names_keys(self):
        text = "[layout]\ndrive_module_mm = 1.0\nswitch_module_mm = 0.8\n"
        err = self.assert_errors(text, "mesh", "drive_module_mm", "switch_module_mm")
        # attributed to the later of the offending lines
        assert any(line == 3 for line, _ in err.errors)

    def test_slip_and_pair_rejected(self):
        self.assert_errors(
            "[traversal]\nslip = 0.7\nmotor_travel_deg = 120\n", "not both"
        )

    def test_accel_and_target_rejected(self):
        self.assert_errors(
            "[motor]\nprofile_accel_deg_s2 = 5000\ntarget_switch_time_ms = 300\n",
            "not both",
        )

    def test_distance_and_travel_rejected(self):
        self.assert_errors(
            "[layout]\ncenter_distance_mm = 34.76\ntrack_travel_deg = 19.8\n",
            "not both",
        )

    def test_geometry_violations_surface(self):
        self.assert_errors(
            "[layout]\ncenter_distance_mm = 100.0\n", "no-engagement"
        )

    def test_slip_range(self):
        self.assert_errors("[traversal]\nslip = 1.5\n", "outside [0, 1)")

    def test_bad_script_command(self):
        self.assert_errors("[script]\nfly_to 30\n", "unrecognized script command")

    def test_content_outside_section(self):
        self.assert_errors("drive_teeth = 20\n", "outside a known section")

    def test_bow_on_linear_rejected(self):
        self.assert_errors(
            "[paths]\nagonist_bow_mm = 3.0\n", "only applies to the curved kind"
        )

    def test_target_below_floor_caught(self):
        self.assert_errors(
            "[motor]\ntarget_switch_time_ms = 100.0\n", "cannot be instantiated"
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("traversal", "motor_travel_deg", "nan"),  # would calibrate slip 0
            ("spools", "spring_rate_nmm_per_deg", "nan"),  # would give NaN tension rows
            ("sim", "dt_s", "inf"),
            ("motor", "max_output_speed_deg_s", "inf"),
        ],
    )
    def test_non_finite_value_rejected_with_line(self, section, key, value):
        err = self.assert_errors(f"[{section}]\n{key} = {value}\n", "must be finite")
        assert err.errors == [(2, f"{key} must be finite, got {value!r}")]

    def test_non_finite_knot_rejected_with_line(self):
        text = "[paths]\nantagonist_kind = tabulated\nantagonist_knots = -90:344, nan:300, 90:256\n"
        err = self.assert_errors(text, "bad knot table")
        assert [line for line, _ in err.errors] == [3]

    @pytest.mark.parametrize(
        "command", ["move_to nan", "set_velocity inf", "disturb disengaged nan", "wait -inf"]
    )
    def test_non_finite_script_argument_rejected_with_line(self, command):
        err = self.assert_errors(f"[script]\nwait 0.1\n{command}\n", "not a finite number")
        assert [line for line, _ in err.errors] == [3]

    def test_removed_control_mode_key_rejected_with_line(self):
        err = self.assert_errors(
            "[motor]\nmax_output_speed_deg_s = 720.0\ncontrol_mode = position\n",
            "unknown key 'control_mode' in [motor]",
        )
        assert [line for line, _ in err.errors] == [3]

    def test_negative_wait_rejected_with_line(self):
        err = self.assert_errors("[script]\nmove_to 10\nwait -1\n", "must not be negative")
        assert [line for line, _ in err.errors] == [3]


class TestScript:
    def test_commands_parse(self):
        text = (
            "[script]\n"
            "move_to 225.0\n"
            "set_velocity 360.0\n"
            "wait 0.5\n"
            "disturb disengaged 5.0 0.1\n"
            "disturb_off\n"
        )
        cfg = parse_config(text)
        assert cfg.script == (
            MoveMotorTo(225.0),
            SetVelocity(360.0),
            Wait(0.5),
            InjectDisturbance(DisturbancePulses(target="disengaged", magnitude=5.0, width=0.1)),
            InjectDisturbance(None),
        )


class TestRoundTrip:
    def test_defaults(self):
        cfg = Config()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_customized(self):
        cfg = Config(
            switch_teeth=12,
            drive_module=0.8,
            switch_module=0.8,
            driven_module=0.8,
            driven_half_angle_deg=30.0,
            slip=0.5,
            profile_accel=4800.0,
            antagonist=PathSpec(kind="curved", reference_length=310.0, moment_arm=22.0, bow=4.0),
            payout_at_zero_mm=250.0,
            dt_s=0.0005,
            seed=99,
            script=(MoveMotorTo(100.0), Wait(0.25)),
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_explicit_center_distance(self):
        cfg = Config(center_distance_mm=34.757014711652)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_tabulated_path(self):
        knots = tuple(
            (float(d), 300.0 - 25.0 * math.radians(d) - 5.0 * math.sin(math.radians(d)))
            for d in range(-90, 91, 30)
        )
        cfg = Config(antagonist=PathSpec(kind="tabulated", knots=knots))
        round_tripped = parse_config(serialize_config(cfg))
        assert round_tripped == cfg
        round_tripped.plant()  # buildable

    def test_per_gear_modules(self):
        cfg = Config(drive_module=0.5, switch_module=0.5, driven_module=0.5)
        text = serialize_config(cfg)
        assert "module_mm = 0.5" in text
        assert parse_config(text) == cfg

    @given(
        teeth=st.integers(min_value=10, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        dt=st.sampled_from([1e-3, 5e-4, 2e-3]),
    )
    def test_round_trip_random(self, teeth, seed, dt):
        cfg = Config(driven_teeth=teeth, seed=seed, dt_s=dt)
        assert parse_config(serialize_config(cfg)) == cfg


class TestSerializedText:
    """Byte-exact serialize_config output: every config file it writes depends on it."""

    def test_defaults(self):
        assert serialize_config(Config()) == (
            "[layout]\ndrive_teeth = 20\nswitch_teeth = 16\ndriven_teeth = 20\nmodule_mm = 1.0\n"
            "driven_half_angle_deg = 25.0\ntrack_travel_deg = 19.8\nbacklash_margin_mm = 0.2\n"
            "\n[traversal]\nmotor_travel_deg = 122.6\nrevolution_travel_deg = 19.8\n"
            "\n[motor]\nmax_output_speed_deg_s = 720.0\ntarget_switch_time_ms = 302.0\n"
            "\n[paths]\nagonist_kind = linear\nagonist_reference_length_mm = 300.0\n"
            "agonist_moment_arm_mm = 25.0\nantagonist_kind = curved\n"
            "antagonist_reference_length_mm = 300.0\nantagonist_moment_arm_mm = 25.0\n"
            "antagonist_bow_mm = 5.0\n"
            "\n[spools]\nspool_radius_mm = 10.0\nspring_preload_nmm = 5.0\n"
            "spring_rate_nmm_per_deg = 0.05\n"
            "\n[sim]\ndt_s = 0.001\nseed = 0\n"
        )

    def test_customized(self):
        cfg = Config(
            switch_teeth=14,
            drive_module=0.8,
            switch_module=0.8,
            driven_module=1.0,
            center_distance_mm=34.757014711652,
            slip=0.5,
            profile_accel=4800.0,
            agonist=PathSpec(kind="curved", reference_length=310.0, moment_arm=22.0, bow=-4.0),
            antagonist=PathSpec(
                kind="tabulated", knots=((-90.0, 344.27), (0.0, 300.0), (90.0, 255.73))
            ),
            payout_at_zero_mm=250.0,
            dt_s=0.0005,
            seed=99,
            script=(
                MoveMotorTo(100.0),
                SetVelocity(-90.0),
                Wait(0.25),
                InjectDisturbance(DisturbancePulses(target="disengaged", magnitude=5.0, width=0.1)),
                InjectDisturbance(None),
            ),
        )
        assert serialize_config(cfg) == (
            "[layout]\ndrive_teeth = 20\nswitch_teeth = 14\ndriven_teeth = 20\n"
            "drive_module_mm = 0.8\nswitch_module_mm = 0.8\ndriven_module_mm = 1.0\n"
            "driven_half_angle_deg = 25.0\ncenter_distance_mm = 34.757014711652\n"
            "backlash_margin_mm = 0.2\n"
            "\n[traversal]\nslip = 0.5\n"
            "\n[motor]\nmax_output_speed_deg_s = 720.0\nprofile_accel_deg_s2 = 4800.0\n"
            "\n[paths]\nagonist_kind = curved\nagonist_reference_length_mm = 310.0\n"
            "agonist_moment_arm_mm = 22.0\nagonist_bow_mm = -4.0\nantagonist_kind = tabulated\n"
            "antagonist_reference_length_mm = 300.0\nantagonist_moment_arm_mm = 25.0\n"
            "antagonist_knots = -90.0:344.27, 0.0:300.0, 90.0:255.73\n"
            "\n[spools]\nspool_radius_mm = 10.0\nspring_preload_nmm = 5.0\n"
            "spring_rate_nmm_per_deg = 0.05\npayout_at_zero_mm = 250.0\n"
            "\n[sim]\ndt_s = 0.0005\nseed = 99\n"
            "\n[script]\nmove_to 100.0\nset_velocity -90.0\nwait 0.25\n"
            "disturb disengaged 5.0 0.1\ndisturb_off\n"
        )


def test_readme_example_is_reference_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert parse_config(block) == Config(
        script=(
            MoveMotorTo(225.0),
            SetVelocity(360.0),
            Wait(0.5),
            InjectDisturbance(DisturbancePulses(target="disengaged", magnitude=5.0)),
            InjectDisturbance(None),
        )
    )
