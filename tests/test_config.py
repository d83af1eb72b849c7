import itertools
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from switchsim import (
    Config,
    ConfigError,
    DisturbancePulses,
    InjectDisturbance,
    InvalidDesign,
    MoveMotorTo,
    PathSpec,
    SetVelocity,
    SwitchSimError,
    Wait,
    load_config,
    parse_config,
    run_script,
    run_switching_time,
    serialize_config,
    validate_layout,
)
from switchsim.config import _SCHEMA, _parse


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

    def test_no_config_file_is_the_empty_file(self):
        assert load_config(None) == _parse("")

    def test_no_config_file_meets_the_checks_of_a_file(self, monkeypatch):
        # The reference rig meets a file's checks, here the one-trial step budget.
        monkeypatch.setattr("switchsim.plant.STEP_BUDGET", 100)
        with pytest.raises(ConfigError) as err:
            load_config(None)
        assert "over the budget of 100 steps" in str(err.value)

    def test_reference_plant_numbers(self):
        plant = Config().plant()
        assert math.degrees(plant.engagement.theta_track) == pytest.approx(19.8, abs=1e-9)
        assert plant.traversal.effective_ratio == pytest.approx(122.6 / 19.8)
        assert plant.motor.profile_accel == pytest.approx(5466.05, abs=0.01)


class TestPlantValidates:
    """``Config.plant()`` is the one place a config's layout is validated."""

    @pytest.mark.parametrize(
        "overrides, rule",
        [
            ({"center_distance_mm": 100.0}, "no-engagement"),
            ({"backlash_margin_mm": 5.0}, "empty-neutral-band"),
            ({"backlash_margin_mm": -1.0}, "invalid-parameter"),
        ],
    )
    def test_invalid_layout_raises(self, overrides, rule):
        with pytest.raises(InvalidDesign) as exc:
            Config(**overrides).plant()
        assert rule in exc.value.report.rules()

    def test_raises_for_every_layout_the_validator_rejects(self):
        rng = random.Random(6)
        outcomes = set()
        for _ in range(300):
            cfg = Config(
                switch_teeth=rng.randint(8, 30),
                driven_teeth=rng.randint(8, 30),
                module=rng.choice((1.0, 1.0, 1.0, 0.8)),
                driven_half_angle_deg=rng.uniform(5.0, 60.0),
                center_distance_mm=rng.uniform(20.0, 60.0),
                backlash_margin_mm=rng.uniform(-0.5, 3.0),
                profile_accel=5466.0,  # no calibration: long tracks miss the 302 ms target
            )
            report = validate_layout(cfg.layout())
            if report.ok:
                assert cfg.plant().engagement == report.engagement
            else:
                with pytest.raises(InvalidDesign) as exc:
                    cfg.plant()
                assert exc.value.report == report
            outcomes.add(report.ok)
        assert outcomes == {True, False}

    def test_parse_solves_the_engagement_once(self, solve_calls):
        assert parse_config("") == Config()
        assert len(solve_calls) == 1


# One problem per section: (section, key, bad value, the error, the sections
# its rule reads). Each is reported at the line of its key, the first of its
# section, or the first of its side's [paths] keys.
_PROBES = [
    (
        "layout", "center_distance_mm", "100.0",
        "no-engagement: switch track never comes within mesh distance of a driven gear",
        {"layout"},
    ),
    ("traversal", "slip", "2", "slip must be in [0, 1), got 2.0", {"traversal"}),
    (
        "traversal", "motor_travel_deg", "5",
        "measured motor/revolution ratio 0.252525 below kinematic carry ratio 1.8",
        {"layout", "traversal"},
    ),
    (
        "paths", "agonist_moment_arm_mm", "-1",
        "agonist path: moment_arm must be finite and positive, got -1.0",
        {"paths"},
    ),
    (
        "motor", "max_output_speed_deg_s", "-5",
        "max_output_speed_deg_s must be finite and positive, got -5.0",
        {"motor"},
    ),
    (
        "spools", "spool_radius_mm", "-1",
        "spool_radius_mm must be finite and positive, got -1.0",
        {"spools"},
    ),
    ("sim", "dt_s", "-1", "dt_s must be finite and positive, got -1.0", {"sim"}),
    (
        "script", "set_velocity", "1e9",
        "speed 1000000000.0 deg/s exceeds max_output_speed 720.0 deg/s",
        {"script", "motor", "sim"},
    ),
]


def _probe_block(probe) -> str:
    section, key, value = probe[:3]
    line = f"{key} {value}" if section == "script" else f"{key} = {value}"
    return f"[{section}]\n{line}\n"


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

    @pytest.mark.parametrize("key", ["drive_module_mm", "switch_module_mm", "driven_module_mm"])
    def test_per_gear_module_key_rejected_at_its_line(self, key):
        # The three gears share one module, module_mm; no key sets one gear's.
        text = f"[layout]\nmodule_mm = 1.0\n{key} = 0.8\n"
        message = f"unknown key {key!r} in [layout]"
        assert self.assert_errors(text, message).errors == [(3, message)]

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

    def test_midline_mesh_reported_once(self):
        err = self.assert_errors(
            "[layout]\ncenter_distance_mm = 30.5\ndriven_half_angle_deg = 8.0\n",
            "switch-driven-interference: switch meshes a driven gear at the midline",
        )
        assert len(err.errors) == 1

    def test_zero_disturbance_width_names_the_width(self):
        err = self.assert_errors(
            "[script]\ndisturb plus 5.0 0\n",
            "disturbance width must be finite and positive, got 0.0",
        )
        assert err.errors[0][0] == 2

    def test_subnormal_module_rejected(self):
        self.assert_errors(
            "[layout]\nmodule_mm = 1e-300\n",
            "switch-driven-interference: track radius 1.8e-299 mm and centre distance",
            "are too small to solve",
        )

    def test_module_too_large_to_solve_rejected(self):
        err = self.assert_errors(
            "[layout]\nmodule_mm = 1e155\n",
            "no finite centre distance reaches pitch tangency",
        )
        assert "nan" not in str(err)

    def test_target_switch_time_too_long_to_calibrate_rejected(self):
        # It names the measurement, not profile_accel, a key that was not set.
        err = self.assert_errors(
            "[motor]\ntarget_switch_time_ms = 1e200\n",
            "no finite, positive profile acceleration",
            "t_measured 1e+197 s",
        )
        assert "profile_accel " not in str(err)

    def test_slip_range(self):
        self.assert_errors("[traversal]\nslip = 1.5\n", "slip must be in [0, 1), got 1.5")

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
        "section, key, value, rule",
        [
            pytest.param(section, key, value, rule, id=f"{section}-{key}-{value}")
            for section, key, value, rule in [
                ("traversal", "motor_travel_deg", "nan", "finite"),  # would calibrate slip 0
                ("spools", "spring_rate_nmm_per_deg", "nan", "finite"),  # would give NaN tensions
                ("sim", "dt_s", "inf", "finite and positive"),
                ("motor", "max_output_speed_deg_s", "inf", "finite and positive"),
            ]
        ],
    )
    def test_non_finite_value_rejected_with_line(self, section, key, value, rule):
        err = self.assert_errors(f"[{section}]\n{key} = {value}\n", "must be finite")
        assert err.errors == [(2, f"{key} must be {rule}, got {value}")]

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "[paths]\nagonist_moment_arm_mm = -1\n",
                (2, "agonist path: moment_arm must be finite and positive, got -1.0"),
            ),
            (
                "[sim]\nseed = 3\n[paths]\nantagonist_kind = curved\nantagonist_bow_mm = -30\n",
                (4, "antagonist path: curved path not strictly decreasing: moment_arm=25.0, bow=-30.0"),
            ),
            (
                "[paths]\nagonist_kind = linear\nagonist_reference_length_mm = 10\n",
                (2, "agonist path: cable length must stay positive over the pull range"),
            ),
        ],
    )
    def test_a_path_the_plant_refuses_names_its_side_and_first_line(self, text, error):
        assert self.assert_errors(text, error[1]).errors == [error]

    def test_two_refused_paths_are_both_named(self):
        text = "[paths]\nagonist_moment_arm_mm = -1\nantagonist_moment_arm_mm = -2\n"
        assert [line for line, _ in self.assert_errors(text, "agonist path").errors] == [2, 3]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[layout]\ncenter_distance_mm = 100.0\n", 2),
            ("[sim]\nseed = 3\n[layout]\n\ndrive_teeth = 20\ncenter_distance_mm = 100.0\n", 5),
        ],
    )
    def test_a_layout_violation_names_the_first_layout_line(self, text, line):
        message = "no-engagement: switch track never comes within mesh distance of a driven gear"
        assert self.assert_errors(text, "no-engagement").errors == [(line, message)]

    def test_a_layout_violation_does_not_hide_a_refused_path(self):
        text = "[layout]\ncenter_distance_mm = 100.0\n[paths]\nagonist_moment_arm_mm = -1\n"
        assert self.assert_errors(text, "no-engagement").errors == [
            (2, "no-engagement: switch track never comes within mesh distance of a driven gear"),
            (4, "agonist path: moment_arm must be finite and positive, got -1.0"),
        ]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[layout]\ntrack_travel_deg = 80\n", 2),
            ("[sim]\nseed = 3\n[layout]\ndriven_half_angle_deg = 25.0\ntrack_travel_deg = -2\n", 4),
        ],
        ids=["over", "negative-after-another-key"],
    )
    def test_a_track_travel_past_the_half_angles_names_its_key_in_degrees(self, text, line):
        value = text.rsplit("= ", 1)[1].strip()
        message = (
            f"track_travel_deg must be in (0, 50.0], twice driven_half_angle_deg, got {float(value)!r}"
        )
        assert self.assert_errors(text, "track_travel_deg").errors == [(line, message)]

    def test_a_sub_kinematic_travel_pair_names_the_first_traversal_line(self):
        text = "[sim]\nseed = 3\n[traversal]\nrevolution_travel_deg = 19.8\nmotor_travel_deg = 5\n"
        assert self.assert_errors(text, "below kinematic").errors == [
            (4, "measured motor/revolution ratio 0.252525 below kinematic carry ratio 1.8")
        ]

    @pytest.mark.parametrize(
        "section, error",
        [
            (
                "[layout]\ntrack_travel_deg = 80\n",
                "track_travel_deg must be in (0, 50.0], twice driven_half_angle_deg, got 80.0",
            ),
            (
                "[traversal]\nmotor_travel_deg = 5\n",
                "measured motor/revolution ratio 0.252525 below kinematic carry ratio 1.8",
            ),
        ],
        ids=["layout", "traversal"],
    )
    def test_a_refused_path_does_not_hide_another_section(self, section, error):
        text = f"{section}[paths]\nagonist_reference_length_mm = 10\n"
        assert self.assert_errors(text, "agonist path").errors == [
            (2, error),
            (4, "agonist path: cable length must stay positive over the pull range"),
        ]

    def test_a_layout_violation_without_a_layout_key_names_no_line(self, monkeypatch):
        # The default layout validates, so a failing report has to be injected.
        far = Config(center_distance_mm=100.0).layout()
        monkeypatch.setattr("switchsim.config.validate_layout", lambda _: validate_layout(far))
        err = self.assert_errors("[sim]\nseed = 3\n", "no-engagement")
        assert [line for line, _ in err.errors] == [0]

    def test_unknown_path_kind_rejected_with_line(self):
        err = self.assert_errors("[paths]\nagonist_kind = spiral\n", "unknown path kind")
        assert err.errors == [(2, "unknown path kind 'spiral'")]

    def test_tabulated_kind_without_knots_rejected(self):
        err = self.assert_errors("[paths]\nantagonist_kind = tabulated\n", "requires")
        assert err.errors == [(2, "antagonist_kind = tabulated requires antagonist_knots")]

    @pytest.mark.parametrize(
        "kind, message",
        [("tabulated", "tabulated path requires knots"), ("spiral", "unknown path kind 'spiral'")],
    )
    def test_path_spec_build_refuses_a_kind_it_cannot_build(self, kind, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PathSpec(kind=kind).build()

    def test_non_finite_knot_rejected_with_line(self):
        text = "[paths]\nantagonist_kind = tabulated\nantagonist_knots = -90:344, nan:300, 90:256\n"
        err = self.assert_errors(text, "bad knot table")
        assert [line for line, _ in err.errors] == [3]

    @pytest.mark.parametrize(
        "command", ["move_to nan", "set_velocity inf", "disturb disengaged nan", "wait -inf"]
    )
    def test_non_finite_script_argument_rejected_with_line(self, command):
        # A wait meets the run-length rule, whose wording is the runtime's.
        fragment = "covers no step" if command.startswith("wait") else "must be finite"
        err = self.assert_errors(f"[script]\nwait 0.1\n{command}\n", fragment)
        assert [line for line, _ in err.errors] == [3]

    def test_removed_control_mode_key_rejected_with_line(self):
        err = self.assert_errors(
            "[motor]\nmax_output_speed_deg_s = 720.0\ncontrol_mode = position\n",
            "unknown key 'control_mode' in [motor]",
        )
        assert [line for line, _ in err.errors] == [3]

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("layout", "drive_teeth", "7", "drive_teeth must be in [8, inf), got 7"),
            ("layout", "switch_teeth", "7", "switch_teeth must be in [8, inf), got 7"),
            ("layout", "driven_teeth", "0", "driven_teeth must be in [8, inf), got 0"),
            ("layout", "module_mm", "-0.5", "module_mm must be finite and positive, got -0.5"),
            ("traversal", "revolution_travel_deg", "0", "revolution_travel_deg must be finite and positive, got 0.0"),
            ("motor", "profile_accel_deg_s2", "0", "profile_accel_deg_s2 must be finite and positive, got 0.0"),
        ],
    )
    def test_out_of_range_value_rejected_at_its_line(self, section, key, value, message):
        err = self.assert_errors(f"[{section}]\n{key} = {value}\n", message)
        assert err.errors == [(2, message)]

    @pytest.mark.parametrize("key", ["drive_teeth", "switch_teeth", "driven_teeth"])
    def test_tooth_count_beyond_the_float_range_rejected_at_its_line(self, key):
        # A count beyond the float range has no float pitch radius.
        huge = 10**400
        message = f"{key} must be finite, got {huge}"
        assert self.assert_errors(f"[layout]\n{key} = {huge}\n", message).errors == [(2, message)]

    def test_negative_wait_rejected_with_line(self):
        err = self.assert_errors("[script]\nmove_to 10\nwait -1\n", "wait of -1.0 s covers no step of dt=0.001 s")
        assert [line for line, _ in err.errors] == [3]

    @pytest.mark.parametrize("dt", ["0.05000000000000001", "1e8", "1e15"])
    def test_disturbance_over_the_shortest_gap_rejected_at_its_line(self, dt):
        # Refused exactly when Simulator.inject refuses it; disturb_off starts no pulses.
        text = f"[sim]\ndt_s = {dt}\n[script]\ndisturb_off\ndisturb disengaged 5.0\nwait {dt}\n"
        message = f"disturbance pulses need dt of at most 0.05 s, got {float(dt)!r} s"
        assert self.assert_errors(text, message).errors == [(5, message)]

    def test_disturbance_narrower_than_a_step_rejected_at_its_line(self):
        # Refused exactly when Simulator.inject refuses it; a width of one step is accepted.
        text = "[sim]\ndt_s = 0.01\n[script]\ndisturb plus 5.0 0.01\ndisturb plus 5.0 0.00999\nwait 0.1\n"
        message = "disturbance width 0.00999 s is under one step of dt=0.01 s"
        assert self.assert_errors(text, message).errors == [(5, message)]

    def test_set_velocity_above_speed_limit_rejected_at_its_line(self):
        text = (
            "[motor]\nmax_output_speed_deg_s = 500.0\n"
            "[script]\nwait 0.1\nset_velocity -600.0\n"
        )
        message = "speed -600.0 deg/s exceeds max_output_speed 500.0 deg/s"
        assert self.assert_errors(text, message).errors == [(5, message)]

    @pytest.mark.parametrize(
        "sim, wait", [("", "1e-15"), ("", "0"), ("dt_s = 0.01\n", "1e-15")]
    )
    def test_wait_under_one_step_rejected_at_its_line(self, sim, wait):
        # Refused exactly when Simulator.wait refuses it: it covers no step.
        text = f"[sim]\n{sim}[script]\nmove_to 10\nwait {wait}\n"
        dt = 0.01 if sim else 0.001
        message = f"wait of {float(wait)!r} s covers no step of dt={dt!r} s"
        assert self.assert_errors(text, message).errors == [(4 + bool(sim), message)]

    @pytest.mark.parametrize("sim, wait", [("", "0.0009"), ("dt_s = 0.01\n", "0.005")])
    def test_wait_under_one_step_covering_a_step_accepted(self, sim, wait):
        cfg, plant = _parse(f"[sim]\n{sim}[script]\nwait {wait}\n")
        assert cfg.script == (Wait(float(wait)),)
        assert len(run_script(plant, cfg.script).rows) == 2  # the rest state and one step

    def test_wait_over_the_step_budget_rejected_at_its_line(self):
        err = self.assert_errors("[script]\nmove_to 10\nwait 1e12\n", "1e+15 steps", "over the budget of")
        assert [line for line, _ in err.errors] == [3]

    def test_wait_of_one_step_accepted(self):
        assert parse_config("[script]\nwait 0.001\n").script == (Wait(0.001),)

    def test_set_velocity_at_speed_limit_accepted(self):
        cfg = parse_config("[script]\nset_velocity -720.0\n")
        assert cfg.script == (SetVelocity(-720.0),)

    def test_traversal_over_the_step_budget_rejected(self):
        self.assert_errors(
            "[motor]\nprofile_accel_deg_s2 = 1e-12\n",
            "configuration cannot be instantiated",
            "over the budget of",
        )

    def test_infinite_rest_tension_rejected(self):
        self.assert_errors(
            "[spools]\nspool_radius_mm = 3e-208\n",
            "configuration cannot be instantiated: plus cable tension inf N is not finite",
        )

    def test_slack_rest_state_rejected(self):
        err = self.assert_errors(
            "[spools]\npayout_at_zero_mm = 1000.0\n",
            "configuration cannot be instantiated: plus cable tension",
            "at t=0.000000 s",
        )
        assert [line for line, _ in err.errors] == [0]

    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param(a, b, id=f"{a[1]}-{b[1]}")
            for a, b in itertools.permutations(_PROBES, 2)
            if a[4].isdisjoint(b[4])
        ],
    )
    def test_problems_in_disjoint_sections_are_each_reported_at_their_line(self, first, second):
        text = "".join(_probe_block(probe) for probe in (first, second))
        assert self.assert_errors(text).errors == [(2, first[3]), (4, second[3])]


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
            module=0.8,
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

    def test_module(self):
        cfg = Config(module=0.5)
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
            module=0.8,
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
            "module_mm = 0.8\n"
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


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)




@st.composite
def _knot_tables(draw):
    """Knot tables near the valid ones: about -90..+90 deg, lengths mostly decreasing."""
    inner = draw(st.lists(st.floats(-80.0, 80.0), max_size=4, unique=True))
    angles = [draw(st.floats(-92.0, -88.0)), *sorted(inner), draw(st.floats(88.0, 92.0))]
    length = draw(st.floats(200.0, 400.0))
    knots = []
    for angle in angles:
        knots.append(f"{angle!r}:{length!r}")
        length -= draw(st.floats(-2.0, 40.0))
    return ", ".join(knots)


_PATH_VALUES = {
    "kind": st.sampled_from(["linear", "curved", "tabulated"]),
    "reference_length_mm": _floats(200.0, 400.0),
    "moment_arm_mm": _floats(0.0, 40.0),
    "bow_mm": _floats(-10.0, 10.0),
    "knots": _knot_tables(),
}

# A value strategy for every config file key, around its valid range.
_VALUES = {
    ("layout", "drive_teeth"): st.integers(7, 40).map(str),
    ("layout", "switch_teeth"): st.integers(7, 30).map(str),
    ("layout", "driven_teeth"): st.integers(7, 40).map(str),
    ("layout", "module_mm"): st.sampled_from(["0.5", "0.8", "1.0", "1.25"]),
    ("layout", "driven_half_angle_deg"): _floats(15.0, 40.0),
    ("layout", "center_distance_mm"): _floats(30.0, 40.0),
    ("layout", "track_travel_deg"): _floats(10.0, 30.0),
    ("layout", "backlash_margin_mm"): _floats(-0.05, 0.5),
    ("traversal", "slip"): _floats(-0.05, 0.95),
    ("traversal", "motor_travel_deg"): _floats(60.0, 200.0),
    ("traversal", "revolution_travel_deg"): _floats(-1.0, 30.0),
    ("motor", "max_output_speed_deg_s"): _floats(-1.0, 2000.0),
    ("motor", "profile_accel_deg_s2"): _floats(-1.0, 50000.0),
    ("motor", "target_switch_time_ms"): _floats(150.0, 600.0),
    **{
        ("paths", f"{prefix}_{key}"): values
        for prefix in ("agonist", "antagonist")
        for key, values in _PATH_VALUES.items()
    },
    ("spools", "spool_radius_mm"): _floats(0.0, 30.0),
    ("spools", "spring_preload_nmm"): _floats(0.0, 20.0),
    ("spools", "spring_rate_nmm_per_deg"): _floats(-0.05, 0.2),
    ("spools", "payout_at_zero_mm"): _floats(200.0, 350.0),
    ("sim", "dt_s"): _floats(-1e-3, 5e-3),
    ("sim", "seed"): st.integers(0, 2**31).map(str),
}

_COMMANDS = st.one_of(
    _floats(-400.0, 400.0).map("move_to {}".format),
    _floats(-900.0, 900.0).map("set_velocity {}".format),
    _floats(0.0, 0.3).map("wait {}".format),
    st.builds(
        "disturb {} {} {}".format,
        st.sampled_from(["plus", "minus", "engaged", "disengaged"]),
        _floats(0.0, 20.0),
        _floats(0.01, 0.2),
    ),
    st.just("disturb_off"),
)


@st.composite
def _config_texts(draw):
    """Config texts over every key, each given about one time in six.

    Keys a file may not give together are not drawn together, so that most
    texts parse: a key that replaces others drops them, and the path keys
    follow the path kind.
    """
    given = {key for key in _VALUES if draw(st.integers(0, 5)) == 0}
    for section, key in sorted(given):
        given -= {(section, other) for other in _SCHEMA[section, key].replaces}
    values = {key: draw(_VALUES[key]) for key in _VALUES if key in given}
    for prefix, default_kind in (("agonist", "linear"), ("antagonist", "curved")):
        kind = values.get(("paths", f"{prefix}_kind"), default_kind)
        bow, knots = ("paths", f"{prefix}_bow_mm"), ("paths", f"{prefix}_knots")
        if kind != "curved":
            values.pop(bow, None)
        if kind != "tabulated":
            values.pop(knots, None)
        elif knots not in values:
            values[knots] = draw(_VALUES[knots])
    sections: dict[str, list[str]] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    sections["script"] = draw(st.lists(_COMMANDS, max_size=5))
    return "".join(
        f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
        for section, lines in sections.items()
    )


class TestAcceptedConfigsRun:
    """Any config ``parse_config`` accepts runs, or fails with a SwitchSimError."""

    def test_strategy_covers_every_key(self):
        assert set(_VALUES) == set(_SCHEMA)

    @settings(deadline=None, max_examples=100)
    @given(text=_config_texts())
    def test_switching_trial_and_short_simulate(self, text):
        # Parsing and running share the step budget; a small one bounds each run's time.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("switchsim.plant.STEP_BUDGET", 20_000)
            self.check_runs(text)

    def check_runs(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        plant = cfg.plant()
        stats = run_switching_time(plant, n_trials=1, jitter=False)
        assert all(math.isfinite(t) for t in stats.up_ms + stats.down_ms)
        try:
            trace = run_script(plant, cfg.script, duration=0.1)
        except SwitchSimError:
            return
        for row in trace.rows:
            values = [getattr(row, name) for name in row._fields if name != "switch"]
            assert all(math.isfinite(v) for v in (*values, row.switch.psi)), row


_KEY_SPECS = {key: spec for (_, key), spec in _SCHEMA.items()}


def _out_of_range(key):
    """Values of ``key`` that the file rejects at its line."""
    if key.endswith("_kind"):
        return st.just("spiral")
    if key.endswith("_knots"):
        return st.just("-90:300, nan:280, 90:260")
    if _KEY_SPECS[key].cast is int:
        return st.just(str(10**400))
    return st.sampled_from(["nan", "inf", "-inf"])


@settings(deadline=None, max_examples=100)
@given(text=_config_texts(), data=st.data())
def test_an_out_of_range_key_is_reported_at_its_line(text, data):
    # Every part that reads the key goes unbuilt, and no part is handed a
    # missing one: parsing raises a ConfigError and nothing else.
    lines = text.splitlines()
    keyed = [n for n, line in enumerate(lines) if " = " in line]
    assume(keyed)
    n = data.draw(st.sampled_from(keyed))
    key = lines[n].partition(" = ")[0]
    lines[n] = f"{key} = {data.draw(_out_of_range(key))}"
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines))
    assert n + 1 in [line for line, _ in err.value.errors]


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
