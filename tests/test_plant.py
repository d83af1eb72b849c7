import math
from dataclasses import replace

import pytest

from switchsim import (
    Config,
    CurvedPath,
    DisturbancePulses,
    InjectDisturbance,
    LinearPath,
    MotorModel,
    MoveMotorTo,
    NeverEngaged,
    RangeExceeded,
    SetVelocity,
    Side,
    Simulator,
    SlackDetected,
    SpoolModel,
    SwitchMode,
    SwitchSimError,
    SwitchState,
    TabulatedPath,
    Wait,
    initial_state,
    run_script,
    run_speed_sweep,
    step_plant,
)
from switchsim.experiments import full_rom_script
from switchsim.plant import STEP_BUDGET


@pytest.fixture()
def linear_plant():
    """Reference plant with linear paths on both sides (easy closed forms)."""
    cfg = Config(antagonist=replace(Config().antagonist, kind="linear", bow=0.0))
    return cfg.plant()


class TestStepPlant:
    def test_winding_chain(self, linear_plant):
        # 1 rad of motor at unit coupling winds 10 mm of cable; the 25 mm/rad
        # moment arm turns that into 0.4 rad of joint motion, and the
        # antagonist pays out 10 mm along its own law.
        state = initial_state(linear_plant)
        new, _ = step_plant(
            state, linear_plant, t=1e-3, motor_delta=math.degrees(1.0)
        )
        assert new.payout_plus - state.payout_plus == pytest.approx(-10.0, abs=1e-9)
        assert new.joint_angle == pytest.approx(0.4, abs=1e-9)
        assert new.payout_minus - state.payout_minus == pytest.approx(10.0, abs=1e-9)

    def test_neutral_transparency(self, ref_plant):
        state = replace(
            initial_state(ref_plant, engaged=None), switch=SwitchState.neutral()
        )
        new, _ = step_plant(state, ref_plant, t=1e-3, motor_delta=30.0)
        assert new.joint_angle == state.joint_angle
        assert new.payout_plus == state.payout_plus
        assert new.payout_minus == state.payout_minus
        assert new.switch.mode is SwitchMode.TRAVERSING

    def test_disturbance_shifts_only_disengaged(self, linear_plant):
        state = initial_state(linear_plant)
        base, _ = step_plant(state, linear_plant, t=1e-3, motor_delta=10.0)
        shifted, _ = step_plant(
            state, linear_plant, t=1e-3, motor_delta=10.0, disturbance_minus=5.0
        )
        assert shifted.payout_plus == base.payout_plus
        assert shifted.payout_minus == base.payout_minus + 5.0
        assert shifted.joint_angle == base.joint_angle

    def test_range_exceeded(self, linear_plant):
        state = initial_state(linear_plant)
        # +90 deg of joint is 25*pi/2 mm of cable = ~225 deg of motor; ask for more.
        with pytest.raises(RangeExceeded):
            step_plant(state, linear_plant, t=1.0, motor_delta=260.0)

    def test_slack_detected(self, linear_plant):
        slack_spool = SpoolModel(
            spool_radius=10.0,
            spring_preload_torque=5.0,
            spring_rate=0.05,
            payout_at_zero=1000.0,  # spring fully unwound everywhere in range
        )
        bad = replace(linear_plant, spool_plus=slack_spool)
        with pytest.raises(SlackDetected):
            step_plant(initial_state(linear_plant), bad, t=1e-3, motor_delta=0.0)

    def test_slack_rest_state_detected(self):
        plant = Config(payout_at_zero_mm=1000.0).plant()
        with pytest.raises(SlackDetected, match=r"plus cable .* at t=0\.000000 s"):
            run_script(plant, [])

    def test_infinite_rest_tension_detected(self):
        plant = Config(spool_radius_mm=3e-208).plant()
        with pytest.raises(SwitchSimError, match=r"plus cable tension inf N is not finite"):
            initial_state(plant)

    def test_end_time_must_follow_state_time(self, linear_plant):
        state = initial_state(linear_plant)
        with pytest.raises(ValueError, match="end time"):
            step_plant(state, linear_plant, t=0.0, motor_delta=1.0)

    def test_end_time_becomes_state_time(self, linear_plant):
        state, _ = step_plant(initial_state(linear_plant), linear_plant, t=0.25)
        assert state.t == 0.25

    def test_disturbance_holds_for_one_step_only(self, linear_plant):
        state = initial_state(linear_plant)
        shifted, _ = step_plant(state, linear_plant, t=1e-3, disturbance_plus=5.0)
        after, _ = step_plant(shifted, linear_plant, t=2e-3)
        assert shifted.payout_plus == state.payout_plus + 5.0
        assert after.payout_plus == state.payout_plus

    def test_nan_tension_detected_as_slack(self, linear_plant):
        spool = SpoolModel()
        object.__setattr__(spool, "spring_rate", math.nan)  # past the constructor's check
        bad = replace(linear_plant, spool_minus=spool)
        with pytest.raises(SlackDetected, match="minus"):
            step_plant(initial_state(linear_plant), bad, t=1e-3)


class TestNonFiniteApiInput:
    """The Python API rejects what a config file may not set, naming the argument."""

    @pytest.mark.parametrize("name", ["spring_rate", "payout_at_zero"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spool_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SpoolModel(**{name: value})

    @pytest.mark.parametrize("name", ["spool_radius", "spring_preload_torque"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_spool_finite_positive_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            SpoolModel(**{name: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_motor_max_output_speed(self, value):
        with pytest.raises(ValueError, match="max_output_speed must be finite and positive"):
            MotorModel(max_output_speed=value)

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0])
    def test_run_script_duration(self, ref_plant, duration):
        with pytest.raises(ValueError, match="duration must be finite and not negative"):
            run_script(ref_plant, [], duration=duration)

    @pytest.mark.parametrize("omegas", [[math.nan], [180.0, math.nan, 360.0], [180.0, math.inf]])
    def test_sweep_omega(self, ref_plant, omegas):
        with pytest.raises(ValueError, match="omega values must be finite, got (nan|inf)"):
            run_speed_sweep(ref_plant, omegas)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0])
    def test_plant_dt(self, ref_plant, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            replace(ref_plant, dt=dt)

    def test_config_nan_spring_rate(self):
        with pytest.raises(ValueError, match="spring_rate must be finite"):
            Config(spring_rate_nmm_per_deg=math.nan).plant()

    def test_config_infinite_dt(self):
        with pytest.raises(ValueError, match="dt must be finite"):
            Config(dt_s=math.inf).plant()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_move_to_angle(self, value):
        with pytest.raises(ValueError, match="angle must be finite"):
            MoveMotorTo(value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_set_velocity_rate(self, value):
        with pytest.raises(ValueError, match="rate must be finite"):
            SetVelocity(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_wait_non_finite(self, value):
        with pytest.raises(ValueError, match="wait duration must be finite"):
            Wait(value)

    def test_wait_negative(self):
        with pytest.raises(ValueError, match="wait duration must not be negative"):
            Wait(-1.0)

    def test_disturbance_magnitude_nan(self):
        with pytest.raises(ValueError, match="magnitude"):
            DisturbancePulses(magnitude=math.nan)

    def test_disturbance_magnitude_inf(self):
        with pytest.raises(ValueError, match="magnitude must be finite and non-negative, got inf"):
            DisturbancePulses(magnitude=math.inf)

    @pytest.mark.parametrize("width", [math.inf, math.nan, 0.0])
    def test_disturbance_width(self, width):
        with pytest.raises(ValueError, match=r"^disturbance width must be finite and positive, got"):
            DisturbancePulses(width=width)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: LinearPath(math.nan, 25.0), "reference_length"),
            (lambda: LinearPath(300.0, math.inf), "moment_arm"),
            (lambda: CurvedPath(300.0, 25.0, math.nan), "bow"),
            (lambda: CurvedPath(math.inf, 25.0, 5.0), "reference_length"),
            (lambda: TabulatedPath(((-2.0, math.inf), (2.0, 100.0))), "knots"),
            (lambda: TabulatedPath(((-math.inf, 200.0), (2.0, 100.0))), "knots"),
        ],
        ids=["linear-length", "linear-arm", "curved-bow", "curved-length", "knot-length", "knot-angle"],
    )
    def test_path_parameters(self, build, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build()

    def test_config_nan_path_parameter(self):
        with pytest.raises(ValueError, match="bow must be finite"):
            Config(antagonist=replace(Config().antagonist, bow=math.nan)).plant()


class TestRunScript:
    def test_empty_script_constant_trace(self, ref_plant):
        trace = run_script(ref_plant, [], duration=1.0)
        assert len(trace.rows) == 1001
        first, last = trace.rows[0], trace.rows[-1]
        assert last.joint_angle == first.joint_angle
        assert last.motor_angle == first.motor_angle

    def test_full_rom_sweep_covers_range(self, ref_plant):
        trace = run_script(ref_plant, full_rom_script(ref_plant))
        angles = [row.joint_angle for row in trace.rows]
        assert math.degrees(max(angles)) == pytest.approx(90.0, abs=1e-6)
        assert math.degrees(min(angles)) == pytest.approx(-90.0, abs=1e-6)

    def test_disturbance_leaves_engaged_columns_bit_identical(self, ref_plant):
        script = full_rom_script(ref_plant)
        pulses = DisturbancePulses(target="disengaged", magnitude=5.0)
        base = run_script(ref_plant, script)
        disturbed = run_script(ref_plant, [InjectDisturbance(pulses), *script])
        assert len(base.rows) == len(disturbed.rows)
        saw_disturbance = False
        for a, b in zip(base.rows, disturbed.rows):
            assert a.switch.mode is b.switch.mode
            side = a.switch.engaged_side
            if side is Side.PLUS:
                assert b.payout_plus == a.payout_plus
            elif side is Side.MINUS:
                assert b.payout_minus == a.payout_minus
            if b.payout_plus != a.payout_plus or b.payout_minus != a.payout_minus:
                saw_disturbance = True
        assert saw_disturbance

    def test_determinism_bit_identical(self, ref_plant):
        script = [
            InjectDisturbance(DisturbancePulses(magnitude=3.0)),
            *full_rom_script(ref_plant),
        ]
        a = run_script(ref_plant, script)
        b = run_script(ref_plant, script)
        assert a.to_csv() == b.to_csv()
        assert a.events_to_csv() == b.events_to_csv()

    def test_dt_halving_changes_little(self, ref_plant):
        script = full_rom_script(ref_plant)
        coarse = run_script(ref_plant, script)
        fine = run_script(replace(ref_plant, dt=ref_plant.dt / 2), script)
        assert abs(fine.rows[-1].joint_angle - coarse.rows[-1].joint_angle) < 1e-6

    def test_tension_positive_throughout(self, ref_plant):
        trace = run_script(ref_plant, full_rom_script(ref_plant))
        assert all(r.tension_plus > 0 for r in trace.rows)
        assert all(r.tension_minus > 0 for r in trace.rows)

    def test_velocity_mode_and_wait(self, ref_plant):
        trace = run_script(ref_plant, [SetVelocity(360.0), Wait(0.1)])
        assert trace.rows[-1].motor_angle == pytest.approx(36.0, abs=1e-9)

    def test_velocity_above_limit_rejected(self, ref_plant):
        with pytest.raises(ValueError):
            run_script(ref_plant, [SetVelocity(1000.0)])

    def test_short_wait_takes_a_whole_step(self, ref_plant):
        trace = run_script(ref_plant, [Wait(0.0004)])
        assert [row.t for row in trace.rows] == [0.0, ref_plant.dt]

    def test_duration_runs_at_least_that_long(self, ref_plant):
        trace = run_script(ref_plant, [], duration=0.0504)
        assert trace.rows[-1].t >= 0.0504
        assert trace.rows[-2].t < 0.0504

    def test_trace_csv_schema(self, ref_plant):
        trace = run_script(ref_plant, [], duration=0.002)
        header = trace.to_csv().splitlines()[0]
        assert header == (
            "t_s,motor_deg,psi_deg,mode,joint_deg,payout_plus_mm,"
            "payout_minus_mm,tension_plus_N,tension_minus_N"
        )
        assert trace.events_to_csv().splitlines()[0] == "t_s,kind,detail"


class TestEventTiming:
    def test_engagement_time_not_quantized_to_dt(self, ref_plant):
        # At constant 720 deg/s the full traversal takes 170.2777... ms; the
        # event timestamp must resolve below the 1 ms step.
        sim = Simulator(ref_plant, engaged=Side.MINUS)
        sim.set_velocity(720.0)
        t = sim.run_until_engaged(Side.PLUS, timeout=1.0)
        expected = (122.6 / 19.8) * math.degrees(ref_plant.engagement.theta_track) / 720.0
        assert t == pytest.approx(expected, abs=1e-9)
        assert abs(t * 1000.0 - 170.2778) < 1e-3

    def test_already_engaged_side_fails_after_one_step(self, ref_plant):
        sim = Simulator(ref_plant, engaged=Side.PLUS)
        sim.set_velocity(720.0)
        with pytest.raises(NeverEngaged):
            sim.run_until_engaged(Side.PLUS, timeout=1.0)
        assert sim.t == ref_plant.dt

    def test_move_records_command_time(self, ref_plant):
        sim = Simulator(ref_plant)
        sim.wait(0.05)
        t_cmd = sim.move_motor_to(30.0)
        assert t_cmd == pytest.approx(0.05)
        assert sim.state.motor_angle == pytest.approx(30.0, abs=1e-9)


class TestStepBudget:
    """A command over the step budget raises before it takes a step."""

    def assert_refused(self, plant, command):
        sim = Simulator(plant)
        with pytest.raises(SwitchSimError, match=f"over the budget of {STEP_BUDGET} steps"):
            sim.execute(command)
        assert sim.t == 0.0
        assert len(sim.trace.rows) == 1

    def test_tiny_dt(self, ref_plant):
        self.assert_refused(replace(ref_plant, dt=1e-12), Wait(0.5))

    def test_huge_move(self, ref_plant):
        self.assert_refused(ref_plant, MoveMotorTo(1e12))

    def test_message_names_steps_and_dt(self, ref_plant):
        with pytest.raises(SwitchSimError, match=r"5e\+11 steps of dt=1e-12 s"):
            run_script(replace(ref_plant, dt=1e-12), [Wait(0.5)])
