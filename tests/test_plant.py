import math
import re
from dataclasses import replace

import pytest

from switchsim import (
    Config,
    ConfigError,
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
    parse_config,
    run_script,
    run_speed_sweep,
    step_plant,
)
from switchsim.experiments import full_rom_script, motor_travel_per_traversal
from switchsim.motion import TrapezoidalProfile
from switchsim.plant import (
    DISTURBANCE_TARGETS,
    PULSE_MIN_GAP,
    STEP_BUDGET,
    _pulse_pair,
    steps_to_cover,
)
from test_settled_steps import CountingPath

COARSE_DT_MESSAGE = "disturbance pulses need dt of at most 0.05 s, got {!r} s"


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
        state = initial_state(ref_plant, engaged=None)._replace(
            switch=SwitchState.neutral()
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
        # ``Simulator.wait``'s rule: inf is over the step budget, the rest cover no step.
        message = "over the budget" if duration == math.inf else "duration of .* covers no step"
        with pytest.raises(SwitchSimError, match=message):
            run_script(ref_plant, [], duration=duration)

    @pytest.mark.parametrize("omegas", [[math.nan], [180.0, math.nan, 360.0], [180.0, math.inf]])
    def test_sweep_omega(self, ref_plant, omegas):
        with pytest.raises(ValueError, match="omega values must be finite and positive, got (nan|inf)"):
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_simulator_move_target(self, ref_plant, value):
        sim = Simulator(ref_plant)
        with pytest.raises(ValueError, match="move_to angle must be finite"):
            sim.move_motor_to(value)
        assert sim.t == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_simulator_velocity_rate(self, ref_plant, value):
        with pytest.raises(ValueError, match="set_velocity rate must be finite"):
            Simulator(ref_plant).set_velocity(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_wait_non_finite(self, ref_plant, value):
        # The run-length rule's wording: a NaN covers no step, inf is over the budget.
        message = "over the budget" if value == math.inf else r"wait of nan s covers no step of dt=0\.001 s"
        with pytest.raises(SwitchSimError, match=message):
            run_script(ref_plant, [Wait(value)])

    @pytest.mark.parametrize(
        "path",
        [
            LinearPath(300.0, 25.0),
            CurvedPath(300.0, 25.0, 5.0),
            TabulatedPath(((-math.pi / 2, 340.0), (0.0, 300.0), (math.pi / 2, 260.0))),
        ],
        ids=["linear", "curved", "tabulated"],
    )
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_path_inverse_target(self, path, target):
        with pytest.raises(ValueError, match=f"cable length must be finite, got {target!r}"):
            path.inverse(target)

    def test_wait_negative(self, ref_plant):
        with pytest.raises(SwitchSimError, match=r"wait of -1\.0 s covers no step of dt=0\.001 s"):
            run_script(ref_plant, [Wait(-1.0)])

    def test_disturbance_magnitude_nan(self):
        with pytest.raises(ValueError, match="magnitude"):
            DisturbancePulses(magnitude=math.nan)

    def test_disturbance_magnitude_inf(self):
        with pytest.raises(ValueError, match="magnitude must be finite and not negative, got inf"):
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


# (plus, minus) payout that a pulse of 5.0 mm adds, by target and by the
# switch mode at the start of the step, in PULSE_MODES order.
PULSE_MODES = (
    SwitchMode.ENGAGED_PLUS, SwitchMode.ENGAGED_MINUS, SwitchMode.TRAVERSING, SwitchMode.NEUTRAL
)
PULSE_PAIRS = {
    "disengaged": ((0.0, 5.0), (5.0, 0.0), (5.0, 5.0), (5.0, 5.0)),
    "engaged": ((5.0, 0.0), (0.0, 5.0), (0.0, 0.0), (0.0, 0.0)),
    "plus": ((0.0, 0.0), (5.0, 0.0), (5.0, 0.0), (5.0, 0.0)),
    "minus": ((0.0, 5.0), (0.0, 0.0), (0.0, 5.0), (0.0, 5.0)),
}


class TestDisturbanceStep:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="^unknown disturbance target 'slack'$"):
            DisturbancePulses(target="slack")

    @pytest.mark.parametrize("value", [0.0, 5.0])
    @pytest.mark.parametrize("mode_index", range(len(PULSE_MODES)))
    @pytest.mark.parametrize("target", DISTURBANCE_TARGETS)
    def test_pulse_pair_by_target_and_mode(self, target, mode_index, value):
        pair = _pulse_pair(target, value, PULSE_MODES[mode_index].sign)
        assert pair == (PULSE_PAIRS[target][mode_index] if value else (0.0, 0.0))

    def test_a_pulse_gated_to_zero_stays_settled(self, ref_plant, monkeypatch):
        # With PLUS engaged a pulse on the plus cable gives (0.0, 0.0), so the
        # still motor's steps settle while it is on: no path length is evaluated.
        counting = CountingPath(ref_plant.path_plus), CountingPath(ref_plant.path_minus)
        sim = Simulator(replace(ref_plant, path_plus=counting[0], path_minus=counting[1]))
        sim.inject(DisturbancePulses("plus", 5.0))
        sim.wait(0.001)  # a new simulator's first step recomputes its state
        pairs = []

        def recorded(target, value, sign):
            pairs.append((value, _pulse_pair(target, value, sign)))
            return pairs[-1][1]

        monkeypatch.setattr("switchsim.plant._pulse_pair", recorded)
        before = [path.lengths for path in counting]
        sim.wait(1.0)
        assert len(pairs) > 50 and set(pairs) == {(5.0, (0.0, 0.0))}
        assert [path.lengths for path in counting] == before

    @pytest.mark.parametrize("dt", [0.05000000000000001, 1e8, 1e15])
    def test_inject_refuses_a_step_over_the_shortest_gap(self, ref_plant, dt):
        # A pulse toggles until it has time left; past the shortest gap a step
        # can need any number of toggles, and at 1e15 s the gaps round away.
        sim = Simulator(replace(ref_plant, dt=dt))
        with pytest.raises(SwitchSimError, match=f"^{re.escape(COARSE_DT_MESSAGE.format(dt))}$"):
            sim.inject(DisturbancePulses())
        sim.inject(None)  # stopping starts no pulse
        sim.wait(dt)
        assert len(sim.trace.rows) == 2
        with pytest.raises(SwitchSimError, match="disturbance pulses need dt of at most"):
            run_script(replace(ref_plant, dt=dt), [InjectDisturbance(DisturbancePulses())])

    def test_a_step_of_the_shortest_gap_is_accepted(self, ref_plant):
        plant = replace(ref_plant, dt=PULSE_MIN_GAP)
        script = [InjectDisturbance(DisturbancePulses("plus", 5.0, plant.dt)), Wait(20.0)]
        assert len(run_script(plant, script).rows) == 401

    @pytest.mark.parametrize("width", [1e-300, 1e-6, math.nextafter(1e-3, 0.0)])
    def test_inject_refuses_a_pulse_narrower_than_a_step(self, ref_plant, width):
        # Such a pulse can toggle on and off inside one step and show on no row.
        message = f"disturbance width {width!r} s is under one step of dt=0.001 s"
        sim = Simulator(ref_plant)
        with pytest.raises(SwitchSimError, match=f"^{re.escape(message)}$"):
            sim.inject(DisturbancePulses(width=width))
        with pytest.raises(SwitchSimError, match=f"^{re.escape(message)}$"):
            run_script(ref_plant, [InjectDisturbance(DisturbancePulses(width=width))])


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

    @pytest.mark.parametrize("speed", [-720.5, 800.0])
    def test_speed_limit_has_one_message(self, ref_plant, speed):
        # The Python API, the speed sweep and a config file refuse alike.
        message = f"speed {speed!r} deg/s exceeds max_output_speed 720.0 deg/s"
        with pytest.raises(ValueError) as api:
            Simulator(ref_plant).set_velocity(speed)
        with pytest.raises(ValueError) as sweep:
            run_speed_sweep(ref_plant, [180.0, abs(speed)])
        with pytest.raises(ConfigError) as config:
            parse_config(f"[script]\nwait 0.1\nset_velocity {speed!r}\n")
        assert str(api.value) == message
        assert str(sweep.value) == message.replace(repr(speed), repr(abs(speed)))
        assert config.value.errors == [(3, message)]

    def test_short_wait_takes_a_whole_step(self, ref_plant):
        trace = run_script(ref_plant, [Wait(0.0004)])
        assert [row.t for row in trace.rows] == [0.0, ref_plant.dt]

    @pytest.mark.parametrize("duration", [0.0, 1e-15, -1.0, math.nan])
    def test_wait_covering_no_step_rejected(self, ref_plant, duration):
        sim = Simulator(ref_plant)
        with pytest.raises(SwitchSimError, match=r"covers no step of dt=0\.001 s"):
            sim.wait(duration)
        assert sim.t == 0.0

    @pytest.mark.parametrize("timeout", [0.0, 1e-15, -1.0, math.nan])
    def test_timeout_covering_no_step_rejected(self, ref_plant, timeout):
        sim = Simulator(ref_plant, engaged=Side.MINUS)
        sim.set_velocity(720.0)
        with pytest.raises(SwitchSimError, match=r"timeout of .* s covers no step of dt=0\.001 s"):
            sim.run_until_engaged(Side.PLUS, timeout)
        assert sim.t == 0.0

    def test_script_wait_covering_no_step_rejected(self, ref_plant):
        with pytest.raises(SwitchSimError, match="covers no step"):
            run_script(ref_plant, [Wait(1e-15)])

    @pytest.mark.parametrize("duration", [0.0, 1e-300, 0.0009])
    def test_duration_under_one_step_rejected(self, ref_plant, duration):
        # Rejected when it covers no step, as a wait is; 0.0009 s covers one.
        if duration == 0.0009:
            trace = run_script(ref_plant, [], duration=duration)
            assert [row.t for row in trace.rows] == [0.0, ref_plant.dt]
            return
        with pytest.raises(SwitchSimError, match=r"duration of .* covers no step of dt=0\.001 s"):
            run_script(ref_plant, [], duration=duration)

    def test_duration_leftover_under_one_step_is_not_waited(self, ref_plant):
        # The script ends a hair short of ``duration``: the leftover covers no
        # step, so the run ends where the script did.
        trace = run_script(ref_plant, [Wait(0.05)], duration=0.05 + 1e-16)
        assert [row.t for row in trace.rows] == [k * ref_plant.dt for k in range(51)]

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


class TestProfileEvaluations:
    def test_recorded_moves_evaluate_the_profile_once_per_step(self, ref_plant, monkeypatch):
        calls = []
        position = TrapezoidalProfile.position

        def counted(profile, t):
            calls.append(t)
            return position(profile, t)

        monkeypatch.setattr(TrapezoidalProfile, "position", counted)
        sim = Simulator(ref_plant, engaged=Side.MINUS)
        travel = motor_travel_per_traversal(ref_plant)
        sim.move_motor_to(travel)
        steps = len(sim.trace.rows) - 1
        assert steps == steps_to_cover(0.302, ref_plant.dt) == len(calls)
        assert [e.side for e in sim.trace.events if e.side is not None] == [Side.MINUS, Side.PLUS]
        sim.move_motor_to(0.0)
        assert len(calls) == len(sim.trace.rows) - 1 == 2 * steps
        assert sim.trace.events[-1].t == pytest.approx(0.302 + steps * ref_plant.dt, abs=1e-9)


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
