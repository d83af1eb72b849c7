"""An unrecorded, undisturbed command takes one closed-form step.

The recorded run, which steps every ``dt``, is the reference: the leaped run
must land on the same grid point with the same events and state, its
protocol times must equal the closed forms, and its failures and refusals
must be those of the stepped run. A ``run_until_engaged`` steps the grid in
both.
"""

import math
import random
from dataclasses import replace

import pytest

from conftest import random_valid_layout
from switchsim import (
    Config,
    ControlMode,
    DisturbancePulses,
    MotorModel,
    MoveMotorTo,
    NeverEngaged,
    RangeExceeded,
    Side,
    Simulator,
    SlackDetected,
    SwitchMode,
    SwitchSimError,
    Wait,
    run_speed_sweep,
    run_switching_time,
    trapezoid_duration,
)
from switchsim import plant as plant_module
from switchsim.experiments import _ms, full_rom_script, motor_travel_per_traversal
from switchsim.geometry import kinematic_carry_ratio, validate_layout
from switchsim.plant import STEP_BUDGET
from switchsim.switching import TraversalModel


@pytest.fixture()
def step_plant_calls(monkeypatch):
    """Counts the plant steps every Simulator takes.

    Every step reaches the plant core ``_advance``: the checked ``step_plant``
    calls it, and so does every step on a state the simulator made.
    """
    calls = []
    advance = plant_module._advance

    def counted(*args, **kwargs):
        calls.append(args[2])
        return advance(*args, **kwargs)

    monkeypatch.setattr(plant_module, "_advance", counted)
    return calls


def random_plant(rng: random.Random, ref_plant):
    layout = random_valid_layout(rng)
    return replace(
        ref_plant,
        layout=layout,
        engagement=validate_layout(layout).engagement,
        traversal=TraversalModel(kinematic_carry_ratio(layout), rng.uniform(0.0, 0.5)),
        motor=MotorModel(rng.uniform(180.0, 720.0), rng.uniform(2e3, 2e4)),
    )


def run_commands(sim: Simulator, rng: random.Random) -> list:
    """A random script of moves, zero and nonzero velocity waits and engagements,
    one of them a run away from the side the switch is engaged on.

    Motor targets and velocity waits stay within 80 % of the full range of
    motion; the outcome of each ``run_until_engaged`` and any failure are
    returned as the event time or message, or as the error's type and
    timestamp.
    """
    plant = sim.config
    top, bottom = (0.8 * move.angle for move in full_rom_script(plant))
    speed = plant.motor.max_output_speed
    travel = motor_travel_per_traversal(plant)
    outcomes = []
    try:
        kinds = (
            "move", "hold", "until", "velocity", "still", "move", "until", "leave", "velocity", "away"
        )
        for kind in kinds:
            if kind == "move":
                sim.move_motor_to(rng.uniform(bottom, top))
            elif kind == "hold":
                sim.set_velocity(0.0)
                sim.wait(rng.uniform(0.001, 0.3))
            elif kind == "velocity":
                rate = rng.uniform(-speed, speed)
                limit = (top if rate > 0 else bottom) - sim.state.motor_angle
                sim.set_velocity(rate)
                sim.wait(min(rng.uniform(0.001, 0.3), max(limit / rate, 0.001)))
            else:  # toward ``side``, away from it, or standing still
                side = rng.choice([Side.PLUS, Side.MINUS])
                if kind == "leave":
                    side = sim.state.switch.engaged_side or side
                factor = {"until": 1, "away": -1, "leave": -1, "still": 0}[kind]
                rate = side.sign * rng.uniform(60.0, speed) * factor
                sim.set_velocity(rate)
                try:
                    outcomes.append(sim.run_until_engaged(side, 1.5 * travel / speed))
                except NeverEngaged as exc:
                    outcomes.append(str(exc))
    except SwitchSimError as exc:
        # A message may quote a length that carries the runs' roundoff.
        outcomes.append((type(exc), str(exc).split(":")[0]))
    return outcomes


def assert_close(a: float, b: float, tol: float = 1e-12) -> None:
    assert math.isclose(a, b, rel_tol=tol, abs_tol=tol), (a, b)


class TestLeapMatchesTheGrid:
    """(a) record=True steps every dt; record=False leaps; both agree."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_layout_and_script(self, ref_plant, seed):
        plant = random_plant(random.Random(seed), ref_plant)
        stepped = Simulator(plant, record=True)
        leaped = Simulator(plant, record=False)
        outcomes = [run_commands(sim, random.Random(seed)) for sim in (stepped, leaped)]

        assert leaped.t == stepped.t
        assert len(leaped.trace.events) == len(stepped.trace.events)
        for a, b in zip(stepped.trace.events, leaped.trace.events):
            assert (a.kind, a.side, a.psi) == (b.kind, b.side, b.psi)
            assert_close(a.t, b.t)
        for a, b in zip(*outcomes):
            if isinstance(a, float):
                assert_close(a, b)
            else:
                assert a == b
        assert len(outcomes[0]) == len(outcomes[1])
        assert leaped.state.switch.mode is stepped.state.switch.mode
        assert_close(leaped.state.switch.psi, stepped.state.switch.psi)
        # The stepped run sums thousands of per-step increments; its roundoff
        # reaches ~1e-11 of a motor angle or a joint angle.
        for name in stepped.state._fields:
            if name != "switch":
                a, b = getattr(leaped.state, name), getattr(stepped.state, name)
                assert_close(a, b, 1e-11)

    def test_move_back_to_where_the_motor_stands(self, ref_plant):
        # The recorded run comes back to 0 deg 1.1e-16 deg short, as it sums
        # 28 increments; a second move to 0 deg must take no step in either run.
        sims = [Simulator(ref_plant, record=record) for record in (True, False)]
        for sim in sims:
            for angle in (1.0, 0.0, 0.0):
                sim.move_motor_to(angle)
        assert sims[0].t == sims[1].t
        assert len(sims[0].trace.rows) == 57

    def test_creep_into_the_snap_window(self, ref_plant):
        # At 1e-4 deg/s a step turns psi by less than the endpoint snap
        # (1e-9 rad), so a run engages a few steps before psi reaches the
        # endpoint; the unrecorded run must engage on the same grid step.
        travel = motor_travel_per_traversal(ref_plant)
        runs = []
        for record in (True, False):
            sim = Simulator(ref_plant, engaged=None, record=record)
            sim.move_motor_to(travel / 2 - 5e-6)
            sim.set_velocity(1e-4)
            runs.append((sim.run_until_engaged(Side.PLUS, timeout=1.0), sim))
        (t_stepped, stepped), (t_leaped, leaped) = runs
        assert leaped.t == stepped.t < 0.302 + 0.050
        assert leaped.state.switch.engaged_side is stepped.state.switch.engaged_side is Side.PLUS
        # An event time divides psi roundoff by the speed: 1e-16 rad is ~1e-9 s here.
        assert t_leaped == pytest.approx(t_stepped, abs=1e-8)

    def test_unrecorded_commands_take_one_step(self, ref_plant, step_plant_calls):
        sim = Simulator(ref_plant, engaged=Side.MINUS, record=False)
        sim.move_motor_to(motor_travel_per_traversal(ref_plant))
        sim.set_velocity(0.0)
        sim.wait(0.5)
        sim.set_velocity(-360.0)
        sim.wait(0.5)
        assert len(step_plant_calls) == 3
        assert sim.t == pytest.approx(0.302 + 0.5 + 0.5)

    def test_run_until_engaged_steps_every_grid_step(self, ref_plant, step_plant_calls):
        # The traversal takes 681.1 ms at 180 deg/s: it engages in step 682.
        sim = Simulator(ref_plant, engaged=Side.MINUS, record=False)
        sim.set_velocity(180.0)
        sim.run_until_engaged(Side.PLUS, timeout=2.0)
        assert len(step_plant_calls) == 682
        assert sim.state.switch.engaged_side is Side.PLUS

    @pytest.mark.parametrize("rate, t", [(-720.0, 0.3), (0.0, 0.001), (720.0, 0.001)])
    def test_run_until_engaged_from_the_engaged_side(self, ref_plant, step_plant_calls, rate, t):
        # Turning away disengages ``until`` in the first step, so the run
        # steps its whole timeout, 300 steps; standing still or turning
        # toward it stops after one step.
        sim = Simulator(ref_plant, engaged=Side.PLUS, record=False)
        sim.set_velocity(rate)
        with pytest.raises(NeverEngaged):
            sim.run_until_engaged(Side.PLUS, timeout=0.3)
        assert (len(step_plant_calls), sim.t) == (round(t / ref_plant.dt), pytest.approx(t))

    def test_recorded_and_disturbed_runs_step_every_dt(self, ref_plant, step_plant_calls):
        Simulator(ref_plant, record=True).wait(0.1)
        disturbed = Simulator(ref_plant, record=False)
        disturbed.inject(DisturbancePulses())
        disturbed.wait(0.1)
        assert len(step_plant_calls) == 200

    def test_single_velocity_step_is_velocity_times_dt(self, ref_plant):
        for record in (True, False):
            sim = Simulator(ref_plant, engaged=None, record=record)
            sim.set_velocity(333.3)
            sim.wait(ref_plant.dt)
            assert sim.state.motor_angle == 333.3 * ref_plant.dt


class TestClosedFormTimes:
    """(b) Protocol times equal the closed forms at the 0.1 us floor."""

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_config_variants(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            speed = rng.uniform(540.0, 720.0)
            plant = Config(
                drive_teeth=rng.randint(16, 24),
                switch_teeth=rng.randint(12, 20),
                driven_teeth=rng.randint(16, 24),
                max_output_speed=speed,
                target_switch_time_ms=1000.0 * 122.6 / speed * rng.uniform(1.2, 1.8),
            ).plant()
            travel = motor_travel_per_traversal(plant)
            accel = plant.motor.profile_accel

            stats = run_switching_time(plant, n_trials=3, jitter=False)
            want = _ms(trapezoid_duration(travel, speed, accel))
            assert stats.up_ms + stats.down_ms == (want,) * 6

            omegas = sorted(rng.uniform(180.0, speed) for _ in range(3))
            curve = run_speed_sweep(plant, omegas)
            assert [p.t_switch_ms for p in curve.points] == [_ms(travel / w) for w in omegas]
            curve = run_speed_sweep(plant, omegas, mode=ControlMode.PROFILE_POSITION)
            assert [p.t_switch_ms for p in curve.points] == [
                _ms(trapezoid_duration(travel, w, accel)) for w in omegas
            ]

    def test_velocity_points_equal_the_closed_form_and_the_grid(self, ref_plant):
        # A velocity point is a move with no ramp: its time is travel/omega at
        # the 0.1 us floor, and a run_until_engaged on the grid gives it too.
        rng = random.Random(11)
        cases = [(ref_plant, sorted(rng.uniform(180.0, 720.0) for _ in range(300)))]
        for _ in range(15):
            plant = random_plant(rng, ref_plant)
            speed = plant.motor.max_output_speed
            cases.append((plant, sorted(rng.uniform(0.25 * speed, speed) for _ in range(2))))
        for plant, omegas in cases:
            travel = motor_travel_per_traversal(plant)
            curve = run_speed_sweep(plant, omegas)
            for point, omega in zip(curve.points, omegas, strict=True):
                sim = Simulator(plant, engaged=Side.MINUS, record=False)
                sim.set_velocity(omega)
                t_grid = sim.run_until_engaged(Side.PLUS, timeout=2.0 * travel / omega)
                assert point.t_switch_ms == _ms(travel / omega) == _ms(t_grid), omega


class TestLeapFailures:
    """(c) A failure inside a leap is raised as the stepped run raises it."""

    def outcomes(self, plant, target):
        out = []
        for record in (True, False):
            sim = Simulator(plant, record=record)
            with pytest.raises(SwitchSimError) as info:
                sim.move_motor_to(target)
            out.append((info.type, str(info.value), sim.t, sim.state, sim.trace.events))
        return out

    def test_range_exceeded(self, ref_plant):
        stepped, leaped = self.outcomes(ref_plant, 2000.0)
        assert leaped == stepped
        assert leaped[0] is RangeExceeded
        assert "at t=0.379000 s" in leaped[1]

    @pytest.mark.parametrize("record", [True, False])
    def test_a_failed_move_leaves_nothing_to_replay(self, ref_plant, record):
        # The next command runs at the velocity a move sets, zero: it neither
        # replays the move nor raises its error again.
        sim = Simulator(ref_plant, record=record)
        with pytest.raises(RangeExceeded, match=r"at t=0\.379000 s"):
            sim.move_motor_to(5000.0)
        angle, t = sim.state.motor_angle, sim.t
        sim.wait(0.05)
        assert sim.state.motor_angle == angle
        assert sim.t == pytest.approx(t + 0.05)
        with pytest.raises(NeverEngaged):
            sim.run_until_engaged(Side.MINUS, 0.05)
        assert sim.state.motor_angle == angle

    def test_slack_detected(self, ref_plant):
        # Zero spring wind-up 17.45 mm above the plus payout at +45 deg: the
        # 5 N*mm preload over 0.05 N*mm/deg runs out just past +45 deg.
        zero = ref_plant.path_plus.length(math.radians(45.0)) + 17.45
        plant = Config(payout_at_zero_mm=zero).plant()
        stepped, leaped = self.outcomes(plant, full_rom_script(plant)[0].angle)
        assert leaped == stepped
        assert leaped[0] is SlackDetected
        assert "plus cable tension" in leaped[1] and "at t=0.223000 s" in leaped[1]

    def test_subnormal_velocity_toward_the_endpoint(self, ref_plant):
        # One step's motor delta is subnormal and underflows to 0.0 rad, so
        # each grid step halts the switch, in either run.
        out = []
        for record in (True, False):
            sim = Simulator(ref_plant, record=record)
            sim.set_velocity(-1e-320)
            with pytest.raises(NeverEngaged) as info:
                sim.run_until_engaged(Side.MINUS, 1.0)
            out.append(
                (str(info.value), sim.t, sim.state.switch, [e.kind for e in sim.trace.events])
            )
        stepped, leaped = out
        assert leaped == stepped
        message, t, switch, kinds = leaped
        assert (message, t) == ("switch did not engage minus within 1.0 s", pytest.approx(1.0))
        assert (switch.mode, kinds) == (SwitchMode.ENGAGED_PLUS, [])

    def test_subnormal_velocity_wait_steps_the_grid(self, ref_plant):
        # A leap would sum the underflowing deltas into a nonzero travel that
        # disengages; the unrecorded wait must not leap.
        out = []
        for record in (True, False):
            sim = Simulator(ref_plant, record=record)
            sim.set_velocity(-1e-320)
            sim.wait(1.0)
            out.append((sim.t, sim.state.switch, sim.trace.events))
        stepped, leaped = out
        assert leaped == stepped
        assert (leaped[1].mode, leaped[2]) == (SwitchMode.ENGAGED_PLUS, [])


class TestLeapBudget:
    """(d) A command over the step budget is refused before it steps."""

    @pytest.mark.parametrize(
        "plant_dt, command",
        [(None, MoveMotorTo(1e12)), (1e-12, Wait(0.5))],
    )
    def test_refused(self, ref_plant, step_plant_calls, plant_dt, command):
        plant = ref_plant if plant_dt is None else replace(ref_plant, dt=plant_dt)
        sim = Simulator(plant, record=False)
        with pytest.raises(SwitchSimError, match=f"over the budget of {STEP_BUDGET} steps"):
            sim.execute(command)
        assert (sim.t, sim.trace.events, step_plant_calls) == (0.0, [], [])

    def test_run_until_engaged_refused(self, ref_plant, step_plant_calls):
        sim = Simulator(ref_plant, engaged=Side.MINUS, record=False)
        sim.set_velocity(1e-6)
        with pytest.raises(SwitchSimError, match=f"over the budget of {STEP_BUDGET} steps"):
            sim.run_until_engaged(Side.PLUS, timeout=1e5)
        assert (sim.t, step_plant_calls) == (0.0, [])
