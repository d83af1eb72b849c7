import math
import re
from dataclasses import replace

import pytest

from switchsim import (
    BelowKinematicFloor,
    Config,
    ControlMode,
    NeverEngaged,
    SwitchSimError,
    calibrate_profile_accel,
    motor_travel_per_traversal,
    run_independence,
    run_speed_sweep,
    run_switching_time,
    trapezoid_duration,
)
from switchsim.plant import STEP_BUDGET


@pytest.fixture(scope="module")
def floor_plant():
    """Reference rig with an ideal instant-speed motor."""
    plant = Config().plant()
    return replace(plant, motor=replace(plant.motor, profile_accel=math.inf))


class TestSwitchingTime:
    def test_reference_reproduction(self, ref_plant):
        stats = run_switching_time(ref_plant, n_trials=10, jitter=False)
        assert stats.mean_up_ms == pytest.approx(302.0, abs=1e-6)
        assert stats.mean_down_ms == pytest.approx(302.0, abs=1e-6)
        assert stats.sigma_up_ms == 0.0
        assert stats.sigma_down_ms == 0.0

    def test_up_down_symmetric_without_jitter(self, ref_plant):
        stats = run_switching_time(ref_plant, n_trials=3, jitter=False)
        assert stats.mean_up_ms == stats.mean_down_ms

    def test_kinematic_floor(self, floor_plant):
        stats = run_switching_time(floor_plant, n_trials=1, jitter=False)
        assert stats.mean_up_ms == pytest.approx(170.3, abs=0.1)
        assert stats.mean_up_ms == pytest.approx(1000 * 122.6 / 720.0, abs=1e-3)

    def test_single_trial_sigma_zero(self, ref_plant):
        stats = run_switching_time(ref_plant, n_trials=1, jitter=False)
        assert stats.sigma_up_ms == 0.0 and stats.sigma_down_ms == 0.0

    def test_jitter_reproducible_by_seed(self, ref_plant):
        a = run_switching_time(ref_plant, n_trials=5, jitter=True, seed=42)
        b = run_switching_time(ref_plant, n_trials=5, jitter=True, seed=42)
        c = run_switching_time(ref_plant, n_trials=5, jitter=True, seed=43)
        assert a == b
        assert a.up_ms != c.up_ms

    def test_jitter_sigma_near_setting(self, ref_plant):
        stats = run_switching_time(
            ref_plant, n_trials=200, jitter=True, jitter_sigma_ms=0.6, seed=1
        )
        assert stats.sigma_up_ms == pytest.approx(0.6, abs=0.15)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_rejects_bad_jitter_sigma(self, ref_plant, sigma):
        with pytest.raises(ValueError, match="jitter_sigma_ms must be finite and not negative"):
            run_switching_time(ref_plant, n_trials=1, jitter_sigma_ms=sigma)

    def test_run_over_the_step_budget_refused_before_it_steps(self, ref_plant, monkeypatch):
        # At dt = 0.1 us one 302 ms move covers 3.02e6 steps: one trial of
        # two moves fits the budget, two trials do not.
        plant = replace(ref_plant, dt=1e-7)
        assert run_switching_time(plant, n_trials=1, jitter=False).mean_up_ms == 302.0
        monkeypatch.setattr("switchsim.experiments.Simulator", None)
        message = (
            f"2 trials take 12080000 steps of dt=1e-07 s, "
            f"over the budget of {STEP_BUDGET} steps per run"
        )
        with pytest.raises(SwitchSimError, match=re.escape(message)):
            run_switching_time(plant, n_trials=2, jitter=False)

    def test_never_engaged_when_move_stops_short(self, ref_plant):
        from switchsim import Side, Simulator
        from switchsim.experiments import _timed_move

        sim = Simulator(ref_plant, engaged=Side.MINUS, record=False)
        with pytest.raises(NeverEngaged):
            _timed_move(sim, motor_travel_per_traversal(ref_plant) / 2, Side.PLUS)

    def test_never_engaged_on_timeout(self, ref_plant):
        from switchsim import Side, Simulator

        sim = Simulator(ref_plant, engaged=Side.MINUS, record=False)
        sim.set_velocity(180.0)
        with pytest.raises(NeverEngaged):
            sim.run_until_engaged(Side.PLUS, timeout=0.01)


class TestIndependence:
    def test_disengaged_disturbance_has_zero_deviation(self, ref_plant):
        report = run_independence(ref_plant, magnitude=5.0)
        assert report.max_engaged_deviation == 0.0
        assert math.degrees(report.rom_covered[0]) == pytest.approx(-90.0, abs=1e-6)
        assert math.degrees(report.rom_covered[1]) == pytest.approx(90.0, abs=1e-6)

    def test_zero_magnitude(self, ref_plant):
        report = run_independence(ref_plant, magnitude=0.0)
        assert report.max_engaged_deviation == 0.0

    def test_engaged_negative_control(self, ref_plant):
        report = run_independence(ref_plant, magnitude=5.0, target="engaged")
        assert report.max_engaged_deviation > 0.0

    def test_side_target_gated_while_engaged(self, ref_plant):
        # Pulses aimed at one cable only act while that cable is slack, so
        # the engaged trace still never deviates.
        for target in ("plus", "minus"):
            report = run_independence(ref_plant, magnitude=5.0, target=target)
            assert report.max_engaged_deviation == 0.0


class TestSpeedSweep:
    def test_reference_sweep(self, ref_plant):
        omegas = [180.0, 270.0, 360.0, 450.0, 540.0, 630.0, 720.0]
        curve = run_speed_sweep(ref_plant, omegas)
        times = [p.t_switch_ms for p in curve.points]
        assert all(b < a for a, b in zip(times, times[1:]))
        assert curve.fit_travel_deg == pytest.approx(122.6, rel=0.01)
        assert abs(curve.fit_offset_s) < 1e-6
        assert curve.r_squared == pytest.approx(1.0, abs=1e-9)
        assert all(p.in_fit for p in curve.points)

    def test_times_scale_inversely(self, ref_plant):
        curve = run_speed_sweep(ref_plant, [180.0, 360.0, 720.0])
        t180, t360, t720 = (p.t_switch_ms for p in curve.points)
        assert t180 == pytest.approx(2 * t360, rel=1e-6)
        assert t360 == pytest.approx(2 * t720, rel=1e-6)

    def test_position_mode_flags_triangular(self):
        # slip = 0 shrinks the travel to 35.64 deg, putting fast points in
        # the triangular regime (omega^2 > accel * travel).
        plant = Config(slip=0.0).plant()
        plant = replace(plant, motor=replace(plant.motor, profile_accel=5466.0))
        travel = motor_travel_per_traversal(plant)
        assert travel == pytest.approx(35.64, abs=1e-6)
        threshold = math.sqrt(5466.0 * travel)
        omegas = [180.0, 360.0, 540.0, 720.0]
        curve = run_speed_sweep(plant, omegas, mode=ControlMode.PROFILE_POSITION)
        for point in curve.points:
            assert point.in_fit == (point.omega ** 2 <= 5466.0 * travel)
        assert {p.omega for p in curve.points if not p.in_fit} == {
            w for w in omegas if w > threshold
        }

    def test_rejects_bad_omegas(self, ref_plant):
        with pytest.raises(ValueError):
            run_speed_sweep(ref_plant, [])
        with pytest.raises(ValueError):
            run_speed_sweep(ref_plant, [360.0, 180.0])
        with pytest.raises(ValueError):
            run_speed_sweep(ref_plant, [180.0, 900.0])


class TestCalibrateProfileAccel:
    def test_published_up_time(self):
        accel = calibrate_profile_accel(0.302, 122.6, 720.0)
        assert accel == pytest.approx(5466.0, abs=0.1)

    def test_published_down_time(self):
        accel = calibrate_profile_accel(0.298, 122.6, 720.0)
        assert accel == pytest.approx(5637.0, abs=0.3)

    @pytest.mark.parametrize("t_measured", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t_measured):
        with pytest.raises(ValueError, match="t_measured must be finite"):
            calibrate_profile_accel(t_measured, 122.6, 720.0)

    def test_below_floor_rejected(self):
        with pytest.raises(BelowKinematicFloor):
            calibrate_profile_accel(0.170, 122.6, 720.0)
        with pytest.raises(BelowKinematicFloor):
            calibrate_profile_accel(122.6 / 720.0, 122.6, 720.0)

    def test_triangular_branch(self):
        # Slow enough that the profile never reaches the speed limit.
        t, delta, v = 0.1, 10.0, 720.0
        accel = calibrate_profile_accel(t, delta, v)
        assert accel == pytest.approx(4.0 * delta / t**2)
        assert trapezoid_duration(delta, v, accel) == pytest.approx(t, rel=1e-12)

    def test_round_trips_through_simulation(self, ref_plant):
        for target_ms in (302.0, 298.0, 450.0):
            accel = calibrate_profile_accel(target_ms / 1000.0, 122.6, 720.0)
            plant = replace(
                ref_plant, motor=replace(ref_plant.motor, profile_accel=accel)
            )
            stats = run_switching_time(plant, n_trials=1, jitter=False)
            assert stats.mean_up_ms == pytest.approx(target_ms, abs=1.0)


class TestMonotonicity:
    def test_time_decreasing_in_speed_increasing_in_travel(self):
        a = 5466.0
        base = trapezoid_duration(122.6, 720.0, a)
        assert trapezoid_duration(122.6, 600.0, a) > base
        assert trapezoid_duration(140.0, 720.0, a) > base

    def test_time_increasing_in_k_eff(self, ref_plant):
        theta_deg = math.degrees(ref_plant.engagement.theta_track)
        a = ref_plant.motor.profile_accel
        t_low = trapezoid_duration(3.0 * theta_deg, 720.0, a)
        t_high = trapezoid_duration(6.19 * theta_deg, 720.0, a)
        assert t_high > t_low
