import math
import re
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_jitter_past_the_float_range_refused(self, ref_plant):
        with pytest.raises(SwitchSimError, match="drives the durations past the float range"):
            run_switching_time(ref_plant, jitter_sigma_ms=1e308)

    def test_huge_jitter_within_the_float_range_has_finite_summaries(self, ref_plant):
        stats = run_switching_time(ref_plant, jitter_sigma_ms=1e306)
        summaries = (stats.mean_up_ms, stats.mean_down_ms, stats.sigma_up_ms, stats.sigma_down_ms)
        assert all(math.isfinite(v) for v in summaries)

    @pytest.mark.parametrize("n_trials", [2.5, 2.0, "2", math.nan])
    def test_non_integer_trials_refused_before_it_steps(self, ref_plant, monkeypatch, n_trials):
        monkeypatch.setattr("switchsim.experiments.Simulator", None)
        message = f"^n_trials must be an integer, got {re.escape(repr(n_trials))}$"
        with pytest.raises(ValueError, match=message):
            run_switching_time(ref_plant, n_trials=n_trials)

    def test_run_over_the_step_budget_refused_before_it_steps(self, ref_plant, monkeypatch):
        # At dt = 0.1 us one 302 ms move covers 3.02e6 steps: one trial of
        # two moves fits the budget, two trials do not.
        plant = replace(ref_plant, dt=1e-7)
        assert run_switching_time(plant, n_trials=1, jitter=False).mean_up_ms == 302.0
        monkeypatch.setattr("switchsim.experiments.Simulator", None)
        message = (
            f"4 x 0.302 s takes 4 x 3.02e+06 steps of dt=1e-07 s, "
            f"over the budget of {STEP_BUDGET} steps"
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


class TestJitterPinned:
    """Jittered trials recorded before the per-trial draws were skipped without jitter."""

    def test_default_sigma(self, ref_plant):
        stats = run_switching_time(ref_plant, n_trials=5, jitter=True, seed=42)
        assert stats.up_ms == (
            301.9135458022532,
            302.8991650706245,
            301.3706490000203,
            301.90487278537745,
            302.4630474185966,
        )
        assert stats.down_ms == (
            301.8962578398011,
            302.22216551981944,
            302.40756754694127,
            302.68773581574607,
            301.60836903539285,
        )

    def test_other_sigma(self, ref_plant):
        stats = run_switching_time(ref_plant, n_trials=3, jitter=True, jitter_sigma_ms=2.5, seed=11)
        assert stats.up_ms == (298.9398183107151, 298.38703077596693, 301.7849525344512)
        assert stats.down_ms == (302.943970495754, 302.5822328913893, 305.79523116560455)
        assert (stats.mean_up_ms, stats.mean_down_ms) == (299.7039338737111, 303.7738115175826)
        assert (stats.sigma_up_ms, stats.sigma_down_ms) == (1.488706936551459, 1.4369682364060101)

    def test_no_jitter_builds_no_generator(self, ref_plant, monkeypatch):
        def refuse(*args):
            raise AssertionError("random.Random built for a run without jitter")

        monkeypatch.setattr("switchsim.experiments.random.Random", refuse)
        stats = run_switching_time(ref_plant, n_trials=3, jitter=False, seed=42)
        assert stats.up_ms == stats.down_ms == (302.0,) * 3


class TestSwitchingTimeStats:
    @pytest.fixture(scope="class")
    def stats(self, ref_plant):
        return run_switching_time(ref_plant, n_trials=7, jitter=True, seed=5)

    def test_summaries_derive_from_the_trials(self, stats):
        assert stats.n_trials == len(stats.up_ms) == len(stats.down_ms) == 7
        assert stats.mean_up_ms == statistics.fmean(stats.up_ms)
        assert stats.mean_down_ms == statistics.fmean(stats.down_ms)
        assert stats.sigma_up_ms == statistics.pstdev(stats.up_ms)
        assert stats.sigma_down_ms == statistics.pstdev(stats.down_ms)
        assert stats.sigma_up_ms > 0.0 and stats.sigma_down_ms > 0.0

    @pytest.mark.parametrize(
        "name",
        ["up_ms", "down_ms", "n_trials", "mean_up_ms", "mean_down_ms", "sigma_up_ms", "sigma_down_ms"],
    )
    def test_setting_a_field_raises(self, stats, name):
        with pytest.raises(AttributeError):
            setattr(stats, name, getattr(stats, name))

    def test_same_seed_compares_equal(self, ref_plant, stats):
        assert run_switching_time(ref_plant, n_trials=7, jitter=True, seed=5) == stats
        assert run_switching_time(ref_plant, n_trials=7, jitter=True, seed=6) != stats


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

    def test_position_mode_needs_two_trapezoidal_points(self):
        # Same plant as above: 540 deg/s is triangular, leaving one point to fit.
        plant = Config(slip=0.0).plant()
        plant = replace(plant, motor=replace(plant.motor, profile_accel=5466.0))
        with pytest.raises(
            ValueError, match="^need at least two points in the trapezoidal regime to fit$"
        ):
            run_speed_sweep(plant, [180.0, 540.0], mode=ControlMode.PROFILE_POSITION)

    def test_mode_by_value(self, ref_plant):
        # A mode's value selects that mode, not the other one.
        omegas = [180.0, 360.0]
        for mode, t_180 in [("velocity", 681.1111), ("position", 714.0417)]:
            curve = run_speed_sweep(ref_plant, omegas, mode=mode)
            assert curve == run_speed_sweep(ref_plant, omegas, mode=ControlMode(mode))
            assert curve.points[0].t_switch_ms == t_180

    @pytest.mark.parametrize("mode", ["Velocity", "PROFILE_VELOCITY", None, 1])
    def test_rejects_an_unknown_mode(self, ref_plant, mode):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(mode))} is not a valid ControlMode"):
            run_speed_sweep(ref_plant, [180.0, 360.0], mode=mode)

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

    def test_reference_calibration_is_bit_identical(self):
        assert Config().plant().motor.profile_accel == 5466.048080978495

    @pytest.mark.parametrize(
        "t_measured, delta, max_speed",
        [
            (1e-300, 5e-324, 720.0),  # t*t underflows: was a bare ZeroDivisionError
            (1e200, 122.6, 720.0),  # 4*delta/t^2 underflows: was 0.0
            (1e300, 1e-300, 1e-300),  # the trapezoid accel underflows: was ZeroDivisionError
            (2e-300, 1.0, 1e300),  # the trapezoid accel overflows: was ZeroDivisionError
        ],
    )
    def test_extremes_refused_by_name(self, t_measured, delta, max_speed):
        with pytest.raises(ValueError, match="no finite, positive profile acceleration"):
            calibrate_profile_accel(t_measured, delta, max_speed)

    @settings(deadline=None, max_examples=300)
    @given(st.floats(), st.floats(), st.floats())
    def test_finite_positive_or_a_named_error(self, t_measured, delta, max_speed):
        try:
            accel = calibrate_profile_accel(t_measured, delta, max_speed)
        except (SwitchSimError, ValueError):
            return
        assert 0.0 < accel < math.inf

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
