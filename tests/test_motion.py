import math
import random

import pytest
from hypothesis import given, strategies as st

from switchsim import MotorModel, TrapezoidalProfile, trapezoid_duration
from switchsim import motion


CAL_ACCEL = 720.0 / (0.302 - 122.6 / 720.0)  # reference profile acceleration


class TestDuration:
    def test_reference_move(self):
        # duration = delta/v + v/a in the trapezoidal regime
        assert trapezoid_duration(122.6, 720.0, CAL_ACCEL) == pytest.approx(0.302, abs=1e-12)
        assert trapezoid_duration(122.6, 720.0, 5466.0) == pytest.approx(0.3020, abs=1e-4)

    def test_kinematic_floor(self):
        assert trapezoid_duration(122.6, 720.0, math.inf) == pytest.approx(
            122.6 / 720.0, abs=1e-15
        )

    def test_short_move_is_triangular(self):
        expected = 2.0 * math.sqrt(0.001 / 5466.0)
        assert trapezoid_duration(0.001, 720.0, 5466.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.000856, abs=2e-6)

    def test_zero_distance(self):
        assert trapezoid_duration(0.0, 720.0, 5466.0) == 0.0


class TestProfile:
    def test_covers_exactly_delta(self):
        p = TrapezoidalProfile.plan(-122.6, 720.0, CAL_ACCEL)
        assert p.position(p.duration) == -122.6
        assert p.position(p.duration + 1.0) == -122.6

    def test_duration_matches_closed_form(self):
        p = TrapezoidalProfile.plan(122.6, 720.0, CAL_ACCEL)
        assert p.duration == pytest.approx(trapezoid_duration(122.6, 720.0, CAL_ACCEL), abs=1e-12)

    def test_triangular_peak(self):
        p = TrapezoidalProfile.plan(10.0, 720.0, 5466.0)
        assert p.t_cruise == 0.0
        assert p.peak_speed == pytest.approx(math.sqrt(10.0 * 5466.0))

    def test_infinite_accel(self):
        p = TrapezoidalProfile.plan(122.6, 720.0, math.inf)
        assert p.t_accel == 0.0
        assert p.duration == pytest.approx(122.6 / 720.0)
        assert p.position(0.1) == pytest.approx(72.0)

    @given(
        delta=st.floats(min_value=0.01, max_value=1000.0),
        v=st.floats(min_value=1.0, max_value=2000.0),
        a=st.floats(min_value=10.0, max_value=1e6),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_time_at_distance_inverts_position(self, delta, v, a, frac):
        p = TrapezoidalProfile.plan(delta, v, a)
        d = frac * delta
        t = p.time_at_distance(d)
        assert 0.0 <= t <= p.duration
        assert abs(p.position(t)) == pytest.approx(d, abs=1e-9 * max(1.0, delta))

    @given(
        delta=st.floats(min_value=0.01, max_value=1000.0),
        v=st.floats(min_value=1.0, max_value=2000.0),
        a=st.floats(min_value=10.0, max_value=1e6),
        t1=st.floats(min_value=0.0, max_value=5.0),
        t2=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_position_monotone(self, delta, v, a, t1, t2):
        p = TrapezoidalProfile.plan(delta, v, a)
        lo, hi = min(t1, t2), max(t1, t2)
        assert p.position(lo) <= p.position(hi) + 1e-12

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            TrapezoidalProfile.plan(10.0, 0.0, 100.0)
        with pytest.raises(ValueError):
            TrapezoidalProfile.plan(10.0, 100.0, 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match=f"delta must be finite, got {delta!r}"):
            TrapezoidalProfile.plan(delta, 720.0, 1000.0)


@pytest.mark.parametrize(
    "max_speed, accel, message",
    [
        (0.0, 5.0, "max_speed must be finite and positive, got 0.0"),
        (-1.0, 5.0, "max_speed must be finite and positive, got -1.0"),
        (math.inf, 5.0, "max_speed must be finite and positive, got inf"),
        (math.nan, 5.0, "max_speed must be finite and positive, got nan"),
        (720.0, 0.0, "accel must be finite and positive, or inf, got 0.0"),
        (720.0, -5.0, "accel must be finite and positive, or inf, got -5.0"),
        (720.0, math.nan, "accel must be finite and positive, or inf, got nan"),
    ],
)
def test_duration_and_plan_refuse_the_same_limits(max_speed, accel, message):
    """Unchecked, a zero limit divides by zero and a negative one gives a negative time."""
    for distance in (0.0, 1.0):
        with pytest.raises(ValueError) as duration:
            trapezoid_duration(distance, max_speed, accel)
        with pytest.raises(ValueError) as plan:
            TrapezoidalProfile.plan(distance, max_speed, accel)
        assert str(duration.value) == str(plan.value) == message


@pytest.mark.parametrize("distance", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_duration_refuses_a_bad_distance(distance):
    """The distance is checked after the limits; the unchecked core is never reached."""
    message = f"distance must be finite and not negative, got {distance!r}"
    with pytest.raises(ValueError) as refused:
        trapezoid_duration(distance, 720.0, CAL_ACCEL)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as limits_first:
        trapezoid_duration(distance, 0.0, CAL_ACCEL)
    assert str(limits_first.value) == "max_speed must be finite and positive, got 0.0"


def test_profile_position_move_uses_motor_limits():
    motor = MotorModel(max_output_speed=720.0, profile_accel=CAL_ACCEL)
    p = TrapezoidalProfile.plan(122.6, motor.max_output_speed, motor.profile_accel)
    assert p.duration == pytest.approx(0.302, abs=1e-12)
    assert p.peak_speed == 720.0


def test_duration_core_equals_the_checked_duration():
    """``_trapezoid_duration``, which checks no limit, gives the public function's bits."""
    rng = random.Random(20)
    cases = []
    for _ in range(300):
        speed = rng.uniform(1.0, 1000.0)
        accel = rng.choice([rng.uniform(10.0, 1e5), math.inf])
        ramp = speed * speed / accel
        cases += [
            (rng.uniform(ramp, ramp + 500.0), speed, accel),  # trapezoid (floor at inf)
            (rng.uniform(0.0, ramp) if ramp else 1e-9, speed, accel),  # triangle
            (ramp, speed, accel),  # the boundary
            (0.0, speed, accel),
        ]
    kinds = {("inf" if a == math.inf else d == 0.0 or d >= v * v / a) for d, v, a in cases}
    assert kinds == {"inf", True, False}
    for case in cases:
        assert motion._trapezoid_duration(*case).hex() == trapezoid_duration(*case).hex(), case

