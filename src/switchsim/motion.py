"""Trapezoidal velocity profiles for point-to-point moves.

Unit-agnostic: displacement, speed and acceleration just have to be
consistent (the plant uses output-shaft degrees and seconds).
``accel = math.inf`` models an ideal instant-speed move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _in_range


def _limits(max_speed: float, accel: float) -> None:
    """The range rule on a profile's limits: ``accel = inf`` is allowed, zero is not."""
    _in_range("max_speed", max_speed, "positive")
    _in_range("accel", accel, "positive, inf allowed")


@dataclass(frozen=True)
class TrapezoidalProfile:
    """A planned symmetric accelerate/cruise/decelerate move.

    ``delta`` is signed; all the phase bookkeeping is on magnitudes.
    Degenerates to a triangular profile when the move is too short to reach
    the speed limit (|delta| < v^2/a).
    """

    delta: float
    peak_speed: float
    accel: float
    t_accel: float
    t_cruise: float

    @classmethod
    def plan(cls, delta: float, max_speed: float, accel: float) -> "TrapezoidalProfile":
        _limits(max_speed, accel)
        dist = abs(_in_range("delta", delta))
        if dist == 0.0:
            return cls(0.0, max_speed, accel, 0.0, 0.0)
        ramp = 0.0 if math.isinf(accel) else max_speed * max_speed / accel
        if dist >= ramp:
            peak = max_speed
            t_accel = 0.0 if math.isinf(accel) else peak / accel
            t_cruise = (dist - ramp) / peak
        else:
            peak = math.sqrt(dist * accel)
            t_accel = peak / accel
            t_cruise = 0.0
        return cls(delta, peak, accel, t_accel, t_cruise)

    @property
    def duration(self) -> float:
        return 2.0 * self.t_accel + self.t_cruise

    def position(self, t: float) -> float:
        """Signed displacement covered at time ``t`` since the move started."""
        dist = abs(self.delta)
        if dist == 0.0 or t <= 0.0:
            return 0.0
        total = self.duration
        if t >= total:
            return self.delta
        ramp_dist = 0.5 * self.peak_speed * self.t_accel
        if t < self.t_accel:
            covered = 0.5 * self.accel * t * t
        elif t < self.t_accel + self.t_cruise:
            covered = ramp_dist + self.peak_speed * (t - self.t_accel)
        else:
            remaining = total - t
            covered = dist - 0.5 * self.accel * remaining * remaining
        return math.copysign(min(covered, dist), self.delta)

    def time_at_distance(self, distance: float) -> float:
        """First time at which |covered displacement| reaches ``distance``."""
        dist = abs(self.delta)
        if distance <= 0.0:
            return 0.0
        if distance >= dist:
            return self.duration
        ramp_dist = 0.5 * self.peak_speed * self.t_accel
        if distance < ramp_dist:
            return math.sqrt(2.0 * distance / self.accel)
        cruise_dist = self.peak_speed * self.t_cruise
        if distance <= ramp_dist + cruise_dist:
            return self.t_accel + (distance - ramp_dist) / self.peak_speed
        return self.duration - math.sqrt(2.0 * (dist - distance) / self.accel)


def trapezoid_duration(distance: float, max_speed: float, accel: float) -> float:
    """Closed-form move duration for a distance |delta|.

    Trapezoidal case: distance/v + v/a. Triangular case (distance < v^2/a):
    2*sqrt(distance/a). ``accel = inf`` gives the kinematic floor distance/v.
    Checks the limits, then the distance.
    """
    _limits(max_speed, accel)
    _in_range("distance", distance, "not negative")
    return _trapezoid_duration(distance, max_speed, accel)


def _trapezoid_duration(distance: float, max_speed: float, accel: float) -> float:
    """``trapezoid_duration`` for limits that already passed ``_limits``, such as a
    ``MotorModel``'s, and a finite, non-negative distance, such as a motor
    travel ``k_eff * theta``: checks nothing."""
    if distance == 0.0:
        return 0.0
    if math.isinf(accel):
        return distance / max_speed
    if distance >= max_speed * max_speed / accel:
        return distance / max_speed + max_speed / accel
    return 2.0 * math.sqrt(distance / accel)
