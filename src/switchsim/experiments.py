"""Scripted reproductions of the rig's validation protocols.

Covers the two bench protocols (spool independence over the full range of
motion, repeated switching-time trials), the speed sweep, and the
calibration routines that pin the unpublished motor/friction parameters to
the published observations.
"""

from __future__ import annotations

import enum
import math
import random
import statistics
from dataclasses import dataclass, replace

from .errors import BelowKinematicFloor, NeverEngaged, SwitchSimError, _in_range, _integer
from .motion import trapezoid_duration
from .plant import (
    DisturbancePulses,
    InjectDisturbance,
    MoveMotorTo,
    PlantConfig,
    Simulator,
    run_script,
    steps_to_cover,
)
from .switching import EventKind, Side

DEFAULT_JITTER_SIGMA_MS = 0.6  # emulates the bench's measured trial-to-trial spread


class ControlMode(enum.Enum):
    PROFILE_POSITION = "position"
    PROFILE_VELOCITY = "velocity"


def _ms(duration_s: float) -> float:
    """Seconds to ms at a 0.1 us measurement floor.

    Engagements land at the zero-velocity end of a move, where inverting the
    profile amplifies last-ulp distance roundoff into ~ns timing noise;
    rounding well below every modeled tolerance removes that artifact.
    """
    return round(duration_s * 1000.0, 4)


def motor_travel_per_traversal(config: PlantConfig) -> float:
    """Output-shaft rotation (deg) consumed by one full endpoint-to-endpoint traversal."""
    return config.traversal.motor_travel(config.engagement.theta_track)


def _traversal_time(config: PlantConfig, n_trials: int = 1) -> float:
    """Seconds a traversal takes. SwitchSimError if ``n_trials`` switching trials,
    two traversals each, take more than ``STEP_BUDGET`` steps."""
    motor = config.motor
    travel = motor_travel_per_traversal(config)
    move_s = trapezoid_duration(travel, motor.max_output_speed, motor.profile_accel)
    steps_to_cover(move_s, config.dt, runs=2 * n_trials)
    return move_s


@dataclass(frozen=True)
class SwitchingTimeStats:
    """Per-trial durations; the count, means and population sigmas derive from them."""

    up_ms: tuple[float, ...]
    down_ms: tuple[float, ...]

    @property
    def n_trials(self) -> int:
        return len(self.up_ms)

    @property
    def mean_up_ms(self) -> float:
        return statistics.fmean(self.up_ms)

    @property
    def mean_down_ms(self) -> float:
        return statistics.fmean(self.down_ms)

    @property
    def sigma_up_ms(self) -> float:
        return statistics.pstdev(self.up_ms)

    @property
    def sigma_down_ms(self) -> float:
        return statistics.pstdev(self.down_ms)


def run_switching_time(
    config: PlantConfig,
    n_trials: int = 10,
    jitter: bool = True,
    jitter_sigma_ms: float = DEFAULT_JITTER_SIGMA_MS,
    seed: int | None = None,
) -> SwitchingTimeStats:
    """Repeated full traversals, timing command-to-engagement per direction.

    Each trial commands the motor between the two endpoint shaft angles
    (one traversal apart) in Profile Position mode and measures the time
    from the command to the engagement event, up and down separately.
    Optional Gaussian jitter on the measured durations emulates bench
    measurement noise; per-trial seeds derive from the config seed.

    Raises:
        ValueError: ``n_trials`` is not a positive int, ``seed`` is neither
            None nor an int, or ``jitter_sigma_ms`` is negative or not finite.
        NeverEngaged: a move completed without reaching the far endpoint.
        SwitchSimError: the trials together cover more than ``STEP_BUDGET``
            steps, and nothing is stepped; or the jitter drives the
            durations, or their sum, past the float range.
    """
    _in_range("n_trials", _integer("n_trials", n_trials), "positive")
    _in_range("jitter_sigma_ms", jitter_sigma_ms, "not negative")
    base_seed = config.seed if seed is None else _integer("seed", seed)
    _traversal_time(config, n_trials)
    travel = motor_travel_per_traversal(config)
    sim = Simulator(config, engaged=Side.MINUS, record=False)
    up: list[float] = []
    down: list[float] = []
    for trial in range(n_trials):
        up.append(_timed_move(sim, travel, Side.PLUS))
        down.append(_timed_move(sim, 0.0, Side.MINUS))
        if jitter:
            rng = random.Random(base_seed + trial)
            up[-1] += rng.gauss(0.0, jitter_sigma_ms)
            down[-1] += rng.gauss(0.0, jitter_sigma_ms)
    if jitter and not math.isfinite(sum(map(abs, up + down))):
        raise SwitchSimError(
            f"jitter_sigma_ms {jitter_sigma_ms!r} drives the durations past the float range"
        )
    return SwitchingTimeStats(tuple(up), tuple(down))


def _timed_move(
    sim: Simulator, target: float, side: Side, limits: tuple[float, float] | None = None
) -> float:
    """Command a move and return ms from command to the Engaged(side) event.

    The move's limits are ``limits``, (max speed deg/s, accel deg/s^2), passed
    to ``Simulator._move``; None moves at the config motor's.
    """
    n_before = len(sim.trace.events)
    t_cmd = sim.move_motor_to(target) if limits is None else sim._move(target, *limits)
    for event in sim.trace.events[n_before:]:
        if event.kind is EventKind.ENGAGED and event.side is side:
            return _ms(event.t - t_cmd)
    raise NeverEngaged(
        f"move to {target} deg finished without engaging {side.value}"
    )


@dataclass(frozen=True)
class IndependenceReport:
    max_engaged_deviation: float      # mm
    disturbance_magnitude: float      # mm
    rom_covered: tuple[float, float]  # rad


def full_rom_script(config: PlantConfig) -> list[MoveMotorTo]:
    """Two moves sweeping the joint 0 -> +90 deg (plus cable), then -> -90 deg (minus).

    Targets are computed from the path laws: winding distance over the range
    converts to spool rotation, then to motor rotation through the gear
    ratio, plus one full traversal where the motor reverses.
    """
    ratio = config.layout.driven_speed_ratio
    plus, minus = config.path_plus, config.path_minus
    half = math.pi / 2

    wind_up = (plus.length(0.0) - plus.length(half)) / config.spool_plus.spool_radius
    m_top = math.degrees(wind_up) / ratio

    wind_down = (minus.length(half) - minus.length(-half)) / config.spool_minus.spool_radius
    m_bottom = m_top - motor_travel_per_traversal(config) + math.degrees(wind_down) / ratio
    return [MoveMotorTo(m_top), MoveMotorTo(m_bottom)]


def run_independence(
    config: PlantConfig,
    magnitude: float = DisturbancePulses.magnitude,
    target: str = DisturbancePulses.target,
    seed: int | None = None,
) -> IndependenceReport:
    """Full-RoM sweep with and without disturbance; deviation of the engaged payout.

    With ``target='disengaged'`` (the protocol) random pulses of extra payout
    hit only slack cables and the engaged-payout traces of the two runs must
    match sample-for-sample. ``target='engaged'`` is the negative control: it
    corrupts the engaged reading and must produce a nonzero deviation. A
    ``seed`` that is not None replaces the config's, and must be an int.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    script = full_rom_script(config)
    pulses = DisturbancePulses(target=target, magnitude=magnitude)

    baseline = run_script(config, script)
    disturbed = run_script(config, [InjectDisturbance(pulses), *script])
    if len(baseline.rows) != len(disturbed.rows):
        raise AssertionError("baseline and disturbed runs fell out of step")

    deviation = 0.0
    for a, b in zip(baseline.rows, disturbed.rows):
        side = a.switch.engaged_side
        if side is None or b.switch.engaged_side is not side:
            continue
        if side is Side.PLUS:
            deviation = max(deviation, abs(b.payout_plus - a.payout_plus))
        else:
            deviation = max(deviation, abs(b.payout_minus - a.payout_minus))

    angles = [row.joint_angle for row in baseline.rows]
    return IndependenceReport(
        max_engaged_deviation=deviation,
        disturbance_magnitude=magnitude,
        rom_covered=(min(angles), max(angles)),
    )


@dataclass(frozen=True)
class SweepPoint:
    omega: float        # deg/s
    t_switch_ms: float
    in_fit: bool


@dataclass(frozen=True)
class SweepCurve:
    points: tuple[SweepPoint, ...]
    fit_travel_deg: float   # A in t = A/omega + B
    fit_offset_s: float     # B
    r_squared: float


def run_speed_sweep(
    config: PlantConfig,
    omegas: list[float] | tuple[float, ...],
    mode: ControlMode = ControlMode.PROFILE_VELOCITY,
) -> SweepCurve:
    """Switching time at each motor speed, with a least-squares 1/omega fit.

    Each point is one move of one traversal from MINUS engaged, on a new
    simulator of ``config`` itself. The move's limits are its arguments, with
    omega as its speed limit, so no config is rebuilt per point. In the
    default steady-speed mode the move has no ramp (infinite acceleration),
    so it measures the pure traversal t = travel/omega (every point joins
    the fit). In Profile-Position mode it is a trapezoidal move at the
    motor's acceleration; points in the triangular regime
    (omega^2 > accel * travel) do not follow the t = A/omega + B family at
    all and are flagged and excluded from the fit. ``mode`` may be a
    ``ControlMode`` or its value; any other is a ValueError.
    """
    mode = ControlMode(mode)
    if not omegas:
        raise ValueError("omega list must be non-empty")
    for omega in omegas:
        _in_range("omega values", omega, "positive")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError("omega values must strictly increase")
    config.motor.check_speed(omegas[-1])

    travel = motor_travel_per_traversal(config)
    accel = math.inf if mode is ControlMode.PROFILE_VELOCITY else config.motor.profile_accel
    points: list[SweepPoint] = []
    for omega in omegas:
        sim = Simulator(config, engaged=Side.MINUS, record=False)
        t_ms = _timed_move(sim, travel, Side.PLUS, (omega, accel))
        points.append(SweepPoint(omega, t_ms, omega * omega <= accel * travel))

    fitted = [(p.omega, p.t_switch_ms / 1000.0) for p in points if p.in_fit]
    if len(fitted) < 2:
        raise ValueError("need at least two points in the trapezoidal regime to fit")
    a_fit, b_fit, r2 = _fit_inverse_speed(fitted)
    return SweepCurve(tuple(points), a_fit, b_fit, r2)


def _fit_inverse_speed(data: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Least squares for t = A/omega + B; returns (A, B, R^2)."""
    xs = [1.0 / w for w, _ in data]
    ts = [t for _, t in data]
    n = len(data)
    xm = sum(xs) / n
    tm = sum(ts) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    sxt = sum((x - xm) * (t - tm) for x, t in zip(xs, ts))
    a = sxt / sxx
    b = tm - a * xm
    ss_res = sum((t - (a * x + b)) ** 2 for x, t in zip(xs, ts))
    ss_tot = sum((t - tm) ** 2 for t in ts)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return a, b, r2


def calibrate_profile_accel(t_measured: float, delta: float, max_speed: float) -> float:
    """Profile acceleration (deg/s^2) that makes a |delta| move take ``t_measured`` s.

    Solves the trapezoid t = delta/v + v/a for a; if the resulting profile
    would not reach the speed limit the triangular branch a = 4*delta/t^2
    applies instead.

    Raises:
        BelowKinematicFloor: t_measured at or below delta/max_speed.
        ValueError: the acceleration is not a finite, positive float.
    """
    _in_range("delta", delta, "positive")
    _in_range("max_speed", max_speed, "positive")
    _in_range("t_measured", t_measured)
    floor = delta / max_speed
    if t_measured <= floor:
        raise BelowKinematicFloor(
            f"measured time {t_measured} s at or below the constant-speed floor {floor:.6f} s"
        )
    accel = max_speed / (t_measured - floor)
    if not (accel > 0.0 and delta >= max_speed * max_speed / accel):  # triangular
        t_squared = t_measured * t_measured
        accel = 4.0 * delta / t_squared if t_squared > 0.0 else math.inf
    if not 0.0 < accel < math.inf:
        raise ValueError(
            f"no finite, positive profile acceleration moves {delta!r} deg in "
            f"t_measured {t_measured!r} s at max_speed {max_speed!r} deg/s"
        )
    return accel
