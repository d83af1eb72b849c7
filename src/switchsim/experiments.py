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

from .errors import BelowKinematicFloor, NeverEngaged, SwitchSimError
from .motion import trapezoid_duration
from .plant import (
    STEP_BUDGET,
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


@dataclass(frozen=True)
class SwitchingTimeStats:
    n_trials: int
    mean_up_ms: float
    mean_down_ms: float
    sigma_up_ms: float
    sigma_down_ms: float
    up_ms: tuple[float, ...]
    down_ms: tuple[float, ...]


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
        NeverEngaged: a move completed without reaching the far endpoint.
        SwitchSimError: the trials together cover more than ``STEP_BUDGET``
            steps; nothing is stepped.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not (0.0 <= jitter_sigma_ms < math.inf):
        raise ValueError(
            f"jitter_sigma_ms must be finite and not negative, got {jitter_sigma_ms!r}"
        )
    base_seed = config.seed if seed is None else seed
    travel = motor_travel_per_traversal(config)
    motor = config.motor
    move_s = trapezoid_duration(travel, motor.max_output_speed, motor.profile_accel)
    steps = n_trials * 2 * steps_to_cover(move_s, config.dt)
    if steps > STEP_BUDGET:
        raise SwitchSimError(
            f"{n_trials} trials take {steps} steps of dt={config.dt!r} s, "
            f"over the budget of {STEP_BUDGET} steps per run"
        )
    sim = Simulator(config, engaged=Side.MINUS, record=False)
    up: list[float] = []
    down: list[float] = []
    for trial in range(n_trials):
        rng = random.Random(base_seed + trial)
        up.append(_timed_move(sim, travel, Side.PLUS) + _jitter(rng, jitter, jitter_sigma_ms))
        down.append(_timed_move(sim, 0.0, Side.MINUS) + _jitter(rng, jitter, jitter_sigma_ms))
    return SwitchingTimeStats(
        n_trials=n_trials,
        mean_up_ms=statistics.fmean(up),
        mean_down_ms=statistics.fmean(down),
        sigma_up_ms=statistics.pstdev(up),
        sigma_down_ms=statistics.pstdev(down),
        up_ms=tuple(up),
        down_ms=tuple(down),
    )


def _jitter(rng: random.Random, enabled: bool, sigma_ms: float) -> float:
    draw = rng.gauss(0.0, sigma_ms)  # always drawn, keeps seeds aligned
    return draw if enabled else 0.0


def _timed_move(sim: Simulator, target: float, side: Side) -> float:
    """Command a move and return ms from command to the Engaged(side) event."""
    n_before = len(sim.trace.events)
    t_cmd = sim.move_motor_to(target)
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
    magnitude: float = 5.0,
    target: str = "disengaged",
    seed: int | None = None,
) -> IndependenceReport:
    """Full-RoM sweep with and without disturbance; deviation of the engaged payout.

    With ``target='disengaged'`` (the protocol) random pulses of extra payout
    hit only slack cables and the engaged-payout traces of the two runs must
    match sample-for-sample. ``target='engaged'`` is the negative control: it
    corrupts the engaged reading and must produce a nonzero deviation.
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

    The default steady-speed mode measures the pure traversal t = travel/omega
    (every point joins the fit). In Profile-Position mode each point is a
    trapezoidal move whose cruise limit is omega; points in the triangular
    regime (omega^2 > accel * travel) do not follow the t = A/omega + B
    family at all and are flagged and excluded from the fit.
    """
    if not omegas:
        raise ValueError("omega list must be non-empty")
    for omega in omegas:
        if not math.isfinite(omega):
            raise ValueError(f"omega values must be finite, got {omega!r}")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError("omega values must strictly increase")
    if omegas[0] <= 0:
        raise ValueError("omega values must be positive")
    if omegas[-1] > config.motor.max_output_speed:
        raise ValueError(
            f"omega {omegas[-1]} deg/s exceeds the modeled speed bound "
            f"{config.motor.max_output_speed} deg/s"
        )

    travel = motor_travel_per_traversal(config)
    accel = config.motor.profile_accel
    points: list[SweepPoint] = []
    for omega in omegas:
        if mode is ControlMode.PROFILE_VELOCITY:
            sim = Simulator(config, engaged=Side.MINUS, record=False)
            sim.set_velocity(omega)
            t_event = sim.run_until_engaged(Side.PLUS, timeout=2.0 * travel / omega + 1.0)
            points.append(SweepPoint(omega, _ms(t_event), True))
        else:
            motor = replace(config.motor, max_output_speed=omega)
            trial = replace(config, motor=motor)
            sim = Simulator(trial, engaged=Side.MINUS, record=False)
            t_ms = _timed_move(sim, travel, Side.PLUS)
            triangular = omega * omega > accel * travel
            points.append(SweepPoint(omega, t_ms, not triangular))

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
    """
    if not (delta > 0 and max_speed > 0):
        raise ValueError("delta and max_speed must be positive")
    if not math.isfinite(t_measured):
        raise ValueError(f"t_measured must be finite, got {t_measured!r}")
    floor = delta / max_speed
    if t_measured <= floor:
        raise BelowKinematicFloor(
            f"measured time {t_measured} s at or below the constant-speed floor {floor:.6f} s"
        )
    accel = max_speed / (t_measured - floor)
    if delta >= max_speed * max_speed / accel:
        return accel
    return 4.0 * delta / (t_measured * t_measured)
