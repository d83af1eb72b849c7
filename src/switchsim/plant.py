"""Time-stepped simulation of the single-motor antagonist test rig.

The model is quasi-static: the motor follows its commanded motion profile,
the switch state machine routes motor rotation to at most one spool, winding
the engaged cable moves the joint through that cable's path law, and the
disengaged cable stays taut on its spring-loaded spool at whatever length
its own path dictates. No inertia, elasticity or dynamic friction.

Units: motor angles and speeds in output-shaft degrees; switch/joint angles
in radians; lengths mm; forces N; times s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import NeverEngaged, RangeExceeded, SlackDetected, SwitchSimError
from .geometry import EngagementSolution, MechanismLayout
from .motion import TrapezoidalProfile
from .paths import CablePath, OutOfRange
from .switching import (
    PSI_SNAP,
    Event,
    EventKind,
    Side,
    SwitchState,
    TraversalModel,
    step_switch,
)

DEFAULT_DT = 1e-3  # s; resolves 300 ms phenomena to 0.3 %
PULSE_MIN_GAP = 0.05  # s between disturbance pulses, lower bound
PULSE_MAX_GAP = 0.25  # s between disturbance pulses, upper bound
STEP_BUDGET = 10_000_000  # steps one command, or one switching-time run, may take


@dataclass(frozen=True)
class MotorModel:
    """Gearmotor seen at the gearhead output shaft."""

    max_output_speed: float = 720.0    # deg/s (120 rpm)
    profile_accel: float = math.inf    # deg/s^2; calibrated in the reference config

    def __post_init__(self):
        if not (0 < self.max_output_speed < math.inf):
            raise ValueError(
                f"max_output_speed must be finite and positive, got {self.max_output_speed!r}"
            )
        if not (self.profile_accel > 0):
            raise ValueError(f"profile_accel must be positive, got {self.profile_accel!r}")


@dataclass(frozen=True)
class SpoolModel:
    """Spring-loaded spool (clock spring merged with the string-pot spring)."""

    spool_radius: float = 10.0           # mm
    spring_preload_torque: float = 5.0   # N*mm at the reference payout
    spring_rate: float = 0.05            # N*mm per deg of unwind
    payout_at_zero: float = 0.0          # mm of payout at zero spring wind-up

    def __post_init__(self):
        for name in ("spring_rate", "payout_at_zero"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("spool_radius", "spring_preload_torque"):  # preload > 0: tension never zero
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")

    def tension(self, payout: float) -> float:
        """Cable tension (N) with ``payout`` mm paid out."""
        unwound_deg = math.degrees((payout - self.payout_at_zero) / self.spool_radius)
        return (self.spring_preload_torque + self.spring_rate * unwound_deg) / self.spool_radius


@dataclass(frozen=True)
class PlantConfig:
    """Everything the stepper needs, with the engagement solution precomputed."""

    layout: MechanismLayout
    engagement: EngagementSolution
    traversal: TraversalModel
    motor: MotorModel
    path_plus: CablePath
    path_minus: CablePath
    spool_plus: SpoolModel
    spool_minus: SpoolModel
    dt: float = DEFAULT_DT
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")

    def path(self, side: Side) -> CablePath:
        return self.path_plus if side is Side.PLUS else self.path_minus

    def spool(self, side: Side) -> SpoolModel:
        return self.spool_plus if side is Side.PLUS else self.spool_minus


@dataclass(frozen=True, slots=True)
class SimState:
    t: float
    motor_angle: float        # deg, output shaft
    switch: SwitchState
    joint_angle: float        # rad, in [-pi/2, +pi/2]
    payout_plus: float        # mm
    payout_minus: float       # mm
    tension_plus: float       # N
    tension_minus: float      # N


@dataclass(frozen=True, slots=True)
class TimedEvent:
    t: float
    kind: EventKind
    side: Side | None
    psi: float


def _state(
    config: PlantConfig,
    t: float,
    motor_angle: float,
    switch: SwitchState,
    joint_angle: float,
    disturbances: tuple[float, float],
) -> SimState:
    """The state at ``t``, with ``disturbances`` mm of extra (plus, minus) payout.

    Raises:
        SlackDetected: a tension is not positive (timestamped).
        SwitchSimError: a tension overflows to infinity (timestamped).
    """
    payout_plus = config.path_plus.length(joint_angle) + disturbances[0]
    payout_minus = config.path_minus.length(-joint_angle) + disturbances[1]
    tension_plus = config.spool_plus.tension(payout_plus)
    tension_minus = config.spool_minus.tension(payout_minus)
    if not (0.0 < tension_plus < math.inf and 0.0 < tension_minus < math.inf):
        for side, tension in (("plus", tension_plus), ("minus", tension_minus)):
            where = f"{side} cable tension {tension!r} N is not"
            if not (tension > 0.0):
                raise SlackDetected(f"{where} positive at t={t:.6f} s")
            if tension == math.inf:
                raise SwitchSimError(f"{where} finite at t={t:.6f} s")
    return SimState(
        t=t,
        motor_angle=motor_angle,
        switch=switch,
        joint_angle=joint_angle,
        payout_plus=payout_plus,
        payout_minus=payout_minus,
        tension_plus=tension_plus,
        tension_minus=tension_minus,
    )


def initial_state(config: PlantConfig, engaged: Side | None = Side.PLUS) -> SimState:
    """Rest state: motor and joint at zero, cables taut (else SlackDetected at t=0)."""
    if engaged is None:
        switch = SwitchState.neutral()
    else:
        switch = SwitchState.engaged(engaged, config.engagement)
    return _state(config, 0.0, 0.0, switch, 0.0, (0.0, 0.0))


def step_plant(
    state: SimState,
    config: PlantConfig,
    t: float,
    motor_delta: float = 0.0,
    disturbance_plus: float = 0.0,
    disturbance_minus: float = 0.0,
) -> tuple[SimState, list[Event]]:
    """Advance the plant to time ``t`` with the given motor increment.

    ``t`` is the end time of the step and becomes the new state's time; it
    must lie after ``state.t``. Routes ``motor_delta`` (output-shaft
    degrees) through the switch state machine; any resulting spool rotation
    winds/unwinds the engaged cable, the engaged path law is inverted to get
    the new joint angle, and the disengaged payout follows its own law at
    that angle. ``disturbance_plus``/``disturbance_minus`` add extra payout
    (mm) on that side for this step only. While traversing or neutral the
    joint is untouched (transparency).

    Raises:
        RangeExceeded: joint driven outside [-pi/2, +pi/2] (timestamped).
        SlackDetected: a tension is not positive (timestamped).
        SwitchSimError: a tension overflows to infinity (timestamped).
    """
    if not (t > state.t):
        raise ValueError(f"step end time {t!r} must be after the state time {state.t!r}")

    switch, events = step_switch(
        state.switch,
        config.traversal,
        config.engagement,
        math.radians(motor_delta),
        spool_ratio=config.layout.driven_speed_ratio,
    )

    joint_angle = state.joint_angle
    # The one SPOOL_DRIVEN packet, if any, is the last event; no other event
    # carries spool rotation.
    packet = events[-1] if events else None
    if packet is not None and packet.spool_rotation != 0.0:
        sign = packet.side.sign
        path = config.path(packet.side)
        length0 = path.length(sign * joint_angle)
        length1 = length0 - sign * config.spool(packet.side).spool_radius * packet.spool_rotation
        try:
            joint_angle = sign * path.inverse(length1)
        except OutOfRange as exc:
            raise RangeExceeded(
                f"joint left [-90, +90] deg at t={t:.6f} s: {exc}"
            ) from exc

    motor_angle = state.motor_angle + motor_delta
    disturbances = (disturbance_plus, disturbance_minus)
    return _state(config, t, motor_angle, switch, joint_angle, disturbances), events


# --------------------------------------------------------------------------
# Scripts


@dataclass(frozen=True)
class MoveMotorTo:
    """Profile-Position move to an absolute output-shaft angle (deg)."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"move_to angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class SetVelocity:
    """Constant-rate motion (deg/s) until the next command; 0 stops."""

    rate: float

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError(f"set_velocity rate must be finite, got {self.rate!r}")


@dataclass(frozen=True)
class Wait:
    """Let the simulation run for ``duration`` seconds."""

    duration: float

    def __post_init__(self):
        if not math.isfinite(self.duration):
            raise ValueError(f"wait duration must be finite, got {self.duration!r}")
        if self.duration < 0:
            raise ValueError(f"wait duration must not be negative, got {self.duration!r}")


@dataclass(frozen=True)
class DisturbancePulses:
    """Random rectangular pulses of extra payout on a target cable.

    target: 'plus', 'minus' (gated to apply only while that side is
        disengaged), 'disengaged' (whichever side(s) currently are), or
        'engaged' (negative control; deliberately corrupts the engaged
        reading).
    """

    target: str = "disengaged"
    magnitude: float = 5.0   # mm
    width: float = 0.05      # s each pulse lasts; PULSE_MIN_GAP..PULSE_MAX_GAP s between pulses

    def __post_init__(self):
        if self.target not in ("plus", "minus", "engaged", "disengaged"):
            raise ValueError(f"unknown disturbance target {self.target!r}")
        if not (0 <= self.magnitude < math.inf):
            raise ValueError(
                f"disturbance magnitude must be finite and non-negative, got {self.magnitude!r}"
            )
        if not (0 < self.width < math.inf):
            raise ValueError(
                f"disturbance width must be finite and positive, got {self.width!r}"
            )


@dataclass(frozen=True)
class InjectDisturbance:
    """Start a disturbance signal (non-blocking); ``profile=None`` stops it."""

    profile: DisturbancePulses | None


ScriptCommand = MoveMotorTo | SetVelocity | Wait | InjectDisturbance


class _PulseState:
    """Steps a seeded on/off pulse process; deterministic for a given seed."""

    def __init__(self, profile: DisturbancePulses, seed: int):
        self.profile = profile
        self._rng = random.Random(seed)
        self._remaining = self._rng.uniform(PULSE_MIN_GAP, PULSE_MAX_GAP)
        self._on = False

    def step(self, dt: float) -> float:
        self._remaining -= dt
        while self._remaining <= 0.0:
            self._on = not self._on
            if self._on:
                self._remaining += self.profile.width
            else:
                self._remaining += self._rng.uniform(PULSE_MIN_GAP, PULSE_MAX_GAP)
        return self.profile.magnitude if self._on else 0.0


# --------------------------------------------------------------------------
# Trace


TRACE_COLUMNS = (
    "t_s",
    "motor_deg",
    "psi_deg",
    "mode",
    "joint_deg",
    "payout_plus_mm",
    "payout_minus_mm",
    "tension_plus_N",
    "tension_minus_N",
)

EVENT_COLUMNS = ("t_s", "kind", "detail")


@dataclass
class Trace:
    """Fixed-step samples plus the engagement event log."""

    rows: list[SimState]
    events: list[TimedEvent]

    def to_csv(self) -> str:
        lines = [",".join(TRACE_COLUMNS)]
        for s in self.rows:
            lines.append(
                ",".join(
                    (
                        repr(s.t),
                        repr(s.motor_angle),
                        repr(math.degrees(s.switch.psi)),
                        s.switch.mode.value,
                        repr(math.degrees(s.joint_angle)),
                        repr(s.payout_plus),
                        repr(s.payout_minus),
                        repr(s.tension_plus),
                        repr(s.tension_minus),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def events_to_csv(self) -> str:
        lines = [",".join(EVENT_COLUMNS)]
        for e in self.events:
            side = e.side.value if e.side is not None else ""
            detail = f"side={side} psi_deg={math.degrees(e.psi)!r}"
            lines.append(f"{e.t!r},{e.kind.value},{detail}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Simulator


class Simulator:
    """Owns the motor schedule and drives the pure plant stepper.

    Stepping happens on a fixed grid t_k = k*dt. Engagement events are
    timestamped inside a step by inverting the motion profile, so event
    times are exact, not quantized to dt.

    A recorded or disturbed run takes every step of the grid. An unrecorded,
    undisturbed command takes one closed-form step over its whole span: the
    profile difference, or velocity*dt*steps, goes through the plant at once,
    which lands on the same grid point, events and state up to roundoff.
    ``run_until_engaged`` leaps only over the steps that cannot reach its
    endpoint. A failure inside a leap is re-run step by step, so it keeps the
    timestamp of the grid step it happens in.
    """

    def __init__(
        self,
        config: PlantConfig,
        engaged: Side | None = Side.PLUS,
        record: bool = True,
    ):
        self.config = config
        self.state = initial_state(config, engaged)
        self.record = record
        self.trace = Trace(rows=[self.state] if record else [], events=[])
        self._step_index = 0
        self._profile: TrapezoidalProfile | None = None
        self._profile_t0 = 0.0
        self._velocity = 0.0
        self._pulses: _PulseState | None = None
        self._n_injections = 0

    @property
    def t(self) -> float:
        return self._step_index * self.config.dt

    # -- commands ----------------------------------------------------------

    def move_motor_to(self, target: float) -> float:
        """Run a Profile-Position move to ``target`` deg; returns the command time."""
        t_cmd = self.t
        self._velocity = 0.0
        delta = target - self.state.motor_angle
        motor = self.config.motor
        profile = TrapezoidalProfile.plan(delta, motor.max_output_speed, motor.profile_accel)
        self._profile = profile
        self._profile_t0 = t_cmd
        self._run(profile.duration)
        self._profile = None
        return t_cmd

    def set_velocity(self, rate: float) -> None:
        if abs(rate) > self.config.motor.max_output_speed:
            raise ValueError(
                f"velocity {rate!r} deg/s exceeds the modeled limit "
                f"{self.config.motor.max_output_speed} deg/s"
            )
        self._profile = None
        self._velocity = rate

    def wait(self, duration: float) -> None:
        """Run the active motion for ``duration`` s, rounded up to whole steps."""
        self._run(duration)

    def inject(self, profile: DisturbancePulses | None) -> None:
        if profile is None:
            self._pulses = None
            return
        self._n_injections += 1
        self._pulses = _PulseState(profile, self.config.seed + 7919 * self._n_injections)

    def execute(self, command: ScriptCommand) -> None:
        if isinstance(command, MoveMotorTo):
            self.move_motor_to(command.angle)
        elif isinstance(command, SetVelocity):
            self.set_velocity(command.rate)
        elif isinstance(command, Wait):
            self.wait(command.duration)
        elif isinstance(command, InjectDisturbance):
            self.inject(command.profile)
        else:
            raise TypeError(f"unknown script command {command!r}")

    def run_until_engaged(self, side: Side, timeout: float) -> float:
        """Step (velocity mode) until the switch engages ``side``; event time.

        Raises:
            NeverEngaged: timeout elapsed first, or ``side`` was engaged
                already (the run stops after one step).
        """
        start = len(self.trace.events)
        self._run(timeout, until=side)
        for event in self.trace.events[start:]:
            if event.kind is EventKind.ENGAGED and event.side is side:
                return event.t
        raise NeverEngaged(
            f"switch did not engage {side.value} within {timeout} s"
        )

    # -- stepping ----------------------------------------------------------

    def _run(self, duration: float, until: Side | None = None) -> None:
        """Take ``duration`` s of steps, rounded up; stop once ``until`` is engaged.

        Raises:
            SwitchSimError: the steps exceed ``STEP_BUDGET``; nothing is stepped.
        """
        steps = steps_to_cover(duration, self.config.dt)
        if not self.record and self._pulses is None:
            leap = self._leap(steps, until)
            if leap > 1:
                try:
                    self._step(leap)
                except SwitchSimError:
                    pass  # nothing changed before step_plant raised: step to time the failure
                else:
                    steps -= leap
        for _ in range(steps):
            self._step()
            if until is not None and self.state.switch.engaged_side is until:
                return

    def _leap(self, steps: int, until: Side | None) -> int:
        """Steps of ``steps`` that one closed-form step may cover.

        None if ``until`` is engaged, as the run stops after one step. Else all
        of them, unless the motion could engage ``until``: then those that stay
        a step short of its endpoint's snap window.
        """
        switch = self.state.switch
        if until is not None and switch.engaged_side is until:
            return 0
        if until is None or self._velocity * until.sign <= 0.0:
            return steps
        gap = abs(until.sign * self.config.engagement.psi_star - switch.psi) - PSI_SNAP
        gap_deg = math.degrees(gap * self.config.traversal.effective_ratio)
        return min(steps, math.floor(gap_deg / (abs(self._velocity) * self.config.dt)) - 1)

    def _motor_delta(self, t0: float, t1: float, steps: int) -> float:
        if self._profile is not None:
            return self._profile.position(t1 - self._profile_t0) - self._profile.position(
                t0 - self._profile_t0
            )
        return self._velocity * self.config.dt * steps

    def _disturbances(self, value: float) -> tuple[float, float]:
        """Map the signal value onto (plus, minus) per target and gating."""
        if self._pulses is None or value == 0.0:
            return 0.0, 0.0
        target = self._pulses.profile.target
        engaged = self.state.switch.engaged_side
        plus = minus = 0.0
        if target == "plus":
            plus = value if engaged is not Side.PLUS else 0.0
        elif target == "minus":
            minus = value if engaged is not Side.MINUS else 0.0
        elif target == "disengaged":
            plus = value if engaged is not Side.PLUS else 0.0
            minus = value if engaged is not Side.MINUS else 0.0
        else:  # "engaged": negative control
            if engaged is Side.PLUS:
                plus = value
            elif engaged is Side.MINUS:
                minus = value
        return plus, minus

    def _event_time(self, t0: float, motor_progress: float) -> float:
        progress_deg = abs(math.degrees(motor_progress))
        if self._profile is not None:
            covered = abs(self._profile.position(t0 - self._profile_t0))
            return self._profile_t0 + self._profile.time_at_distance(covered + progress_deg)
        return t0 + progress_deg / abs(self._velocity)  # an event needs motor motion

    def _step(self, steps: int = 1) -> None:
        dt = self.config.dt
        t0 = self._step_index * dt
        t1 = (self._step_index + steps) * dt
        delta = self._motor_delta(t0, t1, steps)
        signal = self._pulses.step(dt) if self._pulses is not None else 0.0
        dist_plus, dist_minus = self._disturbances(signal)
        state, events = step_plant(
            self.state,
            self.config,
            t1,
            motor_delta=delta,
            disturbance_plus=dist_plus,
            disturbance_minus=dist_minus,
        )
        for event in events:
            if event.kind is EventKind.SPOOL_DRIVEN:
                continue
            self.trace.events.append(
                TimedEvent(self._event_time(t0, event.motor_progress), event.kind, event.side, event.psi)
            )
        self.state = state
        self._step_index += steps
        if self.record:
            self.trace.rows.append(state)


def steps_to_cover(duration: float, dt: float) -> int:
    """Whole steps of ``dt`` s that one command takes to run ``duration`` s.

    Raises:
        SwitchSimError: the steps exceed ``STEP_BUDGET``.
    """
    steps = duration / dt - 1e-12
    if steps > STEP_BUDGET:
        raise SwitchSimError(
            f"{duration!r} s takes {steps:.6g} steps of dt={dt!r} s, "
            f"over the budget of {STEP_BUDGET} steps per command"
        )
    return math.ceil(steps)


def run_script(
    config: PlantConfig,
    script: list[ScriptCommand] | tuple[ScriptCommand, ...],
    duration: float | None = None,
    engaged: Side | None = Side.PLUS,
) -> Trace:
    """Execute script commands in order; identical inputs give bit-identical traces.

    ``duration`` (finite, not negative) extends the run (with whatever motion
    mode is active) until at least that much simulated time has elapsed.
    """
    if duration is not None and not (0 <= duration < math.inf):
        raise ValueError(f"duration must be finite and not negative, got {duration!r}")
    sim = Simulator(config, engaged=engaged)
    for command in script:
        sim.execute(command)
    if duration is not None and duration > sim.t:
        sim.wait(duration - sim.t)
    return sim.trace
