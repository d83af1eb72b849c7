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
from typing import NamedTuple

from .errors import NeverEngaged, RangeExceeded, SlackDetected, SwitchSimError, _in_range, _integer
from .geometry import EngagementSolution, MechanismLayout
from .motion import TrapezoidalProfile
from .paths import CablePath, OutOfRange
from .switching import Event, EventKind, Side, SwitchState, TraversalModel, _switch, step_switch

DEFAULT_DT = 1e-3  # s; resolves 300 ms phenomena to 0.3 %
PULSE_MIN_GAP = 0.05  # s between disturbance pulses, lower bound
PULSE_MAX_GAP = 0.25  # s between disturbance pulses, upper bound
STEP_BUDGET = 10_000_000  # steps one command, or one switching-time run, may take
DISTURBANCE_TARGETS = ("disengaged", "engaged", "plus", "minus")  # the first is the default
_UNDISTURBED = (0.0, 0.0)  # the (plus, minus) pair of a step with no pulse on
_Move = tuple[TrapezoidalProfile, float]  # a move's profile and start time, s


@dataclass(frozen=True)
class MotorModel:
    """Gearmotor seen at the gearhead output shaft."""

    max_output_speed: float = 720.0    # deg/s (120 rpm)
    profile_accel: float = math.inf    # deg/s^2; calibrated in the reference config

    def __post_init__(self):
        _in_range("max_output_speed", self.max_output_speed, "positive")
        _in_range("profile_accel", self.profile_accel, "positive, inf allowed")

    def check_speed(self, rate: float) -> float:
        """``rate`` (deg/s) if its magnitude is within ``max_output_speed``, else a ValueError."""
        if abs(rate) > self.max_output_speed:
            raise ValueError(
                f"speed {rate!r} deg/s exceeds max_output_speed {self.max_output_speed!r} deg/s"
            )
        return rate


@dataclass(frozen=True)
class SpoolModel:
    """Spring-loaded spool (clock spring merged with the string-pot spring)."""

    spool_radius: float = 10.0           # mm
    spring_preload_torque: float = 5.0   # N*mm at the reference payout
    spring_rate: float = 0.05            # N*mm per deg of unwind
    payout_at_zero: float = 0.0          # mm of payout at zero spring wind-up

    def __post_init__(self):
        _in_range("spring_rate", self.spring_rate)
        _in_range("payout_at_zero", self.payout_at_zero)
        _in_range("spool_radius", self.spool_radius, "positive")
        _in_range("spring_preload_torque", self.spring_preload_torque, "positive")  # tension > 0

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
        _in_range("dt", self.dt, "positive")
        _integer("seed", self.seed)  # random.Random(nan) would differ from run to run


class SimState(NamedTuple):
    t: float
    motor_angle: float        # deg, output shaft
    switch: SwitchState
    joint_angle: float        # rad, in [-pi/2, +pi/2]
    payout_plus: float        # mm
    payout_minus: float       # mm
    tension_plus: float       # N
    tension_minus: float      # N


class TimedEvent(NamedTuple):
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
) -> tuple[SimState, tuple[float, float]]:
    """The state at ``t``, with ``disturbances`` mm of extra (plus, minus) payout,
    and the undisturbed (plus, minus) cable lengths at ``joint_angle``.

    Raises:
        SlackDetected: a tension is not positive (timestamped).
        SwitchSimError: a tension overflows to infinity (timestamped).
    """
    lengths = config.path_plus.length(joint_angle), config.path_minus.length(-joint_angle)
    payout_plus = lengths[0] + disturbances[0]
    payout_minus = lengths[1] + disturbances[1]
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
        t, motor_angle, switch, joint_angle, payout_plus, payout_minus, tension_plus, tension_minus
    ), lengths


def initial_state(config: PlantConfig, engaged: Side | None = Side.PLUS) -> SimState:
    """Rest state: motor and joint at zero, cables taut (else SlackDetected at t=0)."""
    if engaged is None:
        switch = SwitchState.neutral()
    else:
        switch = SwitchState.engaged(engaged, config.engagement)
    return _state(config, 0.0, 0.0, switch, 0.0, _UNDISTURBED)[0]


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

    This entry checks the step end time and, through ``step_switch``, the
    motor delta and ``state.switch``; the plant's part of the step is
    ``_advance``, which checks nothing, and it recomputes the new state.

    Raises:
        ValueError: ``t`` is not after ``state.t``, or ``motor_delta`` or a
            disturbance is not finite (checked in that order).
        InvalidState: ``state.switch`` violates its mode/position invariants.
        RangeExceeded: joint driven outside [-pi/2, +pi/2] (timestamped).
        SlackDetected: a tension is not positive (timestamped).
        SwitchSimError: a tension overflows to infinity (timestamped).
    """
    if not (t > state.t):
        raise ValueError(f"step end time {t!r} must be after the state time {state.t!r}")
    stepped = step_switch(
        state.switch,
        config.traversal,
        config.engagement,
        math.radians(motor_delta),
        spool_ratio=config.layout.driven_speed_ratio,
    )
    disturbances = (
        _in_range("disturbance_plus", disturbance_plus),
        _in_range("disturbance_minus", disturbance_minus),
    )
    return _advance(state, config, t, motor_delta, stepped, disturbances, False, None)[:2]


def _advance(
    state: SimState,
    config: PlantConfig,
    t: float,
    motor_delta: float,
    stepped: tuple[SwitchState, list[Event], float],
    disturbances: tuple[float, float],
    settled: bool,
    lengths: tuple[float, float] | None,
) -> tuple[SimState, list[Event], tuple[float, float] | None]:
    """``step_plant``'s step, with no check, once the switch step gave ``stepped``.

    ``settled`` states that ``disturbances`` equals the pair that made
    ``state``: a step that turns no spool then reuses ``state``'s joint,
    payouts and tensions, unchecked. ``lengths`` are the undisturbed (plus,
    minus) cable lengths that ``_state`` computed at ``state.joint_angle``,
    or None. A driven step takes its old length from them, never from the
    payouts, which carry the last step's disturbance. Returns the new state,
    the events and the lengths at the new joint angle.
    """
    switch, events, spool_rotation = stepped
    # x + 0.0 is x bit for bit unless x is -0.0, so a still motor keeps its angle object.
    motor_angle = state.motor_angle
    if motor_delta != 0.0 or motor_angle == 0.0:
        motor_angle += motor_delta
    if settled and spool_rotation == 0.0:
        return SimState(t, motor_angle, switch, *state[3:]), events, lengths

    joint_angle = state.joint_angle
    if spool_rotation != 0.0:
        sign = switch.mode.sign  # a spool turns only on the engaged side
        if sign > 0:
            path, spool, carried = config.path_plus, config.spool_plus, 0
        else:
            path, spool, carried = config.path_minus, config.spool_minus, 1
        length0 = path.length(sign * joint_angle) if lengths is None else lengths[carried]
        length1 = length0 - sign * spool.spool_radius * spool_rotation
        try:
            joint_angle = sign * path.inverse(length1)
        except OutOfRange as exc:
            raise RangeExceeded(
                f"joint left [-90, +90] deg at t={t:.6f} s: {exc}"
            ) from exc

    new, lengths = _state(config, t, motor_angle, switch, joint_angle, disturbances)
    return new, events, lengths


# --------------------------------------------------------------------------
# Scripts


@dataclass(frozen=True)
class MoveMotorTo:
    """Profile-Position move to an absolute output-shaft angle (deg)."""

    angle: float

    def __post_init__(self):
        _in_range("move_to angle", self.angle)


@dataclass(frozen=True)
class SetVelocity:
    """Constant-rate motion (deg/s) until the next command; 0 stops."""

    rate: float

    def __post_init__(self):
        _in_range("set_velocity rate", self.rate)


@dataclass(frozen=True)
class Wait:
    """Let the simulation run for ``duration`` seconds.

    The duration meets the run-length rule (``_command_steps``) when it runs,
    or when ``Config.plant()`` or a config file checks it: the rule needs ``dt``.
    """

    duration: float


@dataclass(frozen=True)
class DisturbancePulses:
    """Random rectangular pulses of extra payout on a target cable.

    target: 'plus', 'minus' (gated to apply only while that side is
        disengaged), 'disengaged' (whichever side(s) currently are), or
        'engaged' (negative control; deliberately corrupts the engaged
        reading).
    """

    target: str = DISTURBANCE_TARGETS[0]
    magnitude: float = 5.0   # mm
    width: float = 0.05      # s each pulse lasts; PULSE_MIN_GAP..PULSE_MAX_GAP s between pulses

    def __post_init__(self):
        if self.target not in DISTURBANCE_TARGETS:
            raise ValueError(f"unknown disturbance target {self.target!r}")
        _in_range("disturbance magnitude", self.magnitude, "not negative")
        _in_range("disturbance width", self.width, "positive")


@dataclass(frozen=True)
class InjectDisturbance:
    """Start a disturbance signal (non-blocking); ``profile=None`` stops it."""

    profile: DisturbancePulses | None


ScriptCommand = MoveMotorTo | SetVelocity | Wait | InjectDisturbance


def _pulse_pair(target: str, value: float, sign: int) -> tuple[float, float]:
    """The (plus, minus) payout a pulse of ``value`` mm on ``target`` adds while
    the engaged side has ``sign`` (0 for none)."""
    if value == 0.0:
        return _UNDISTURBED
    if target == "engaged":  # negative control
        return (value if sign > 0 else 0.0), (value if sign < 0 else 0.0)
    plus = value if sign <= 0 and target != "minus" else 0.0
    minus = value if sign >= 0 and target != "plus" else 0.0
    return plus, minus


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
        """One line per row, ``TRACE_COLUMNS`` in ``repr`` form.

        A row whose motor angle is the previous row's object reuses its
        ``motor_deg`` cell, one whose switch is the previous row's object
        reuses its ``psi_deg,mode`` cells, and one whose joint, payouts and
        tensions are the previous row's objects reuses its last five cells.
        Identity, not ``==``, decides, so ``0.0`` and ``-0.0`` never share a
        cell.
        """
        lines = [",".join(TRACE_COLUMNS)]
        last_motor = last_switch = None
        last_joint = last_plus = last_minus = last_ten_plus = last_ten_minus = None
        for t, motor, switch, joint, pay_plus, pay_minus, ten_plus, ten_minus in self.rows:
            if motor is not last_motor:
                last_motor = motor
                motor_cell = repr(motor)
            if switch is not last_switch:
                last_switch = switch
                switch_cells = f"{math.degrees(switch.psi)!r},{switch.mode.value}"
            if not (
                joint is last_joint
                and pay_plus is last_plus
                and pay_minus is last_minus
                and ten_plus is last_ten_plus
                and ten_minus is last_ten_minus
            ):
                last_joint, last_plus, last_minus = joint, pay_plus, pay_minus
                last_ten_plus, last_ten_minus = ten_plus, ten_minus
                joint_cells = (
                    f"{math.degrees(joint)!r},{pay_plus!r},{pay_minus!r},{ten_plus!r},{ten_minus!r}"
                )
            lines.append(f"{t!r},{motor_cell},{switch_cells},{joint_cells}")
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
    ``run_until_engaged`` steps every grid step, as a recorded run does. A
    failure inside a leap is re-run step by step, so it keeps the timestamp
    of the grid step it happens in.

    A step that turns no spool, with a disturbance pair equal to the one of
    the step that made its state, is settled: its state reuses that state's
    joint, payouts and tensions (``_advance``'s ``settled``). Every path
    length is positive, so ``L + 0.0`` and ``L + -0.0`` are the same bits and
    ``==`` is safe. A step with the motor still keeps the motor angle's
    object, unless that angle is ``-0.0`` (``-0.0 + 0.0`` is ``0.0``), so
    ``Trace.to_csv`` reuses its cell.

    It reuses only the state it made (``_steps``): a new simulator's state,
    or one after ``state`` or ``config`` was replaced, goes through
    ``step_plant``, which checks it and recomputes it. Between commands it
    keeps only what outlives one: the step index, the state and its record,
    the velocity and the pulses. A move's profile and position are arguments
    of its run, so a move that raises leaves nothing for the next command to
    replay. Its speed and acceleration limits are arguments of ``_move``:
    ``move_motor_to`` passes the config motor's, and a speed-sweep point its
    own, on the config it was given.
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
        self._velocity = 0.0
        self._pulses: _PulseState | None = None
        self._n_injections = 0
        self._made: tuple = (None, None, None, None)  # see _steps

    @property
    def t(self) -> float:
        return self._step_index * self.config.dt

    # -- commands ----------------------------------------------------------

    def move_motor_to(self, target: float) -> float:
        """Run a Profile-Position move to ``target`` deg at the config motor's
        speed and acceleration limits; returns the command time (see ``_move``)."""
        motor = self.config.motor
        return self._move(target, motor.max_output_speed, motor.profile_accel)

    def _move(self, target: float, max_speed: float, accel: float) -> float:
        """Run a Profile-Position move to ``target`` deg whose limits are the
        arguments: ``max_speed`` deg/s and ``accel`` deg/s^2, which the profile
        checks; returns the command time.

        A move within 1e-9 of max(1, |target|) deg takes no step: a recorded
        run's motor angle carries a roundoff that a leaped run's does not, and
        a move back to where the motor stands must take no step in either.
        """
        target = MoveMotorTo(target).angle  # the command's check
        t_cmd = self.t
        self._velocity = 0.0
        delta = target - self.state.motor_angle
        if abs(delta) <= 1e-9 * max(1.0, abs(target)):
            delta = 0.0
        profile = TrapezoidalProfile.plan(delta, max_speed, accel)
        self._run(steps_to_cover(profile.duration, self.config.dt), move=(profile, t_cmd))
        return t_cmd

    def set_velocity(self, rate: float) -> None:
        self._velocity = self.config.motor.check_speed(SetVelocity(rate).rate)

    def wait(self, duration: float) -> None:
        """Run the active motion for ``duration`` s, rounded up to whole steps.

        Raises:
            SwitchSimError: ``duration`` covers no step, or over ``STEP_BUDGET`` steps.
        """
        self._run(_command_steps("wait", duration, self.config.dt))

    def inject(self, profile: DisturbancePulses | None) -> None:
        """Start ``profile``'s pulses, or stop them with None; refuses dt > PULSE_MIN_GAP
        and a width under dt."""
        if profile is None:
            self._pulses = None
            return
        _check_pulse_dt(profile, self.config.dt)
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
            SwitchSimError: ``timeout`` covers no step, or over ``STEP_BUDGET`` steps.
            NeverEngaged: timeout elapsed first, or ``side`` was engaged
                already and the motor does not turn away from it (the run
                stops after one step).
        """
        steps = _command_steps("timeout", timeout, self.config.dt)
        start = len(self.trace.events)
        self._run(steps, until=side)
        for event in self.trace.events[start:]:
            if event.kind is EventKind.ENGAGED and event.side is side:
                return event.t
        raise NeverEngaged(
            f"switch did not engage {side.value} within {timeout} s"
        )

    # -- stepping ----------------------------------------------------------

    def _run(self, steps: int, until: Side | None = None, move: _Move | None = None) -> None:
        """Take ``steps`` steps, none if fewer than one; stop once ``until`` is engaged.
        Without a ``move`` the motor turns at the velocity.

        An unrecorded, undisturbed run without ``until`` leaps: one closed-form
        step covers all of it. A velocity step's delta that underflows to 0.0
        rad halts the switch at each grid step, while the summed delta would
        move it, so that run steps the grid.
        """
        underflows = self._velocity != 0.0 and math.radians(self._velocity * self.config.dt) == 0.0
        if steps > 1 and until is None and not self.record and self._pulses is None and not underflows:
            try:
                self._steps(1, None, steps, move)
            except (SwitchSimError, ValueError):  # ValueError: the summed delta overflowed
                pass  # nothing changed before the leap raised: step to time the failure
            else:
                return
        if steps >= 1:
            self._steps(steps, until, 1, move)

    def _steps(self, count: int, until: Side | None, size: int, move: _Move | None) -> None:
        """Take ``count`` plant steps of ``size`` grid steps each, ``move``'s
        profile from its start; stop once ``until`` is engaged.

        ``self._made`` is the (state, config, disturbance pair, lengths or None)
        that the last run ended with. A step on a state that its record or the
        step before made, under that record's config, calls the cores with the
        run's constants looked up once; any other state, or an end time or
        motor delta that ``step_plant`` refuses, goes through ``step_plant``.

        The step index, the state and the last pair live in locals, and reach
        ``self`` once, as of the last step that completed, also when a step
        raises. A run that raises keeps the old record. A pulse is gated on
        the engaged side at the start of its step.
        """
        config = self.config
        dt = config.dt
        profile, profile_t0 = move or (None, 0.0)
        covered = 0.0  # signed deg the profile has covered
        pulses = self._pulses
        rows = self.trace.rows if self.record else None
        timed = self.trace.events
        velocity = self._velocity
        velocity_delta = velocity * dt * size
        made, made_config, last, lengths = self._made
        index, state = self._step_index, self.state
        trusted = made is state and made_config is config
        engagement = config.engagement
        k_eff, spool_ratio = config.traversal.effective_ratio, config.layout.driven_speed_ratio
        try:
            for _ in range(count):
                t1 = (index + size) * dt
                reached, delta = covered, velocity_delta
                if profile is not None:
                    reached = profile.position(t1 - profile_t0)
                    delta = reached - covered
                disturbed = _UNDISTURBED
                if pulses is not None:
                    signal = pulses.step(dt)
                    if signal:  # a pulse that is off gives the undisturbed pair
                        disturbed = _pulse_pair(pulses.profile.target, signal, state.switch.mode.sign)
                if trusted and t1 > state.t and math.isfinite(delta):
                    stepped = _switch(state.switch, engagement, k_eff, math.radians(delta), spool_ratio)
                    new, events, lengths = _advance(
                        state, config, t1, delta, stepped, disturbed, disturbed == last, lengths
                    )
                else:
                    new, events = step_plant(state, config, t1, delta, *disturbed)
                    trusted, lengths = True, None
                for event in events:  # timed by inverting the motion; an event needs motion
                    progress_deg = abs(math.degrees(event.motor_progress))
                    if profile is not None:
                        at = profile_t0 + profile.time_at_distance(abs(covered) + progress_deg)
                    else:
                        at = index * dt + progress_deg / abs(velocity)
                    timed.append(TimedEvent(at, event.kind, event.side, event.psi))
                # Only now: a failed leap re-steps from the old state and position.
                state, last, covered, index = new, disturbed, reached, index + size
                if rows is not None:
                    rows.append(state)
                if until is not None and state.switch.engaged_side is until:
                    break
        finally:
            self.state, self._step_index = state, index
        self._made = (state, config, last, lengths)


def steps_to_cover(duration: float, dt: float, runs: int = 1) -> int:
    """Whole steps of ``dt`` s that ``runs`` commands of ``duration`` s each take.

    Raises:
        SwitchSimError: the steps exceed ``STEP_BUDGET``.
    """
    steps = duration / dt - 1e-12
    if steps > STEP_BUDGET or runs * math.ceil(steps) > STEP_BUDGET:
        raise SwitchSimError(
            f"{runs} x {duration!r} s takes {runs} x {steps:.6g} steps of dt={dt!r} s, "
            f"over the budget of {STEP_BUDGET} steps"
        )
    return runs * math.ceil(steps)


def _check_pulse_dt(profile: DisturbancePulses, dt: float) -> None:
    """SwitchSimError for ``profile``'s pulses on steps over ``PULSE_MIN_GAP`` s,
    which toggle without bound, or over its width, which a step may not show."""
    if dt > PULSE_MIN_GAP:
        raise SwitchSimError(f"disturbance pulses need dt of at most {PULSE_MIN_GAP!r} s, got {dt!r} s")
    if profile.width < dt:
        raise SwitchSimError(f"disturbance width {profile.width!r} s is under one step of dt={dt!r} s")


def _command_steps(name: str, duration: float, dt: float) -> int:
    """Whole steps of ``dt`` s that a command of ``duration`` s takes: the run-length rule.

    Raises:
        SwitchSimError: ``duration`` covers no step, or over ``STEP_BUDGET`` steps.
    """
    steps = steps_to_cover(duration, dt) if duration > 0.0 else 0
    if steps < 1:
        raise SwitchSimError(f"{name} of {duration!r} s covers no step of dt={dt!r} s")
    return steps


def run_script(
    config: PlantConfig,
    script: list[ScriptCommand] | tuple[ScriptCommand, ...],
    duration: float | None = None,
    engaged: Side | None = Side.PLUS,
) -> Trace:
    """Execute script commands in order; identical inputs give bit-identical traces.

    ``duration`` extends the run (with whatever motion mode is active) until
    at least that much simulated time has elapsed. Before the script runs it
    meets ``Simulator.wait``'s rule, else SwitchSimError: it covers a step,
    and at most ``STEP_BUDGET``.
    """
    if duration is not None:
        _command_steps("duration", duration, config.dt)
    sim = Simulator(config, engaged=engaged)
    for command in script:
        sim.execute(command)
    if duration is not None:
        sim._run(steps_to_cover(duration - sim.t, config.dt))
    return sim.trace
