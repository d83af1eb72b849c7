"""Discrete-continuous state machine of the switch gear.

Sign convention: positive motor rotation pushes the switch centre toward
+psi*. Traversal is quasi-static; the motor-to-revolution coupling is a
constant effective ratio k_eff = k_kin / (1 - slip) calibrated from one
measured (motor travel, revolution travel) pair. Engagement is instantaneous
at the track endpoints.

All angles here are radians; ``step_switch`` takes the motor delta in
output-shaft radians.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidState, SubKinematicRatio, _in_range
from .geometry import EngagementSolution

# Endpoint snap tolerance, rad. Absorbs float roundoff of motor_delta/k_eff
# chains so a commanded full traversal lands exactly engaged.
PSI_SNAP = 1e-9


class Side(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    def __init__(self, value: str):
        self.sign = 1 if value == "plus" else -1

    @staticmethod
    def from_sign(sign: int) -> "Side":
        return Side.PLUS if sign > 0 else Side.MINUS


class SwitchMode(enum.Enum):
    ENGAGED_PLUS = "engaged+"
    ENGAGED_MINUS = "engaged-"
    TRAVERSING = "traversing"
    NEUTRAL = "neutral"

    def __init__(self, value: str):
        """``side``: the engaged side, or None; ``sign``: its sign, or 0."""
        self.side = {"engaged+": Side.PLUS, "engaged-": Side.MINUS}.get(value)
        self.sign = 0 if self.side is None else self.side.sign


class EventKind(enum.Enum):
    DISENGAGED = "disengaged"
    ENTERED_NEUTRAL = "entered_neutral"
    EXITED_NEUTRAL = "exited_neutral"
    ENGAGED = "engaged"
    # Emitted by nothing; the benchmark metric switching.events.spool_driven is named after it.
    SPOOL_DRIVEN = "spool_driven"


class Event(NamedTuple):
    """One state-machine event inside a step: a mode change, never motion.

    motor_progress: signed motor rotation (rad) consumed from the start of
        the step when the event occurred; lets callers timestamp events
        inside a step from the motor schedule.
    """

    kind: EventKind
    side: Side | None
    psi: float
    motor_progress: float = 0.0


class SwitchState(NamedTuple):
    mode: SwitchMode
    psi: float

    @staticmethod
    def engaged(side: Side, engagement: EngagementSolution) -> "SwitchState":
        mode = SwitchMode.ENGAGED_PLUS if side.sign > 0 else SwitchMode.ENGAGED_MINUS
        return SwitchState(mode, side.sign * engagement.psi_star)

    @staticmethod
    def neutral(psi: float = 0.0) -> "SwitchState":
        return SwitchState(SwitchMode.NEUTRAL, psi)

    @property
    def engaged_side(self) -> Side | None:
        return self.mode.side


@dataclass(frozen=True)
class TraversalModel:
    """Constant-ratio map from motor rotation to switch revolution.

    carry_ratio: kinematic floor k_kin = 1 + r_switch/r_drive.
    slip: fraction of motor rotation lost to the switch spinning in place,
        in [0, 1).
    """

    carry_ratio: float
    slip: float

    def __post_init__(self):
        if not (_in_range("carry_ratio", self.carry_ratio) >= 1.0):
            raise ValueError(f"carry_ratio must be >= 1, got {self.carry_ratio!r}")
        _check_slip(self.slip)

    @property
    def effective_ratio(self) -> float:
        """Motor rotation per unit switch revolution, k_eff = k_kin/(1-s)."""
        return _effective_ratio(self.carry_ratio, self.slip)

    def motor_travel(self, theta_track: float) -> float:
        """Output-shaft degrees that carry the switch across a ``theta_track`` rad track."""
        return math.degrees(self.effective_ratio * theta_track)


def _check_slip(slip: float) -> None:
    """The range rule on a slip: finite and in [0, 1)."""
    if not (0.0 <= _in_range("slip", slip) < 1.0):
        raise ValueError(f"slip must be in [0, 1), got {slip!r}")


def _effective_ratio(carry_ratio: float, slip: float) -> float:
    """k_eff = k_kin/(1-s) of a slip that passed ``_check_slip``; checks nothing."""
    return carry_ratio / (1.0 - slip)


def calibrate_slip(
    motor_travel: float, revolution_travel: float, carry_ratio: float
) -> TraversalModel:
    """Build a traversal model from one measured travel pair.

    Both travels in the same angular unit. k_eff is their quotient and
    slip = 1 - k_kin/k_eff.

    Raises:
        SubKinematicRatio: measured ratio below the kinematic carry ratio
            (physically impossible; signals bad inputs).
    """
    ratio = motor_travel / _in_range("revolution_travel", revolution_travel, "positive")
    _in_range("motor/revolution ratio", ratio)
    if ratio < carry_ratio * (1.0 - 1e-12):
        raise SubKinematicRatio(
            f"measured motor/revolution ratio {ratio:.6g} below kinematic "
            f"carry ratio {carry_ratio:.6g}"
        )
    slip = max(0.0, 1.0 - carry_ratio / ratio)
    return TraversalModel(carry_ratio=carry_ratio, slip=slip)


def _check_entry(state: SwitchState, engagement: EngagementSolution) -> None:
    psi_star = engagement.psi_star
    psi = state.psi
    if not math.isfinite(psi):
        raise InvalidState(f"psi is not finite: {psi!r}")
    mode = state.mode
    if mode.sign:
        endpoint = mode.sign * psi_star
        if abs(psi - endpoint) > PSI_SNAP:
            raise InvalidState(f"mode {mode.value} requires psi = {endpoint!r}, got {psi!r}")
    elif abs(psi) > psi_star + PSI_SNAP:
        raise InvalidState(f"psi {psi!r} outside the track [-psi*, +psi*]")
    elif mode is SwitchMode.NEUTRAL and not (
        engagement.in_neutral_band(psi)
        or abs(abs(psi) - engagement.neutral_half_width) <= PSI_SNAP
    ):
        raise InvalidState(f"neutral mode with psi {psi!r} outside the neutral band")


def _band_crossings(
    engagement: EngagementSolution, psi0: float, psi1: float, direction: int
) -> list[tuple[EventKind, float]]:
    """Neutral-band boundary crossings for a monotone move psi0 -> psi1.

    Returns (kind, psi at crossing) in traversal order. Boundary semantics
    follow the open band: landing exactly on a boundary is outside.
    """
    w = engagement.neutral_half_width
    if w <= 0.0:
        return []
    # Mirror a negative move onto a positive one; negation is exact.
    a, b = direction * psi0, direction * psi1
    out: list[tuple[EventKind, float]] = []
    if a <= -w < b:
        out.append((EventKind.ENTERED_NEUTRAL, -direction * w))
    if a < w <= b:
        out.append((EventKind.EXITED_NEUTRAL, direction * w))
    return out


def step_switch(
    state: SwitchState,
    model: TraversalModel,
    engagement: EngagementSolution,
    motor_delta: float,
    spool_ratio: float = 1.0,
) -> tuple[SwitchState, list[Event], float]:
    """Advance the switch by one motor increment (output-shaft radians).

    Returns the new state, the step's events and the driven-spool rotation
    (rad), which turns the spool of the side engaged after the step.

    Engaged with the motor turning in the engaging sign, the state is
    unchanged and the whole delta drives the spool. Otherwise the switch
    traverses: psi advances by motor_delta/k_eff, clamped at the far
    endpoint; crossing the neutral band and reaching an endpoint emit events,
    and rotation left over after engaging drives the new spool. A step that
    turns no spool returns a rotation of 0.0.

    A zero delta is the explicit halt signal: halting inside the neutral
    band parks the state in NEUTRAL.

    ``spool_ratio`` (z_drive/z_driven) scales motor rotation to driven-spool
    rotation.

    This entry checks the delta and the entry state, then takes the step in
    ``_switch``, which checks nothing.

    Raises:
        ValueError: ``motor_delta`` is not finite.
        InvalidState: the entry state violates its mode/position invariants.
    """
    if not math.isfinite(motor_delta):
        raise ValueError(f"motor_delta must be finite, got {motor_delta!r}")
    _check_entry(state, engagement)
    return _switch(state, engagement, model.effective_ratio, motor_delta, spool_ratio)


def _switch(
    state: SwitchState,
    engagement: EngagementSolution,
    k_eff: float,
    motor_delta: float,
    spool_ratio: float,
) -> tuple[SwitchState, list[Event], float]:
    """``step_switch``'s step, with no check: ``k_eff`` is the model's effective ratio.

    The caller vouches that ``motor_delta`` is finite and that ``state``
    meets its mode's invariants: ``step_switch`` checked it, or ``_switch``
    made it.
    """
    if motor_delta == 0.0:
        if state.mode is SwitchMode.TRAVERSING and engagement.in_neutral_band(state.psi):
            return SwitchState.neutral(state.psi), [], 0.0
        return state, [], 0.0

    direction = 1 if motor_delta > 0 else -1
    mode = state.mode
    if direction == mode.sign:
        return state, [], motor_delta * spool_ratio  # engaging direction: all to the spool

    psi0 = state.psi
    events: list[Event] = []
    if mode.sign:
        events.append(Event(EventKind.DISENGAGED, mode.side, psi0, motor_progress=0.0))

    raw = psi0 + motor_delta / k_eff
    endpoint = direction * engagement.psi_star
    reaches = raw >= endpoint - PSI_SNAP if direction > 0 else raw <= endpoint + PSI_SNAP

    psi1 = endpoint if reaches else raw
    for kind, psi_c in _band_crossings(engagement, psi0, psi1, direction):
        events.append(
            Event(kind, None, psi_c, motor_progress=(psi_c - psi0) * k_eff)
        )

    if not reaches:
        return SwitchState(SwitchMode.TRAVERSING, psi1), events, 0.0

    new_side = Side.from_sign(direction)
    traverse_progress = (endpoint - psi0) * k_eff
    events.append(
        Event(EventKind.ENGAGED, new_side, endpoint, motor_progress=traverse_progress)
    )
    residual = motor_delta - traverse_progress
    spool_rotation = residual * spool_ratio if abs(residual) > PSI_SNAP * k_eff else 0.0
    return SwitchState.engaged(new_side, engagement), events, spool_rotation
