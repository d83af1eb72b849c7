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

from .errors import InvalidState, SubKinematicRatio
from .geometry import EngagementSolution

# Endpoint snap tolerance, rad. Absorbs float roundoff of motor_delta/k_eff
# chains so a commanded full traversal lands exactly engaged.
PSI_SNAP = 1e-9


class Side(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> int:
        return 1 if self is Side.PLUS else -1

    @staticmethod
    def from_sign(sign: int) -> "Side":
        return Side.PLUS if sign > 0 else Side.MINUS


class SwitchMode(enum.Enum):
    ENGAGED_PLUS = "engaged+"
    ENGAGED_MINUS = "engaged-"
    TRAVERSING = "traversing"
    NEUTRAL = "neutral"


_ENGAGED_MODE = {Side.PLUS: SwitchMode.ENGAGED_PLUS, Side.MINUS: SwitchMode.ENGAGED_MINUS}
_MODE_SIDE = {SwitchMode.ENGAGED_PLUS: Side.PLUS, SwitchMode.ENGAGED_MINUS: Side.MINUS}


class EventKind(enum.Enum):
    DISENGAGED = "disengaged"
    ENTERED_NEUTRAL = "entered_neutral"
    EXITED_NEUTRAL = "exited_neutral"
    ENGAGED = "engaged"
    SPOOL_DRIVEN = "spool_driven"


@dataclass(frozen=True, slots=True)
class Event:
    """One state-machine event inside a step.

    motor_progress: signed motor rotation (rad) consumed from the start of
        the step when the event occurred; lets callers timestamp events
        inside a step from the motor schedule.
    spool_rotation: signed driven-spool rotation (rad) carried by
        SPOOL_DRIVEN packets, already scaled by the gear speed ratio.
    """

    kind: EventKind
    side: Side | None
    psi: float
    motor_progress: float = 0.0
    spool_rotation: float = 0.0


@dataclass(frozen=True, slots=True)
class SwitchState:
    mode: SwitchMode
    psi: float

    @staticmethod
    def engaged(side: Side, engagement: EngagementSolution) -> "SwitchState":
        return SwitchState(_ENGAGED_MODE[side], side.sign * engagement.psi_star)

    @staticmethod
    def neutral(psi: float = 0.0) -> "SwitchState":
        return SwitchState(SwitchMode.NEUTRAL, psi)

    @property
    def engaged_side(self) -> Side | None:
        return _MODE_SIDE.get(self.mode)


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
        if not (self.carry_ratio >= 1.0):
            raise ValueError(f"carry_ratio must be >= 1, got {self.carry_ratio!r}")
        if not (0.0 <= self.slip < 1.0):
            raise ValueError(f"slip must be in [0, 1), got {self.slip!r}")

    @property
    def effective_ratio(self) -> float:
        """Motor rotation per unit switch revolution, k_eff = k_kin/(1-s)."""
        return self.carry_ratio / (1.0 - self.slip)

    def motor_travel(self, theta_track: float) -> float:
        """Output-shaft degrees that carry the switch across a ``theta_track`` rad track."""
        return math.degrees(self.effective_ratio * theta_track)


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
    if not (revolution_travel > 0):
        raise ValueError(f"revolution_travel must be positive, got {revolution_travel!r}")
    ratio = motor_travel / revolution_travel
    if not math.isfinite(ratio):
        raise ValueError(f"motor/revolution ratio must be finite, got {ratio!r}")
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
    side = state.engaged_side
    if side is not None:
        if abs(psi - side.sign * psi_star) > PSI_SNAP:
            raise InvalidState(
                f"mode {state.mode.value} requires psi = {side.sign * psi_star!r}, got {psi!r}"
            )
    elif abs(psi) > psi_star + PSI_SNAP:
        raise InvalidState(f"psi {psi!r} outside the track [-psi*, +psi*]")
    elif state.mode is SwitchMode.NEUTRAL and not (
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
    out: list[tuple[EventKind, float]] = []
    if direction > 0:
        if psi0 <= -w and psi1 > -w:
            out.append((EventKind.ENTERED_NEUTRAL, -w))
        if psi0 < w and psi1 >= w:
            out.append((EventKind.EXITED_NEUTRAL, w))
    else:
        if psi0 >= w and psi1 < w:
            out.append((EventKind.ENTERED_NEUTRAL, w))
        if psi0 > -w and psi1 <= -w:
            out.append((EventKind.EXITED_NEUTRAL, -w))
    return out


def step_switch(
    state: SwitchState,
    model: TraversalModel,
    engagement: EngagementSolution,
    motor_delta: float,
    spool_ratio: float = 1.0,
) -> tuple[SwitchState, list[Event]]:
    """Advance the switch by one motor increment (output-shaft radians).

    Engaged with the motor turning in the engaging sign, the state is
    unchanged and the whole delta becomes a SPOOL_DRIVEN packet. Otherwise
    the switch traverses: psi advances by motor_delta/k_eff, clamped at the
    far endpoint; crossing the neutral band and reaching an endpoint emit
    events, and rotation left over after engaging drives the new spool.

    A zero delta is the explicit halt signal: halting inside the neutral
    band parks the state in NEUTRAL.

    ``spool_ratio`` (z_drive/z_driven) scales SPOOL_DRIVEN packets to
    driven-spool rotation.

    Raises:
        InvalidState: the entry state violates its mode/position invariants.
    """
    if not math.isfinite(motor_delta):
        raise ValueError(f"motor_delta must be finite, got {motor_delta!r}")
    _check_entry(state, engagement)

    if motor_delta == 0.0:
        if state.mode is SwitchMode.TRAVERSING and engagement.in_neutral_band(state.psi):
            return SwitchState.neutral(state.psi), []
        return state, []

    direction = 1 if motor_delta > 0 else -1
    k_eff = model.effective_ratio
    psi_star = engagement.psi_star
    psi0 = state.psi
    events: list[Event] = []

    engaged = state.engaged_side
    if engaged is not None and direction == engaged.sign:
        # Engaging direction: everything goes to the spool.
        events.append(
            Event(
                EventKind.SPOOL_DRIVEN,
                engaged,
                psi0,
                motor_progress=motor_delta,
                spool_rotation=motor_delta * spool_ratio,
            )
        )
        return state, events

    if engaged is not None:
        events.append(Event(EventKind.DISENGAGED, engaged, psi0, motor_progress=0.0))

    raw = psi0 + motor_delta / k_eff
    endpoint = direction * psi_star
    reaches = raw >= endpoint - PSI_SNAP if direction > 0 else raw <= endpoint + PSI_SNAP

    psi1 = endpoint if reaches else raw
    for kind, psi_c in _band_crossings(engagement, psi0, psi1, direction):
        events.append(
            Event(kind, None, psi_c, motor_progress=(psi_c - psi0) * k_eff)
        )

    if not reaches:
        return SwitchState(SwitchMode.TRAVERSING, psi1), events

    new_side = Side.from_sign(direction)
    traverse_progress = (endpoint - psi0) * k_eff
    events.append(
        Event(EventKind.ENGAGED, new_side, endpoint, motor_progress=traverse_progress)
    )
    residual = motor_delta - traverse_progress
    if abs(residual) > PSI_SNAP * k_eff:
        events.append(
            Event(
                EventKind.SPOOL_DRIVEN,
                new_side,
                endpoint,
                motor_progress=motor_delta,
                spool_rotation=residual * spool_ratio,
            )
        )
    return SwitchState(_ENGAGED_MODE[new_side], endpoint), events
