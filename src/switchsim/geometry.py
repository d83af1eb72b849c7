"""Planar pitch-circle geometry of the four-gear switch mechanism.

The driving gear sits on the motor axis. The switch (idler) gear meshes the
driving gear at all times, so its centre rides an arc track of radius
R = r_drive + r_switch around the motor axis. Two identical driven gears sit
at distance D from the motor axis, mirror-placed at +/-phi_d from the track
midline. The revolution coordinate psi is the polar angle of the switch
centre measured from the midline; engagement happens where the switch and a
driven gear become pitch-tangent (centre distance = r_switch + r_driven).

All meshing is modeled at the pitch-circle level: tooth profiles, contact
ratio and tip interference are out of scope. Lengths are millimetres,
angles radians unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NoEngagement, TrackDegenerate, _in_range, _integer

# Undercut-avoidance proxy; keeps search spaces physical.
MIN_TOOTH_COUNT = 8

# Clearance defining the neutral (fully decoupled) band, mm.
DEFAULT_BACKLASH_MARGIN = 0.2

# Reference mechanism: track travel observed on the physical build, deg.
REFERENCE_TRACK_TRAVEL_DEG = 19.8


@dataclass(frozen=True)
class GearSpec:
    """A spur gear described by tooth count and module (mm per tooth)."""

    tooth_count: int
    module: float
    pitch_radius: float = field(init=False, repr=False, compare=False)  # r = m*z/2, mm

    def __post_init__(self):
        if _in_range("tooth_count", _integer("tooth_count", self.tooth_count)) < MIN_TOOTH_COUNT:
            raise ValueError(
                f"tooth_count must be >= {MIN_TOOTH_COUNT}, got {self.tooth_count}"
            )
        pitch_radius = _in_range("module", self.module, "positive") * self.tooth_count / 2.0
        object.__setattr__(self, "pitch_radius", pitch_radius)


class MechanismLayout(NamedTuple):
    """Full planar layout of driving, switch and (two identical) driven gears.

    Construction performs no cross-field validation: feed arbitrary values to
    ``validate_layout`` to get a violation report. ``solve_engagement``
    assumes a valid layout. ``optimize`` builds a layout only for a candidate
    that already passed ``validate_layout``'s rules, checked on the scalars
    of its gear set.

    Fields:
        driving, switch, driven: gear specs (both driven gears identical).
        driven_center_distance: D, motor axis to each driven-gear axis, mm.
        driven_half_angle: phi_d, each driven centre measured from the
            midline (symmetric +/-phi_d), rad.
        backlash_margin: extra pitch-circle clearance that defines the
            neutral band, mm.
    """

    driving: GearSpec
    switch: GearSpec
    driven: GearSpec
    driven_center_distance: float
    driven_half_angle: float
    backlash_margin: float = DEFAULT_BACKLASH_MARGIN

    @property
    def track_radius(self) -> float:
        """Radius R of the switch-centre track, mm."""
        return self.driving.pitch_radius + self.switch.pitch_radius

    @property
    def mesh_distance(self) -> float:
        """Centre distance at which switch and driven pitch circles touch, mm."""
        return self.switch.pitch_radius + self.driven.pitch_radius

    @property
    def driven_speed_ratio(self) -> float:
        """Driven-gear speed per unit motor speed, z_drive / z_driven."""
        return self.driving.tooth_count / self.driven.tooth_count


class EngagementSolution(NamedTuple):
    """Track endpoints and neutral band in the revolution coordinate psi.

    psi_star: revolution angle (from the midline) at which the switch is
        pitch-tangent to the +phi_d driven gear; the track endpoint, rad.
    theta_track: total revolution travel between the two endpoints,
        = 2 * psi_star, rad.
    neutral_half_width: half-width of the open interval of psi where the
        switch clears BOTH driven gears by at least the backlash margin,
        rad. Zero means the band is empty.
    """

    psi_star: float
    theta_track: float
    neutral_half_width: float

    def in_neutral_band(self, psi: float) -> bool:
        return -self.neutral_half_width < psi < self.neutral_half_width


class Violation(NamedTuple):
    rule: str
    message: str

    def __str__(self):
        return f"{self.rule}: {self.message}"


class ValidationReport(NamedTuple):
    """Every rule a layout breaks, plus the ``solve_engagement`` result the
    check computed: None when the layout has no engagement."""

    violations: tuple[Violation, ...]
    engagement: EngagementSolution | None

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def __str__(self):
        if self.ok:
            return "0 violations"
        body = "; ".join(str(v) for v in self.violations)
        return f"{len(self.violations)} violation(s): {body}"


def _engagement_cosine(r: float, d: float, mesh_distance: float) -> float:
    """cos(psi - phi_d) at which a switch centre on the track of radius ``r``
    sits ``mesh_distance`` from the +phi_d driven centre, at distance ``d``."""
    return (r * r + d * d - mesh_distance * mesh_distance) / (2.0 * r * d)


# Built once: it is the rule most rejected candidates of a centre-distance grid break.
_NO_ENGAGEMENT = Violation(
    "no-engagement", "switch track never comes within mesh distance of a driven gear"
)
# What ``solve_engagement`` raises for each rule ``_solve`` can return.
_RAISES = {"no-engagement": NoEngagement, "switch-driven-interference": TrackDegenerate}


def _solve(
    r: float, d: float, phi: float, mesh: float, margin: float
) -> tuple[float, float, float] | Violation:
    """The engagement of track radius ``r``, centre distance ``d``, half-angle
    ``phi`` and mesh distance ``mesh``, with neutral band ``margin``, as the
    plain triple ``(psi_star, theta_track, neutral_half_width)``, or the
    violation that rules the layout out.

    Assumes the field checks have passed: ``r`` and ``d`` finite and
    positive, ``phi`` in (0, pi/2). A negative ``margin`` leaves the band
    empty. Returns, never raises: ``solve_engagement`` raises from the
    violation or wraps the triple in an ``EngagementSolution``, and
    ``optimize`` unpacks the triple. A track so small that ``2*r*d``
    underflows to zero, or so large that the engagement cosine is NaN, is
    degenerate.
    """
    try:
        c = _engagement_cosine(r, d, mesh)
    except ZeroDivisionError:  # 2*r*d underflowed
        return Violation(
            "switch-driven-interference",
            f"track radius {r!r} mm and centre distance {d!r} mm are too small to solve",
        )
    if c > 1.0:
        return _NO_ENGAGEMENT
    if not c >= -1.0:
        if c < -1.0:
            return Violation(
                "switch-driven-interference",
                "switch is inside mesh distance of a driven gear at every track angle",
            )
        return Violation(  # c is NaN: the squares overflowed
            "switch-driven-interference",
            f"track radius {r!r} mm and centre distance {d!r} mm are too large to solve",
        )
    psi_star = phi - math.acos(c)
    if psi_star <= 0.0:
        return Violation(
            "switch-driven-interference",
            f"switch meshes a driven gear at the midline "
            f"(psi* = {math.degrees(psi_star):.4f} deg <= 0); no usable track",
        )

    half_width = 0.0
    if margin >= 0.0:
        cm = _engagement_cosine(r, d, mesh + margin)
        if cm > -1.0:
            half_width = max(0.0, phi - math.acos(cm))

    return psi_star, 2.0 * psi_star, half_width


def solve_engagement(layout: MechanismLayout) -> EngagementSolution:
    """Solve the track endpoints and neutral band for a valid layout.

    The tangency condition R^2 + D^2 - 2*R*D*cos(psi - phi_d) = (r_s + r_g)^2
    has two roots; the one nearer the midline is the physical endpoint (the
    switch approaches from the midline side). Checks D and phi_d, then hands
    the layout's scalars to the core that ``optimize`` also calls, so both
    share one engagement formula. Raises from the violation the core
    returns, or wraps its triple in an ``EngagementSolution``.

    Raises:
        NoEngagement: the track never comes within mesh distance of a driven gear.
        TrackDegenerate: the switch is within mesh distance of a driven gear at
            the midline (psi* <= 0, or at every track angle), or the track
            is too small or too large to solve in floats.
        ValueError: structurally unusable fields (non-positive D, phi_d
            outside (0, pi/2)).
    """
    d = _in_range("driven_center_distance", layout.driven_center_distance, "positive")
    phi = layout.driven_half_angle
    if not (0.0 < phi < math.pi / 2):
        raise ValueError(f"driven_half_angle must be in (0, pi/2), got {phi!r}")
    solution = _solve(layout.track_radius, d, phi, layout.mesh_distance, layout.backlash_margin)
    if type(solution) is Violation:
        raise _RAISES[solution.rule](solution.message)
    return EngagementSolution(*solution)


def validate_layout(layout: MechanismLayout) -> ValidationReport:
    """Check physical realizability; returns a report, engagement included, instead of raising.

    Rules reported: invalid-parameter, module-mismatch, driving-driven
    interference, switch-driven interference (at the midline), no-engagement
    and empty-neutral-band. Once D and phi_d are usable, the last three come
    from the one outcome of the engagement core ``_solve``, so a layout breaks
    at most one of them.
    """
    violations: list[Violation] = []

    modules = (layout.driving.module, layout.switch.module, layout.driven.module)
    if max(modules) - min(modules) > 1e-12:
        violations.append(
            Violation(
                "module-mismatch",
                f"gears cannot mesh: modules {modules[0]}, {modules[1]}, {modules[2]} mm differ",
            )
        )

    d = layout.driven_center_distance
    phi = layout.driven_half_angle
    d_ok, phi_ok = math.isfinite(d) and d > 0, 0.0 < phi < math.pi / 2
    if not d_ok:
        violations.append(
            Violation("invalid-parameter", f"driven_center_distance {d!r} not positive")
        )
    if not phi_ok:
        violations.append(
            Violation("invalid-parameter", f"driven_half_angle {phi!r} outside (0, pi/2)")
        )
    if not (math.isfinite(layout.backlash_margin) and layout.backlash_margin >= 0.0):
        violations.append(
            Violation("invalid-parameter", f"backlash_margin {layout.backlash_margin!r} negative")
        )

    # Driven gear would mesh the driving gear directly.
    min_clear = layout.driving.pitch_radius + layout.driven.pitch_radius
    if not d_ok or d < min_clear:
        violations.append(
            Violation(
                "driving-driven-interference",
                f"driven-gear centre distance {d!r} mm < r_drive + r_driven = {min_clear} mm",
            )
        )

    sol = None
    if d_ok and phi_ok:
        solved = _solve(layout.track_radius, d, phi, layout.mesh_distance, layout.backlash_margin)
        if type(solved) is Violation:
            violations.append(solved)
        else:
            sol = EngagementSolution(*solved)
            if sol.neutral_half_width <= 0.0:
                violations.append(
                    Violation(
                        "empty-neutral-band",
                        "no track angle clears both driven gears by the backlash margin",
                    )
                )

    return ValidationReport(tuple(violations), sol)


def kinematic_carry_ratio(layout: MechanismLayout) -> float:
    """Motor rotation per unit switch revolution with the switch not spinning.

    Sun/planet mesh condition with zero planet spin gives
    k_kin = 1 + r_switch / r_drive; this is the lower bound of the effective
    ratio (friction-induced planet spin only increases it).
    """
    return 1.0 + layout.switch.pitch_radius / layout.driving.pitch_radius


def envelope_diameter(layout: MechanismLayout) -> float:
    """Overall footprint diameter at the pitch-circle level, mm."""
    reach = _reach(layout.driving, layout.switch)
    return _envelope(reach, layout.driven_center_distance, layout.driven.pitch_radius)


def _reach(driving: GearSpec, switch: GearSpec) -> float:
    """How far the driving gear and the switch on its track reach from the motor axis, mm."""
    track_radius = driving.pitch_radius + switch.pitch_radius
    return max(driving.pitch_radius, track_radius + switch.pitch_radius)


def _envelope(reach: float, d: float, driven_radius: float) -> float:
    """``envelope_diameter`` from a gear set's ``_reach``, D and the driven pitch radius."""
    return 2.0 * max(reach, d + driven_radius)


def solve_center_distance(
    driving: GearSpec,
    switch: GearSpec,
    driven: GearSpec,
    driven_half_angle: float,
    psi_star: float,
) -> float:
    """Centre distance D placing the track endpoint at a target psi*.

    Inverts the tangency condition for D (larger root, driven gears outside
    the track). The target must satisfy 0 < psi* <= phi_d or the nearer-
    midline root of the forward problem would not reproduce it.

    Raises:
        ValueError: target outside (0, phi_d].
        NoEngagement: no finite centre distance achieves the target.
    """
    if not (0.0 < psi_star <= driven_half_angle):
        raise ValueError(
            f"psi_star target {psi_star!r} must be in (0, driven_half_angle]"
        )
    r = driving.pitch_radius + switch.pitch_radius
    mesh = switch.pitch_radius + driven.pitch_radius
    d = _center_distance(r, mesh, math.cos(psi_star - driven_half_angle))
    if d is None:
        raise NoEngagement(
            "no finite centre distance reaches pitch tangency at the requested track endpoint"
        )
    if not 0.0 < d < math.inf:
        raise NoEngagement(f"solved centre distance {d!r} mm is not finite and positive")
    return d


def _center_distance(r: float, mesh: float, c: float) -> float | None:
    """The larger root D of r^2 + D^2 - 2*r*D*c = mesh^2, for track radius
    ``r``, mesh distance ``mesh`` and c = cos(psi* - phi_d), or None when it
    has no real root. The root may be infinite or not positive."""
    disc = r * r * c * c - r * r + mesh * mesh
    if not disc >= 0.0:  # also NaN: the squares overflowed
        return None
    return r * c + math.sqrt(disc)
