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
from dataclasses import dataclass

from .errors import NoEngagement, TrackDegenerate

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

    def __post_init__(self):
        if not isinstance(self.tooth_count, int):
            raise ValueError(f"tooth_count must be an integer, got {self.tooth_count!r}")
        if self.tooth_count < MIN_TOOTH_COUNT:
            raise ValueError(
                f"tooth_count must be >= {MIN_TOOTH_COUNT}, got {self.tooth_count}"
            )
        if not (math.isfinite(self.module) and self.module > 0):
            raise ValueError(f"module must be a positive length, got {self.module!r}")

    @property
    def pitch_radius(self) -> float:
        """Pitch radius r = m*z/2, mm."""
        return self.module * self.tooth_count / 2.0


@dataclass(frozen=True)
class MechanismLayout:
    """Full planar layout of driving, switch and (two identical) driven gears.

    Construction performs no cross-field validation: feed arbitrary values to
    ``validate_layout`` to get a violation report. ``solve_engagement``
    assumes a valid layout.

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


@dataclass(frozen=True)
class EngagementSolution:
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


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str

    def __str__(self):
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
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


def _engagement_cosine(layout: MechanismLayout, mesh_distance: float) -> float:
    """cos(psi - phi_d) at which the switch centre sits ``mesh_distance`` from
    the +phi_d driven centre."""
    r = layout.track_radius
    d = layout.driven_center_distance
    return (r * r + d * d - mesh_distance * mesh_distance) / (2.0 * r * d)


def solve_engagement(layout: MechanismLayout) -> EngagementSolution:
    """Solve the track endpoints and neutral band for a valid layout.

    The tangency condition R^2 + D^2 - 2*R*D*cos(psi - phi_d) = (r_s + r_g)^2
    has two roots; the one nearer the midline is the physical endpoint (the
    switch approaches from the midline side).

    Raises:
        NoEngagement: the track never comes within mesh distance of a driven gear.
        TrackDegenerate: the switch is within mesh distance of a driven gear at
            the midline (psi* <= 0, or at every track angle).
        ValueError: structurally unusable fields (non-positive D, phi_d
            outside (0, pi/2)).
    """
    d = layout.driven_center_distance
    phi = layout.driven_half_angle
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"driven_center_distance must be positive, got {d!r}")
    if not (0.0 < phi < math.pi / 2):
        raise ValueError(f"driven_half_angle must be in (0, pi/2), got {phi!r}")

    c = _engagement_cosine(layout, layout.mesh_distance)
    if c > 1.0:
        raise NoEngagement(
            "switch track never comes within mesh distance of a driven gear"
        )
    if c < -1.0:
        raise TrackDegenerate(
            "switch is inside mesh distance of a driven gear at every track angle"
        )
    psi_star = phi - math.acos(c)
    if psi_star <= 0.0:
        raise TrackDegenerate(
            f"switch meshes a driven gear at the midline "
            f"(psi* = {math.degrees(psi_star):.4f} deg <= 0); no usable track"
        )

    margin = layout.backlash_margin
    half_width = 0.0
    if margin >= 0.0:
        cm = _engagement_cosine(layout, layout.mesh_distance + margin)
        if cm > -1.0:
            half_width = max(0.0, phi - math.acos(cm))

    return EngagementSolution(
        psi_star=psi_star,
        theta_track=2.0 * psi_star,
        neutral_half_width=half_width,
    )


def validate_layout(layout: MechanismLayout) -> ValidationReport:
    """Check physical realizability; returns a report, engagement included, instead of raising.

    Rules reported: invalid-parameter, module-mismatch, driving-driven
    interference, switch-driven interference (at the midline), no-engagement
    and empty-neutral-band. The last three come from ``solve_engagement``'s
    outcome, so a layout breaks at most one of them.
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
    if not (math.isfinite(d) and d > 0):
        violations.append(
            Violation("invalid-parameter", f"driven_center_distance {d!r} not positive")
        )
    if not (0.0 < phi < math.pi / 2):
        violations.append(
            Violation("invalid-parameter", f"driven_half_angle {phi!r} outside (0, pi/2)")
        )
    if not (math.isfinite(layout.backlash_margin) and layout.backlash_margin >= 0.0):
        violations.append(
            Violation("invalid-parameter", f"backlash_margin {layout.backlash_margin!r} negative")
        )

    # Driven gear would mesh the driving gear directly.
    min_clear = layout.driving.pitch_radius + layout.driven.pitch_radius
    if not (math.isfinite(d) and d > 0) or d < min_clear:
        violations.append(
            Violation(
                "driving-driven-interference",
                f"driven-gear centre distance {d!r} mm < r_drive + r_driven = {min_clear} mm",
            )
        )

    sol = None
    try:
        sol = solve_engagement(layout)
    except TrackDegenerate as exc:
        violations.append(Violation("switch-driven-interference", str(exc)))
    except (NoEngagement, ValueError) as exc:
        violations.append(Violation("no-engagement", str(exc)))
    else:
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
    reach = max(
        layout.driving.pitch_radius,
        layout.track_radius + layout.switch.pitch_radius,
        layout.driven_center_distance + layout.driven.pitch_radius,
    )
    return 2.0 * reach


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
        NoEngagement: no real centre distance achieves the target.
    """
    if not (0.0 < psi_star <= driven_half_angle):
        raise ValueError(
            f"psi_star target {psi_star!r} must be in (0, driven_half_angle]"
        )
    r = driving.pitch_radius + switch.pitch_radius
    mesh = switch.pitch_radius + driven.pitch_radius
    c = math.cos(psi_star - driven_half_angle)
    disc = r * r * c * c - r * r + mesh * mesh
    if disc < 0.0:
        raise NoEngagement(
            "no centre distance reaches pitch tangency at the requested track endpoint"
        )
    d = r * c + math.sqrt(disc)
    if d <= 0.0:
        raise NoEngagement("solved centre distance is not positive")
    return d
