"""Exhaustive search over gear sizings to minimize predicted switching time.

The predicted time for a candidate layout is the trapezoid duration of the
motor travel k_eff * theta at the motor's speed limit and profile
acceleration. Slip is held at its measured value across candidates (there
is no data to model slip as a function of gear sizes), so results are
predictions at the measured slip.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import EmptyFeasibleSet, InvalidDesign, NoEngagement, SpaceTooLarge, _in_range
from .geometry import (
    GearSpec,
    MechanismLayout,
    MIN_TOOTH_COUNT,
    Violation,
    envelope_diameter,
    kinematic_carry_ratio,
    _center_distance,
    _envelope,
    _reach,
    _solve,
    solve_center_distance,
    validate_layout,
    DEFAULT_BACKLASH_MARGIN,
)
from .motion import _trapezoid_duration
from .plant import MotorModel
from .switching import TraversalModel, _check_slip, _effective_ratio

DEFAULT_SPACE_CAP = 1_000_000


@dataclass(frozen=True)
class DesignSpace:
    """Discrete candidate grid.

    Exactly one of ``psi_star_targets`` (centre distance solved so the track
    endpoint lands on the target, the default policy) or
    ``center_distances`` (explicit D grid, mm) must be provided. A tooth-count
    axis may be a ``range``: the checks and ``size`` never walk it.
    """

    drive_teeth: tuple[int, ...] | range
    switch_teeth: tuple[int, ...] | range
    driven_teeth: tuple[int, ...] | range
    modules: tuple[float, ...]
    half_angles: tuple[float, ...]                 # phi_d grid, rad
    psi_star_targets: tuple[float, ...] | None = None   # rad
    center_distances: tuple[float, ...] | None = None   # mm
    envelope_max_diameter: float | None = None     # mm
    backlash_margin: float = DEFAULT_BACKLASH_MARGIN

    def __post_init__(self):
        for name in ("drive_teeth", "switch_teeth", "driven_teeth", "modules", "half_angles"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for teeth in (self.drive_teeth, self.switch_teeth, self.driven_teeth):
            # A range's least element is at one end; do not walk a huge one.
            if min((teeth[0], teeth[-1]) if isinstance(teeth, range) else teeth) < MIN_TOOTH_COUNT:
                raise ValueError(f"tooth counts must be >= {MIN_TOOTH_COUNT}")
        if (self.psi_star_targets is None) == (self.center_distances is None):
            raise ValueError(
                "provide exactly one of psi_star_targets or center_distances"
            )
        if not (self.psi_star_targets or self.center_distances):
            raise ValueError("the psi_star_targets or center_distances grid must be non-empty")
        for name in ("modules", "half_angles", "psi_star_targets", "center_distances"):
            for value in getattr(self, name) or ():
                _in_range(name, value)
        _in_range("backlash_margin", self.backlash_margin)
        if self.envelope_max_diameter is not None:
            _in_range("envelope_max_diameter", self.envelope_max_diameter, "positive")

    @property
    def size(self) -> int:
        last = self.psi_star_targets or self.center_distances
        return (
            len(self.drive_teeth)
            * len(self.switch_teeth)
            * len(self.driven_teeth)
            * len(self.modules)
            * len(self.half_angles)
            * len(last)
        )


@dataclass(frozen=True)
class DesignConstraints:
    driven_ratio_min: float | None = None   # bound on z_drive/z_driven (torque proxy)
    driven_ratio_max: float | None = None
    cap: int = DEFAULT_SPACE_CAP

    def __post_init__(self):
        for name in ("driven_ratio_min", "driven_ratio_max"):
            if getattr(self, name) is not None:
                _in_range(name, getattr(self, name))


def _rank_key(t_switch_ms: float, envelope: float, zd: int, zs: int, zg: int) -> tuple:
    """Rank by predicted time, then envelope, then tooth counts. Times and
    envelopes are quantized below any physical resolution so designs that tie
    in exact arithmetic (same endpoint target and ratios) tie here too instead
    of ordering by trig roundoff."""
    return (round(t_switch_ms, 9), round(envelope, 9), zd, zs, zg)


class DesignResult(NamedTuple):
    layout: MechanismLayout
    predicted_t_switch_ms: float
    theta_track: float            # rad
    k_eff: float
    driven_ratio: float
    envelope: float               # mm

    @property
    def sort_key(self):
        layout = self.layout
        teeth = (layout.driving.tooth_count, layout.switch.tooth_count, layout.driven.tooth_count)
        return _rank_key(self.predicted_t_switch_ms, self.envelope, *teeth)


def evaluate_design(layout: MechanismLayout, slip: float, motor: MotorModel) -> DesignResult:
    """Predicted switching time and derived figures for one candidate.

    Raises:
        InvalidDesign: the layout fails geometric validation (wraps the report).
        ValueError: the motor travel k_eff * theta overflows, so no finite time exists.
    """
    report = validate_layout(layout)
    if not report.ok:
        raise InvalidDesign(report)
    k_eff = TraversalModel(kinematic_carry_ratio(layout), slip).effective_ratio
    theta, ratio = report.engagement.theta_track, layout.driven_speed_ratio
    result = _design_result(layout, theta, k_eff, ratio, motor, envelope_diameter(layout))
    if result is None:
        raise ValueError(
            f"motor travel k_eff * theta ({k_eff!r} * {theta!r} rad) overflows to inf deg: "
            "no finite time ranks it"
        )
    return result


def _design_result(
    layout: MechanismLayout,
    theta: float,
    k_eff: float,
    ratio: float,
    motor: MotorModel,
    envelope: float,
) -> DesignResult | None:
    """The prediction for a validated layout with track travel ``theta`` (rad),
    effective ratio ``k_eff``, driven ratio and envelope: the trapezoid time
    of the motor travel ``TraversalModel.motor_travel`` gives. None when that
    travel overflows to inf, as no finite time ranks it."""
    travel = math.degrees(k_eff * theta)
    if travel == math.inf:  # otherwise it is finite and positive
        return None
    # MotorModel checked its limits when it was built.
    t_switch = _trapezoid_duration(travel, motor.max_output_speed, motor.profile_accel)
    return DesignResult(layout, t_switch * 1000.0, theta, k_eff, ratio, envelope)


def _gear_sets(space: DesignSpace):
    """Yield each (driving, switch, driven) gear set in grid order, with one
    GearSpec per (tooth count, module)."""
    teeth = (space.drive_teeth, space.switch_teeth, space.driven_teeth)
    gears = {(z, m): GearSpec(z, m) for axis in teeth for z in axis for m in space.modules}
    for zd, zs, zg, m in itertools.product(*teeth, space.modules):
        yield gears[zd, m], gears[zs, m], gears[zg, m]


def enumerate_layouts(space: DesignSpace):
    """Yield candidate layouts in deterministic grid order. A psi* target no
    centre distance reaches is skipped."""
    targets = space.psi_star_targets
    for gears in _gear_sets(space):
        for phi_d, last in itertools.product(space.half_angles, targets or space.center_distances):
            if targets is not None:
                try:
                    last = solve_center_distance(*gears, phi_d, last)
                except (NoEngagement, ValueError):
                    continue
            yield MechanismLayout(*gears, last, phi_d, space.backlash_margin)


def optimize(
    space: DesignSpace,
    constraints: DesignConstraints,
    slip: float,
    motor: MotorModel,
) -> list[DesignResult]:
    """Rank every feasible design by predicted switching time.

    Ties break by smaller envelope diameter, then lexicographic tooth counts,
    so the ranking is deterministic. The records equal ``evaluate_design``'s
    over ``enumerate_layouts``, but a candidate gets no layout until it
    passes ``validate_layout``'s rules on scalars, and a rejected one is
    skipped by a plain test, with nothing raised: the margin and each phi_d
    (and each psi* target's cos(psi* - phi_d)) once; the ratio bounds, track
    radius, mesh distance, reach and driving-driven clearance once per gear
    set; then per candidate the D rules, the envelope bound, the engagement
    core of ``solve_engagement`` (its plain triple, unpacked) and the neutral
    band, cheapest first. ``slip`` is checked once, by ``TraversalModel``'s
    rule, before any candidate; each gear set's k_eff then comes from the
    unchecked ratio core, so no traversal model is built, and each duration
    from the unchecked trapezoid core, as its motor travel is positive; a
    candidate whose motor travel overflows to inf has no finite time and is
    skipped.

    Raises:
        SpaceTooLarge: candidate count exceeds the cap.
        ValueError: ``slip`` is not finite or outside [0, 1).
        EmptyFeasibleSet: nothing validated.
    """
    if space.size > constraints.cap:
        raise SpaceTooLarge(
            f"design space has {space.size} candidates, cap is {constraints.cap}"
        )
    _check_slip(slip)
    lo, hi = constraints.driven_ratio_min, constraints.driven_ratio_max
    limit = space.envelope_max_diameter or math.inf  # None: no bound
    margin = space.backlash_margin
    targets = space.psi_star_targets
    # validate_layout's invalid-parameter rules for the margin and phi_d.
    phis = [phi for phi in space.half_angles if 0.0 < phi < math.pi / 2 and margin >= 0.0]
    if targets is None:
        placements = list(itertools.product(phis, space.center_distances))
    else:  # cos(psi* - phi_d) of each target in solve_center_distance's range
        placements = [(phi, math.cos(t - phi)) for phi in phis for t in targets if 0.0 < t <= phi]
    keyed: list[tuple[tuple, DesignResult]] = []
    for driving, switch, driven in _gear_sets(space):
        zd, zs, zg = driving.tooth_count, switch.tooth_count, driven.tooth_count
        ratio = zd / zg  # MechanismLayout.driven_speed_ratio
        if (lo is not None and ratio < lo) or (hi is not None and ratio > hi):
            continue
        r = driving.pitch_radius + switch.pitch_radius
        mesh = switch.pitch_radius + driven.pitch_radius
        clear = driving.pitch_radius + driven.pitch_radius
        reach, driven_radius = _reach(driving, switch), driven.pitch_radius
        k_eff = None
        for phi_d, last in placements:
            d = last if targets is None else _center_distance(r, mesh, last)
            if d is None or not clear <= d < math.inf:  # also D <= 0 and NaN
                continue  # no D reaches psi*, invalid-parameter, driving-driven-interference
            envelope = _envelope(reach, d, driven_radius)
            if envelope > limit:
                continue
            engagement = _solve(r, d, phi_d, mesh, margin)
            if type(engagement) is Violation:
                continue  # no-engagement, switch-driven-interference
            _, theta, half_width = engagement
            if half_width <= 0.0:
                continue  # empty-neutral-band
            layout = MechanismLayout(driving, switch, driven, d, phi_d, margin)
            if k_eff is None:
                k_eff = _effective_ratio(kinematic_carry_ratio(layout), slip)
            result = _design_result(layout, theta, k_eff, ratio, motor, envelope)
            if result is None:
                continue  # the motor travel overflows
            keyed.append((_rank_key(result.predicted_t_switch_ms, envelope, zd, zs, zg), result))
    if not keyed:
        raise EmptyFeasibleSet("no design in the space passed validation and constraints")
    keyed.sort(key=itemgetter(0))
    return [result for _, result in keyed]
