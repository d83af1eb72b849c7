"""Exhaustive search over gear sizings to minimize predicted switching time.

The predicted time for a candidate layout is the trapezoid duration of the
motor travel k_eff * theta at the motor's speed limit and profile
acceleration. Slip is held at its measured value across candidates (there
is no data to model slip as a function of gear sizes), so results are
predictions at the measured slip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EmptyFeasibleSet, InvalidDesign, NoEngagement, SpaceTooLarge
from .geometry import (
    GearSpec,
    MechanismLayout,
    MIN_TOOTH_COUNT,
    envelope_diameter,
    kinematic_carry_ratio,
    solve_center_distance,
    solve_engagement,
    validate_layout,
    DEFAULT_BACKLASH_MARGIN,
)
from .motion import trapezoid_duration
from .plant import MotorModel
from .switching import TraversalModel

DEFAULT_SPACE_CAP = 1_000_000


@dataclass(frozen=True)
class DesignSpace:
    """Discrete candidate grid.

    Exactly one of ``psi_star_targets`` (centre distance solved so the track
    endpoint lands on the target, the default policy) or
    ``center_distances`` (explicit D grid, mm) must be provided.
    """

    drive_teeth: tuple[int, ...]
    switch_teeth: tuple[int, ...]
    driven_teeth: tuple[int, ...]
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
            if min(teeth) < MIN_TOOTH_COUNT:
                raise ValueError(f"tooth counts must be >= {MIN_TOOTH_COUNT}")
        if (self.psi_star_targets is None) == (self.center_distances is None):
            raise ValueError(
                "provide exactly one of psi_star_targets or center_distances"
            )

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


@dataclass(frozen=True)
class DesignResult:
    layout: MechanismLayout
    predicted_t_switch_ms: float
    theta_track: float            # rad
    k_eff: float
    driven_ratio: float
    envelope: float               # mm

    @property
    def sort_key(self):
        # Times/envelopes quantized below any physical resolution so designs
        # that tie in exact arithmetic (same endpoint target and ratios) tie
        # here too instead of ordering by trig roundoff.
        return (
            round(self.predicted_t_switch_ms, 9),
            round(self.envelope, 9),
            self.layout.driving.tooth_count,
            self.layout.switch.tooth_count,
            self.layout.driven.tooth_count,
        )


def evaluate_design(layout: MechanismLayout, slip: float, motor: MotorModel) -> DesignResult:
    """Predicted switching time and derived figures for one candidate.

    Raises:
        InvalidDesign: the layout fails geometric validation (wraps the report).
    """
    report = validate_layout(layout)
    if not report.ok:
        raise InvalidDesign(report)
    solution = solve_engagement(layout)
    traversal = TraversalModel(carry_ratio=kinematic_carry_ratio(layout), slip=slip)
    travel = traversal.motor_travel(solution.theta_track)
    t_switch = trapezoid_duration(travel, motor.max_output_speed, motor.profile_accel)
    return DesignResult(
        layout=layout,
        predicted_t_switch_ms=t_switch * 1000.0,
        theta_track=solution.theta_track,
        k_eff=traversal.effective_ratio,
        driven_ratio=layout.driven_speed_ratio,
        envelope=envelope_diameter(layout),
    )


def enumerate_layouts(space: DesignSpace):
    """Yield candidate layouts in deterministic grid order.

    Candidates whose centre distance cannot be solved for the requested
    track endpoint are silently infeasible.
    """
    if space.psi_star_targets is not None:
        last_axis = space.psi_star_targets
        solve_d = True
    else:
        last_axis = space.center_distances
        solve_d = False

    for zd, zs, zg, module, phi_d, last in itertools.product(
        space.drive_teeth,
        space.switch_teeth,
        space.driven_teeth,
        space.modules,
        space.half_angles,
        last_axis,
    ):
        driving = GearSpec(zd, module)
        switch = GearSpec(zs, module)
        driven = GearSpec(zg, module)
        if solve_d:
            try:
                d = solve_center_distance(driving, switch, driven, phi_d, last)
            except (NoEngagement, ValueError):
                continue
        else:
            d = last
        yield MechanismLayout(
            driving=driving,
            switch=switch,
            driven=driven,
            driven_center_distance=d,
            driven_half_angle=phi_d,
            backlash_margin=space.backlash_margin,
        )


def optimize(
    space: DesignSpace,
    constraints: DesignConstraints,
    slip: float,
    motor: MotorModel,
) -> list[DesignResult]:
    """Rank every feasible design by predicted switching time.

    Ties break by smaller envelope diameter, then lexicographic tooth counts,
    so the ranking is deterministic.

    Raises:
        SpaceTooLarge: candidate count exceeds the cap.
        EmptyFeasibleSet: nothing validated.
    """
    if space.size > constraints.cap:
        raise SpaceTooLarge(
            f"design space has {space.size} candidates, cap is {constraints.cap}"
        )
    results: list[DesignResult] = []
    for layout in enumerate_layouts(space):
        try:
            result = evaluate_design(layout, slip, motor)
        except InvalidDesign:
            continue
        if (
            space.envelope_max_diameter is not None
            and result.envelope > space.envelope_max_diameter
        ):
            continue
        ratio = result.driven_ratio
        if constraints.driven_ratio_min is not None and ratio < constraints.driven_ratio_min:
            continue
        if constraints.driven_ratio_max is not None and ratio > constraints.driven_ratio_max:
            continue
        results.append(result)
    if not results:
        raise EmptyFeasibleSet("no design in the space passed validation and constraints")
    results.sort(key=lambda r: r.sort_key)
    return results
