"""switchsim: simulator and design toolkit for a single-motor, switch-gear
antagonist cable actuator.

One motor gear carries an idler ("switch") gear along an arc track between
two driven spool gears; reversing the motor walks the idler across the track
to hand power to the other spool, with a decoupled neutral zone in the
middle. This package models the gear geometry, the switch state machine, the
motor/spool/cable/joint plant, the bench protocols that validated the
physical build, and an exhaustive gear-sizing optimizer.
"""

from .config import Config, PathSpec, load_config, parse_config, serialize_config
from .errors import (
    BelowKinematicFloor,
    ConfigError,
    EmptyFeasibleSet,
    InvalidDesign,
    InvalidState,
    NeverEngaged,
    NoEngagement,
    OutOfRange,
    RangeExceeded,
    SlackDetected,
    SpaceTooLarge,
    SubKinematicRatio,
    SwitchSimError,
    TrackDegenerate,
)
from .experiments import (
    IndependenceReport,
    SweepCurve,
    SwitchingTimeStats,
    calibrate_profile_accel,
    full_rom_script,
    motor_travel_per_traversal,
    run_independence,
    run_speed_sweep,
    run_switching_time,
)
from .geometry import (
    EngagementSolution,
    GearSpec,
    MechanismLayout,
    ValidationReport,
    envelope_diameter,
    kinematic_carry_ratio,
    reference_layout,
    solve_center_distance,
    solve_engagement,
    validate_layout,
)
from .motion import TrapezoidalProfile, trapezoid_duration
from .optimizer import (
    DesignConstraints,
    DesignResult,
    DesignSpace,
    evaluate_design,
    optimize,
)
from .paths import CurvedPath, LinearPath, TabulatedPath
from .plant import (
    ControlMode,
    DisturbancePulses,
    InjectDisturbance,
    MotorModel,
    MoveMotorTo,
    PlantConfig,
    SetVelocity,
    SimState,
    Simulator,
    SpoolModel,
    Trace,
    Wait,
    initial_state,
    profile_position_move,
    run_script,
    step_plant,
)
from .switching import (
    Event,
    EventKind,
    Side,
    SwitchMode,
    SwitchState,
    TraversalModel,
    calibrate_slip,
    step_switch,
)

__version__ = "0.1.0"
