"""Command-line front end.

Subcommands: validate, simulate, switching-time, independence, sweep,
optimize, calibrate. Results are CSV on stdout unless --out names a file;
the SWITCHSIM_OUT_DIR environment variable redirects relative output paths.

Exit codes: 0 success, 1 validation/check failure, 2 usage error. A flag
value that fails its type is a usage error; a run the plant refuses, such
as a ``--duration`` that covers no step of ``dt_s``, is a failure (exit 1).

Each subcommand is one ``_COMMANDS`` entry: its help line, its runner and
the function that adds its flags. ``main`` parses every argv with one
``build_parser()`` parser, built on its first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

from .config import Config, load_config
from .errors import ConfigError, SwitchSimError, _in_range
from .experiments import (
    DEFAULT_JITTER_SIGMA_MS,
    ControlMode,
    _traversal_time,
    run_independence,
    run_speed_sweep,
    run_switching_time,
)
from .geometry import REFERENCE_TRACK_TRAVEL_DEG
from .optimizer import DEFAULT_SPACE_CAP, DesignConstraints, DesignSpace, optimize
from .plant import DISTURBANCE_TARGETS, DisturbancePulses, PlantConfig, run_script

DEFAULT_SWEEP_OMEGAS = "180,270,360,450,540,630,720"


def _out_path(path: str) -> str:
    out_dir = os.environ.get("SWITCHSIM_OUT_DIR")
    if out_dir and path != "-" and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _write(path: str, text: str) -> None:
    path = _out_path(path)
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else repr(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _parse_int_range(text: str) -> range | tuple[int, ...]:
    """'a:b' or 'a:b:step' (inclusive, either direction) or a comma list. A
    range stays a ``range``, so a huge one meets the space cap without being built."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) > 3:
                raise ValueError(f"a tooth range is 'a:b' or 'a:b:step', got {text!r}")
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
            return range(start, stop + (1 if step > 0 else -1), step)
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _argument(text: str, convert, bound: str | None = None):
    """``convert(text)`` under the range rule. Either one's ValueError becomes an
    ArgumentTypeError, whose usage error names the flag, not the type callable."""
    try:
        return _in_range("value", convert(text), bound)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite_float(text: str) -> float:
    return _argument(text, float)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(p) for p in text.split(","))


def _positive_int(text: str) -> int:
    return _argument(text, int, "positive")


def _non_negative_float(text: str) -> float:
    return _argument(text, float, "not negative")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand, which its caller may edit: ``main``
    parses with its own one."""
    parser = argparse.ArgumentParser(
        prog="switchsim",
        description="Simulate and size the single-motor switch-gear antagonist actuator.",
    )
    parser.add_argument("--config", help="config file (defaults: reference rig)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, runner, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(run=runner)
        p.add_argument("--out", default="-")
        add_flags(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg, plant = load_config(args.config)
        return args.run(args, cfg, plant)
    except ConfigError as exc:
        for line_no, message in exc.errors:
            where = f"line {line_no}: " if line_no else ""
            print(f"config error: {where}{message}", file=sys.stderr)
        return 1
    except (SwitchSimError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _validate_flags(p: argparse.ArgumentParser) -> None:
    """validate takes ``--out`` alone."""


def _cmd_validate(args, cfg: Config, plant: PlantConfig) -> int:
    # Building the plant validated its layout; a failed check never gets here.
    _write(args.out, "0 violations\n")
    return 0


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", help="also write the event log CSV here")
    p.add_argument("--duration", type=_non_negative_float, help="minimum simulated time, s")


def _cmd_simulate(args, cfg: Config, plant: PlantConfig) -> int:
    trace = run_script(plant, cfg.script, duration=args.duration)
    _write(args.out, trace.to_csv())
    if args.events:
        _write(args.events, trace.events_to_csv())
    return 0


def _switching_time_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--no-jitter", action="store_true")
    p.add_argument("--jitter-sigma-ms", type=_non_negative_float, default=DEFAULT_JITTER_SIGMA_MS)
    p.add_argument("--seed", type=int)
    p.add_argument("--per-trial", help="write per-trial durations CSV here")
    p.add_argument(
        "--check",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="exit 1 unless both direction means lie in [LO, HI] ms",
    )


def _cmd_switching_time(args, cfg: Config, plant: PlantConfig) -> int:
    if args.check:
        lo, hi = args.check
        try:
            _in_range("--check LO", lo)
            _in_range("--check HI", hi)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        if lo > hi:
            print(f"--check LO {lo!r} exceeds HI {hi!r}", file=sys.stderr)
            return 2
    stats = run_switching_time(
        plant,
        n_trials=args.trials,
        jitter=not args.no_jitter,
        jitter_sigma_ms=args.jitter_sigma_ms,
        seed=args.seed,
    )
    _write(
        args.out,
        _csv(
            ("n_trials", "mean_up_ms", "sigma_up_ms", "mean_down_ms", "sigma_down_ms"),
            [
                (
                    stats.n_trials,
                    stats.mean_up_ms,
                    stats.sigma_up_ms,
                    stats.mean_down_ms,
                    stats.sigma_down_ms,
                )
            ],
        ),
    )
    if args.per_trial:
        rows = [
            (i, up, down)
            for i, (up, down) in enumerate(zip(stats.up_ms, stats.down_ms))
        ]
        _write(args.per_trial, _csv(("trial", "up_ms", "down_ms"), rows))
    if args.check:
        if not (lo <= stats.mean_up_ms <= hi and lo <= stats.mean_down_ms <= hi):
            print(
                f"check failed: means {stats.mean_up_ms}/{stats.mean_down_ms} ms "
                f"outside [{lo}, {hi}] ms",
                file=sys.stderr,
            )
            return 1
    return 0


def _independence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--magnitude", type=_non_negative_float, default=DisturbancePulses.magnitude)
    p.add_argument("--target", default=DisturbancePulses.target, choices=DISTURBANCE_TARGETS)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--check-zero",
        action="store_true",
        help="exit 1 unless the engaged-payout deviation is exactly 0",
    )


def _cmd_independence(args, cfg: Config, plant: PlantConfig) -> int:
    report = run_independence(
        plant, magnitude=args.magnitude, target=args.target, seed=args.seed
    )
    _write(
        args.out,
        _csv(
            (
                "max_engaged_deviation_mm",
                "disturbance_magnitude_mm",
                "rom_min_deg",
                "rom_max_deg",
            ),
            [
                (
                    report.max_engaged_deviation,
                    report.disturbance_magnitude,
                    math.degrees(report.rom_covered[0]),
                    math.degrees(report.rom_covered[1]),
                )
            ],
        ),
    )
    if args.check_zero and report.max_engaged_deviation != 0.0:
        print(
            f"check failed: engaged payout deviated {report.max_engaged_deviation} mm",
            file=sys.stderr,
        )
        return 1
    return 0


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--omegas", default=DEFAULT_SWEEP_OMEGAS, type=_parse_float_list, help="comma list, deg/s"
    )
    p.add_argument(
        "--position-mode",
        action="store_true",
        help="trapezoidal moves at each speed instead of steady-speed traversal",
    )


def _cmd_sweep(args, cfg: Config, plant: PlantConfig) -> int:
    mode = ControlMode.PROFILE_POSITION if args.position_mode else ControlMode.PROFILE_VELOCITY
    curve = run_speed_sweep(plant, args.omegas, mode=mode)
    rows = [
        (
            p.omega,
            p.t_switch_ms,
            int(p.in_fit),
            curve.fit_travel_deg,
            curve.fit_offset_s,
            curve.r_squared,
        )
        for p in curve.points
    ]
    _write(
        args.out,
        _csv(
            ("omega_deg_s", "t_switch_ms", "in_fit", "fit_travel_deg", "fit_offset_s", "r_squared"),
            rows,
        ),
    )
    return 0


def _optimize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--drive-teeth", default="16:24", type=_parse_int_range)
    p.add_argument("--switch-teeth", default="8:20", type=_parse_int_range)
    p.add_argument("--driven-teeth", default="16:24", type=_parse_int_range)
    p.add_argument("--modules", default="1.0", type=_parse_float_list)
    p.add_argument("--phi-d-deg", default="25.0", type=_parse_float_list)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--psi-star-deg", type=_parse_float_list, help="track endpoint targets")
    grid.add_argument("--center-distance-mm", type=_parse_float_list, help="explicit D grid")
    p.add_argument("--envelope-max", type=_finite_float, help="max footprint diameter, mm")
    p.add_argument("--ratio-min", type=_finite_float)
    p.add_argument("--ratio-max", type=_finite_float)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_SPACE_CAP)
    p.add_argument("--top", type=_positive_int, help="emit only the best N designs")


def _cmd_optimize(args, cfg: Config, plant: PlantConfig) -> int:
    if args.center_distance_mm:
        psi_targets, distances = None, tuple(args.center_distance_mm)
    else:
        targets = args.psi_star_deg or (REFERENCE_TRACK_TRAVEL_DEG / 2,)
        psi_targets, distances = tuple(math.radians(v) for v in targets), None
    space = DesignSpace(
        drive_teeth=args.drive_teeth,
        switch_teeth=args.switch_teeth,
        driven_teeth=args.driven_teeth,
        modules=tuple(args.modules),
        half_angles=tuple(math.radians(v) for v in args.phi_d_deg),
        psi_star_targets=psi_targets,
        center_distances=distances,
        envelope_max_diameter=args.envelope_max,
        backlash_margin=cfg.backlash_margin_mm,
    )
    constraints = DesignConstraints(
        driven_ratio_min=args.ratio_min, driven_ratio_max=args.ratio_max, cap=args.cap
    )
    results = optimize(space, constraints, plant.traversal.slip, plant.motor)
    results = results[: args.top]
    rows = [
        (
            rank,
            r.predicted_t_switch_ms,
            math.degrees(r.theta_track),
            r.k_eff,
            r.driven_ratio,
            r.envelope,
            r.layout.driving.tooth_count,
            r.layout.switch.tooth_count,
            r.layout.driven.tooth_count,
            r.layout.driving.module,
            math.degrees(r.layout.driven_half_angle),
            r.layout.driven_center_distance,
        )
        for rank, r in enumerate(results, start=1)
    ]
    _write(
        args.out,
        _csv(
            (
                "rank",
                "predicted_t_switch_ms",
                "theta_deg",
                "k_eff",
                "driven_ratio",
                "envelope_mm",
                "drive_teeth",
                "switch_teeth",
                "driven_teeth",
                "module_mm",
                "phi_d_deg",
                "center_distance_mm",
            ),
            rows,
        ),
    )
    return 0


def _calibrate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--switch-time-ms", dest="target_switch_time_ms", type=_finite_float)
    p.add_argument("--motor-travel-deg", dest="motor_travel_deg", type=_finite_float)
    p.add_argument("--revolution-deg", dest="revolution_travel_deg", type=_finite_float)


def _cmd_calibrate(args, cfg: Config, plant: PlantConfig) -> int:
    measured = {
        name: getattr(args, name)
        for name in ("target_switch_time_ms", "motor_travel_deg", "revolution_travel_deg")
        if getattr(args, name) is not None
    }
    calibrated = replace(cfg, slip=None, profile_accel=None, **measured).plant()
    accel, model = calibrated.motor.profile_accel, calibrated.traversal
    check_ms = _traversal_time(calibrated) * 1000.0
    _write(
        args.out,
        _csv(
            ("profile_accel_deg_s2", "carry_ratio", "k_eff", "slip", "reproduced_time_ms"),
            [(accel, model.carry_ratio, model.effective_ratio, model.slip, check_ms)],
        ),
    )
    return 0


# Subcommand name -> (help line, runner, adds its flags but --out), in --help order.
_COMMANDS = {
    "validate": ("check the configured layout", _cmd_validate, _validate_flags),
    "simulate": ("run the [script] section and emit the trace", _cmd_simulate, _simulate_flags),
    "switching-time": ("repeated traversal timing trials", _cmd_switching_time, _switching_time_flags),
    "independence": ("full-RoM sweep with disturbances", _cmd_independence, _independence_flags),
    "sweep": ("switching time vs motor speed", _cmd_sweep, _sweep_flags),
    "optimize": ("rank gear sizings by predicted switching time", _cmd_optimize, _optimize_flags),
    "calibrate": ("pin motor/friction parameters to measurements", _cmd_calibrate, _calibrate_flags),
}


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
