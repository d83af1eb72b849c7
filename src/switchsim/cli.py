"""Command-line front end.

Subcommands: validate, simulate, switching-time, independence, sweep,
optimize, calibrate. Results are CSV on stdout unless --out names a file;
the SWITCHSIM_OUT_DIR environment variable redirects relative output paths.

Exit codes: 0 success, 1 validation/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .config import Config, load_config
from .errors import ConfigError, SwitchSimError
from .experiments import (
    ControlMode,
    motor_travel_per_traversal,
    run_independence,
    run_speed_sweep,
    run_switching_time,
)
from .motion import trapezoid_duration
from .optimizer import DesignConstraints, DesignSpace, optimize
from .plant import PlantConfig, run_script

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


def _parse_int_range(text: str) -> tuple[int, ...]:
    """'a:b' or 'a:b:step' (inclusive) or a comma list."""
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsim",
        description="Simulate and size the single-motor switch-gear antagonist actuator.",
    )
    parser.add_argument("--config", help="config file (defaults: reference rig)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the configured layout")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("--out", default="-")

    p = sub.add_parser("simulate", help="run the [script] section and emit the trace")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--out", default="-")
    p.add_argument("--events", help="also write the event log CSV here")
    p.add_argument("--duration", type=float, help="minimum simulated time, s")

    p = sub.add_parser("switching-time", help="repeated traversal timing trials")
    p.set_defaults(run=_cmd_switching_time)
    p.add_argument("--out", default="-")
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--no-jitter", action="store_true")
    p.add_argument("--jitter-sigma-ms", type=float, default=0.6)
    p.add_argument("--seed", type=int)
    p.add_argument("--per-trial", help="write per-trial durations CSV here")
    p.add_argument(
        "--check",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="exit 1 unless both direction means lie in [LO, HI] ms",
    )

    p = sub.add_parser("independence", help="full-RoM sweep with disturbances")
    p.set_defaults(run=_cmd_independence)
    p.add_argument("--out", default="-")
    p.add_argument("--magnitude", type=float, default=5.0)
    p.add_argument(
        "--target",
        default="disengaged",
        choices=("disengaged", "engaged", "plus", "minus"),
    )
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--check-zero",
        action="store_true",
        help="exit 1 unless the engaged-payout deviation is exactly 0",
    )

    p = sub.add_parser("sweep", help="switching time vs motor speed")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--out", default="-")
    p.add_argument(
        "--omegas", default=DEFAULT_SWEEP_OMEGAS, type=_parse_float_list, help="comma list, deg/s"
    )
    p.add_argument(
        "--position-mode",
        action="store_true",
        help="trapezoidal moves at each speed instead of steady-speed traversal",
    )

    p = sub.add_parser("optimize", help="rank gear sizings by predicted switching time")
    p.set_defaults(run=_cmd_optimize)
    p.add_argument("--out", default="-")
    p.add_argument("--drive-teeth", default="16:24", type=_parse_int_range)
    p.add_argument("--switch-teeth", default="8:20", type=_parse_int_range)
    p.add_argument("--driven-teeth", default="16:24", type=_parse_int_range)
    p.add_argument("--modules", default="1.0", type=_parse_float_list)
    p.add_argument("--phi-d-deg", default="25.0", type=_parse_float_list)
    p.add_argument("--psi-star-deg", type=_parse_float_list, help="track endpoint targets")
    p.add_argument("--center-distance-mm", type=_parse_float_list, help="explicit D grid")
    p.add_argument("--envelope-max", type=float, help="max footprint diameter, mm")
    p.add_argument("--ratio-min", type=float)
    p.add_argument("--ratio-max", type=float)
    p.add_argument("--cap", type=_positive_int, default=1_000_000)
    p.add_argument("--top", type=_positive_int, help="emit only the best N designs")

    p = sub.add_parser("calibrate", help="pin motor/friction parameters to measurements")
    p.set_defaults(run=_cmd_calibrate)
    p.add_argument("--out", default="-")
    p.add_argument("--switch-time-ms", dest="target_switch_time_ms", type=float)
    p.add_argument("--motor-travel-deg", dest="motor_travel_deg", type=float)
    p.add_argument("--revolution-deg", dest="revolution_travel_deg", type=float)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def _cmd_validate(args, cfg: Config, plant: PlantConfig) -> int:
    # Building the plant validated its layout; a failed check never gets here.
    _write(args.out, "0 violations\n")
    return 0


def _cmd_simulate(args, cfg: Config, plant: PlantConfig) -> int:
    if args.duration is not None and not (plant.dt <= args.duration < math.inf):
        print(
            f"--duration must be finite and at least one step of dt_s = {plant.dt!r} s, "
            f"got {args.duration!r}",
            file=sys.stderr,
        )
        return 2
    trace = run_script(plant, cfg.script, duration=args.duration)
    _write(args.out, trace.to_csv())
    if args.events:
        _write(args.events, trace.events_to_csv())
    return 0


def _cmd_switching_time(args, cfg: Config, plant: PlantConfig) -> int:
    if args.check:
        lo, hi = args.check
        for name, bound in (("LO", lo), ("HI", hi)):
            if not math.isfinite(bound):
                print(f"--check {name} must be finite, got {bound!r}", file=sys.stderr)
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


def _cmd_optimize(args, cfg: Config, plant: PlantConfig) -> int:
    if args.psi_star_deg and args.center_distance_mm:
        print("give either --psi-star-deg or --center-distance-mm, not both", file=sys.stderr)
        return 2
    if args.center_distance_mm:
        psi_targets, distances = None, tuple(args.center_distance_mm)
    else:
        targets = args.psi_star_deg or (9.9,)
        psi_targets, distances = tuple(math.radians(v) for v in targets), None
    space = DesignSpace(
        drive_teeth=tuple(args.drive_teeth),
        switch_teeth=tuple(args.switch_teeth),
        driven_teeth=tuple(args.driven_teeth),
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


def _cmd_calibrate(args, cfg: Config, plant: PlantConfig) -> int:
    measured = {
        name: getattr(args, name)
        for name in ("target_switch_time_ms", "motor_travel_deg", "revolution_travel_deg")
        if getattr(args, name) is not None
    }
    calibrated = replace(cfg, slip=None, profile_accel=None, **measured).plant()
    accel, model = calibrated.motor.profile_accel, calibrated.traversal
    travel = motor_travel_per_traversal(calibrated)
    check_ms = trapezoid_duration(travel, cfg.max_output_speed, accel) * 1000.0
    _write(
        args.out,
        _csv(
            ("profile_accel_deg_s2", "carry_ratio", "k_eff", "slip", "reproduced_time_ms"),
            [(accel, model.carry_ratio, model.effective_ratio, model.slip, check_ms)],
        ),
    )
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
