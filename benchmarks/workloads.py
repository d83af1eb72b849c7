"""Seeded inputs, operations, oracles and digests of the three workloads.

Every input is generated from ``(workload, seed)`` alone: config texts, bench
protocol parameters, ``[script]`` sections and design spaces. The program
sees only those inputs, through ``parse_config``, ``Config.plant()``, the
public API and ``cli.main``.

An operation (op) is one call into the program. After it returns, the
benchmark computes a digest of its simulated outputs and, on the checked
pass, compares them with a closed-form oracle. Program functions are always
looked up on their module at call time, so the tracer can replace them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field, replace

import switchsim as ss
from switchsim import cli

WORKLOADS = ("protocols", "trace", "design")

# Ops per pass: at least 100, so that 10 latency samples lie beyond p90. Each
# list interleaves its op kinds, so every seed gives the same mix of work.
OPS_PER_PASS = {"protocols": 180, "trace": 100, "design": 100}

TOLERANCE_MS = 0.001  # oracle tolerance on every simulated time
TRAVERSAL_DEG = 122.6  # motor travel per traversal of every config (the default)
JOINT_MARGIN_DEG = 15.0  # scripted joint targets stay this far inside +/-90 deg


@dataclass
class Op:
    """One generated operation: its kind, config text and parameters."""

    kind: str
    config_text: str
    params: dict
    # Filled in by ``prepare``: the PlantConfig and the files a CLI op uses.
    plant: object = field(default=None, repr=False)
    files: dict = field(default_factory=dict, repr=False)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values in [lo, hi), one from each of n equal strata, shuffled.

    Stratifying keeps the spread of op costs nearly the same from one seed
    to the next, so the run-to-run spread of the figures stays small.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def generate(workload: str, seed: int, n_ops: int | None = None) -> list[Op]:
    """The op list of one pass; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    n = OPS_PER_PASS[workload] if n_ops is None else n_ops
    rng = random.Random(f"{workload}:{seed}")
    return {"protocols": _gen_protocols, "trace": _gen_trace, "design": _gen_design}[
        workload
    ](rng, n)


# --------------------------------------------------------------------------
# protocols: record=False bench protocols on config variants


PROTOCOL_KINDS = ("switching_time", "sweep_velocity", "sweep_position")


def _gen_protocols(rng: random.Random, n: int) -> list[Op]:
    speeds = _strata(rng, n, 540.0, 720.0)
    slowness = _strata(rng, n, 1.2, 1.8)  # target switch time over the kinematic floor
    ops = []
    for i in range(n):
        speed = speeds[i]
        target_ms = 1000.0 * TRAVERSAL_DEG / speed * slowness[i]
        text = (
            "[layout]\n"
            f"drive_teeth = {rng.randint(16, 24)}\n"
            f"switch_teeth = {rng.randint(12, 20)}\n"
            f"driven_teeth = {rng.randint(16, 24)}\n"
            "[motor]\n"
            f"max_output_speed_deg_s = {speed!r}\n"
            f"target_switch_time_ms = {target_ms!r}\n"
            "[sim]\n"
            f"seed = {rng.randrange(1 << 30)}\n"
        )
        kind = PROTOCOL_KINDS[i % len(PROTOCOL_KINDS)]
        if kind == "switching_time":
            params = {"n_trials": 1 + (i // len(PROTOCOL_KINDS)) % 3}
        else:
            params = {"omegas": tuple(sorted(_strata(rng, 3, 180.0, speed)))}
        ops.append(Op(kind, text, params))
    return ops


def _run_switching_time(op: Op):
    return ss.run_switching_time(op.plant, n_trials=op.params["n_trials"], jitter=False)


def _run_sweep(op: Op):
    mode = (
        ss.ControlMode.PROFILE_VELOCITY
        if op.kind == "sweep_velocity"
        else ss.ControlMode.PROFILE_POSITION
    )
    return ss.run_speed_sweep(op.plant, op.params["omegas"], mode=mode)


def _check_switching_time(op: Op, stats) -> list[str]:
    motor = op.plant.motor
    want = 1000.0 * ss.trapezoid_duration(
        ss.motor_travel_per_traversal(op.plant), motor.max_output_speed, motor.profile_accel
    )
    times = stats.up_ms + stats.down_ms
    if len(times) != 2 * op.params["n_trials"]:
        return [f"expected {op.params['n_trials']} trials, got {stats.n_trials}"]
    return [
        f"trial time {t!r} ms differs from trapezoid_duration {want!r} ms"
        for t in times
        if not abs(t - want) <= TOLERANCE_MS
    ]


def _check_sweep(op: Op, curve) -> list[str]:
    travel = ss.motor_travel_per_traversal(op.plant)
    accel = op.plant.motor.profile_accel
    problems = []
    if tuple(p.omega for p in curve.points) != tuple(op.params["omegas"]):
        problems.append("sweep points do not match the requested speeds")
    for p in curve.points:
        if op.kind == "sweep_velocity":
            want = 1000.0 * travel / p.omega
            in_fit = True
        else:
            want = 1000.0 * ss.trapezoid_duration(travel, p.omega, accel)
            in_fit = p.omega * p.omega <= accel * travel
        if not abs(p.t_switch_ms - want) <= TOLERANCE_MS:
            problems.append(f"omega {p.omega!r}: {p.t_switch_ms!r} ms, oracle {want!r} ms")
        if p.in_fit is not in_fit:
            problems.append(f"omega {p.omega!r}: in_fit {p.in_fit}, oracle {in_fit}")
    return problems


def _digest_switching_time(stats) -> bytes:
    return repr((stats.up_ms, stats.down_ms)).encode()


def _digest_sweep(curve) -> bytes:
    points = tuple((p.omega, p.t_switch_ms, p.in_fit) for p in curve.points)
    return repr((points, curve.fit_travel_deg, curve.fit_offset_s, curve.r_squared)).encode()


def _sim_s_switching_time(op: Op, stats) -> float:
    return (sum(stats.up_ms) + sum(stats.down_ms)) / 1000.0


def _sim_s_sweep(op: Op, curve) -> float:
    return sum(p.t_switch_ms for p in curve.points) / 1000.0


# --------------------------------------------------------------------------
# trace: recorded runs with the winding engaged


# One cycle of trace ops: one simulate script per antagonist path kind.
# ``run_independence`` is not a trace op: at this commit it fails its oracle
# on about one seed in three (see README.md), and a workload op may not fail.
ANTAGONISTS = ("linear", "curved", "tabulated")
KNOT_ANGLES_DEG = tuple(range(-90, 91, 15))


def _gen_trace(rng: random.Random, n: int) -> list[Op]:
    arms = _strata(rng, n, 22.0, 28.0)
    bows = _strata(rng, n, 2.0, 8.0)
    # Joint reach of every scripted move, as a share of the allowed range, and
    # motor rate of every constant-velocity move: stratified per antagonist so
    # each path kind gets the same script load on every seed.
    per_kind = n // len(ANTAGONISTS) + 1
    reaches = {kind: iter(_strata(rng, 2 * per_kind, 0.3, 1.0)) for kind in ANTAGONISTS}
    rates = {kind: iter(_strata(rng, per_kind, 360.0, _SPEED)) for kind in ANTAGONISTS}
    ops = []
    for i in range(n):
        antagonist = ANTAGONISTS[i % len(ANTAGONISTS)]
        law = _CurvedLaw(300.0, arms[i], 0.0 if antagonist == "linear" else bows[i])
        text = "[paths]\n" + _antagonist_keys(antagonist, law) + _TRACE_MOTOR
        text += f"[sim]\nseed = {rng.randrange(1 << 30)}\n"
        script = _script(rng, law, reaches[antagonist], next(rates[antagonist]))
        text += "[script]\n" + "".join(f"{line}\n" for line in script)
        ops.append(Op("simulate", text, {}))
    return ops


def _antagonist_keys(kind: str, law: "_CurvedLaw") -> str:
    lines = [f"antagonist_kind = {kind}"]
    if kind == "tabulated":
        knots = ", ".join(f"{x!r}:{law.length(math.radians(x))!r}" for x in KNOT_ANGLES_DEG)
        lines.append(f"antagonist_knots = {knots}")
    else:
        lines += [
            f"antagonist_reference_length_mm = {law.reference_length!r}",
            f"antagonist_moment_arm_mm = {law.moment_arm!r}",
        ]
        if kind == "curved":
            lines.append(f"antagonist_bow_mm = {law.bow!r}")
    return "".join(f"{line}\n" for line in lines)


@dataclass(frozen=True)
class _CurvedLaw:
    """L(x) = L0 - a*x - bow*sin(x); bow = 0 is the linear law."""

    reference_length: float
    moment_arm: float
    bow: float

    def length(self, x: float) -> float:
        return self.reference_length - self.moment_arm * x - self.bow * math.sin(x)


# Every trace config keeps the reference rig's spools (10 mm), agonist path
# (linear, 300 mm, 25 mm/rad), gear ratio (20/20) and motor travel per
# traversal. Its motor is twice as fast, with the switch time
# halved to match, so that a pass of over 100 ops fits several times into
# one run.
_SPOOL_RADIUS_MM = 10.0
_AGONIST = _CurvedLaw(300.0, 25.0, 0.0)
_SPEED = 1440.0
_TRACE_MOTOR = f"[motor]\nmax_output_speed_deg_s = {_SPEED!r}\ntarget_switch_time_ms = 151.0\n"


def _script(rng: random.Random, antagonist: _CurvedLaw, reaches, rate: float) -> list[str]:
    """A script that drives the joint to seeded targets inside +/-75 deg.

    One positioned move, a park in the neutral zone, then one move at a
    constant ``rate``. The script is planned on the switch-gear backlash:
    reversing the motor first spends up to one traversal of motor travel
    with no spool driven, then winds the other cable. ``slack`` is how far
    the switch sits from the plus endpoint, in motor degrees. Motor targets
    follow from the path laws, so every target lies inside the range that
    ``full_rom_script`` sweeps and no joint angle leaves +/-90 deg.
    """
    limit = math.radians(90.0 - JOINT_MARGIN_DEG)
    joint, motor, slack = 0.0, 0.0, 0.0
    lines = [f"disturb disengaged {rng.uniform(2.0, 8.0)!r}"]
    for step in ("move", "neutral", "velocity"):
        if step == "neutral":
            # Park mid-track: the motor stops with neither spool driven.
            target_slack = 0.5 * TRAVERSAL_DEG
            motor += slack - target_slack
            slack = target_slack
            lines += [f"move_to {motor!r}", "wait 0.1"]
            continue
        # Alternate direction so every move winds a cable after the reversal.
        goal = next(reaches) * limit * (-1.0 if joint > 0 else 1.0)
        if goal > joint:
            wound = (_AGONIST.length(joint) - _AGONIST.length(goal)) / _SPOOL_RADIUS_MM
            delta = slack + math.degrees(wound)
            slack = 0.0
        else:
            wound = (antagonist.length(-joint) - antagonist.length(-goal)) / _SPOOL_RADIUS_MM
            delta = -(TRAVERSAL_DEG - slack) - math.degrees(wound)
            slack = TRAVERSAL_DEG
        if step == "velocity":
            signed = math.copysign(rate, delta)
            duration = round(abs(delta / signed), 3)
            lines += [f"set_velocity {signed!r}", f"wait {duration!r}", "set_velocity 0.0"]
            motor += signed * duration
        else:
            motor += delta
            lines.append(f"move_to {motor!r}")
        joint = goal
        lines.append("wait 0.05")
    lines.append("disturb_off")
    return lines


def _run_simulate(op: Op):
    code = cli.main(
        [
            "--config", op.files["config"],
            "simulate",
            "--out", op.files["out"],
            "--events", op.files["events"],
        ]
    )
    with open(op.files["out"], "rb") as fh:
        trace_csv = fh.read()
    with open(op.files["events"], "rb") as fh:
        events_csv = fh.read()
    return code, trace_csv, events_csv


def _check_simulate(op: Op, result) -> list[str]:
    code, trace_csv, events_csv = result
    if code != 0:
        return [f"simulate exited {code}"]
    rows = list(csv.DictReader(io.StringIO(trace_csv.decode())))
    problems = []
    if len(rows) < 2:
        problems.append("simulate wrote fewer than two rows")
    for row in rows:
        plus, minus = float(row["tension_plus_N"]), float(row["tension_minus_N"])
        joint = float(row["joint_deg"])
        if not (math.isfinite(plus) and math.isfinite(minus) and plus > 0.0 and minus > 0.0):
            problems.append(f"t={row['t_s']}: tensions {plus!r}, {minus!r} N")
        if not abs(joint) <= 90.0:
            problems.append(f"t={row['t_s']}: joint {joint!r} deg")
    if not events_csv.startswith(b"t_s,kind,detail\n"):
        problems.append("event log has no header")
    return problems


def _digest_simulate(result) -> bytes:
    code, trace_csv, events_csv = result
    return repr(code).encode() + trace_csv + events_csv


def _sim_s_simulate(op: Op, result) -> float:
    rows = result[1].rsplit(b"\n", 2)
    return float(rows[-2].split(b",", 1)[0])


# --------------------------------------------------------------------------
# design: optimizer ranking plus a simulation check of a ranked sample


DESIGN_KINDS = ("optimize_psi", "optimize_distance")


def _gen_design(rng: random.Random, n: int) -> list[Op]:
    # Every parameter is stratified over the ops, so that the total cost of a
    # pass hardly depends on the seed.
    sample_at = _strata(rng, n, 0.0, 1.0)  # rank quantile of the simulated design
    drive0, switch0, driven0 = (_strata(rng, n, lo, hi) for lo, hi in ((14, 21), (8, 13), (12, 19)))
    phi_lo, phi_hi = _strata(rng, n, 20.0, 27.5), _strata(rng, n, 27.5, 35.0)
    psi_lo, psi_hi = _strata(rng, n, 4.0, 8.0), _strata(rng, n, 8.0, 12.0)
    envelopes = _strata(rng, n, 80.0, 120.0)
    module_sets = ((0.8, 1.0), (0.8, 1.25), (1.0, 1.25))
    ops = []
    for i in range(n):
        kind = DESIGN_KINDS[i % 2]
        teeth = [
            tuple(range(int(first[i]), int(first[i]) + count))
            for first, count in ((drive0, 4), (switch0, 4), (driven0, 6))
        ]
        space = {
            "drive_teeth": teeth[0],
            "switch_teeth": teeth[1],
            "driven_teeth": teeth[2],
            "half_angles": (math.radians(phi_lo[i]), math.radians(phi_hi[i])),
        }
        if kind == "optimize_psi":
            space["modules"] = module_sets[(i // 2) % 3]
            space["psi_star_targets"] = (math.radians(psi_lo[i]), math.radians(psi_hi[i]))
            space["envelope_max_diameter"] = envelopes[i]
        else:
            module = (0.8, 1.0, 1.25)[(i // 2) % 3]
            space["modules"] = (module,)
            # Distances that place the track endpoint of the grid's middle
            # gears at 4..12 deg: those gears are feasible, most others not.
            radii = [module * z[len(z) // 2] / 2.0 for z in teeth]
            space["center_distances"] = tuple(
                sorted(
                    _center_distance(*radii, space["half_angles"][0], math.radians(psi))
                    for psi in _strata(rng, 4, 4.0, 12.0)
                )
            )
        ops.append(Op(kind, "", {"space": space, "sample_at": sample_at[i]}))
    return ops


def _center_distance(
    r_drive: float, r_switch: float, r_driven: float, phi: float, psi: float
) -> float:
    """Centre distance at which the switch meets a driven gear at track angle psi."""
    track, mesh = r_drive + r_switch, r_switch + r_driven
    c = math.cos(psi - phi)
    return track * c + math.sqrt(track * track * (c * c - 1.0) + mesh * mesh)


def _run_design(op: Op):
    plant = op.plant
    space = ss.DesignSpace(**op.params["space"])
    ranked = ss.optimize(space, ss.DesignConstraints(), plant.traversal.slip, plant.motor)
    pick = ranked[min(int(op.params["sample_at"] * len(ranked)), len(ranked) - 1)]
    layout = pick.layout
    trial = replace(
        plant,
        layout=layout,
        engagement=ss.solve_engagement(layout),
        traversal=ss.TraversalModel(ss.kinematic_carry_ratio(layout), plant.traversal.slip),
    )
    return ranked, pick, ss.run_switching_time(trial, n_trials=1, jitter=False)


def _check_design(op: Op, result) -> list[str]:
    ranked, pick, stats = result
    envelope_max = op.params["space"].get("envelope_max_diameter")
    problems = []
    for r in ranked:
        if not ss.validate_layout(r.layout).ok:
            problems.append(f"ranked design {r.layout} fails validate_layout")
        if envelope_max is not None and r.envelope > envelope_max:
            problems.append(f"ranked design envelope {r.envelope!r} mm over the bound")
    keys = [r.sort_key for r in ranked]
    if keys != sorted(keys):
        problems.append("ranking is not sorted by predicted switching time")
    for t in stats.up_ms + stats.down_ms:
        if not abs(t - pick.predicted_t_switch_ms) <= TOLERANCE_MS:
            problems.append(
                f"simulated {t!r} ms, predicted {pick.predicted_t_switch_ms!r} ms"
            )
    return problems


def _digest_design(result) -> bytes:
    ranked, pick, stats = result
    rows = [
        (
            r.layout.driving.tooth_count,
            r.layout.switch.tooth_count,
            r.layout.driven.tooth_count,
            r.layout.driving.module,
            r.layout.driven_half_angle,
            r.layout.driven_center_distance,
            r.predicted_t_switch_ms,
            r.envelope,
        )
        for r in ranked
    ]
    return repr((rows, stats.up_ms, stats.down_ms)).encode()


def _sim_s_design(op: Op, result) -> float:
    stats = result[2]
    return (sum(stats.up_ms) + sum(stats.down_ms)) / 1000.0


def designs_evaluated(op: Op) -> int:
    """Gear layouts an op evaluates: the whole space on ``design``, else one."""
    if op.kind in DESIGN_KINDS:
        return ss.DesignSpace(**op.params["space"]).size
    return 1


# --------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class _Kind:
    run: object
    check: object
    digest: object
    sim_seconds: object


KINDS = {
    "switching_time": _Kind(
        _run_switching_time, _check_switching_time, _digest_switching_time, _sim_s_switching_time
    ),
    "sweep_velocity": _Kind(_run_sweep, _check_sweep, _digest_sweep, _sim_s_sweep),
    "sweep_position": _Kind(_run_sweep, _check_sweep, _digest_sweep, _sim_s_sweep),
    "simulate": _Kind(_run_simulate, _check_simulate, _digest_simulate, _sim_s_simulate),
    "optimize_psi": _Kind(_run_design, _check_design, _digest_design, _sim_s_design),
    "optimize_distance": _Kind(_run_design, _check_design, _digest_design, _sim_s_design),
}


def prepare(ops: list[Op], workdir: str) -> None:
    """Set-up: parse and build every config; write the files CLI ops read."""
    for i, op in enumerate(ops):
        op.plant = ss.parse_config(op.config_text).plant()
        if op.kind == "simulate":
            base = os.path.join(workdir, f"op{i:03d}")
            op.files = {
                "config": base + ".cfg",
                "out": base + "_trace.csv",
                "events": base + "_events.csv",
            }
            with open(op.files["config"], "w", encoding="utf-8") as fh:
                fh.write(op.config_text)


def run(op: Op):
    return KINDS[op.kind].run(op)


def check(op: Op, result) -> list[str]:
    """Oracle problems of one op's result; empty when it is correct."""
    return KINDS[op.kind].check(op, result)


def digest(op: Op, result) -> str:
    return hashlib.sha256(KINDS[op.kind].digest(result)).hexdigest()


def sim_seconds(op: Op, result) -> float:
    """Simulated seconds the op advanced."""
    return KINDS[op.kind].sim_seconds(op, result)
