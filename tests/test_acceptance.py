"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import csv
import io
import math
import random
import time
from dataclasses import replace

import pytest

from switchsim import (
    DesignConstraints,
    DesignSpace,
    DisturbancePulses,
    InjectDisturbance,
    InvalidDesign,
    MoveMotorTo,
    Side,
    SwitchState,
    TraversalModel,
    evaluate_design,
    kinematic_carry_ratio,
    motor_travel_per_traversal,
    optimize,
    run_independence,
    run_script,
    run_speed_sweep,
    run_switching_time,
    solve_engagement,
    step_plant,
    step_switch,
)
from switchsim.cli import main
from switchsim.experiments import full_rom_script
from switchsim.optimizer import enumerate_layouts
from switchsim.plant import initial_state
from switchsim.switching import EventKind

from conftest import random_valid_layout
from test_geometry import brute_force_psi_star


def report(criterion: int, description: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {verdict}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def test_criterion_1_switching_time_reproduction(capsys, tmp_path):
    out = tmp_path / "stats.csv"
    t0 = time.perf_counter()
    code = main(["switching-time", "--trials", "10", "--no-jitter", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    row = next(csv.DictReader(io.StringIO(out.read_text())))
    mean_up = float(row["mean_up_ms"])
    mean_down = float(row["mean_down_ms"])
    sigma_up = float(row["sigma_up_ms"])
    sigma_down = float(row["sigma_down_ms"])
    ok = (
        code == 0
        and 298.0 <= mean_up <= 302.0
        and 298.0 <= mean_down <= 302.0
        and sigma_up == 0.0
        and sigma_down == 0.0
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            1,
            f"switching-time means {mean_up}/{mean_down} ms in [298, 302], "
            f"sigma {sigma_up}/{sigma_down}, runtime {elapsed:.3f} s < 1 s",
            ok,
        )


def test_criterion_2_kinematic_floor(capsys, ref_plant):
    plant = replace(ref_plant, motor=replace(ref_plant.motor, profile_accel=math.inf))
    stats = run_switching_time(plant, n_trials=1, jitter=False)
    floor = stats.mean_up_ms
    ok = abs(floor - 170.3) <= 0.1 and floor < 298.0
    with capsys.disabled():
        report(
            2,
            f"instant-accel switching time {floor} ms within 170.3 +/- 0.1 ms "
            f"and strictly below the measured 298 ms",
            ok,
        )


def test_criterion_3_traversal_ratio(capsys, ref_plant):
    travel = motor_travel_per_traversal(ref_plant)
    state = SwitchState.engaged(Side.PLUS, ref_plant.engagement)
    new, events = step_switch(
        state,
        ref_plant.traversal,
        ref_plant.engagement,
        math.radians(-travel),
    )
    psi_sweep_deg = math.degrees(state.psi - new.psi)
    spool_events = [e for e in events if e.kind is EventKind.SPOOL_DRIVEN]
    ok = (
        abs(travel - 122.6) <= 0.01
        and new.mode.value == "engaged-"
        and not spool_events  # the full 122.6 deg went into traversal
        and abs(psi_sweep_deg - 19.8) < 1e-9
    )
    with capsys.disabled():
        report(
            3,
            f"one traversal consumes {travel:.6f} deg of motor rotation "
            f"(122.6 +/- 0.01) while psi sweeps {psi_sweep_deg:.12f} deg (= 19.8)",
            ok,
        )


def test_criterion_4_independence(capsys, ref_plant):
    t0 = time.perf_counter()
    protocol = run_independence(ref_plant, magnitude=5.0, target="disengaged")
    control = run_independence(ref_plant, magnitude=5.0, target="engaged")
    elapsed = time.perf_counter() - t0
    rom = [math.degrees(a) for a in protocol.rom_covered]
    ok = (
        protocol.max_engaged_deviation == 0.0
        and control.max_engaged_deviation > 0.0
        and rom[0] == pytest.approx(-90.0, abs=1e-6)
        and rom[1] == pytest.approx(90.0, abs=1e-6)
        and elapsed < 5.0
    )
    with capsys.disabled():
        report(
            4,
            f"engaged-payout deviation {protocol.max_engaged_deviation} mm (exactly 0) "
            f"over RoM [{rom[0]:.2f}, {rom[1]:.2f}] deg; negative control "
            f"{control.max_engaged_deviation:.3f} mm > 0; runtime {elapsed:.2f} s < 5 s",
            ok,
        )


def test_criterion_5_speed_sweep(capsys, ref_plant):
    omegas = [180.0, 270.0, 360.0, 450.0, 540.0, 630.0, 720.0]
    curve = run_speed_sweep(ref_plant, omegas)
    times = [p.t_switch_ms for p in curve.points]
    decreasing = all(b < a for a, b in zip(times, times[1:]))
    a_fit = curve.fit_travel_deg
    ok = decreasing and abs(a_fit - 122.6) / 122.6 <= 0.01
    with capsys.disabled():
        report(
            5,
            f"switching time strictly decreasing over {omegas[0]:.0f}..{omegas[-1]:.0f} deg/s; "
            f"fitted travel {a_fit:.4f} deg within 1% of 122.6",
            ok,
        )


def test_criterion_6_geometry_oracle(capsys):
    rng = random.Random(0xA5A5)
    failures = 0
    worst = 0.0
    for _ in range(1000):
        layout = random_valid_layout(rng)
        expected = brute_force_psi_star(layout)
        got = solve_engagement(layout).psi_star
        err = abs(got - expected)
        worst = max(worst, err)
        if err >= 1e-5:
            failures += 1
    ok = failures == 0
    with capsys.disabled():
        report(
            6,
            f"1000 random layouts vs brute-force scan: {failures} failures, "
            f"worst |psi* error| {worst:.2e} rad < 1e-5",
            ok,
        )


def test_criterion_7_optimizer_soundness(capsys, ref_plant):
    t0 = time.perf_counter()
    space = DesignSpace(
        drive_teeth=tuple(range(16, 25)),
        switch_teeth=tuple(range(8, 16)),
        driven_teeth=tuple(range(12, 26)),
        modules=(0.8, 1.0),
        half_angles=tuple(math.radians(v) for v in (20.0, 25.0, 30.0)),
        psi_star_targets=(math.radians(6.0), math.radians(10.0)),
        envelope_max_diameter=95.0,
    )
    assert 10_000 <= space.size <= 20_000
    slip = ref_plant.traversal.slip
    motor = ref_plant.motor
    ranked = optimize(space, DesignConstraints(), slip, motor)

    # Independent exhaustive re-scan.
    rescan = []
    for layout in enumerate_layouts(space):
        try:
            result = evaluate_design(layout, slip, motor)
        except InvalidDesign:
            continue
        if result.envelope > 95.0:
            continue
        rescan.append(result)
    rescan.sort(key=lambda r: r.sort_key)
    permutation_exact = (
        [r.layout for r in ranked] == [r.layout for r in rescan]
        and 0 < len(ranked) < space.size  # the envelope bound must filter something
    )

    # Model vs full plant simulation on a 100-design sample.
    stride = max(1, len(ranked) // 100)
    sample = ranked[::stride][:100]
    worst_gap = 0.0
    for result in sample:
        plant = replace(
            ref_plant,
            layout=result.layout,
            engagement=solve_engagement(result.layout),
            traversal=TraversalModel(kinematic_carry_ratio(result.layout), slip),
            motor=motor,
        )
        stats = run_switching_time(plant, n_trials=1, jitter=False)
        worst_gap = max(worst_gap, abs(stats.mean_up_ms - result.predicted_t_switch_ms))
    elapsed = time.perf_counter() - t0
    ok = permutation_exact and worst_gap < 1.0 and elapsed < 60.0 and len(sample) == 100
    with capsys.disabled():
        report(
            7,
            f"{space.size}-design space: ranking permutation-exact vs re-scan "
            f"({len(ranked)} feasible); model-vs-simulation worst gap "
            f"{worst_gap:.4f} ms < 1 ms on {len(sample)} designs; "
            f"runtime {elapsed:.1f} s < 60 s",
            ok,
        )


def test_criterion_8_neutral_transparency(capsys, ref_plant):
    state = initial_state(ref_plant, engaged=None)
    joint0 = state.joint_angle
    plus0 = state.payout_plus
    minus0 = state.payout_minus
    deviations = 0
    delta = 0.05
    for i in range(1_000_000):
        state, _ = step_plant(
            state, ref_plant, (i + 1) * ref_plant.dt, motor_delta=delta if i % 2 == 0 else -delta
        )
        if (
            state.joint_angle != joint0
            or state.payout_plus != plus0
            or state.payout_minus != minus0
        ):
            deviations += 1
    ok = deviations == 0
    with capsys.disabled():
        report(
            8,
            f"1e6 motor steps from neutral: {deviations} steps with any change "
            f"in joint angle or payouts (joint stayed {state.joint_angle}, "
            f"payouts {state.payout_plus}/{state.payout_minus} mm)",
            ok,
        )


def test_criterion_9_global_invariants(capsys, ref_plant, ref_engagement):
    # Tension positivity on the acceptance scripts.
    rom = full_rom_script(ref_plant)
    disturbed = [InjectDisturbance(DisturbancePulses(magnitude=5.0)), *rom]
    travel = motor_travel_per_traversal(ref_plant)
    switching = [MoveMotorTo(travel), MoveMotorTo(0.0)] * 3
    traces = [
        run_script(ref_plant, rom),
        run_script(ref_plant, disturbed),
        run_script(ref_plant, switching, engaged=Side.MINUS),
    ]
    tensions_ok = all(
        row.tension_plus > 0.0 and row.tension_minus > 0.0
        for trace in traces
        for row in trace.rows
    )

    # Bit-identical traces across repeated runs with fixed seeds.
    again = run_script(ref_plant, disturbed)
    identical = (
        again.to_csv() == traces[1].to_csv()
        and again.events_to_csv() == traces[1].events_to_csv()
    )

    # Step composability under random splits.
    rng = random.Random(99)
    model = ref_plant.traversal
    composable = True
    for _ in range(300):
        delta = math.radians(rng.uniform(-260.0, 260.0))
        side = Side.PLUS if rng.random() < 0.5 else Side.MINUS
        start = SwitchState.engaged(side, ref_engagement)
        whole, whole_events = step_switch(start, model, ref_engagement, delta)
        state = start
        split_events = []
        parts = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 8))]
        total = sum(parts)
        for part in parts:
            state, evs = step_switch(state, model, ref_engagement, delta * part / total)
            split_events.extend(evs)
        kinds = lambda evs: [
            (e.kind, e.side) for e in evs if e.kind is not EventKind.SPOOL_DRIVEN
        ]
        if (
            state.mode is not whole.mode
            or abs(state.psi - whole.psi) > 1e-12
            or kinds(split_events) != kinds(whole_events)
        ):
            composable = False
            break

    ok = tensions_ok and identical and composable
    with capsys.disabled():
        report(
            9,
            f"tension positivity on all acceptance scripts: {tensions_ok}; "
            f"bit-identical seeded reruns: {identical}; "
            f"switch-step composability over 300 random splits: {composable}",
            ok,
        )
