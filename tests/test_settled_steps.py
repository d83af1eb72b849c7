"""A settled step reuses the previous state, and its CSV row the previous cells.

The reference is the same run with the plant core ``_advance`` never told
that a step is settled, so it recomputes every state. The fast run must equal it bit for
bit: every row, the CSV bytes and the event log. The CSV must also equal a
formatter that reprs every cell of every row. ``0.0`` and ``-0.0`` count as
different values throughout.
"""

import math
import random
from dataclasses import replace

import pytest

from switchsim import (
    CurvedPath,
    DisturbancePulses,
    InjectDisturbance,
    LinearPath,
    MoveMotorTo,
    SetVelocity,
    Side,
    SimState,
    Simulator,
    SwitchMode,
    SwitchSimError,
    SwitchState,
    TabulatedPath,
    Trace,
    Wait,
    step_switch,
)
from switchsim import plant as plant_module
from switchsim.experiments import motor_travel_per_traversal
from switchsim.plant import DISTURBANCE_TARGETS, _advance, initial_state, step_plant
from test_golden_trace import golden_run, mixed_run

PATHS = {
    "linear": (LinearPath(300.0, 25.0), LinearPath(310.0, 27.0)),
    "curved": (CurvedPath(300.0, 25.0, 5.0), CurvedPath(305.0, 22.0, 6.0)),
    "tabulated": (
        TabulatedPath(((-math.pi / 2, 340.0), (0.0, 300.0), (math.pi / 2, 260.0))),
        TabulatedPath(((-math.pi / 2, 338.0), (-0.3, 309.0), (0.4, 290.0), (math.pi / 2, 262.0))),
    ),
}


def bits(value):
    """``value`` with every float replaced by its hex form, which keeps its sign."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(item) for item in value)
    if isinstance(value, list):
        return [bits(item) for item in value]
    return value


def first_difference(fast, ref):
    """The first index at which the sequences differ bit for bit, with both items; else None.

    Kept short on failure: a diff of two whole traces takes minutes to render.
    """
    for i, (a, b) in enumerate(zip(bits(fast), bits(ref))):
        if a != b:
            return i, a, b
    return None if len(fast) == len(ref) else ("lengths", len(fast), len(ref))


def disturbed_script(rng: random.Random, travel: float, target: str, magnitude: float):
    """Wind plus, park mid-traversal, cross to minus and wind it, creep back; pulses throughout."""
    up = rng.uniform(60.0, 180.0)
    park = up - rng.uniform(0.3, 0.7) * travel
    down = up - travel - rng.uniform(30.0, 150.0)
    width = rng.uniform(0.005, 0.05)
    return [
        InjectDisturbance(DisturbancePulses(target, magnitude, width)),
        MoveMotorTo(up),
        Wait(rng.uniform(0.02, 0.2)),
        MoveMotorTo(park),
        Wait(rng.uniform(0.02, 0.2)),
        MoveMotorTo(down),
        SetVelocity(rng.uniform(100.0, 720.0)),
        Wait(rng.uniform(0.01, 0.1)),
        SetVelocity(0.0),
        Wait(rng.uniform(0.02, 0.2)),
        InjectDisturbance(None),
        Wait(rng.uniform(0.01, 0.1)),
    ]


def run(plant, script):
    """The recorded simulator after ``script``, and the error that ended it, if any."""
    sim = Simulator(plant)
    try:
        for command in script:
            sim.execute(command)
    except SwitchSimError as exc:
        return sim, (type(exc), str(exc))
    return sim, None


def recomputing(state, config, t, motor_delta, stepped, disturbances, settled, lengths):
    """The plant core ``_advance``, which every step reaches, never told that a
    step is settled, nor given the lengths at the old joint angle."""
    return _advance(state, config, t, motor_delta, stepped, disturbances, False, None)


def reference_run(monkeypatch, plant, script):
    """``run`` with every step recomputed (``recomputing``)."""
    with monkeypatch.context() as patch:
        patch.setattr(plant_module, "_advance", recomputing)
        return run(plant, script)


def shared_rows(rows):
    """Rows whose joint, payouts and tensions are the previous row's objects."""
    return sum(
        all(a is b for a, b in zip(row[3:], last[3:])) for last, row in zip(rows, rows[1:])
    )


@pytest.mark.parametrize("magnitude", [0.0, -0.0, 5.0], ids=["0.0", "-0.0", "5.0"])
@pytest.mark.parametrize("target", DISTURBANCE_TARGETS)
@pytest.mark.parametrize("kind", PATHS)
def test_settled_steps_equal_the_recomputed_run(monkeypatch, ref_plant, kind, target, magnitude):
    path_plus, path_minus = PATHS[kind]
    plant = replace(ref_plant, path_plus=path_plus, path_minus=path_minus)
    travel = motor_travel_per_traversal(plant)
    for seed in range(3):
        script = disturbed_script(random.Random(seed), travel, target, magnitude)
        fast, fast_error = run(plant, script)
        ref, ref_error = reference_run(monkeypatch, plant, script)
        assert fast_error == ref_error
        assert first_difference(fast.trace.rows, ref.trace.rows) is None
        assert first_difference(fast.trace.events, ref.trace.events) is None
        csv = fast.trace.to_csv(), ref.trace.to_csv()
        assert first_difference(*(text.split("\n") for text in csv)) is None
        assert first_difference(csv[0].split("\n"), naive_csv(fast.trace.rows).split("\n")) is None
        assert fast.trace.events_to_csv() == ref.trace.events_to_csv()
        assert shared_rows(fast.trace.rows) > 0 == shared_rows(ref.trace.rows)


def naive_csv(rows) -> str:
    lines = [",".join(plant_module.TRACE_COLUMNS)]
    for t, motor, switch, joint, pay_plus, pay_minus, ten_plus, ten_minus in rows:
        lines.append(
            f"{t!r},{motor!r},{math.degrees(switch.psi)!r},{switch.mode.value},"
            f"{math.degrees(joint)!r},{pay_plus!r},{pay_minus!r},{ten_plus!r},{ten_minus!r}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("run", [golden_run, mixed_run], ids=["golden", "mixed"])
def test_golden_csv_equals_the_formatter_without_reuse(run):
    trace = run()
    assert first_difference(trace.to_csv().split("\n"), naive_csv(trace.rows).split("\n")) is None
    motors = [row.motor_angle for row in trace.rows]
    assert any(a is b for a, b in zip(motors, motors[1:]))


def test_csv_reuses_cells_only_for_the_same_objects():
    # Each field is the previous row's object, or a new float of the other
    # sign: 0.0 and -0.0 alternate, equal under ==, so a cell reused on ==
    # would show.
    rng = random.Random(0)
    rows = [SimState(0.0, 0.0, SwitchState.neutral(0.0), 0.0, 0.0, 0.0, 1.0, 1.0)]
    modes = [SwitchMode.NEUTRAL, SwitchMode.TRAVERSING, SwitchMode.ENGAGED_PLUS]
    for k in range(1, 400):
        last = rows[-1]
        motor, *fields = [value if rng.random() < 0.5 else -value for value in last[1:2] + last[3:]]
        switch = last.switch
        if rng.random() < 0.5:
            switch = SwitchState(rng.choice(modes), -switch.psi)
        rows.append(SimState(k * 1e-3, motor, switch, *fields))
    trace = Trace(rows=rows, events=[])
    csv = trace.to_csv()
    assert first_difference(csv.split("\n"), naive_csv(rows).split("\n")) is None
    assert shared_rows(rows) > 0 and "-0.0" in csv


@pytest.mark.parametrize("settled", [False, True])
@pytest.mark.parametrize("engaged", [Side.PLUS, None], ids=["engaged", "neutral"])
def test_a_still_motor_keeps_its_angle_object_unless_it_is_negative_zero(ref_plant, settled, engaged):
    # step_plant recomputes; a settled step is the core's, on the pair that made rest.
    rest = initial_state(ref_plant, engaged)
    for angle in (-0.0, 0.0, 37.5, -1e-300):
        state = rest._replace(motor_angle=angle)
        for delta in (0.0, -0.0):
            if settled:
                stepped = step_switch(
                    state.switch, ref_plant.traversal, ref_plant.engagement, math.radians(delta)
                )
                new = _advance(state, ref_plant, 1e-3, delta, stepped, (0.0, 0.0), True, None)[0]
            else:
                new, _ = step_plant(state, ref_plant, 1e-3, motor_delta=delta)
            assert new.motor_angle.hex() == (angle + delta).hex()  # -0.0 + 0.0 is 0.0
            assert new.motor_angle is angle or angle == 0.0


class CountingPath:
    """A cable path that counts its ``length`` evaluations."""

    def __init__(self, path):
        self.path = path
        self.lengths = 0

    def length(self, x):
        self.lengths += 1
        return self.path.length(x)

    def inverse(self, target):
        return self.path.inverse(target)


def test_a_settled_step_evaluates_no_path_length(monkeypatch, ref_plant):
    # A step settles when its disturbance pair is the previous step's, bit
    # for bit, and no spool can turn: the switch is not engaged after it, or
    # the motor stands still. Such a step must evaluate no path length.
    counting = CountingPath(ref_plant.path_plus), CountingPath(ref_plant.path_minus)
    plant = replace(ref_plant, path_plus=counting[0], path_minus=counting[1])
    travel = motor_travel_per_traversal(plant)
    script = disturbed_script(random.Random(1), travel, "disengaged", 5.0)
    steps = []
    advance = plant_module._advance

    def observed(state, config, t, motor_delta, stepped, disturbances, settled, lengths):
        before = sum(path.lengths for path in counting)
        out = advance(state, config, t, motor_delta, stepped, disturbances, settled, lengths)
        evaluated = sum(path.lengths for path in counting) - before
        still = out[0].switch.engaged_side is None or motor_delta == 0.0
        steps.append((disturbances, still, evaluated))
        return out

    monkeypatch.setattr(plant_module, "_advance", observed)
    _, error = run(plant, script)
    assert error is None
    settled = [
        lengths
        for (last, _, _), (pair, still, lengths) in zip(steps, steps[1:])
        if still and bits(pair) == bits(last)
    ]
    assert len(settled) > 100
    assert settled == [0] * len(settled)
    assert max(lengths for *_, lengths in steps) > 0
