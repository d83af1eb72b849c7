"""A recorded ``Simulator`` run equals the reference run of ``reference.py``,
which steps the same script through ``step_plant`` alone: every row bit for
bit, each event's kind, side and psi exactly, and its time within 1e-12 s."""

import random
from dataclasses import replace

import pytest

from reference import reference_run
from switchsim import DisturbancePulses, InjectDisturbance, run_script
from switchsim.experiments import full_rom_script, motor_travel_per_traversal
from switchsim.plant import DISTURBANCE_TARGETS
from test_settled_steps import PATHS, bits, disturbed_script, first_difference


def assert_equals_reference(config, script):
    trace = run_script(config, script)
    rows, events = reference_run(config, script)
    assert first_difference(trace.rows, rows) is None
    assert [(e.kind, e.side, bits(e.psi)) for e in trace.events] == [
        (e.kind, e.side, bits(e.psi)) for e in events
    ]
    assert max((abs(a.t - b.t) for a, b in zip(trace.events, events)), default=0.0) <= 1e-12
    assert len(rows) > 500 and events


# (pulse target, magnitude); a magnitude of None drops the pulses from the script.
CASES = [("disengaged", None)] + [
    (target, magnitude) for target in DISTURBANCE_TARGETS for magnitude in (0.0, -0.0)
]


@pytest.mark.parametrize(
    "seed, target, magnitude",
    [(seed, *case) for seed, case in enumerate(CASES)],
    ids=["undisturbed" if m is None else f"{t}-{m}" for t, m in CASES],
)
@pytest.mark.parametrize("kind", PATHS)
def test_a_recorded_run_equals_the_reference(ref_plant, kind, seed, target, magnitude):
    config = replace(ref_plant, path_plus=PATHS[kind][0], path_minus=PATHS[kind][1])
    travel = motor_travel_per_traversal(config)
    script = disturbed_script(random.Random(seed), travel, target, magnitude or 0.0)
    if magnitude is None:
        script = [command for command in script if not isinstance(command, InjectDisturbance)]
    assert_equals_reference(config, script)


@pytest.mark.xfail(
    strict=True,
    reason="Simulator._steps gates a pulse on the switch state at the start of the step "
    "(the gating defect, ROADMAP item 1): on the step where a side engages, a pulse "
    "meant for the slack cable lands on the cable that just engaged",
)
def test_a_disturbed_full_sweep_equals_the_reference(ref_plant):
    config = replace(ref_plant, seed=2)
    script = [InjectDisturbance(DisturbancePulses("disengaged", 5.0)), *full_rom_script(config)]
    assert_equals_reference(config, script)
