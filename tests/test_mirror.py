"""Mirror symmetry of the plant, exact to the bit.

On a rig whose two sides have identical paths and spools, a script run from
the minus endpoint with every motor angle and rate negated is the mirror
image of the script run from the plus endpoint: the joint, the switch angle
psi and the motor are negated, the payouts and tensions trade sides, and
every event happens at the same time, on the other side. A run that fails
fails with the same error type on both sides.
"""

import random
from dataclasses import replace

import pytest

from switchsim import (
    Config,
    MoveMotorTo,
    PathSpec,
    SetVelocity,
    Side,
    Simulator,
    SwitchMode,
    SwitchSimError,
    Wait,
)

_MIRROR_MODE = {
    SwitchMode.ENGAGED_PLUS: SwitchMode.ENGAGED_MINUS,
    SwitchMode.ENGAGED_MINUS: SwitchMode.ENGAGED_PLUS,
    SwitchMode.TRAVERSING: SwitchMode.TRAVERSING,
    SwitchMode.NEUTRAL: SwitchMode.NEUTRAL,
}
_MIRROR_SIDE = {Side.PLUS: Side.MINUS, Side.MINUS: Side.PLUS, None: None}

SCRIPTS = 100
COMMANDS = 6


def _symmetric_plant(path: PathSpec):
    """The reference rig with ``path`` on both sides (identical spools follow)."""
    return replace(Config(), agonist=path, antagonist=path).plant()


PLANTS = {
    "linear": _symmetric_plant(PathSpec(kind="linear")),
    "curved": _symmetric_plant(PathSpec(kind="curved", bow=5.0)),
}


def _script(seed: int) -> list:
    rng = random.Random(seed)
    script = []
    for _ in range(COMMANDS):
        kind = rng.choice(("move_to", "set_velocity", "wait"))
        if kind == "move_to":
            script.append(MoveMotorTo(rng.uniform(-400.0, 400.0)))
        elif kind == "set_velocity":
            script.append(SetVelocity(rng.uniform(-720.0, 720.0)))
        else:
            script.append(Wait(rng.uniform(0.001, 0.4)))
    return script


def _negated(command):
    if isinstance(command, MoveMotorTo):
        return MoveMotorTo(-command.angle)
    if isinstance(command, SetVelocity):
        return SetVelocity(-command.rate)
    return command


def _run(plant, script, engaged: Side, record: bool):
    """The simulator after ``script``, and the error type that stopped it, if any."""
    sim = Simulator(plant, engaged=engaged, record=record)
    try:
        for command in script:
            sim.execute(command)
    except (SwitchSimError, ValueError) as exc:
        return sim, type(exc)
    return sim, None


def _assert_mirrored(state, mirror):
    assert mirror.t == state.t
    assert mirror.motor_angle == -state.motor_angle
    assert mirror.switch.mode is _MIRROR_MODE[state.switch.mode]
    assert mirror.switch.psi == -state.switch.psi
    assert mirror.joint_angle == -state.joint_angle
    assert (mirror.payout_plus, mirror.payout_minus) == (state.payout_minus, state.payout_plus)
    assert (mirror.tension_plus, mirror.tension_minus) == (state.tension_minus, state.tension_plus)


@pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
@pytest.mark.parametrize("kind", PLANTS)
def test_negated_script_from_the_other_endpoint_is_the_mirror_image(kind, record):
    plant = PLANTS[kind]
    failed = 0
    for seed in range(SCRIPTS):
        script = _script(seed)
        sim, error = _run(plant, script, Side.PLUS, record)
        mirror, mirror_error = _run(plant, [_negated(c) for c in script], Side.MINUS, record)
        assert mirror_error is error, seed
        failed += error is not None
        _assert_mirrored(sim.state, mirror.state)
        assert len(mirror.trace.rows) == len(sim.trace.rows)
        for row, mirror_row in zip(sim.trace.rows, mirror.trace.rows):
            _assert_mirrored(row, mirror_row)
        assert [(e.t, e.kind, e.side, e.psi) for e in mirror.trace.events] == [
            (e.t, e.kind, _MIRROR_SIDE[e.side], -e.psi) for e in sim.trace.events
        ], seed
    assert 0 < failed < SCRIPTS  # both outcomes are covered
