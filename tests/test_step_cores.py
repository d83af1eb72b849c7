"""The unchecked stepping cores equal their checked public entries.

``step_switch`` is its checks plus ``switching._switch``, and ``step_plant``
is its checks plus ``step_switch`` and ``plant._advance``. A ``Simulator``
sends a state it did not make through ``step_plant`` once, for its next
step; every other step calls the cores on states the cores made. The cores
must give the public functions' results bit for bit, a settled step
included, and the public functions must keep every check and its wording.
"""

import math
import random
from dataclasses import replace

import pytest

from switchsim import (
    CurvedPath,
    InvalidState,
    LinearPath,
    MoveMotorTo,
    SetVelocity,
    Side,
    Simulator,
    SwitchMode,
    SwitchSimError,
    SwitchState,
    TabulatedPath,
    TraversalModel,
    Wait,
    step_switch,
)
from switchsim import plant as plant_module
from switchsim.experiments import motor_travel_per_traversal
from switchsim.plant import _advance, _state, step_plant
from switchsim.switching import _switch
from test_settled_steps import CountingPath, bits, recomputing

PATHS = {
    "linear": (LinearPath(300.0, 25.0), LinearPath(310.0, 27.0)),
    "curved": (CurvedPath(300.0, 25.0, 5.0), CurvedPath(305.0, 22.0, 6.0)),
    "tabulated": (
        TabulatedPath(((-math.pi / 2, 340.0), (0.0, 300.0), (math.pi / 2, 260.0))),
        TabulatedPath(((-math.pi / 2, 338.0), (-0.3, 309.0), (0.4, 290.0), (math.pi / 2, 262.0))),
    ),
}
MODES = tuple(SwitchMode)
DISTURBANCES = (0.0, -0.0, 5.0)


def random_switch(rng: random.Random, mode: SwitchMode, engagement) -> SwitchState:
    """A state that meets ``mode``'s invariants."""
    if mode is SwitchMode.ENGAGED_PLUS:
        return SwitchState.engaged(Side.PLUS, engagement)
    if mode is SwitchMode.ENGAGED_MINUS:
        return SwitchState.engaged(Side.MINUS, engagement)
    if mode is SwitchMode.NEUTRAL:
        w = engagement.neutral_half_width
        return SwitchState.neutral(rng.uniform(-w, w))
    return SwitchState(mode, rng.uniform(-engagement.psi_star, engagement.psi_star))


def random_deltas(rng: random.Random, travel: float) -> list[float]:
    """Motor deltas (deg) of both signs: zero, small, within a traversal and past it."""
    deltas = [0.0, -0.0]
    for scale in (0.01, 0.3 * travel, 1.2 * travel):
        magnitude = rng.uniform(0.0, scale)
        deltas += [magnitude, -magnitude]
    return deltas


def outcome(call):
    """The call's result in hex bits, or the error's type and message."""
    try:
        return bits(call())
    except SwitchSimError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", MODES, ids=[m.name for m in MODES])
def test_switch_core_equals_step_switch(ref_plant, mode, seed):
    rng = random.Random(seed)
    engagement = ref_plant.engagement
    travel = math.radians(motor_travel_per_traversal(ref_plant))
    for _ in range(25):
        model = TraversalModel(ref_plant.traversal.carry_ratio, rng.uniform(0.0, 0.5))
        state = random_switch(rng, mode, engagement)
        ratio = rng.uniform(0.5, 2.0)
        for delta in random_deltas(rng, travel / (1.0 - model.slip)):
            public = step_switch(state, model, engagement, delta, ratio)
            core = _switch(state, engagement, model.effective_ratio, delta, ratio)
            assert bits(core) == bits(public), (state, delta)


@pytest.mark.parametrize("disturbance", DISTURBANCES, ids=["0.0", "-0.0", "5.0"])
@pytest.mark.parametrize("mode", MODES, ids=[m.name for m in MODES])
@pytest.mark.parametrize("kind", PATHS)
def test_plant_core_equals_step_plant(ref_plant, kind, mode, disturbance):
    plant = replace(ref_plant, path_plus=PATHS[kind][0], path_minus=PATHS[kind][1])
    engagement = plant.engagement
    k_eff, ratio = plant.traversal.effective_ratio, plant.layout.driven_speed_ratio
    rng = random.Random(f"{kind} {mode} {disturbance}")
    travel = motor_travel_per_traversal(plant)
    for _ in range(8):
        pair = rng.choice([(disturbance, 0.0), (0.0, disturbance), (disturbance, disturbance)])
        switch = random_switch(rng, mode, engagement)
        joint = rng.uniform(-0.8, 0.8)
        motor = rng.choice([0.0, -0.0, rng.uniform(-200.0, 200.0)])
        state, lengths = _state(plant, 0.5, motor, switch, joint, pair)
        assert bits(lengths) == bits(
            (plant.path_plus.length(joint), plant.path_minus.length(-joint))
        )
        for delta in random_deltas(rng, travel):
            # step_plant recomputes; the state was made under pair, so settling is right.
            public = outcome(lambda: step_plant(state, plant, 0.501, delta, *pair))
            for settled in (False, True):
                for carried in (None, lengths):
                    stepped = _switch(switch, engagement, k_eff, math.radians(delta), ratio)

                    def core():
                        new, events, out = _advance(
                            state, plant, 0.501, delta, stepped, pair, settled, carried
                        )
                        at_new_joint = (
                            plant.path_plus.length(new.joint_angle),
                            plant.path_minus.length(-new.joint_angle),
                        )
                        assert out is carried or bits(out) == bits(at_new_joint)
                        return new, events

                    assert outcome(core) == public, (state, delta, settled, carried)


class TestPublicEntriesKeepTheirChecks:
    @pytest.mark.parametrize(
        "state, message",
        [
            (SwitchState(SwitchMode.TRAVERSING, math.nan), "psi is not finite: nan"),
            (SwitchState(SwitchMode.ENGAGED_PLUS, 0.0), r"mode engaged\+ requires psi = .*, got 0.0"),
            (SwitchState(SwitchMode.ENGAGED_MINUS, 0.0), "mode engaged- requires psi = .*, got 0.0"),
            (SwitchState(SwitchMode.TRAVERSING, 1.0), r"psi 1.0 outside the track \[-psi\*, \+psi\*\]"),
            (SwitchState(SwitchMode.NEUTRAL, 0.16), "neutral mode with psi 0.16 outside the neutral band"),
        ],
    )
    def test_invalid_state(self, ref_plant, state, message):
        with pytest.raises(InvalidState, match=f"^{message}$"):
            step_switch(state, ref_plant.traversal, ref_plant.engagement, 0.1)
        rest = plant_module.initial_state(ref_plant)._replace(switch=state)
        with pytest.raises(InvalidState, match=f"^{message}$"):
            step_plant(rest, ref_plant, 1e-3, motor_delta=1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta(self, ref_plant, delta):
        rest = plant_module.initial_state(ref_plant)
        with pytest.raises(ValueError, match=f"^motor_delta must be finite, got {delta!r}$"):
            step_switch(rest.switch, ref_plant.traversal, ref_plant.engagement, delta)
        with pytest.raises(ValueError, match=f"^motor_delta must be finite, got {delta!r}$"):
            step_plant(rest, ref_plant, 1e-3, motor_delta=delta)

    @pytest.mark.parametrize("t", [0.0, -1e-3, math.nan])
    def test_end_time_not_after_the_state(self, ref_plant, t):
        rest = plant_module.initial_state(ref_plant)
        message = f"^step end time {t!r} must be after the state time 0.0$"
        with pytest.raises(ValueError, match=message):
            step_plant(rest, ref_plant, t, motor_delta=1.0)


COMMANDS = {
    "wait": lambda sim: sim.wait(0.05),
    "move": lambda sim: sim.move_motor_to(30.0),
    "until": lambda sim: sim.run_until_engaged(Side.MINUS, 0.5),
}


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "leaped"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_replaced_invalid_state_is_refused_by_the_next_run(ref_plant, command, record):
    sim = Simulator(ref_plant, record=record)
    sim.set_velocity(-360.0)
    sim.wait(0.01)
    rows = list(sim.trace.rows)
    sim.state = sim.state._replace(switch=SwitchState(SwitchMode.ENGAGED_PLUS, 0.0))
    with pytest.raises(InvalidState, match="requires psi"):
        COMMANDS[command](sim)
    assert sim.trace.rows == rows
    assert sim.t == pytest.approx(0.01)


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "leaped"])
def test_a_replaced_state_is_recomputed_by_the_next_still_step(ref_plant, record):
    # The replacement's payout carries a disturbance that no later step of
    # the run applies: its next still step must drop it, as step_plant does.
    sim = Simulator(ref_plant, record=record)
    rest = sim.state
    sim.wait(0.01)
    sim.state, _ = step_plant(rest, ref_plant, sim.t, 0.0, disturbance_plus=5.0)
    replaced = sim.state
    assert replaced.payout_plus == 305.0
    sim.wait(0.01)
    after = sim.trace.rows[-10] if record else sim.state
    assert bits(after) == bits(step_plant(replaced, ref_plant, after.t, 0.0)[0])
    assert sim.state.payout_plus == 300.0


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "leaped"])
def test_a_run_from_a_replaced_state_equals_the_recomputed_run(monkeypatch, ref_plant, record):
    # The replacement sits at another joint angle than the state the simulator
    # made, so no length carried from that state may reach its run.
    other = Simulator(ref_plant, record=False)
    other.move_motor_to(-250.0)

    def run():
        sim = Simulator(ref_plant, record=record)
        sim.move_motor_to(90.0)
        sim.state = other.state._replace(t=sim.t)
        sim.move_motor_to(-300.0)
        return sim.trace.rows, sim.state

    fast = run()
    monkeypatch.setattr(plant_module, "_advance", recomputing)
    assert bits(fast) == bits(run())


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "leaped"])
def test_a_replaced_config_is_checked_by_the_next_run(ref_plant, record):
    sim = Simulator(ref_plant, record=record)
    sim.wait(0.01)
    engagement = ref_plant.engagement
    sim.config = replace(ref_plant, engagement=engagement._replace(psi_star=0.9 * engagement.psi_star))
    with pytest.raises(InvalidState, match="requires psi"):
        sim.wait(0.01)


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "leaped"])
def test_step_plant_is_entered_once_per_foreign_state(monkeypatch, ref_plant, record):
    # A foreign state is one the simulator did not make: its first, or one
    # put in sim.state, or any state after sim.config was replaced.
    entries, steps = [], []
    checked, advance = plant_module.step_plant, plant_module._advance

    def counted_entry(*args, **kwargs):
        entries.append(args[2])
        return checked(*args, **kwargs)

    def counted_step(*args):
        steps.append(args[2])
        return advance(*args)

    monkeypatch.setattr(plant_module, "step_plant", counted_entry)
    monkeypatch.setattr(plant_module, "_advance", counted_step)
    sim = Simulator(ref_plant, record=record)
    commands = [
        (lambda: sim.move_motor_to(-200.0), 1),  # a new simulator's state
        (lambda: sim.move_motor_to(-200.0), 0),  # already there: no step
        (lambda: sim.set_velocity(300.0), 0),
        (lambda: sim.wait(0.2), 0),
        (lambda: sim.wait(0.001), 0),  # a run of one step
        (lambda: setattr(sim, "state", sim.state), 0),  # the state it made
        (lambda: sim.wait(0.01), 0),
        (lambda: setattr(sim, "state", sim.state._replace()), 0),  # equal, but not made here
        (lambda: sim.wait(0.001), 1),
        (lambda: sim.wait(0.01), 0),
        (lambda: setattr(sim, "config", replace(sim.config)), 0),  # an equal config
        (lambda: sim.set_velocity(-360.0), 0),
        (lambda: sim.run_until_engaged(Side.MINUS, 1.0), 1),  # steps the grid either way
        (lambda: sim.wait(0.01), 0),
    ]
    for command, want in commands:
        before = len(entries)
        command()
        assert len(entries) - before == want
    assert len(steps) > len(entries) == 3
    if record:
        assert steps == [row.t for row in sim.trace.rows[1:]]


@pytest.mark.parametrize("kind", PATHS)
def test_a_driven_step_after_a_computed_one_evaluates_lengths_only_in_state(
    monkeypatch, ref_plant, kind
):
    counting = CountingPath(PATHS[kind][0]), CountingPath(PATHS[kind][1])
    plant = replace(ref_plant, path_plus=counting[0], path_minus=counting[1])
    inside = []
    state_of, advance = plant_module._state, plant_module._advance

    def observed_state(*args):
        before = sum(path.lengths for path in counting)
        out = state_of(*args)
        inside.append(sum(path.lengths for path in counting) - before)
        return out

    steps = []

    def observed_step(state, config, t, motor_delta, stepped, disturbances, settled, lengths):
        before, calls = sum(path.lengths for path in counting), len(inside)
        out = advance(state, config, t, motor_delta, stepped, disturbances, settled, lengths)
        evaluated = sum(path.lengths for path in counting) - before
        driven = stepped[2] != 0.0
        steps.append((driven, lengths is not None, evaluated, sum(inside[calls:])))
        return out

    monkeypatch.setattr(plant_module, "_state", observed_state)
    monkeypatch.setattr(plant_module, "_advance", observed_step)
    sim = Simulator(plant, engaged=Side.MINUS)
    for command in (SetVelocity(-300.0), Wait(0.05), MoveMotorTo(-60.0), MoveMotorTo(0.0)):
        sim.execute(command)
    carried = [step for step in steps if step[0] and step[1]]
    assert len(carried) > 40
    assert all(evaluated == in_state == 2 for _, _, evaluated, in_state in carried)
    first = [step for step in steps if step[0] and not step[1]]
    assert first and all(evaluated == in_state + 1 for _, _, evaluated, in_state in first)
