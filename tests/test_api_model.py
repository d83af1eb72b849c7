"""A stateful model of the Python API: a recorded and a leaped run agree.

One Hypothesis state machine drives a recorded ``Simulator`` (every grid
step) and an unrecorded one (closed-form leaps) with the same commands, over
values that include zero, negative zero, subnormals, huge numbers, inf and
NaN. After each command either both simulators refused it with the same
error type, and the run stops, or both accepted it and agree: the same grid
step, state within 1e-12, event kinds and sides exactly, tensions finite
and positive and the joint within +/-90 deg. Only ``SwitchSimError`` and
``ValueError`` may escape a command.

A simulator reuses only the state it made. So one rule puts a state that
neither made into both: the recorded state with its payouts recomputed
under a disturbance pair, as ``step_plant`` gives it. The next step of each
must then be ``step_plant``'s from that state, bit for bit.

The stepped run sums one increment per step where the leap adds once, so
their roundoff grows with the magnitudes the run passed through: after a
move to -332 deg and back, the motor angles differ by 1e-12 deg. Each
quantity is compared within 1e-12 of the largest magnitude it has reached,
and at least 1e-12.
"""

import copy
import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from switchsim import Config, DisturbancePulses, Side, Simulator, SwitchSimError
from switchsim.plant import DISTURBANCE_TARGETS, _pulse_pair, step_plant
from test_settled_steps import bits

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan)

# Accepted finite durations stay at most 0.5 s and angles about +/-1000 deg,
# so a recorded run takes at most a few thousand steps per command.
durations = st.sampled_from(EXTREMES + (-1.0, 1e-15, 0.0009)) | st.floats(0.0, 0.5)
angles = st.sampled_from(EXTREMES) | st.floats(-1000.0, 1000.0)
rates = st.sampled_from(EXTREMES + (721.0,)) | st.floats(-720.0, 720.0)
sides = st.sampled_from([Side.PLUS, Side.MINUS])
magnitudes = st.sampled_from(EXTREMES) | st.floats(0.0, 20.0)
widths = st.sampled_from(EXTREMES) | st.floats(1e-3, 0.3)
disturbances = st.sampled_from(EXTREMES) | st.floats(-20.0, 20.0)


class SimulatorModel(RuleBasedStateMachine):
    @initialize(engaged=st.sampled_from([Side.PLUS, Side.MINUS, None]))
    def start(self, engaged):
        plant = Config().plant()
        self.sims = [Simulator(plant, engaged, record=record) for record in (True, False)]
        self.refused = False
        self.scale = {}  # per state field: the largest magnitude reached, at least 1

    def _command(self, command) -> None:
        """Run ``command(sim)`` on both simulators; both accept it or both refuse it."""
        if self.refused:
            return
        errors = []
        for sim in self.sims:
            try:
                command(sim)
            except (SwitchSimError, ValueError) as exc:
                errors.append(type(exc))
            else:
                errors.append(None)
        assert errors[0] is errors[1], errors
        self.refused = errors[0] is not None

    @rule(angle=angles)
    def move_motor_to(self, angle):
        self._command(lambda sim: sim.move_motor_to(angle))

    @rule(rate=rates)
    def set_velocity(self, rate):
        self._command(lambda sim: sim.set_velocity(rate))

    @rule(duration=durations)
    def wait(self, duration):
        self._command(lambda sim: sim.wait(duration))

    @rule(side=sides, timeout=durations)
    def run_until_engaged(self, side, timeout):
        self._command(lambda sim: sim.run_until_engaged(side, timeout))

    @rule(
        cable=st.sampled_from(DISTURBANCE_TARGETS) | st.none(),
        magnitude=magnitudes,
        width=widths,
    )
    def inject(self, cable, magnitude, width):
        def command(sim):
            profile = None if cable is None else DisturbancePulses(cable, magnitude, width)
            sim.inject(profile)

        self._command(command)

    @rule(plus=disturbances, minus=disturbances)
    def replace_state(self, plus, minus):
        if self.refused:
            return
        recorded = self.sims[0]
        plant, state = recorded.config, recorded.state
        try:
            stepped, _ = step_plant(state, plant, state.t + plant.dt, 0.0, plus, minus)
        except SwitchSimError:
            return  # the pair leaves a tension that is not positive and finite
        foreign = stepped._replace(t=state.t)
        for sim in self.sims:
            sim.state = foreign
        # The next step's motor delta and pair, as the simulator makes them.
        pulses = copy.deepcopy(recorded._pulses)
        signal = pulses.step(plant.dt) if pulses is not None else 0.0
        switch = recorded.state.switch
        pair = _pulse_pair(pulses.profile.target, signal, switch.mode.sign) if signal else (0.0, 0.0)
        delta = recorded._velocity * plant.dt
        self._command(lambda sim: sim.wait(plant.dt))
        try:
            want, _ = step_plant(foreign, plant, state.t + plant.dt, delta, *pair)
        except (SwitchSimError, ValueError) as exc:
            assert self.refused, exc
            return
        assert not self.refused
        for sim in self.sims:
            assert bits(tuple(sim.state)[1:]) == bits(tuple(want)[1:]), (sim.state, want)

    @invariant()
    def runs_agree(self):
        if self.refused:
            return
        recorded, leaped = self.sims
        assert recorded.t == leaped.t
        a, b = recorded.state, leaped.state
        assert a.switch.mode is b.switch.mode
        pairs = {"psi": (a.switch.psi, b.switch.psi)}
        for name in a._fields:
            if name not in ("t", "switch"):
                pairs[name] = getattr(a, name), getattr(b, name)
        for name, (x, y) in pairs.items():
            self.scale[name] = max(self.scale.get(name, 1.0), abs(x), abs(y))
            assert abs(x - y) <= 1e-12 * self.scale[name], (name, a, b)
        kinds = [[(e.kind, e.side) for e in sim.trace.events] for sim in self.sims]
        assert kinds[0] == kinds[1]
        for state in (a, b):
            assert 0.0 < state.tension_plus < math.inf
            assert 0.0 < state.tension_minus < math.inf
            assert abs(state.joint_angle) <= math.pi / 2


TestSimulatorModel = SimulatorModel.TestCase
TestSimulatorModel.settings = settings(max_examples=200, stateful_step_count=15, deadline=None)


@pytest.mark.xfail(
    strict=True,
    reason="the recorded run's per-step motor sums bring the switch within PSI_SNAP of "
    "-psi* with 6.9e-8 deg of the move left, and that residual motor rotation winds the "
    "minus spool: the joint ends at -4.0e-10 rad where the leaped run ends at 0.0",
)
def test_a_move_back_to_the_engaged_side_leaves_both_runs_at_rest():
    # A case the state machine above draws only by chance.
    plant = Config().plant()
    sims = [Simulator(plant, Side.MINUS, record=record) for record in (True, False)]
    for sim in sims:
        sim.move_motor_to(8.966796875)
        sim.move_motor_to(0.0)
    recorded, leaped = sims
    assert recorded.state.switch == leaped.state.switch
    assert abs(recorded.state.joint_angle - leaped.state.joint_angle) <= 1e-12
