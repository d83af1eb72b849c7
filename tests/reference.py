"""A reference run of a script that shares no code with ``Simulator._steps``.

It steps the grid t_k = k*dt through the public ``step_plant`` alone, which
checks and recomputes every step. Per step it takes the motor delta from the
command's ``TrapezoidalProfile`` (the position difference over the step) or
from velocity*dt, draws one ``_PulseState`` value, and gates that value on
the switch state at the step's end: a pulse lands on the cables that are
slack, or for the negative control on the engaged one, once the step is
over. Between steps it carries only the last ``SimState``, the grid index,
the active command and the pulse process.
"""

import math

from switchsim import InjectDisturbance, MoveMotorTo, SetVelocity, Side, TrapezoidalProfile, Wait
from switchsim.plant import TimedEvent, _PulseState, initial_state, step_plant, steps_to_cover
from switchsim.switching import step_switch


def gate(target: str, value: float, engaged: Side | None) -> tuple[float, float]:
    """The (plus, minus) payout that a pulse ``value`` adds with ``engaged`` engaged."""
    def hit(side: Side) -> bool:
        if target == "engaged":
            return side is engaged
        return side is not engaged and target in ("disengaged", side.value)

    return tuple(value if hit(side) else 0.0 for side in (Side.PLUS, Side.MINUS))


def reference_run(config, script, engaged=Side.PLUS):
    """The rows and timed events of ``script`` run from rest with ``engaged`` engaged."""
    dt, motor = config.dt, config.motor
    state = initial_state(config, engaged)
    rows, events = [state], []
    k, velocity, pulses, injections = 0, 0.0, None, 0

    def advance(steps, delta_at, time_at):
        nonlocal state, k
        for _ in range(steps):
            delta = delta_at(k)
            value = pulses.step(dt) if pulses is not None else 0.0
            end = step_switch(
                state.switch, config.traversal, config.engagement, math.radians(delta),
                config.layout.driven_speed_ratio,
            )[0]
            pair = (0.0, 0.0) if pulses is None else gate(pulses.profile.target, value, end.engaged_side)
            state, stepped = step_plant(state, config, (k + 1) * dt, delta, *pair)
            events.extend(
                TimedEvent(time_at(k, abs(math.degrees(e.motor_progress))), e.kind, e.side, e.psi)
                for e in stepped
            )
            rows.append(state)
            k += 1

    for command in script:
        if isinstance(command, MoveMotorTo):
            velocity, k0 = 0.0, k
            delta = command.angle - state.motor_angle
            if abs(delta) <= 1e-9 * max(1.0, abs(command.angle)):
                delta = 0.0  # a move to where the motor stands takes no step
            profile = TrapezoidalProfile.plan(delta, motor.max_output_speed, motor.profile_accel)

            def position(j, profile=profile, k0=k0):
                """Where the move stands at t_j, counted from the command time t_k0."""
                return profile.position(j * dt - k0 * dt)

            advance(
                steps_to_cover(profile.duration, dt),
                lambda j: position(j + 1) - position(j),
                lambda j, deg: k0 * dt + profile.time_at_distance(abs(position(j)) + deg),
            )
        elif isinstance(command, SetVelocity):
            velocity = command.rate
        elif isinstance(command, Wait):
            advance(
                steps_to_cover(command.duration, dt),
                lambda j: velocity * dt,
                lambda j, deg: j * dt + deg / abs(velocity),
            )
        elif isinstance(command, InjectDisturbance):
            pulses = None
            if command.profile is not None:
                injections += 1
                pulses = _PulseState(command.profile, config.seed + 7919 * injections)
    return rows, events
