"""The records built once per plant step or per design candidate are immutable:
setting a field, or adding an attribute, raises ``AttributeError``."""

import math

import pytest

from switchsim import (
    Config,
    DesignConstraints,
    DesignSpace,
    MechanismLayout,
    SetVelocity,
    Side,
    Wait,
    optimize,
    run_script,
    validate_layout,
)
from switchsim.geometry import GearSpec
from switchsim.switching import step_switch


def records():
    plant = Config().plant()
    trace = run_script(plant, [SetVelocity(720.0), Wait(0.18)], engaged=Side.MINUS)
    state = trace.rows[-1]
    _, events, _ = step_switch(
        trace.rows[0].switch, plant.traversal, plant.engagement, math.radians(1.0)
    )
    gear = GearSpec(20, 1.0)
    bad = validate_layout(MechanismLayout(gear, gear, gear, 0.0, 0.4))
    space = DesignSpace(
        drive_teeth=(20,),
        switch_teeth=(16,),
        driven_teeth=(20,),
        modules=(1.0,),
        half_angles=(math.radians(25.0),),
        psi_star_targets=(math.radians(9.9),),
    )
    (result,) = optimize(space, DesignConstraints(), plant.traversal.slip, plant.motor)
    return {
        "SimState": state,
        "SwitchState": state.switch,
        "TimedEvent": trace.events[0],
        "Event": events[0],
        "MechanismLayout": plant.layout,
        "EngagementSolution": plant.engagement,
        "ValidationReport": bad,
        "Violation": bad.violations[0],
        "DesignResult": result,
    }


RECORDS = records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0.0
