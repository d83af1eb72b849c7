"""Golden-file lock on the trace/event CSV format and numerics, and on the
optimizer's ranking.

Two recorded runs are pinned, each as a trace and an events file:

- ``golden_trace.csv`` / ``golden_events.csv``: the reference rig, one
  velocity-mode switch from MINUS to PLUS.
- ``golden_trace_mixed.csv`` / ``golden_events_mixed.csv``: a curved
  agonist and a tabulated antagonist; a ``move_to`` trapezoid move, a park
  in the neutral band and a ``set_velocity`` move. No disturbance.

``golden_ranking.txt`` pins ``optimize`` on a psi*-target space and on a
centre-distance space that rejects some layouts; each row is the ``repr`` of
(teeth, module, phi_d, D, predicted ms, envelope).

Regenerate all of them after an intentional model or format change with:

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import math
from pathlib import Path

from switchsim import (
    Config,
    DesignConstraints,
    DesignSpace,
    MoveMotorTo,
    PathSpec,
    SetVelocity,
    Side,
    Wait,
    optimize,
    run_script,
)

DATA = Path(__file__).parent / "data"

MIXED_PATHS = Config(
    agonist=PathSpec(kind="curved", moment_arm=22.0, bow=-4.0),
    antagonist=PathSpec(
        kind="tabulated",
        knots=((-90.0, 340.0), (-45.0, 321.5), (0.0, 300.0), (45.0, 277.0), (90.0, 258.0)),
    ),
)

RANKING_GRID = dict(
    drive_teeth=(16, 20, 24),
    switch_teeth=(12, 16),
    driven_teeth=(18, 22),
    modules=(1.0,),
    half_angles=(math.radians(25.0), math.radians(35.0)),
)


def golden_run():
    plant = Config().plant()
    return run_script(
        plant,
        [SetVelocity(720.0), Wait(0.18), SetVelocity(0.0), Wait(0.02)],
        engaged=Side.MINUS,
    )


def mixed_run():
    script = [
        MoveMotorTo(-200.0),   # to MINUS, then winds the tabulated cable
        MoveMotorTo(-138.7),   # back to mid-track
        Wait(0.05),            # halted inside the band: parks NEUTRAL
        SetVelocity(540.0),    # to PLUS, then winds the curved cable
        Wait(0.35),
        SetVelocity(0.0),
        Wait(0.02),
    ]
    return run_script(MIXED_PATHS.plant(), script, engaged=Side.PLUS)


def ranking_text() -> str:
    plant = Config().plant()
    spaces = (
        ("psi_star_targets", DesignSpace(
            **RANKING_GRID, psi_star_targets=(math.radians(8.0), math.radians(9.9))
        )),
        ("center_distances", DesignSpace(**RANKING_GRID, center_distances=(30.0, 33.0, 36.0))),
    )
    lines = []
    for name, space in spaces:
        lines.append(f"# {name}")
        for r in optimize(space, DesignConstraints(), plant.traversal.slip, plant.motor):
            layout = r.layout
            teeth = (
                layout.driving.tooth_count,
                layout.switch.tooth_count,
                layout.driven.tooth_count,
            )
            lines.append(repr((
                teeth,
                layout.driving.module,
                layout.driven_half_angle,
                layout.driven_center_distance,
                r.predicted_t_switch_ms,
                r.envelope,
            )))
    return "\n".join(lines) + "\n"


def test_trace_matches_golden_file():
    assert golden_run().to_csv() == (DATA / "golden_trace.csv").read_text()


def test_events_match_golden_file():
    events = golden_run().events_to_csv()
    assert events == (DATA / "golden_events.csv").read_text()
    # The full-speed traversal engages at the constant-speed floor, well
    # inside a single 1 ms step boundary.
    assert "0.17027777777777806,engaged,side=plus" in events


def test_mixed_trace_matches_golden_file():
    trace = mixed_run()
    assert trace.to_csv() == (DATA / "golden_trace_mixed.csv").read_text()
    modes = {row.switch.mode.value for row in trace.rows}
    assert modes == {"engaged+", "engaged-", "traversing", "neutral"}


def test_mixed_events_match_golden_file():
    events = mixed_run().events_to_csv()
    assert events == (DATA / "golden_events_mixed.csv").read_text()


def test_ranking_matches_golden_file():
    text = ranking_text()
    assert text == (DATA / "golden_ranking.txt").read_text()
    # The centre-distance grid rejects some of its 72 layouts.
    assert 0 < text.split("# center_distances\n")[1].count("\n") < 72


if __name__ == "__main__":
    for name, text in (
        ("golden_trace.csv", golden_run().to_csv()),
        ("golden_events.csv", golden_run().events_to_csv()),
        ("golden_trace_mixed.csv", mixed_run().to_csv()),
        ("golden_events_mixed.csv", mixed_run().events_to_csv()),
        ("golden_ranking.txt", ranking_text()),
    ):
        (DATA / name).write_text(text, newline="")
