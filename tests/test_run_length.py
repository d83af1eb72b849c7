"""One run-length rule: every entry point that takes a duration counts it alike.

``Simulator.wait``, ``run_script``'s ``duration``, a ``[script]`` ``wait``
and ``simulate --duration`` must each accept a duration with the same step
count, or each refuse it.
"""

import math

import pytest

from switchsim import ConfigError, Simulator, SwitchSimError, parse_config, run_script
from switchsim.cli import main
from switchsim.plant import STEP_BUDGET

DTS = (0.001, 0.01)


def _durations(dt):
    return (
        0.0, 5e-324, 1e-300, 1e-15, 0.0009, dt, 1.5 * dt, math.nan, math.inf, -1.0,
        (STEP_BUDGET + 1) * dt,
    )


def _config_text(dt, script=""):
    return f"[sim]\ndt_s = {dt!r}\n[script]\n{script}"


def _rows(trace):
    return len(trace.rows) - 1  # steps taken: the rest row is the first


def _via_wait(plant, duration):
    sim = Simulator(plant)
    sim.wait(duration)
    return _rows(sim.trace)


def _via_run_script(plant, duration):
    return _rows(run_script(plant, [], duration=duration))


def _via_script_wait(plant, duration):
    cfg = parse_config(_config_text(plant.dt, f"wait {duration!r}\n"))
    return _rows(run_script(plant, cfg.script))


def _via_cli(plant, duration, config_file, capsys):
    code = main(["--config", str(config_file), "simulate", "--duration", repr(duration)])
    out = capsys.readouterr().out
    return out.count("\n") - 2 if code == 0 else "refused"  # less the header and the rest row


@pytest.mark.parametrize("dt", DTS)
def test_every_entry_point_counts_a_duration_alike(dt, tmp_path, capsys):
    config_file = tmp_path / "sim.cfg"
    config_file.write_text(_config_text(dt))
    plant = parse_config(_config_text(dt)).plant()
    entry_points = {
        "Simulator.wait": _via_wait,
        "run_script": _via_run_script,
        "[script] wait": _via_script_wait,
        "simulate --duration": lambda p, d: _via_cli(p, d, config_file, capsys),
    }
    for duration in _durations(dt):
        outcomes = {}
        for name, run in entry_points.items():
            try:
                outcomes[name] = run(plant, duration)
            except (ConfigError, SwitchSimError, ValueError):
                outcomes[name] = "refused"
        assert len(set(outcomes.values())) == 1, (duration, outcomes)
        expected = {0.0009: 1, dt: 1, 1.5 * dt: 2}
        assert outcomes["Simulator.wait"] == expected.get(duration, "refused"), duration
