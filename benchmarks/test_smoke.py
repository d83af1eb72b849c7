"""Smoke test of the benchmark: tiny op counts, no timing assertion.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q benchmarks/test_smoke.py``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench._import_program()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# Enough ops to reach every op kind of each workload once.
TINY = {"protocols": 3, "trace": 3, "design": 2}


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = bench.measure(
                workload,
                bench.DEFAULT_SEEDS[workload],
                seconds=0,
                trace=trace,
                n_ops=TINY[workload],
                setup_runs=1,
                log=lambda *_: None,
            )
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(results, workload, trace):
    result = results(workload, trace)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
    assert result["attempted"] >= TINY[workload]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_error_rate_is_zero(results, workload):
    for trace in (False, True):
        result = results(workload, trace)
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.xfail(
    strict=True,
    reason="run_independence gates disturbances on the switch state at the start "
    "of a step, so a pulse can land on the side that engages in that step",
)
def test_independence_oracle_holds_on_every_seed():
    # The oracle the trace workload would apply to run_independence; it is
    # left out of that workload until this passes (seeds 2 and 6 fail).
    import switchsim as ss

    plant = ss.parse_config("").plant()
    deviations = [ss.run_independence(plant, seed=s).max_engaged_deviation for s in range(8)]
    assert deviations == [0.0] * 8


def test_trace_layers_seen_where_predicted(results):
    protocols = results("protocols", True)["metrics"]
    trace = results("trace", True)["metrics"]
    design = results("design", True)["metrics"]
    assert protocols["plant.rows_recorded"]["value"] == 0
    assert protocols["optimizer.optimize.calls"]["value"] == 0
    assert protocols["geometry.validate_layout.calls"]["value"] == 0
    assert trace["plant.recorded_ratio"]["value"] >= 1.0
    assert trace["paths.inverse.tabulated.calls"]["value"] > 0
    assert design["optimizer.designs_attempted"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "protocols", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [*SPEC["command"], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
