"""switchsim benchmark: one workload, closed loop, one caller.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload protocols --seed 1 --seconds 20 --trace 0

Each op starts when the previous one returns; there are no threads, queues
or worker processes, so no layer ever waits and only busy (self) time is
traced. A run:

1. generates the op list of one pass from ``--seed`` (``workloads.py``);
2. with ``--trace 0``, times ``import switchsim`` plus parsing and building
   every generated config in several fresh interpreters (``setup_s``,
   calibrated like the op latencies);
3. parses and builds the configs in this process;
4. runs one checked pass: every op's output is compared with its
   closed-form oracle and its digest is kept;
5. runs whole timed passes until ``--seconds`` have gone by; each op's
   digest must equal the checked pass's, or the op counts as failed.

Rates and latency percentiles use each op's median calibrated latency over
the timed passes (see ``CALIBRATION_S``). ``--trace 1`` alternates untraced
and traced passes instead (``tracing.py``) and reports the per-layer metrics
and the tracing overhead in place of the end-to-end ones.

The last line of standard output is the JSON result; earlier lines report
the sample counts and the output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_SEEDS = {"protocols": 1, "trace": 2, "design": 3}
SETUP_RUNS = 7  # fresh interpreters timed per run; setup_s is their median
MAX_REPORTED_FAILURES = 5

# The machine this runs on is shared: load from elsewhere slows every core
# by up to 75 % for tens of seconds at a time, which no statistic over one
# run can remove. Each op is therefore timed between two runs of a fixed
# calibration loop, and its latency is rescaled to the speed at which that
# loop takes CALIBRATION_S: the loop's fastest time on an idle 2.1 GHz
# x86-64 core. Rescaled rates vary 2 to 6 % from run to run where raw ones
# vary 30 %. The raw figures are printed before the result.
CALIBRATION_ITERATIONS = 4000
CALIBRATION_S = 0.55e-3

# Runs in a fresh interpreter; argv[1] is the source tree, argv[2] this
# directory, stdin the configs. Prints the set-up time as measured and as
# rescaled by the calibration loop.
_SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from run import CALIBRATION_S, calibration_loop
before = min(calibration_loop() for _ in range(3))  # the first run is cold
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import switchsim
for text in json.load(sys.stdin):
    switchsim.parse_config(text).plant()
elapsed = time.perf_counter() - t0
gauge = 0.5 * (before + min(calibration_loop() for _ in range(3)))
print(repr(elapsed), repr(elapsed * CALIBRATION_S / gauge))
"""


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # host seconds as measured
    costs: list[float] = field(default_factory=list)  # the same, at calibrated speed


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now: a gauge of core speed."""
    t0 = time.perf_counter()
    acc, points = 0.0, []
    for i in range(CALIBRATION_ITERATIONS):
        acc = math.sin(i * 0.001) + 0.5 * acc
        points.append((acc, i))
    return time.perf_counter() - t0


class Runner:
    """Runs passes over one op list and keeps the failure log."""

    def __init__(self, ops, workloads):
        self.ops = ops
        self.wl = workloads
        self.reference: list[str | None] = []
        self.sim_s: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"op {i} ({self.ops[i].kind}): {message}")

    def _call(self, op, tracer, op_id: int):
        """(value, error text, latency) of one op; a failed op is counted, not fatal."""
        with contextlib.nullcontext() if tracer is None else tracer.op(op_id):
            t0 = time.perf_counter()
            try:
                value = self.wl.run(op)
            except Exception:
                return None, traceback.format_exc(limit=4).strip(), time.perf_counter() - t0
            return value, None, time.perf_counter() - t0

    def run_pass(self, checked: bool = False, tracer=None, op_base: int = 0) -> PassResult:
        """One pass over the ops; ``checked`` applies the oracles and keeps digests."""
        wl, out = self.wl, PassResult()
        for i, op in enumerate(self.ops):
            self.attempted += 1
            before = calibration_loop()
            value, error, latency = self._call(op, tracer, op_base + i)
            gauge = 0.5 * (before + calibration_loop())
            out.latencies.append(latency)
            out.costs.append(latency * CALIBRATION_S / gauge)
            if error is not None:
                if checked:
                    self.reference.append(None)
                    self.sim_s.append(0.0)
                self._fail(i, error)
                continue
            digest = wl.digest(op, value)
            if checked:
                self.reference.append(digest)
                self.sim_s.append(wl.sim_seconds(op, value))
                for problem in wl.check(op, value)[:1]:
                    self._fail(i, problem)
                    self.reference[-1] = None
            elif digest != self.reference[i]:  # None: the op failed its check
                self._fail(i, "output digest differs from the checked pass")
        return out

    def timed_passes(self, seconds: float) -> list[PassResult]:
        """Whole passes until ``seconds`` of wall time have gone by; at least one."""
        passes: list[PassResult] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        return passes

    def alternating_passes(self, seconds: float, tracer):
        """Untraced and traced passes in turn until ``seconds`` have gone by.

        Alternating exposes both sides to the same load from elsewhere on the
        machine, so their difference is the tracing overhead.
        """
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self.run_pass())
            tracer.install()
            try:
                traced.append(self.run_pass(tracer=tracer, op_base=len(traced) * len(self.ops)))
            finally:
                tracer.uninstall()
        return untraced, traced

    def digest(self) -> str:
        return hashlib.sha256("".join(d or "-" for d in self.reference).encode()).hexdigest()


def op_costs(passes: list[PassResult]) -> list[float]:
    """Each op's median calibrated latency over the timed passes."""
    return [statistics.median(costs) for costs in zip(*(p.costs for p in passes))]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fresh_setup_seconds(texts: list[str], runs: int) -> tuple[float, float]:
    """Medians over fresh interpreters of import plus building every config.

    Returns (as measured, at calibrated speed).
    """
    measured, calibrated = [], []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, HERE],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
            check=True,
        )
        raw, scaled = done.stdout.split()
        measured.append(float(raw))
        calibrated.append(float(scaled))
    return statistics.median(measured), statistics.median(calibrated)


def end_to_end(runner: Runner, passes: list[PassResult], designs: int, setup_s: float) -> dict:
    latencies = op_costs(passes)
    busy = sum(latencies)
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(runner.ops) / busy, "1/s"),
        "op_p50_ms": _metric(1000.0 * statistics.median(latencies), "ms"),
        "op_p90_ms": _metric(
            1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[-1], "ms"
        ),
        "sim_s_per_host_s": _metric(sum(runner.sim_s) / busy, "s/s"),
        "designs_per_s": _metric(designs / busy, "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(tracer, n_ops: int, untraced: list[PassResult], traced: list[PassResult]) -> dict:
    """Per-op calls and self time of every traced name, counts, and overhead."""
    import tracing

    m: dict[str, dict] = {}
    ops = tracer.summarize(lambda op: op >= 0)
    traced_ops = n_ops * len(traced)
    for name in tracing.SPAN_NAMES:
        calls, self_s = ops[name]
        m[f"{name}.calls"] = _metric(calls / traced_ops, "count/op")
        m[f"{name}.self_s"] = _metric(self_s / traced_ops, "s/op")
    for layer in tracing.LAYERS:
        total = sum(s for name, (_, s) in ops.items() if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = _metric(total / traced_ops, "s/op")
    m["bench.self_s"] = _metric(ops[tracing.OP_SPAN][1] / traced_ops, "s/op")

    steps = sum(ops[f"plant.step_plant.{mode}"][0] for mode in tracing.MODES)
    m["plant.steps"] = _metric(steps / traced_ops, "count/op")
    m["plant.rows_recorded"] = _metric(tracer.rows_recorded / traced_ops, "count/op")
    m["plant.recorded_ratio"] = _metric(tracer.rows_recorded / steps if steps else 0.0, "ratio")
    attempted, feasible = tracer.designs_attempted, tracer.designs_feasible
    m["optimizer.designs_attempted"] = _metric(attempted / traced_ops, "count/op")
    m["optimizer.designs_feasible"] = _metric(feasible / traced_ops, "count/op")
    m["optimizer.feasible_ratio"] = _metric(feasible / attempted if attempted else 0.0, "ratio")
    for kind in tracing.EVENT_KINDS:
        m[f"switching.events.{kind}"] = _metric(tracer.events[kind] / traced_ops, "count/op")

    setup = tracer.summarize(lambda op: op == tracing.SETUP_OP)
    for name in ("config.parse_config", "config.Config.plant"):
        calls, self_s = setup[name]
        m[f"setup.{name}.calls"] = _metric(float(calls), "count")
        m[f"setup.{name}.self_s"] = _metric(self_s, "s")

    plain = n_ops / sum(op_costs(untraced))
    slowed = n_ops / sum(op_costs(traced))
    m["tracing.ops_per_s_untraced"] = _metric(plain, "1/s")
    m["tracing.ops_per_s_traced"] = _metric(slowed, "1/s")
    m["tracing.ops_per_s_delta"] = _metric(plain - slowed, "1/s")
    m["tracing.overhead"] = _metric((plain - slowed) / plain, "ratio")
    return m


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    n_ops: int | None = None,
    setup_runs: int = SETUP_RUNS,
    log=print,
) -> dict:
    """Run one workload and return the result object the last line prints."""
    import workloads as wl

    ops = wl.generate(workload, seed, n_ops)
    designs = sum(wl.designs_evaluated(op) for op in ops)
    texts = [op.config_text for op in ops]
    raw_setup_s, setup_s = (0.0, 0.0) if trace else fresh_setup_seconds(texts, setup_runs)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        runner = Runner(ops, wl)
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                wl.prepare(ops, workdir)
            finally:
                tracer.uninstall()
        else:
            wl.prepare(ops, workdir)
        runner.run_pass(checked=True)

        if trace:
            untraced, traced = runner.alternating_passes(seconds, tracer)
            metrics = per_layer(tracer, len(ops), untraced, traced)
            passes = untraced + traced
            tracer.save(os.path.join(WORK, f"spans-{workload}.npz"))
        else:
            passes = runner.timed_passes(seconds)
            metrics = end_to_end(runner, passes, designs, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = runner.failed / runner.attempted
    if trace:
        metrics["bench.error_rate"] = _metric(error_rate, "ratio")
    raw_ops_per_s = len(ops) / sum(
        statistics.median(times) for times in zip(*(p.latencies for p in passes))
    )
    log(
        f"# {workload} seed={seed} trace={int(trace)} timed_passes={len(passes)} "
        f"latency_samples={len(ops)} (each op's median over the passes) "
        f"uncalibrated_ops_per_s={raw_ops_per_s!r} uncalibrated_setup_s={raw_setup_s!r} "
        f"attempted={runner.attempted} failed={runner.failed} error_rate={error_rate!r}"
    )
    log(f"# digest {workload} seed={seed} {runner.digest()}")
    for failure in runner.failures:
        print(f"failure: {failure}", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _import_program() -> None:
    """Import switchsim from this checkout's source tree, or raise ImportError."""
    if not os.path.isfile(os.path.join(SRC, "switchsim", "__init__.py")):
        raise ImportError(f"no switchsim source tree at {SRC}")
    sys.path.insert(0, SRC)
    import switchsim

    if os.path.dirname(os.path.dirname(os.path.abspath(switchsim.__file__))) != SRC:
        raise ImportError(f"imported switchsim from {switchsim.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    result = measure(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
