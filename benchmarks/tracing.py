"""Span tracing of the switchsim layers, installed from outside the package.

``Tracer.install`` wraps each public name by replacing it in every
``switchsim`` module namespace that holds it (``switchsim.plant.step_switch``,
``switchsim.optimizer.solve_engagement``, ...) and, for methods, on the
class. Each wrapper records a span: name, start, end, parent span and op id.
Spans stay in memory in flat arrays and are written out once, at the end.
Self time is a span's duration minus the time its child spans cover; the
program is single-threaded, so children never overlap.

The same boundaries keep counts: events by kind at ``step_switch``,
candidates and feasible designs at ``optimize``, and rows recorded by every
``Trace`` the program builds.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

from switchsim import config, experiments, geometry, motion, optimizer, paths, plant, switching
from switchsim import cli

LAYERS = (
    "geometry",
    "switching",
    "motion",
    "paths",
    "plant",
    "experiments",
    "optimizer",
    "config",
    "cli",
)

_MODE_NAMES = {
    switching.SwitchMode.ENGAGED_PLUS: "engaged",
    switching.SwitchMode.ENGAGED_MINUS: "engaged",
    switching.SwitchMode.TRAVERSING: "traversing",
    switching.SwitchMode.NEUTRAL: "neutral",
}
MODES = ("engaged", "traversing", "neutral")
PATH_KINDS = {
    paths.LinearPath: "linear",
    paths.CurvedPath: "curved",
    paths.TabulatedPath: "tabulated",
}
EVENT_KINDS = tuple(kind.value for kind in switching.EventKind)

# Module-level functions: (span name, defining module, attribute).
FUNCTIONS = (
    ("geometry.validate_layout", geometry, "validate_layout"),
    ("geometry.solve_engagement", geometry, "solve_engagement"),
    ("geometry.solve_center_distance", geometry, "solve_center_distance"),
    ("motion.trapezoid_duration", motion, "trapezoid_duration"),
    ("plant.run_script", plant, "run_script"),
    ("experiments.run_switching_time", experiments, "run_switching_time"),
    ("experiments.run_speed_sweep", experiments, "run_speed_sweep"),
    ("optimizer.optimize", optimizer, "optimize"),
    ("optimizer.evaluate_design", optimizer, "evaluate_design"),
    ("config.parse_config", config, "parse_config"),
    ("cli.main", cli, "main"),
)

# Methods: (span name, class, attribute).
METHODS = (
    ("motion.position", motion.TrapezoidalProfile, "position"),
    ("motion.time_at_distance", motion.TrapezoidalProfile, "time_at_distance"),
    ("plant.Simulator.move_motor_to", plant.Simulator, "move_motor_to"),
    ("plant.Simulator.wait", plant.Simulator, "wait"),
    ("plant.Simulator.run_until_engaged", plant.Simulator, "run_until_engaged"),
    ("plant.Trace.to_csv", plant.Trace, "to_csv"),
    ("plant.Trace.events_to_csv", plant.Trace, "events_to_csv"),
    ("config.Config.plant", config.Config, "plant"),
) + tuple(
    (f"paths.{method}.{kind}", cls, method)
    for cls, kind in PATH_KINDS.items()
    for method in ("length", "inverse")
)

# Functions whose span name carries the switch mode they were entered in.
BY_MODE = (
    ("plant.step_plant", plant, "step_plant", lambda state: state.switch.mode),
    ("switching.step_switch", switching, "step_switch", lambda state: state.mode),
)

SPAN_NAMES = (
    tuple(name for name, _, _ in FUNCTIONS)
    + tuple(name for name, _, _ in METHODS)
    + tuple(f"{name}.{mode}" for name, _, _, _ in BY_MODE for mode in MODES)
)

OP_SPAN = "bench.op"  # root span of each op: benchmark code around the call
SETUP_OP = -1  # op id of spans recorded during set-up


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names = [OP_SPAN, *SPAN_NAMES]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("l")
        self.parent = array("l")
        self.op_ids = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.events = Counter()
        self.designs_attempted = 0
        self.designs_feasible = 0
        self.rows_recorded = 0
        self._traces = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; counts the rows of every Trace the op built."""
        self.op_id = op_id
        i = self._open(self._ids[OP_SPAN])
        try:
            yield
        finally:
            self._close(i)
            self.rows_recorded += sum(len(t.rows) for t in self._traces)
            self._traces.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._ids[name]
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            i = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_by_mode(self, name: str, fn, mode_of, observe=None):
        ids = {mode: self._ids[f"{name}.{label}"] for mode, label in _MODE_NAMES.items()}
        open_, close = self._open, self._close

        def wrapper(state, *args, **kwargs):
            i = open_(ids[mode_of(state)])
            try:
                result = fn(state, *args, **kwargs)
            finally:
                close(i)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_events(self, result) -> None:
        events = self.events
        for event in result[1]:
            events[event.kind.value] += 1

    def _count_designs(self, args, result) -> None:
        self.designs_attempted += args[0].size
        self.designs_feasible += len(result)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "switchsim" or module_name.startswith("switchsim.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_on_class(self, cls, attr: str, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        observers = {"optimizer.optimize": self._count_designs}
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(name, original, observers.get(name)))
        for name, module, attr, mode_of in BY_MODE:
            original = getattr(module, attr)
            observe = self._count_events if attr == "step_switch" else None
            self._replace_everywhere(
                original, self._wrap_by_mode(name, original, mode_of, observe)
            )
        for name, cls, attr in METHODS:
            self._replace_on_class(cls, attr, self._wrap(name, cls.__dict__[attr]))

        traces = self._traces
        trace_init = plant.Trace.__init__

        def register(trace, *args, **kwargs):
            trace_init(trace, *args, **kwargs)
            traces.append(trace)

        self._replace_on_class(plant.Trace, "__init__", register)

    def uninstall(self) -> None:
        """Put every replaced name back, last replacement first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns; the arrays stay free to grow."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Each span's self time: its duration minus its children's durations."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        children = np.bincount(
            spans["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - children, spans

    def summarize(self, select) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over spans whose op id passes ``select``."""
        self_s, spans = self.self_times()
        keep = select(spans["op"])
        calls = np.bincount(spans["name"][keep], minlength=len(self.names))
        seconds = np.bincount(
            spans["name"][keep], weights=self_s[keep], minlength=len(self.names)
        )
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
