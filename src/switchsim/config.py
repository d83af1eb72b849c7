"""Line-oriented configuration: parsing, serialization, runtime builders.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments.
Unknown sections/keys are rejected with line numbers. Every key is optional;
an empty file yields the full reference configuration. Angles are degrees in
files and radians internally; lengths mm; times s unless the key name says
ms. Every number must be finite: ``nan`` and ``inf`` are rejected with their
line, in keys, knot tables and script arguments alike.

Each key is declared once, by ``_key`` metadata on the ``Config`` or
``PathSpec`` field it sets, and parsing, range checks and serialization loop
over those declarations. Each ``[paths]`` key is a ``PathSpec`` key prefixed
with ``agonist_`` or ``antagonist_``. The three gears share one module, as
they must to mesh: ``[layout] module_mm``.

The ``[script]`` section is a command list, one command per line::

    move_to 225.0          # Profile-Position move to an absolute angle, deg
    set_velocity 360.0     # constant rate, deg/s (0 stops)
    wait 0.5               # run the clock, s (must cover a step of dt_s)
    disturb disengaged 5.0 # random payout pulses: target magnitude_mm [width_s]
    disturb_off
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

from .errors import ConfigError, InvalidDesign, SwitchSimError, _in_range
from .experiments import _traversal_time, calibrate_profile_accel
from .geometry import (
    DEFAULT_BACKLASH_MARGIN,
    GearSpec,
    MIN_TOOTH_COUNT,
    MechanismLayout,
    REFERENCE_TRACK_TRAVEL_DEG,
    kinematic_carry_ratio,
    solve_center_distance,
    validate_layout,
)
from .paths import CablePath, CurvedPath, LinearPath, TabulatedPath, X_MAX
from .plant import (
    DEFAULT_DT,
    DisturbancePulses,
    InjectDisturbance,
    MotorModel,
    MoveMotorTo,
    PlantConfig,
    ScriptCommand,
    SetVelocity,
    SpoolModel,
    Wait,
    _check_pulse_dt,
    _command_steps,
    initial_state,
)
from .switching import TraversalModel, calibrate_slip


@dataclass(frozen=True)
class _Key:
    """How one file key sets a dataclass field.

    cast: int, float or str.
    name: the file key, when it is not the field name.
    replaces: keys of the same section that this one overrides. A file may
        not give both, and serialization writes this key instead of them
        whenever its value is set.
    bound: the range rule's bound (``errors._in_range``) that a number meets.
    interval: [low, high) that a number must lie in as well.
    kind: the only path kind the key applies to.
    """

    section: str
    cast: type = float
    name: str | None = None
    replaces: tuple[str, ...] = ()
    bound: str | None = None
    interval: tuple[float, float] = (-math.inf, math.inf)
    kind: str | None = None


def _key(default, section: str, cast: type = float, **spec):
    """A dataclass field with ``default`` that one file key in ``section`` sets."""
    return field(default=default, metadata={"key": _Key(section, cast, **spec)})


_TEETH = (MIN_TOOTH_COUNT, math.inf)


@dataclass(frozen=True)
class PathSpec:
    """Raw cable-path parameters as they appear in a config file."""

    kind: str = _key("linear", "paths", str)  # linear | curved | tabulated
    reference_length: float = _key(300.0, "paths", name="reference_length_mm")  # mm at x = 0
    moment_arm: float = _key(25.0, "paths", name="moment_arm_mm")  # mm per rad
    bow: float = _key(0.0, "paths", name="bow_mm", kind="curved")  # mm
    knots: tuple[tuple[float, float], ...] | None = _key(None, "paths", str, kind="tabulated")

    def build(self) -> CablePath:
        if self.kind == "linear":
            return LinearPath(self.reference_length, self.moment_arm)
        if self.kind == "curved":
            return CurvedPath(self.reference_length, self.moment_arm, self.bow)
        if self.kind == "tabulated":
            if not self.knots:
                raise ValueError("tabulated path requires knots")
            return TabulatedPath(tuple((math.radians(x), l) for x, l in self.knots))
        raise ValueError(f"unknown path kind {self.kind!r}")


@dataclass(frozen=True)
class Config:
    """Validated configuration; defaults reproduce the reference rig."""

    drive_teeth: int = _key(20, "layout", int, interval=_TEETH)
    switch_teeth: int = _key(16, "layout", int, interval=_TEETH)
    driven_teeth: int = _key(20, "layout", int, interval=_TEETH)
    module: float = _key(1.0, "layout", name="module_mm", bound="positive")  # all three gears
    driven_half_angle_deg: float = _key(25.0, "layout")
    center_distance_mm: float | None = _key(  # None: solved from track_travel_deg
        None, "layout", replaces=("track_travel_deg",)
    )
    track_travel_deg: float = _key(REFERENCE_TRACK_TRAVEL_DEG, "layout")
    backlash_margin_mm: float = _key(DEFAULT_BACKLASH_MARGIN, "layout")
    slip: float | None = _key(  # None: calibrated from the travel pair
        None, "traversal", replaces=("motor_travel_deg", "revolution_travel_deg"), interval=(0, 1)
    )
    motor_travel_deg: float = _key(122.6, "traversal")
    revolution_travel_deg: float = _key(19.8, "traversal", bound="positive")
    max_output_speed: float = _key(  # deg/s
        MotorModel.max_output_speed, "motor", name="max_output_speed_deg_s", bound="positive"
    )
    profile_accel: float | None = _key(  # deg/s^2; None: calibrated from target
        None, "motor", name="profile_accel_deg_s2", replaces=("target_switch_time_ms",),
        bound="positive",
    )
    target_switch_time_ms: float = _key(302.0, "motor")
    agonist: PathSpec = field(default_factory=PathSpec)
    antagonist: PathSpec = field(default_factory=lambda: PathSpec(kind="curved", bow=5.0))
    spool_radius_mm: float = _key(SpoolModel.spool_radius, "spools", bound="positive")
    spring_preload_nmm: float = _key(SpoolModel.spring_preload_torque, "spools", bound="positive")
    spring_rate_nmm_per_deg: float = _key(SpoolModel.spring_rate, "spools")
    payout_at_zero_mm: float | None = _key(None, "spools")  # None: path length at +90 deg
    dt_s: float = _key(DEFAULT_DT, "sim", bound="positive")
    seed: int = _key(0, "sim", int)
    script: tuple[ScriptCommand, ...] = ()

    # -- builders ------------------------------------------------------------

    def _traversal(self, layout: MechanismLayout) -> TraversalModel:
        """The traversal model: the given slip, else the travel pair's, with
        ``layout``'s carry ratio (SubKinematicRatio if the pair is below it)."""
        carry = kinematic_carry_ratio(layout)
        if self.slip is not None:
            return TraversalModel(carry_ratio=carry, slip=self.slip)
        return calibrate_slip(self.motor_travel_deg, self.revolution_travel_deg, carry)

    def layout(self) -> MechanismLayout:
        driving = GearSpec(self.drive_teeth, self.module)
        switch = GearSpec(self.switch_teeth, self.module)
        driven = GearSpec(self.driven_teeth, self.module)
        if self.center_distance_mm is not None:
            d = self.center_distance_mm
        else:
            try:
                d = solve_center_distance(
                    driving, switch, driven,
                    math.radians(self.driven_half_angle_deg),
                    math.radians(self.track_travel_deg / 2.0),
                )
            except ValueError:  # the endpoint target is outside (0, phi_d]
                raise ValueError(
                    f"track_travel_deg must be in (0, {2.0 * self.driven_half_angle_deg!r}], "
                    f"twice driven_half_angle_deg, got {self.track_travel_deg!r}"
                ) from None
        return MechanismLayout(
            driving=driving,
            switch=switch,
            driven=driven,
            driven_center_distance=d,
            driven_half_angle=math.radians(self.driven_half_angle_deg),
            backlash_margin=self.backlash_margin_mm,
        )

    def _engaging_layout(self) -> tuple:
        """The layout and its engagement; InvalidDesign if ``validate_layout`` rejects it."""
        layout = self.layout()
        report = validate_layout(layout)
        if not report.ok:
            raise InvalidDesign(report)
        return layout, report.engagement

    def _assemble(self, layout, engagement, traversal, *paths: CablePath) -> PlantConfig:
        """The plant from its parts: the acceleration calibration, motor, spools, dt and seed.
        Its rest state is taut and one switching trial (two traversals) fits ``STEP_BUDGET``."""
        accel = self.profile_accel
        if accel is None:
            accel = calibrate_profile_accel(
                self.target_switch_time_ms / 1000.0,
                traversal.motor_travel(engagement.theta_track),
                self.max_output_speed,
            )
        motor = MotorModel(max_output_speed=self.max_output_speed, profile_accel=accel)
        zero = self.payout_at_zero_mm  # None: the fully wound end, spring taut over the RoM
        spools = (
            SpoolModel(
                spool_radius=self.spool_radius_mm,
                spring_preload_torque=self.spring_preload_nmm,
                spring_rate=self.spring_rate_nmm_per_deg,
                payout_at_zero=path.length(X_MAX) if zero is None else zero,
            )
            for path in paths
        )
        plant = PlantConfig(
            layout, engagement, traversal, motor, *paths, *spools, dt=self.dt_s, seed=self.seed
        )
        initial_state(plant)
        _traversal_time(plant)
        return plant

    def _check_command(self, cmd: ScriptCommand) -> None:
        """Raise the refusal ``Simulator.execute`` makes of ``cmd`` under this speed and dt."""
        if isinstance(cmd, SetVelocity):
            MotorModel(self.max_output_speed).check_speed(cmd.rate)
        elif isinstance(cmd, Wait):
            _command_steps("wait", cmd.duration, self.dt_s)
        elif isinstance(cmd, InjectDisturbance) and cmd.profile is not None:
            _check_pulse_dt(cmd.profile, self.dt_s)

    def _build(self, report=None, bad=frozenset()) -> PlantConfig | None:
        """The plant, built part by part in dependency order: the validated layout,
        each side's path, the traversal, the assembly, then each script command
        (a part named by its index). A part is skipped when a section it reads is in
        ``bad`` (a path's is its side, a command's [motor] and [sim]) or a part it
        needs is missing. A part that fails raises, or with a ``report`` goes to
        ``report(part, exc)``. This alone decides that a config is valid."""

        def part(name, make, *args):
            try:
                return make(*args)
            except (SwitchSimError, ValueError) as exc:
                if report is None:
                    raise
                report(name, exc)

        layout = engagement = traversal = None
        if "layout" not in bad:
            layout, engagement = part("layout", self._engaging_layout) or (None, None)
        paths = [None if side in bad else part(side, getattr(self, side).build) for side in _PATHS]
        if layout and "traversal" not in bad:
            traversal = part("traversal", self._traversal, layout)
        plant = None
        if traversal and all(paths) and bad.isdisjoint(("motor", "spools", "sim")):
            plant = part("plant", self._assemble, layout, engagement, traversal, *paths)
        if bad.isdisjoint(("motor", "sim")):
            for index, cmd in enumerate(self.script):
                part(index, self._check_command, cmd)
        return plant

    def plant(self) -> PlantConfig:
        """The runtime plant; refused for what a file with these values is refused for.

        Raises:
            InvalidDesign: the layout fails ``validate_layout`` (wraps the report).
            SwitchSimError, ValueError: the first other part that fails, as parsed.
        """
        return self._build()


# -----------------------------------------------------------------------------
# Schema


def _keyed(cls) -> tuple[tuple[str, str, _Key], ...]:
    """(field name, file key, key spec) of each field of ``cls`` a file key sets."""
    return tuple(
        (f.name, f.metadata["key"].name or f.name, f.metadata["key"])
        for f in fields(cls)
        if "key" in f.metadata
    )


_CONFIG_KEYS = _keyed(Config)
_PATH_KEYS = _keyed(PathSpec)
_PATHS = ("agonist", "antagonist")  # Config fields set by the [paths] keys with that prefix

_SCHEMA: dict[tuple[str, str], _Key] = {
    (spec.section, key): spec for _, key, spec in _CONFIG_KEYS
}
_SCHEMA.update(
    ((spec.section, f"{prefix}_{key}"), spec) for prefix in _PATHS for _, key, spec in _PATH_KEYS
)

_SECTIONS = ("layout", "traversal", "motor", "paths", "spools", "sim", "script")


# -----------------------------------------------------------------------------
# Parsing


def _parse_knots(text: str) -> tuple[tuple[float, float], ...]:
    """'x_deg:length_mm, x_deg:length_mm, ...' pairs."""
    knots = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        angle, _, length = token.partition(":")
        knots.append((_in_range("knots", float(angle)), _in_range("knots", float(length))))
    return tuple(knots)


# Script commands whose one field is their one number argument.
_ONE_NUMBER = {"move_to": MoveMotorTo, "set_velocity": SetVelocity, "wait": Wait}


def _parse_script_line(line: str) -> ScriptCommand:
    """The command of a ``[script]`` line; the command checks its numbers, and
    ``Config._build`` checks it against the speed limit and dt."""
    name, *args = line.split()
    if name in _ONE_NUMBER and len(args) == 1:
        return _ONE_NUMBER[name](float(args[0]))
    if name == "disturb" and len(args) in (2, 3):
        width = float(args[2]) if len(args) == 3 else DisturbancePulses.width
        return InjectDisturbance(
            DisturbancePulses(target=args[0], magnitude=float(args[1]), width=width)
        )
    if name == "disturb_off" and not args:
        return InjectDisturbance(None)
    raise ValueError(f"unrecognized script command {line!r}")


def _serialize_script_command(cmd: ScriptCommand) -> str:
    for name, cls in _ONE_NUMBER.items():
        if isinstance(cmd, cls):
            return f"{name} {astuple(cmd)[0]!r}"
    if isinstance(cmd, InjectDisturbance):
        if cmd.profile is None:
            return "disturb_off"
        p = cmd.profile
        return f"disturb {p.target} {p.magnitude!r} {p.width!r}"
    raise TypeError(f"unknown script command {cmd!r}")


class _Parser:
    def __init__(self, text: str):
        self.errors: list[tuple[int, str]] = []
        self.parts: dict[int, str] = {}  # line: its section, a [paths] key's as its side
        self.values: dict[tuple[str, str], object] = {}
        self.lines: dict[tuple[str, str], int] = {}
        self.script: list[tuple[int, ScriptCommand]] = []  # (line, command)
        self._scan(text)

    def fail(self, line_no: int, message: str) -> None:
        self.errors.append((line_no, message))

    def _scan(self, text: str) -> None:
        section: str | None = None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _SECTIONS:
                    self.fail(line_no, f"unknown section [{section}]")
                    section = None
                continue
            if section is None:
                self.fail(line_no, f"content outside a known section: {line!r}")
                continue
            if section == "script":
                try:
                    self.script.append((line_no, _parse_script_line(line)))
                except ValueError as exc:
                    self.fail(line_no, str(exc))
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            self.parts[line_no] = key.partition("_")[0] if section == "paths" else section
            if not sep or not key:
                self.fail(line_no, f"expected 'key = value', got {line!r}")
                continue
            self._store(section, key, value, line_no)

    def _store(self, section: str, key: str, value: str, line_no: int) -> None:
        spec = _SCHEMA.get((section, key))
        if spec is None:
            self.fail(line_no, f"unknown key {key!r} in [{section}]")
            return
        if (section, key) in self.values:
            self.fail(line_no, f"duplicate key {key!r} in [{section}]")
            return
        try:
            parsed = spec.cast(value)
        except ValueError:
            self.fail(line_no, f"cannot parse {key} value {value!r} as {spec.cast.__name__}")
            return
        if spec.cast is not str:
            low, high = spec.interval
            try:
                if not low <= _in_range(key, parsed, spec.bound) < high:
                    raise ValueError(f"{key} must be in [{low:g}, {high:g}), got {parsed!r}")
            except ValueError as exc:
                self.fail(line_no, str(exc))
        self.values[(section, key)] = parsed
        self.lines[(section, key)] = line_no

    # -- assembly ------------------------------------------------------------

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.values

    def get(self, section: str, key: str, default):
        return self.values.get((section, key), default)

    def line(self, section: str, key: str) -> int:
        return self.lines.get((section, key), 0)

    def first_line(self, section: str, prefix: str = "") -> int:
        """The first line of a ``section`` key starting with ``prefix``, or 0 if none."""
        lines = [
            n for (sec, key), n in self.lines.items() if sec == section and key.startswith(prefix)
        ]
        return min(lines, default=0)

    def fail_part(self, part: str | int, exc: Exception) -> None:
        """Report the plant part that raised ``exc`` at its section's first line; a
        layout's violations one each, the assembly's at line 0, a command's at its own."""
        if isinstance(part, int):
            self.fail(self.script[part][0], str(exc))
        elif part in _PATHS:
            self.fail(self.first_line("paths", f"{part}_"), f"{part} path: {exc}")
        elif part in ("layout", "traversal"):
            for problem in exc.report.violations if isinstance(exc, InvalidDesign) else (exc,):
                self.fail(self.first_line(part), str(problem))
        else:
            self.fail(0, f"configuration cannot be instantiated: {exc}")

    def path_spec(self, prefix: str, default: PathSpec) -> PathSpec:
        kind = self.get("paths", f"{prefix}_kind", default.kind)
        if kind not in ("linear", "curved", "tabulated"):
            self.fail(self.line("paths", f"{prefix}_kind"), f"unknown path kind {kind!r}")
            return default
        values = {}
        for name, key, spec in _PATH_KEYS:
            key = f"{prefix}_{key}"
            if spec.kind in (None, kind):
                values[name] = self.get("paths", key, getattr(default, name))
            else:
                values[name] = getattr(PathSpec, name)
                if self.has("paths", key):
                    message = f"{key} only applies to the {spec.kind} kind"
                    self.fail(self.line("paths", key), message)
        if kind == "tabulated":
            knots, values["knots"] = values["knots"], None
            if knots is None:
                message = f"{prefix}_kind = tabulated requires {prefix}_knots"
                self.fail(self.line("paths", f"{prefix}_kind"), message)
            else:
                try:
                    values["knots"] = _parse_knots(knots)
                except ValueError as exc:
                    self.fail(self.line("paths", f"{prefix}_knots"), f"bad knot table: {exc}")
        return PathSpec(**values)


def _parse(text: str) -> tuple[Config, PlantConfig]:
    """``parse_config``, returning the plant that ``Config._build`` checked as well."""
    p = _Parser(text)
    defaults = Config()

    values = {
        name: p.get(spec.section, key, None)
        for name, key, spec in _CONFIG_KEYS
        if p.has(spec.section, key)
    }
    for prefix in _PATHS:
        values[prefix] = p.path_spec(prefix, getattr(defaults, prefix))
    cfg = Config(**values, script=tuple(cmd for _, cmd in p.script))

    # Contradictory key combinations.
    for (section, key), spec in _SCHEMA.items():
        if spec.replaces and p.has(section, key) and any(p.has(section, k) for k in spec.replaces):
            other = spec.replaces[0]
            if len(spec.replaces) > 1:
                other = f"the ({', '.join(spec.replaces)}) pair"
            p.fail(p.line(section, key), f"give either {key} or {other}, not both")

    plant = cfg._build(p.fail_part, {p.parts.get(line_no) for line_no, _ in p.errors})
    if p.errors:
        raise ConfigError(sorted(p.errors))
    return cfg, plant


def parse_config(text: str) -> Config:
    """Parse and validate a configuration; all keys optional.

    Raises:
        ConfigError: every syntax, unknown-key, range and cross-field
            problem found, each with its line number.
    """
    return _parse(text)[0]


# -----------------------------------------------------------------------------
# Serialization


def _written(obj, keyed):
    """(field name, file key, key spec, value) of each key written for ``obj``.

    A key is left out when its value is None or empty, when an earlier
    written key replaces it, or when it does not apply to the path kind.
    """
    replaced: set[str] = set()
    for name, key, spec in keyed:
        value = getattr(obj, name)
        if value in (None, ()) or key in replaced or (spec.kind and spec.kind != obj.kind):
            continue
        replaced.update(spec.replaces)
        yield name, key, spec, value


def _format(value) -> str:
    if isinstance(value, tuple):  # knot table
        return ", ".join(f"{x!r}:{l!r}" for x, l in value)
    return str(value)


def serialize_config(cfg: Config) -> str:
    """Emit a config file that parses back to an identical Config."""
    out: dict[str, list[str]] = {section: [] for section in _SECTIONS}
    for _, key, spec, value in _written(cfg, _CONFIG_KEYS):
        out[spec.section].append(f"{key} = {_format(value)}")
    for prefix in _PATHS:
        for _, key, _, value in _written(getattr(cfg, prefix), _PATH_KEYS):
            out["paths"].append(f"{prefix}_{key} = {_format(value)}")
    out["script"] = [_serialize_script_command(cmd) for cmd in cfg.script]
    blocks = ("\n".join((f"[{section}]", *lines)) for section, lines in out.items() if lines)
    return "\n\n".join(blocks) + "\n"


def load_config(path: str | None) -> tuple[Config, PlantConfig]:
    """Config and its plant from a file path, or the reference rig when ``path`` is None."""
    if path is None:
        return _parse("")
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh.read())
