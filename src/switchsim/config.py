"""Line-oriented configuration: parsing, serialization, runtime builders.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments.
Unknown sections/keys are rejected with line numbers. Every key is optional;
an empty file yields the full reference configuration. Angles are degrees in
files and radians internally; lengths mm; times s unless the key name says
ms. Every number must be finite: ``nan`` and ``inf`` are rejected with their
line, in keys, knot tables and script arguments alike.

Each key is declared once, by ``_key`` metadata on the ``Config`` or
``PathSpec`` field it sets, and parsing, range checks and serialization loop
over those declarations. Two spellings are extra: ``[layout] module_mm`` sets
all three gear modules at once, and each ``[paths]`` key is a ``PathSpec``
key prefixed with ``agonist_`` or ``antagonist_``.

The ``[script]`` section is a command list, one command per line::

    move_to 225.0          # Profile-Position move to an absolute angle, deg
    set_velocity 360.0     # constant rate, deg/s (0 stops)
    wait 0.5               # run the clock, s (at least one step, dt_s)
    disturb disengaged 5.0 # random payout pulses: target magnitude_mm [width_s]
    disturb_off
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import Callable

from .errors import ConfigError, InvalidDesign, SwitchSimError
from .experiments import calibrate_profile_accel, motor_travel_per_traversal
from .geometry import (
    GearSpec,
    MIN_TOOTH_COUNT,
    MechanismLayout,
    REFERENCE_TRACK_TRAVEL_DEG,
    kinematic_carry_ratio,
    solve_center_distance,
    validate_layout,
)
from .motion import trapezoid_duration
from .paths import CablePath, CurvedPath, LinearPath, TabulatedPath, X_MAX
from .plant import (
    DisturbancePulses,
    InjectDisturbance,
    MotorModel,
    MoveMotorTo,
    PlantConfig,
    ScriptCommand,
    SetVelocity,
    SpoolModel,
    Wait,
    initial_state,
    steps_to_cover,
)
from .switching import TraversalModel, calibrate_slip


@dataclass(frozen=True)
class _Key:
    """How one file key sets a dataclass field.

    cast: int, float or str; a float must also be finite.
    name: the file key, when it is not the field name.
    replaces: keys of the same section that this one overrides. A file may
        not give both, and serialization writes this key instead of them
        whenever its value is set.
    check: (predicate, message) applied to a given value; the message is
        formatted with ``key`` and ``value``.
    kind: the only path kind the key applies to.
    """

    section: str
    cast: type = float
    name: str | None = None
    replaces: tuple[str, ...] = ()
    check: tuple[Callable[[object], bool], str] | None = None
    kind: str | None = None


def _key(default, section: str, cast: type = float, **spec):
    """A dataclass field with ``default`` that one file key in ``section`` sets."""
    return field(default=default, metadata={"key": _Key(section, cast, **spec)})


_POSITIVE = (lambda v: v > 0, "{key} must be positive, got {value!r}")
_TEETH = (lambda v: v >= MIN_TOOTH_COUNT, f"{{key}} must be >= {MIN_TOOTH_COUNT}, got {{value!r}}")


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

    drive_teeth: int = _key(20, "layout", int, check=_TEETH)
    switch_teeth: int = _key(16, "layout", int, check=_TEETH)
    driven_teeth: int = _key(20, "layout", int, check=_TEETH)
    drive_module: float = _key(1.0, "layout", name="drive_module_mm", check=_POSITIVE)
    switch_module: float = _key(1.0, "layout", name="switch_module_mm", check=_POSITIVE)
    driven_module: float = _key(1.0, "layout", name="driven_module_mm", check=_POSITIVE)
    driven_half_angle_deg: float = _key(25.0, "layout")
    center_distance_mm: float | None = _key(  # None: solved from track_travel_deg
        None, "layout", replaces=("track_travel_deg",)
    )
    track_travel_deg: float = _key(REFERENCE_TRACK_TRAVEL_DEG, "layout")
    backlash_margin_mm: float = _key(0.2, "layout")
    slip: float | None = _key(  # None: calibrated from the travel pair
        None,
        "traversal",
        replaces=("motor_travel_deg", "revolution_travel_deg"),
        check=(lambda v: 0.0 <= v < 1.0, "{key} {value} outside [0, 1)"),
    )
    motor_travel_deg: float = _key(122.6, "traversal")
    revolution_travel_deg: float = _key(19.8, "traversal", check=_POSITIVE)
    max_output_speed: float = _key(  # deg/s
        720.0, "motor", name="max_output_speed_deg_s", check=_POSITIVE
    )
    profile_accel: float | None = _key(  # deg/s^2; None: calibrated from target
        None, "motor", name="profile_accel_deg_s2", replaces=("target_switch_time_ms",),
        check=_POSITIVE,
    )
    target_switch_time_ms: float = _key(302.0, "motor")
    agonist: PathSpec = field(default_factory=PathSpec)
    antagonist: PathSpec = field(default_factory=lambda: PathSpec(kind="curved", bow=5.0))
    spool_radius_mm: float = _key(10.0, "spools", check=_POSITIVE)
    spring_preload_nmm: float = _key(5.0, "spools", check=_POSITIVE)
    spring_rate_nmm_per_deg: float = _key(0.05, "spools")
    payout_at_zero_mm: float | None = _key(None, "spools")  # None: path length at +90 deg
    dt_s: float = _key(1e-3, "sim", check=_POSITIVE)
    seed: int = _key(0, "sim", int)
    script: tuple[ScriptCommand, ...] = ()

    # -- builders ------------------------------------------------------------

    def layout(self) -> MechanismLayout:
        driving = GearSpec(self.drive_teeth, self.drive_module)
        switch = GearSpec(self.switch_teeth, self.switch_module)
        driven = GearSpec(self.driven_teeth, self.driven_module)
        if self.center_distance_mm is not None:
            d = self.center_distance_mm
        else:
            d = solve_center_distance(
                driving, switch, driven,
                math.radians(self.driven_half_angle_deg),
                math.radians(self.track_travel_deg / 2.0),
            )
        return MechanismLayout(
            driving=driving,
            switch=switch,
            driven=driven,
            driven_center_distance=d,
            driven_half_angle=math.radians(self.driven_half_angle_deg),
            backlash_margin=self.backlash_margin_mm,
        )

    def plant(self) -> PlantConfig:
        """The runtime plant; the one place a config's layout is validated.

        Raises:
            InvalidDesign: the layout fails ``validate_layout`` (wraps the report).
        """
        layout = self.layout()
        report = validate_layout(layout)
        if not report.ok:
            raise InvalidDesign(report)
        path_plus = self.agonist.build()
        path_minus = self.antagonist.build()
        carry = kinematic_carry_ratio(layout)
        if self.slip is not None:
            traversal = TraversalModel(carry_ratio=carry, slip=self.slip)
        else:
            traversal = calibrate_slip(self.motor_travel_deg, self.revolution_travel_deg, carry)
        accel = self.profile_accel
        if accel is None:
            accel = calibrate_profile_accel(
                self.target_switch_time_ms / 1000.0,
                traversal.motor_travel(report.engagement.theta_track),
                self.max_output_speed,
            )
        motor = MotorModel(max_output_speed=self.max_output_speed, profile_accel=accel)
        zero = self.payout_at_zero_mm  # None: the fully wound end, spring taut over the RoM
        spool_plus, spool_minus = (
            SpoolModel(
                spool_radius=self.spool_radius_mm,
                spring_preload_torque=self.spring_preload_nmm,
                spring_rate=self.spring_rate_nmm_per_deg,
                payout_at_zero=path.length(X_MAX) if zero is None else zero,
            )
            for path in (path_plus, path_minus)
        )
        return PlantConfig(
            layout=layout,
            engagement=report.engagement,
            traversal=traversal,
            motor=motor,
            path_plus=path_plus,
            path_minus=path_minus,
            spool_plus=spool_plus,
            spool_minus=spool_minus,
            dt=self.dt_s,
            seed=self.seed,
        )


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
_MODULE_FIELDS = ("drive_module", "switch_module", "driven_module")  # module_mm sets all three
_MODULE_KEYS = (*(key for name, key, _ in _CONFIG_KEYS if name in _MODULE_FIELDS), "module_mm")

_SCHEMA: dict[tuple[str, str], _Key] = {
    (spec.section, key): spec for _, key, spec in _CONFIG_KEYS
}
_SCHEMA.update(
    ((spec.section, f"{prefix}_{key}"), spec) for prefix in _PATHS for _, key, spec in _PATH_KEYS
)
_SCHEMA["layout", "module_mm"] = _Key("layout", check=_POSITIVE)

_SECTIONS = ("layout", "traversal", "motor", "paths", "spools", "sim", "script")


# -----------------------------------------------------------------------------
# Parsing


def _finite(text: str) -> float:
    """``float(text)``, rejecting nan and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_knots(text: str) -> tuple[tuple[float, float], ...]:
    """'x_deg:length_mm, x_deg:length_mm, ...' pairs."""
    knots = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        angle, _, length = token.partition(":")
        knots.append((_finite(angle), _finite(length)))
    return tuple(knots)


# Script commands whose one field is their one number argument.
_ONE_NUMBER = {"move_to": MoveMotorTo, "set_velocity": SetVelocity, "wait": Wait}


def _parse_script_line(line: str) -> ScriptCommand:
    name, *args = line.split()
    if name in _ONE_NUMBER and len(args) == 1:
        return _ONE_NUMBER[name](_finite(args[0]))
    if name == "disturb" and len(args) in (2, 3):
        width = _finite(args[2]) if len(args) == 3 else 0.05
        return InjectDisturbance(
            DisturbancePulses(target=args[0], magnitude=_finite(args[1]), width=width)
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
        if spec.cast is float and not math.isfinite(parsed):
            self.fail(line_no, f"{key} must be finite, got {value!r}")
            return
        if spec.check is not None and not spec.check[0](parsed):
            self.fail(line_no, spec.check[1].format(key=key, value=parsed))
        self.values[(section, key)] = parsed
        self.lines[(section, key)] = line_no

    # -- assembly ------------------------------------------------------------

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.values

    def get(self, section: str, key: str, default):
        return self.values.get((section, key), default)

    def line(self, section: str, key: str) -> int:
        return self.lines.get((section, key), 0)

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
                self.fail(0, f"{prefix}_kind = tabulated requires {prefix}_knots")
            else:
                try:
                    values["knots"] = _parse_knots(knots)
                except ValueError as exc:
                    self.fail(self.line("paths", f"{prefix}_knots"), f"bad knot table: {exc}")
        return PathSpec(**values)


def _parse(text: str) -> tuple[Config, PlantConfig]:
    """``parse_config``, returning the plant its cross-field check built as well."""
    p = _Parser(text)
    defaults = Config()

    values = {
        name: p.get(spec.section, key, None)
        for name, key, spec in _CONFIG_KEYS
        if p.has(spec.section, key)
    }
    if p.has("layout", "module_mm"):
        for name in _MODULE_FIELDS:
            values.setdefault(name, p.get("layout", "module_mm", None))
    for prefix in _PATHS:
        values[prefix] = p.path_spec(prefix, getattr(defaults, prefix))
    cfg = Config(**values, script=tuple(cmd for _, cmd in p.script))

    # Contradictory key combinations.
    for (section, key), spec in _SCHEMA.items():
        if p.has(section, key) and any(p.has(section, k) for k in spec.replaces):
            other = spec.replaces[0]
            if len(spec.replaces) > 1:
                other = f"the ({', '.join(spec.replaces)}) pair"
            p.fail(p.line(section, key), f"give either {key} or {other}, not both")

    # Cross-field checks: script rates within the speed limit, waits of at
    # least one step, then the plant build (which validates the layout
    # first), a taut rest state, and one traversal within the step budget.
    if not p.errors:
        for line_no, cmd in p.script:
            if isinstance(cmd, SetVelocity) and abs(cmd.rate) > cfg.max_output_speed:
                message = f"set_velocity {cmd.rate!r} deg/s exceeds max_output_speed_deg_s"
                p.fail(line_no, f"{message} = {cfg.max_output_speed!r}")
            if isinstance(cmd, Wait) and cmd.duration < cfg.dt_s:
                message = f"wait {cmd.duration!r} s is shorter than one step"
                p.fail(line_no, f"{message}, dt_s = {cfg.dt_s!r}")
        try:
            plant = cfg.plant()
            initial_state(plant)
            motor = plant.motor
            travel = motor_travel_per_traversal(plant)
            travel_s = trapezoid_duration(travel, motor.max_output_speed, motor.profile_accel)
            steps_to_cover(travel_s, plant.dt)
        except InvalidDesign as exc:
            for violation in exc.report.violations:
                if violation.rule == "module-mismatch":
                    keys = [k for k in _MODULE_KEYS if p.has("layout", k)]
                    line = max((p.line("layout", k) for k in keys), default=0)
                    named = ", ".join(keys) or "gear modules"
                    p.fail(line, f"{violation.message} (keys: {named})")
                else:
                    p.fail(0, str(violation))
        except (SwitchSimError, ValueError) as exc:
            p.fail(0, f"configuration cannot be instantiated: {exc}")

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
    shared_module = cfg.drive_module == cfg.switch_module == cfg.driven_module
    for name, key, spec, value in _written(cfg, _CONFIG_KEYS):
        if shared_module and name in _MODULE_FIELDS:  # one module_mm line for all three
            if name != _MODULE_FIELDS[0]:
                continue
            key = "module_mm"
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
        cfg = Config()
        return cfg, cfg.plant()
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh.read())
