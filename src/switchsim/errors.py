"""Exception hierarchy and the numeric range rule shared across the package."""

import math

# What follows "must be" in the message of each bound of the range rule.
_WORDING = {
    None: "finite",
    "positive": "finite and positive",
    "not negative": "finite and not negative",
    "positive, inf allowed": "finite and positive, or inf",
}
_FLOAT_MAX = math.nextafter(math.inf, 0.0)  # the largest float: finite is at most this


def _in_range(name: str, value, bound: str | None = None):
    """``value`` if it is finite and within ``bound``, else a ValueError naming ``name``.

    ``bound`` is None, "positive", "not negative" or "positive, inf allowed";
    only the last admits a value that is not finite, +inf. NaN never passes.
    Finite means within the float range, so an int too large for a float fails.
    """
    if bound is None:
        ok = abs(value) <= _FLOAT_MAX
    elif bound == "not negative":
        ok = 0.0 <= value <= _FLOAT_MAX
    elif bound == "positive":
        ok = 0.0 < value <= _FLOAT_MAX
    else:
        ok = 0.0 < value <= _FLOAT_MAX or value == math.inf
    if not ok:
        raise ValueError(f"{name} must be {_WORDING[bound]}, got {value!r}")
    return value


def _integer(name: str, value):
    """``value`` if it is an int, else a ValueError naming ``name``."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class SwitchSimError(Exception):
    """Base class for all mechanism and simulation errors."""


class NoEngagement(SwitchSimError):
    """The switch gear can never reach pitch tangency with a driven gear."""


class TrackDegenerate(SwitchSimError):
    """The switch gear already meshes a driven gear at the midline (no track)."""


class InvalidState(SwitchSimError):
    """A switch state violates its mode/position invariants."""


class SubKinematicRatio(SwitchSimError):
    """Measured motor/revolution ratio below the kinematic carry ratio."""


class OutOfRange(SwitchSimError):
    """Requested cable length outside the path's attainable range."""


class RangeExceeded(SwitchSimError):
    """Joint angle driven outside the modeled range of motion."""


class SlackDetected(SwitchSimError):
    """A cable tension dropped to zero (spool spring range exhausted)."""


class NeverEngaged(SwitchSimError):
    """A commanded move completed without the switch reaching an endpoint."""


class BelowKinematicFloor(SwitchSimError):
    """A measured duration is at or below the constant-speed minimum."""


class InvalidDesign(SwitchSimError):
    """A layout, a config's or an optimizer candidate's, failed ``validate_layout``."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class SpaceTooLarge(SwitchSimError):
    """Design-space enumeration would exceed the configured cap."""


class EmptyFeasibleSet(SwitchSimError):
    """No design in the space passed validation and constraints."""


class ConfigError(SwitchSimError):
    """One or more configuration errors, each tagged with a line number."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {n}: {msg}" if n else msg for n, msg in self.errors)
        super().__init__(lines)
