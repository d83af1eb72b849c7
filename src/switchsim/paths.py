"""Cable path laws: free cable length as a function of the joint pull angle.

Each path maps its own pull coordinate x in [-pi/2, +pi/2] to a strictly
decreasing, positive length L(x) in mm. Winding the cable (L decreasing)
pulls the joint toward +x in that cable's own sense; the plant evaluates the
plus cable at x = +joint_angle and the minus cable at x = -joint_angle, so
the two sides pay out/in antagonistically along geometrically different laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import OutOfRange

X_MIN = -math.pi / 2
X_MAX = math.pi / 2

# Slack (mm) when deciding whether a requested length is attainable; requests
# within this of the range boundary clamp to the boundary angle.
_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class LinearPath:
    """Constant moment arm: L(x) = reference_length - moment_arm * x."""

    reference_length: float  # L0, mm at x = 0
    moment_arm: float        # mm per rad

    def __post_init__(self):
        if not (self.moment_arm > 0):
            raise ValueError(f"moment_arm must be positive, got {self.moment_arm!r}")
        if self.length(X_MAX) <= 0:
            raise ValueError("cable length must stay positive over the pull range")

    def length(self, x: float) -> float:
        return self.reference_length - self.moment_arm * x

    def inverse(self, target: float) -> float:
        return _bounded_inverse(self, target, exact=self._closed_form)

    def _closed_form(self, target: float) -> float:
        return (self.reference_length - target) / self.moment_arm


@dataclass(frozen=True)
class CurvedPath:
    """Bowed routing: L(x) = reference_length - moment_arm*x - bow*sin(x).

    Monotonicity requires moment_arm + bow*cos(x) > 0 on the range, i.e.
    moment_arm > 0 and moment_arm + min(0, bow) > 0.
    """

    reference_length: float
    moment_arm: float
    bow: float

    def __post_init__(self):
        if not (self.moment_arm > 0 and self.moment_arm + min(0.0, self.bow) > 0):
            raise ValueError(
                f"curved path not strictly decreasing: moment_arm={self.moment_arm!r}, "
                f"bow={self.bow!r}"
            )
        if self.length(X_MAX) <= 0:
            raise ValueError("cable length must stay positive over the pull range")

    def length(self, x: float) -> float:
        return self.reference_length - self.moment_arm * x - self.bow * math.sin(x)

    def inverse(self, target: float) -> float:
        return _bounded_inverse(self, target)


@dataclass(frozen=True)
class TabulatedPath:
    """Measured knot table interpolated with a monotone piecewise cubic.

    Knot angles must strictly increase and cover [-pi/2, +pi/2]; lengths must
    strictly decrease and stay positive. PCHIP preserves the monotone shape
    between knots.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("tabulated path needs at least two knots")
        xs = [x for x, _ in self.knots]
        ls = [l for _, l in self.knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot angles must strictly increase")
        if any(b >= a for a, b in zip(ls, ls[1:])):
            raise ValueError("knot lengths must strictly decrease")
        if xs[0] > X_MIN or xs[-1] < X_MAX:
            raise ValueError("knots must cover the full pull range [-pi/2, +pi/2]")
        if ls[-1] <= 0:
            raise ValueError("cable length must stay positive over the pull range")

    @cached_property
    def _interp(self) -> PchipInterpolator:
        xs = [x for x, _ in self.knots]
        ls = [l for _, l in self.knots]
        return PchipInterpolator(xs, ls, extrapolate=True)

    def length(self, x: float) -> float:
        return float(self._interp(x))

    def inverse(self, target: float) -> float:
        return _bounded_inverse(self, target)


CablePath = LinearPath | CurvedPath | TabulatedPath


def _bounded_inverse(path, target: float, exact=None) -> float:
    """Unique x in [-pi/2, +pi/2] with L(x) = target.

    Root-finding tolerance is set so the reconstructed length matches the
    target to well under 1e-9 mm. Requests within _RANGE_TOL of the range
    boundary clamp to the boundary angle.
    """
    l_max = path.length(X_MIN)
    l_min = path.length(X_MAX)
    if target > l_max + _RANGE_TOL or target < l_min - _RANGE_TOL:
        raise OutOfRange(
            f"cable length {target!r} mm outside attainable range "
            f"[{l_min!r}, {l_max!r}] mm"
        )
    if target >= l_max:
        return X_MIN
    if target <= l_min:
        return X_MAX
    if exact is not None:
        return exact(target)
    return brentq(
        lambda x: path.length(x) - target,
        X_MIN,
        X_MAX,
        xtol=1e-13,
        rtol=8.9e-16,
        maxiter=200,
    )
