"""Cable path laws: free cable length as a function of the joint pull angle.

Each path maps its own pull coordinate x in [-pi/2, +pi/2] to a strictly
decreasing, positive length L(x) in mm. Winding the cable (L decreasing)
pulls the joint toward +x in that cable's own sense; the plant evaluates the
plus cable at x = +joint_angle and the minus cable at x = -joint_angle, so
the two sides pay out/in antagonistically along geometrically different laws.
A path stores its (shortest, longest) attainable length as ``length_range``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import OutOfRange, SwitchSimError, _in_range

X_MIN = -math.pi / 2
X_MAX = math.pi / 2

# Slack (mm) when deciding whether a requested length is attainable; requests
# within this of the range boundary clamp to the boundary angle.
_RANGE_TOL = 1e-9

# Root-finder steps an inverse may take. Most inverses take under ten; the
# most seen is 20, for a root within 1e-13 rad of zero, where floats are
# dense. Reaching the cap is a defect.
_MAX_ITERATIONS = 100

# Smallest bisection step (rad). Near x = 0 a length near 300 mm resolves
# angle steps of only about 2.6e-15 rad, so Newton stalls on a staircase of
# equal lengths and bisection takes over; without this floor it would go on
# to adjacent floats near 1e-30 rad. The floor acts only where adjacent
# floats lie closer than twice it, within about 1e-4 rad of zero.
_BISECT_TOL = 1e-20


@dataclass(frozen=True)
class LinearPath:
    """Constant moment arm: L(x) = reference_length - moment_arm * x."""

    reference_length: float  # L0, mm at x = 0
    moment_arm: float        # mm per rad
    length_range: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _in_range("reference_length", self.reference_length)
        _in_range("moment_arm", self.moment_arm, "positive")
        if self.length(X_MAX) <= 0:
            raise ValueError("cable length must stay positive over the pull range")
        object.__setattr__(self, "length_range", (self.length(X_MAX), self.length(X_MIN)))

    def length(self, x: float) -> float:
        return self.reference_length - self.moment_arm * x

    def inverse(self, target: float) -> float:
        x = _boundary_angle(self, target)
        return (self.reference_length - target) / self.moment_arm if x is None else x


@dataclass(frozen=True)
class CurvedPath:
    """Bowed routing: L(x) = reference_length - moment_arm*x - bow*sin(x).

    Monotonicity requires moment_arm + bow*cos(x) > 0 on the range, i.e.
    moment_arm > 0 and moment_arm + min(0, bow) > 0.
    """

    reference_length: float
    moment_arm: float
    bow: float
    length_range: tuple[float, float] = field(init=False, repr=False, compare=False)
    _start: tuple[float, float] = field(init=False, repr=False, compare=False)  # (L(0), L'(0))

    def __post_init__(self):
        _in_range("reference_length", self.reference_length)
        _in_range("moment_arm", self.moment_arm, "positive")
        _in_range("bow", self.bow)
        if not self.moment_arm + min(0.0, self.bow) > 0:
            raise ValueError(
                f"curved path not strictly decreasing: moment_arm={self.moment_arm!r}, "
                f"bow={self.bow!r}"
            )
        if self.length(X_MAX) <= 0:
            raise ValueError("cable length must stay positive over the pull range")
        object.__setattr__(self, "length_range", (self.length(X_MAX), self.length(X_MIN)))
        object.__setattr__(self, "_start", self._length_and_slope(0.0))

    def length(self, x: float) -> float:
        return self.reference_length - self.moment_arm * x - self.bow * math.sin(x)

    def inverse(self, target: float) -> float:
        return _bounded_inverse(self, target)

    def _length_and_slope(self, x: float) -> tuple[float, float]:
        return self.length(x), -self.moment_arm - self.bow * math.cos(x)


@dataclass(frozen=True)
class TabulatedPath:
    """Measured knot table interpolated with a monotone piecewise cubic.

    Knot angles must strictly increase and cover [-pi/2, +pi/2]; lengths must
    strictly decrease and stay positive. The interpolant is SciPy-compatible
    PCHIP (``PchipInterpolator(extrapolate=True)``) in closed form: a cubic
    Hermite per knot interval whose knot slopes preserve the monotone shape,
    with the end intervals extended past the outer knots.
    """

    knots: tuple[tuple[float, float], ...]
    # _pchip of the knots: (interior knot angles, (x_k, c0, c1, c2, c3) per interval)
    _spline: tuple[tuple[float, ...], tuple[tuple[float, ...], ...]] = field(
        init=False, repr=False, compare=False
    )
    length_range: tuple[float, float] = field(init=False, repr=False, compare=False)
    _start: tuple[float, float] = field(init=False, repr=False, compare=False)  # (L(0), L'(0))

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("tabulated path needs at least two knots")
        for knot in self.knots:
            for value in knot:
                _in_range("knots", value)
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
        object.__setattr__(self, "_spline", _pchip(xs, ls))
        object.__setattr__(self, "length_range", (self.length(X_MAX), self.length(X_MIN)))
        object.__setattr__(self, "_start", self._length_and_slope(0.0))

    def length(self, x: float) -> float:
        return self._length_and_slope(x)[0]

    def inverse(self, target: float) -> float:
        return _bounded_inverse(self, target)

    def _length_and_slope(self, x: float) -> tuple[float, float]:
        interior, segments = self._spline
        x0, c0, c1, c2, c3 = segments[bisect_right(interior, x)]
        s = x - x0
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s), c2 + 2.0 * c1 * s + 3.0 * c0 * s2


def _pchip(
    xs: list[float], ls: list[float]
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """(interior knot angles, (x_k, c0, c1, c2, c3) per interval) of the
    monotone cubic through knot angles ``xs`` and lengths ``ls``.

    On interval k, L = c3 + c2*s + c1*s^2 + c0*s^3 with s = x - x_k, the
    coefficients and the evaluation order of SciPy's CubicHermiteSpline.
    """
    h = [b - a for a, b in zip(xs, xs[1:])]
    m = [(b - a) / hk for a, b, hk in zip(ls, ls[1:], h)]
    if len(m) == 1:
        slopes = [m[0], m[0]]
    else:
        # Every secant is negative, so SciPy's zero slope where the
        # secants change sign never applies: each interior slope is the
        # Fritsch-Butland weighted harmonic mean of its two secants.
        slopes = [_end_slope(h[0], h[1], m[0], m[1])]
        for k in range(1, len(m)):
            w1 = 2 * h[k] + h[k - 1]
            w2 = h[k] + 2 * h[k - 1]
            slopes.append(1.0 / ((w1 / m[k - 1] + w2 / m[k]) / (w1 + w2)))
        slopes.append(_end_slope(h[-1], h[-2], m[-1], m[-2]))
    segments = []
    for k, (hk, mk) in enumerate(zip(h, m)):
        t = (slopes[k] + slopes[k + 1] - 2 * mk) / hk
        segments.append((xs[k], t / hk, (mk - slopes[k]) / hk - t, slopes[k], ls[k]))
    return tuple(xs[1:-1]), tuple(segments)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """SciPy's PCHIP end slope: the one-sided three-point estimate, zeroed
    where its sign differs from the end secant m0. (SciPy's further clamp to
    3*m0 needs m0 and m1 of opposite sign, which decreasing knots rule out.)"""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d < 0.0 else 0.0


CablePath = LinearPath | CurvedPath | TabulatedPath


def _boundary_angle(path, target: float) -> float | None:
    """The range end a length ``target`` clamps to, or None inside the range.

    Raises:
        ValueError: the target is not finite.
        OutOfRange: the target lies past an end by more than _RANGE_TOL.
    """
    l_min, l_max = path.length_range
    if l_min < target < l_max:  # false for nan, as for every target checked below
        return None
    if not math.isfinite(target):
        raise ValueError(f"cable length must be finite, got {target!r}")
    if target > l_max + _RANGE_TOL or target < l_min - _RANGE_TOL:
        raise OutOfRange(
            f"cable length {target!r} mm outside attainable range "
            f"[{l_min!r}, {l_max!r}] mm"
        )
    return X_MIN if target >= l_max else X_MAX


def _bounded_inverse(path, target: float) -> float:
    """Unique x in [-pi/2, +pi/2] with L(x) = target, for a path without a closed form.

    Away from the range boundaries (``_boundary_angle``), a safeguarded
    Newton iteration on the path's analytic slope answers (Numerical Recipes'
    rtsafe): it starts at x = 0 from the path's ``_start``, (L(0), L'(0)),
    keeps a bracket around the root and bisects whenever a Newton step would
    leave the bracket or fail to halve the step before last. It stops on an
    exact root, on a Newton step that no longer moves x, or once a bisection
    step would be at most ``_BISECT_TOL`` or the bracket is down to adjacent
    floats, so ``length(inverse(L))`` is within 1e-9 mm of L.

    Raises:
        ValueError: the target is not finite.
        OutOfRange: the target lies outside the attainable lengths.
        SwitchSimError: the iteration cap is reached (a defect).
    """
    boundary = _boundary_angle(path, target)
    if boundary is not None:
        return boundary
    lo, hi = X_MIN, X_MAX
    x = 0.0  # the midpoint
    length, slope = path._start
    step = before = hi - lo
    for _ in range(_MAX_ITERATIONS):
        excess = length - target
        if excess == 0.0:
            return x
        # L decreases, so the root lies above x where L(x) exceeds the target.
        if excess > 0.0:
            lo = x
        else:
            hi = x
        newton = math.nan
        if abs(2.0 * excess) <= abs(before * slope):
            newton = x - excess / slope
            if newton == x:  # the step no longer moves x
                return x
        if lo < newton < hi:
            before, step = step, x - newton
            x = newton
        else:
            before, step = step, 0.5 * (hi - lo)
            middle = lo + step
            if step <= _BISECT_TOL or not (lo < middle < hi):  # or lo, hi adjacent floats
                return x
            x = middle
        length, slope = path._length_and_slope(x)
    raise SwitchSimError(
        f"inverse of cable length {target!r} mm did not converge in {_MAX_ITERATIONS} steps"
    )
