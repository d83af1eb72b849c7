"""The one numeric range rule: each bound against the float extremes, and
against ints beyond them."""

import math

import pytest

from switchsim.errors import _in_range

HUGE = 10**400  # an int beyond the float range: not finite
VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, HUGE, -HUGE)

# bound: (its wording after "must be", the VALUES it admits)
BOUNDS = {
    None: ("finite", {-0.0, 0.0, 5e-324, 1e308}),
    "positive": ("finite and positive", {5e-324, 1e308}),
    "not negative": ("finite and not negative", {-0.0, 0.0, 5e-324, 1e308}),
    "positive, inf allowed": ("finite and positive, or inf", {5e-324, 1e308, math.inf}),
}


@pytest.mark.parametrize(
    "value", VALUES, ids=lambda v: repr(v) if isinstance(v, float) else "-" * (v < 0) + "10**400"
)
@pytest.mark.parametrize("bound", BOUNDS, ids=repr)
def test_each_bound_against_the_float_extremes(bound, value):
    wording, admitted = BOUNDS[bound]
    if value in admitted:
        assert _in_range("x", value, bound) is value
    else:
        with pytest.raises(ValueError) as exc:
            _in_range("x", value, bound)
        assert str(exc.value) == f"x must be {wording}, got {value!r}"

