import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from switchsim import CurvedPath, LinearPath, OutOfRange, SwitchSimError, TabulatedPath
from switchsim import paths


ORACLE = json.loads((Path(__file__).parent / "data" / "path_oracle.json").read_text())

LINEAR = LinearPath(300.0, 25.0)
CURVED = CurvedPath(300.0, 25.0, 5.0)
TABLE = TabulatedPath(
    tuple((math.radians(d), CURVED.length(math.radians(d))) for d in range(-90, 91, 15))
)


class TestLinear:
    def test_anchor(self):
        assert LINEAR.length(0.0) == 300.0
        assert LINEAR.inverse(300.0) == 0.0

    def test_closed_form_inverse_at_limit(self):
        limit = 300.0 - 25.0 * math.pi / 2
        assert limit == pytest.approx(260.73, abs=0.01)
        assert LINEAR.inverse(limit) == pytest.approx(math.pi / 2)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            LINEAR.inverse(250.0)
        with pytest.raises(OutOfRange):
            LINEAR.inverse(345.0)

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            LinearPath(300.0, -5.0)
        with pytest.raises(ValueError):
            LinearPath(30.0, 25.0)  # goes non-positive before +90 deg


class TestCurved:
    def test_length_round_trip_1000(self):
        rng = random.Random(7)
        lo, hi = CURVED.length(math.pi / 2), CURVED.length(-math.pi / 2)
        for _ in range(1000):
            target = rng.uniform(lo, hi)
            x = CURVED.inverse(target)
            assert abs(CURVED.length(x) - target) < 1e-9

    def test_angle_round_trip_1000(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = rng.uniform(-math.pi / 2, math.pi / 2)
            back = CURVED.inverse(CURVED.length(x))
            assert abs(back - x) < 1e-8

    def test_monotonicity_guard(self):
        with pytest.raises(ValueError):
            CurvedPath(300.0, 5.0, -6.0)

    def test_rejects_a_length_not_positive_at_the_pull_limit(self):
        with pytest.raises(ValueError, match="^cable length must stay positive over the pull range$"):
            CurvedPath(10.0, 25.0, 0.0)


@pytest.fixture(scope="module")
def table():
    return TABLE


class TestTabulated:
    def test_matches_knots_exactly(self, table):
        for x, l in table.knots:
            assert table.length(x) == pytest.approx(l, abs=1e-12)

    def test_round_trip(self, table):
        rng = random.Random(13)
        lo, hi = table.length(math.pi / 2), table.length(-math.pi / 2)
        for _ in range(200):
            target = rng.uniform(lo, hi)
            x = table.inverse(target)
            assert abs(table.length(x) - target) < 1e-9

    def test_monotone_between_knots(self, table):
        samples = [table.length(-math.pi / 2 + i * math.pi / 400) for i in range(401)]
        assert all(b < a for a, b in zip(samples, samples[1:]))

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            TabulatedPath(((0.0, 300.0),))
        with pytest.raises(ValueError):
            TabulatedPath(((-2.0, 300.0), (-2.0, 290.0), (2.0, 280.0)))
        with pytest.raises(ValueError):
            TabulatedPath(((-2.0, 300.0), (0.0, 310.0), (2.0, 280.0)))
        with pytest.raises(ValueError):
            TabulatedPath(((-0.5, 300.0), (0.5, 280.0)))  # does not cover the range

    def test_rejects_a_last_knot_length_not_positive(self):
        with pytest.raises(ValueError, match="^cable length must stay positive over the pull range$"):
            TabulatedPath(((-2.0, 300.0), (2.0, 0.0)))


def _oracle_paths():
    for case in ORACLE["curved"]:
        path = CurvedPath(case["reference_length"], case["moment_arm"], case["bow"])
        yield pytest.param(path, case, id=f"curved-bow{case['bow']}")
    for case in ORACLE["tabulated"]:
        path = TabulatedPath(tuple(tuple(knot) for knot in case["knots"]))
        yield pytest.param(path, case, id=f"tabulated-{case['name']}")


@pytest.mark.parametrize("path, case", list(_oracle_paths()))
class TestScipyOracle:
    """Lengths and inverses recorded from the scipy PCHIP and brentq implementation
    (tests/data/path_oracle.json names the commit that wrote them)."""

    def test_lengths(self, path, case):
        worst = max(abs(path.length(x) - length) for x, length in case["length"])
        assert worst <= 1e-12

    def test_inverses(self, path, case):
        worst = max(abs(path.inverse(target) - x) for target, x in case["inverse"])
        assert worst <= 1e-12


class _Counted:
    """A path whose root-finder evaluations and ``length`` calls are counted."""

    def __init__(self, path):
        self.path = path
        self.length_range = path.length_range
        self._start = path._start  # (L(0), L'(0)), which costs no evaluation
        self.evaluations = 0
        self.length_calls = 0

    def length(self, x):
        self.length_calls += 1
        return self.path.length(x)

    def _length_and_slope(self, x):
        self.evaluations += 1
        return self.path._length_and_slope(x)


def _check_inverse(path, fractions):
    """length(inverse(L)) is within 1e-9 mm of L, inverse is monotone in L, and
    no inverse comes near the iteration cap."""
    lo, hi = path.length(paths.X_MAX), path.length(paths.X_MIN)
    targets = sorted(lo + f * (hi - lo) for f in fractions)
    xs = []
    for target in targets:
        counted = _Counted(path)
        x = paths._bounded_inverse(counted, target)
        assert counted.evaluations < paths._MAX_ITERATIONS
        assert counted.length_calls == 0
        assert x == path.inverse(target)
        assert abs(path.length(x) - target) <= 1e-9
        xs.append(x)
    assert all(b <= a for a, b in zip(xs, xs[1:]))


@st.composite
def tables(draw):
    """Strictly decreasing knot tables of 2-40 unevenly spaced knots covering the range."""
    n = draw(st.integers(2, 40))
    x_first = paths.X_MIN - draw(st.floats(0.0, 0.3))
    x_last = paths.X_MAX + draw(st.floats(0.0, 0.3))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    total = sum(gaps)
    xs = [x_first]
    for gap in gaps[:-1]:
        xs.append(xs[-1] + gap / total * (x_last - x_first))
    xs.append(x_last)
    drops = draw(st.lists(st.floats(1e-3, 40.0), min_size=n - 1, max_size=n - 1))
    ls = [sum(drops) + draw(st.floats(1.0, 300.0))]
    for drop in drops:
        ls.append(ls[-1] - drop)
    return TabulatedPath(tuple(zip(xs, ls)))


FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)


class TestInverseProperties:
    @settings(deadline=None, max_examples=200)
    @given(tables(), FRACTIONS)
    def test_tabulated(self, path, fractions):
        _check_inverse(path, fractions)

    @settings(deadline=None, max_examples=200)
    @given(
        st.floats(1.0, 60.0),
        st.floats(-0.999, 3.0),
        FRACTIONS,
    )
    def test_curved(self, moment_arm, bow_ratio, fractions):
        _check_inverse(CurvedPath(300.0, moment_arm, bow_ratio * moment_arm), fractions)

    def test_roots_near_zero_end_within_a_few_evaluations(self):
        # Near x = 0 a 300 mm length resolves angle steps of only ~2.6e-15 rad,
        # so Newton stalls there and the root-finder bisects; it must stop at
        # _BISECT_TOL, not halve the bracket down to adjacent floats near 1e-30.
        path = CurvedPath(300.0, 22.0, 6.0)
        zero = path.length(0.0)
        for k in range(-40, 41):
            target = zero + k * math.ulp(zero)
            counted = _Counted(path)
            x = paths._bounded_inverse(counted, target)
            assert counted.evaluations <= 20, k
            assert x == path.inverse(target)
            assert abs(path.length(x) - target) <= 1e-9

    def test_cap_names_the_target(self, monkeypatch):
        monkeypatch.setattr(paths, "_MAX_ITERATIONS", 2)
        with pytest.raises(SwitchSimError, match="inverse of cable length 301.5 mm did not converge"):
            CURVED.inverse(301.5)


ALL_KINDS = pytest.mark.parametrize(
    "path", [LINEAR, CURVED, TABLE], ids=["linear", "curved", "tabulated"]
)


class TestStoredRange:
    @ALL_KINDS
    def test_range_is_the_end_lengths(self, path):
        assert path.length_range == (path.length(paths.X_MAX), path.length(paths.X_MIN))

    @pytest.mark.parametrize("path", [CURVED, TABLE], ids=["curved", "tabulated"])
    def test_newton_start_is_the_length_and_slope_at_zero(self, path):
        assert path._start == path._length_and_slope(0.0)

    @ALL_KINDS
    @pytest.mark.parametrize("past", [0.0, 0.5, 1.0])
    def test_targets_within_tolerance_of_an_end_clamp(self, path, past):
        shortest, longest = path.length_range
        tolerance = past * paths._RANGE_TOL
        assert path.inverse(longest + tolerance) == paths.X_MIN
        assert path.inverse(shortest - tolerance) == paths.X_MAX

    @ALL_KINDS
    def test_targets_past_the_tolerance_are_out_of_range(self, path):
        shortest, longest = path.length_range
        with pytest.raises(OutOfRange):
            path.inverse(longest + 2 * paths._RANGE_TOL)
        with pytest.raises(OutOfRange):
            path.inverse(shortest - 2 * paths._RANGE_TOL)
