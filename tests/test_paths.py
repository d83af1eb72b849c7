import math
import random

import pytest

from switchsim import CurvedPath, LinearPath, OutOfRange, TabulatedPath


LINEAR = LinearPath(300.0, 25.0)
CURVED = CurvedPath(300.0, 25.0, 5.0)


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


@pytest.fixture(scope="module")
def table():
    xs = [math.radians(d) for d in range(-90, 91, 15)]
    return TabulatedPath(tuple((x, CURVED.length(x)) for x in xs))


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
