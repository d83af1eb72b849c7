import math
import random
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from switchsim import (
    EngagementSolution,
    GearSpec,
    MechanismLayout,
    NoEngagement,
    SwitchSimError,
    TrackDegenerate,
    envelope_diameter,
    kinematic_carry_ratio,
    solve_center_distance,
    solve_engagement,
    validate_layout,
)
from switchsim import geometry
from conftest import random_valid_layout


def brute_force_psi_star(layout, step=1e-6, chunk=200_000):
    """Independent oracle: scan psi outward from the midline at fixed steps and
    return the first grid point where the switch is within mesh distance of
    the +phi_d driven gear."""
    r = layout.track_radius
    d = layout.driven_center_distance
    phi = layout.driven_half_angle
    mesh_sq = layout.mesh_distance ** 2
    limit = phi + math.pi / 2
    start = 0
    while start * step < limit:
        psi = (start + np.arange(chunk)) * step
        gap_sq = r * r + d * d - 2.0 * r * d * np.cos(psi - phi)
        hits = np.nonzero(gap_sq <= mesh_sq)[0]
        if hits.size:
            return float(psi[hits[0]])
        start += chunk
    raise AssertionError("oracle found no engagement")


class TestPitchRadius:
    def test_examples(self):
        assert GearSpec(20, 1.0).pitch_radius == 10.0
        assert GearSpec(16, 1.0).pitch_radius == 8.0
        assert GearSpec(24, 0.5).pitch_radius == 6.0

    @given(
        teeth=st.integers(min_value=8, max_value=200),
        module=st.floats(min_value=0.1, max_value=10.0),
        scale=st.integers(min_value=1, max_value=5),
    )
    def test_linear_in_teeth_and_module(self, teeth, module, scale):
        base = GearSpec(teeth, module).pitch_radius
        assert GearSpec(teeth * scale, module).pitch_radius == pytest.approx(base * scale)
        assert GearSpec(teeth, module * scale).pitch_radius == pytest.approx(base * scale)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GearSpec(7, 1.0)
        with pytest.raises(ValueError, match=r"^tooth_count must be finite, got 10{400}$"):
            GearSpec(10**400, 1.0)  # beyond the float range: no float pitch radius
        with pytest.raises(ValueError, match=r"^tooth_count must be an integer, got True$"):
            GearSpec(True, 1.0)

    def test_stored_radius_keeps_the_dataclass_contract(self):
        gear = GearSpec(20, 1.0)
        with pytest.raises(TypeError):
            GearSpec(20, 1.0, pitch_radius=3.0)
        assert repr(gear) == "GearSpec(tooth_count=20, module=1.0)"
        assert gear == GearSpec(20, 1.0) and hash(gear) == hash(GearSpec(20, 1.0))
        assert gear != GearSpec(20, 0.5) and gear != GearSpec(24, 1.0)
        assert replace(gear, tooth_count=24).pitch_radius == 12.0
        assert replace(gear, module=0.5).pitch_radius == 5.0
        with pytest.raises(FrozenInstanceError):
            gear.pitch_radius = 3.0
        with pytest.raises(ValueError):
            GearSpec(20, 0.0)
        with pytest.raises(ValueError):
            GearSpec(20.0, 1.0)  # non-integer tooth count


class TestSolveEngagement:
    def test_reference_layout(self, ref_layout, ref_engagement):
        assert math.degrees(ref_engagement.psi_star) == pytest.approx(9.9, abs=1e-9)
        assert math.degrees(ref_engagement.theta_track) == pytest.approx(19.8, abs=1e-9)

    def test_published_center_distance(self):
        # The quoted 4-decimal centre distance reproduces the same numbers at
        # its own display precision.
        layout = MechanismLayout(
            driving=GearSpec(20, 1.0),
            switch=GearSpec(16, 1.0),
            driven=GearSpec(20, 1.0),
            driven_center_distance=34.7566,
            driven_half_angle=math.radians(25.0),
        )
        sol = solve_engagement(layout)
        assert math.degrees(sol.psi_star) == pytest.approx(9.9, abs=0.01)
        assert math.degrees(sol.theta_track) == pytest.approx(19.8, abs=0.01)

    def test_mirror_symmetry(self, ref_layout, ref_engagement):
        # The -phi_d driven gear is engaged at -psi*: distance at the mirrored
        # angle equals the mesh distance.
        r = ref_layout.track_radius
        d = ref_layout.driven_center_distance
        psi = -ref_engagement.psi_star
        gap = math.sqrt(
            r * r + d * d - 2 * r * d * math.cos(psi + ref_layout.driven_half_angle)
        )
        assert gap == pytest.approx(ref_layout.mesh_distance, abs=1e-9)

    def test_neutral_band_inside_track(self, ref_engagement):
        assert 0.0 < ref_engagement.neutral_half_width < ref_engagement.psi_star

    def test_matches_brute_force_oracle_sample(self):
        rng = random.Random(20260810)
        for _ in range(25):
            layout = random_valid_layout(rng)
            expected = brute_force_psi_star(layout)
            got = solve_engagement(layout).psi_star
            assert abs(got - expected) < 1e-5

    def test_theta_increases_with_half_angle(self, ref_layout):
        thetas = []
        for phi_deg in (20.0, 25.0, 30.0, 35.0):
            layout = MechanismLayout(
                driving=ref_layout.driving,
                switch=ref_layout.switch,
                driven=ref_layout.driven,
                driven_center_distance=ref_layout.driven_center_distance,
                driven_half_angle=math.radians(phi_deg),
            )
            thetas.append(solve_engagement(layout).theta_track)
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_no_engagement_when_driven_too_far(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=100.0,
            driven_half_angle=ref_layout.driven_half_angle,
        )
        with pytest.raises(NoEngagement):
            solve_engagement(layout)

    def test_degenerate_track_when_meshed_at_midline(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=18.0,
            driven_half_angle=ref_layout.driven_half_angle,
        )
        with pytest.raises(TrackDegenerate):
            solve_engagement(layout)


class TestSolveCenterDistance:
    @given(
        psi_frac=st.floats(min_value=0.05, max_value=0.99),
        phi_deg=st.floats(min_value=10.0, max_value=70.0),
        z_switch=st.integers(min_value=8, max_value=30),
    )
    def test_round_trip(self, psi_frac, phi_deg, z_switch):
        driving = GearSpec(20, 1.0)
        switch = GearSpec(z_switch, 1.0)
        driven = GearSpec(24, 1.0)
        phi = math.radians(phi_deg)
        target = psi_frac * phi
        d = solve_center_distance(driving, switch, driven, phi, target)
        layout = MechanismLayout(driving, switch, driven, d, phi)
        assert solve_engagement(layout).psi_star == pytest.approx(target, abs=1e-12)

    def test_rejects_target_beyond_half_angle(self):
        g = GearSpec(20, 1.0)
        with pytest.raises(ValueError):
            solve_center_distance(g, g, g, math.radians(25), math.radians(26))

    @pytest.mark.parametrize("module", [1e153, 1e155, 1e300])
    def test_radii_too_large_to_square_have_no_engagement(self, module):
        # The pitch radii square past the float range: no NaN distance.
        gears = GearSpec(20, module), GearSpec(16, module), GearSpec(20, module)
        with pytest.raises(NoEngagement, match="no finite centre distance"):
            solve_center_distance(*gears, math.radians(25), math.radians(9.9))


class TestValidateLayout:
    def test_reference_is_clean(self, ref_layout):
        report = validate_layout(ref_layout)
        assert report.ok
        assert str(report) == "0 violations"

    def test_report_carries_the_engagement(self, ref_layout):
        # Both wrap the plain triple of the core that optimize unpacks.
        layout = ref_layout
        core = geometry._solve(
            layout.track_radius,
            layout.driven_center_distance,
            layout.driven_half_angle,
            layout.mesh_distance,
            layout.backlash_margin,
        )
        assert type(core) is tuple and len(core) == 3
        for engagement in (solve_engagement(layout), validate_layout(layout).engagement):
            assert type(engagement) is EngagementSolution
            assert engagement == core

    def test_track_too_small_to_solve_is_degenerate(self):
        # 2*R*D underflows to zero for gears of module 1e-300.
        gear = GearSpec(20, 1e-300)
        layout = MechanismLayout(gear, GearSpec(16, 1e-300), gear, 3e-299, math.radians(25.0))
        with pytest.raises(TrackDegenerate, match="too small to solve"):
            solve_engagement(layout)
        report = validate_layout(layout)
        assert report.rules() == {"switch-driven-interference"}
        assert report.engagement is None

    @pytest.mark.parametrize("module", [1e152, 1e153, 1e300])
    def test_track_too_large_to_solve_is_degenerate(self, module):
        # R^2 or D^2 overflows, so the engagement cosine is NaN.
        gear = GearSpec(20, module)
        layout = MechanismLayout(gear, GearSpec(16, module), gear, 1e155, math.radians(25.0))
        with pytest.raises(TrackDegenerate, match="too large to solve"):
            solve_engagement(layout)
        report = validate_layout(layout)
        assert "switch-driven-interference" in report.rules()
        assert report.engagement is None

    def test_insoluble_report_has_no_engagement(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=100.0,
            driven_half_angle=ref_layout.driven_half_angle,
        )
        report = validate_layout(layout)
        assert "no-engagement" in report.rules()
        assert report.engagement is None

    def test_zero_center_distance(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=0.0,
            driven_half_angle=ref_layout.driven_half_angle,
        )
        report = validate_layout(layout)
        assert report.rules() == {"invalid-parameter", "driving-driven-interference"}
        assert report.engagement is None

    def test_zero_half_angle(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=ref_layout.driven_center_distance,
            driven_half_angle=0.0,
        )
        report = validate_layout(layout)
        assert [v.rule for v in report.violations] == ["invalid-parameter"]
        assert report.engagement is None

    def test_mixed_modules(self, ref_layout):
        layout = MechanismLayout(
            driving=GearSpec(20, 1.0),
            switch=GearSpec(16, 0.8),
            driven=GearSpec(20, 1.0),
            driven_center_distance=ref_layout.driven_center_distance,
            driven_half_angle=ref_layout.driven_half_angle,
        )
        assert "module-mismatch" in validate_layout(layout).rules()

    def test_midline_interference_flagged(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=30.5,
            driven_half_angle=math.radians(8.0),
        )
        report = validate_layout(layout)
        assert report.rules() == {"switch-driven-interference"}
        assert "psi* = -24.0892 deg" in str(report)

    def test_inside_mesh_distance_everywhere(self):
        layout = MechanismLayout(
            driving=GearSpec(20, 1.0),
            switch=GearSpec(16, 1.0),
            driven=GearSpec(60, 1.0),
            driven_center_distance=19.0,
            driven_half_angle=math.radians(25.0),
        )
        assert validate_layout(layout).rules() == {
            "driving-driven-interference",
            "switch-driven-interference",
        }
        with pytest.raises(TrackDegenerate):
            solve_engagement(layout)

    def test_each_engagement_failure_reported_once(self):
        # Oracle: the law-of-cosines gap from the switch at the midline to the
        # +phi_d driven centre.
        rng = random.Random(20261018)
        for _ in range(4000):
            layout = _corpus_layout(rng)
            rules = validate_layout(layout).rules()
            assert not {"switch-driven-interference", "no-engagement"} <= rules
            d = layout.driven_center_distance
            phi = layout.driven_half_angle
            if not (math.isfinite(d) and d > 0 and 0.0 < phi < math.pi / 2):
                continue
            r = layout.track_radius
            gap0 = math.sqrt(r * r + d * d - 2.0 * r * d * math.cos(phi))
            assert ("switch-driven-interference" in rules) == (gap0 <= layout.mesh_distance)

    def test_negative_margin_flagged(self, ref_layout):
        layout = MechanismLayout(
            driving=ref_layout.driving,
            switch=ref_layout.switch,
            driven=ref_layout.driven,
            driven_center_distance=ref_layout.driven_center_distance,
            driven_half_angle=ref_layout.driven_half_angle,
            backlash_margin=-0.1,
        )
        assert "invalid-parameter" in validate_layout(layout).rules()


def _corpus_layout(rng):
    """A random layout, valid or not: mixed modules, centre distances around
    the engagement limits, and some non-finite or out-of-range fields."""
    modules = [rng.choice([0.5, 0.8, 1.0, 1.25])] * 3
    if rng.random() < 0.2:
        modules = [rng.choice([0.5, 0.8, 1.0, 1.25]) for _ in range(3)]
    driving, switch, driven = (GearSpec(rng.randint(8, 60), m) for m in modules)
    r = driving.pitch_radius + switch.pitch_radius
    mesh = switch.pitch_radius + driven.pitch_radius
    u = rng.random()
    if u < 0.05:
        d = rng.choice([0.0, -1.0, math.nan, math.inf])
    elif u < 0.5:
        d = rng.uniform(max(0.1, abs(r - mesh) - 5.0), r + mesh + 5.0)
    else:
        d = rng.uniform(0.1, 2.5 * (r + mesh))
    if rng.random() < 0.05:
        phi = rng.choice([0.0, -0.1, math.pi / 2, 2.0, math.nan, math.inf])
    else:
        phi = rng.uniform(1e-3, math.pi / 2 - 1e-3)
    if rng.random() < 0.05:
        margin = rng.choice([-0.1, math.nan, math.inf, 0.0])
    else:
        margin = rng.uniform(0.0, 2.0)
    return MechanismLayout(driving, switch, driven, d, phi, margin)


class TestCarryRatio:
    def test_reference(self, ref_layout):
        assert kinematic_carry_ratio(ref_layout) == pytest.approx(1.8)

    def test_equal_radii(self):
        g = GearSpec(20, 1.0)
        layout = MechanismLayout(g, g, g, 40.0, math.radians(30))
        assert kinematic_carry_ratio(layout) == pytest.approx(2.0)

    def test_vanishing_planet_limit(self):
        layout = MechanismLayout(
            driving=GearSpec(20, 1.0),
            switch=GearSpec(8, 1e-9),
            driven=GearSpec(20, 1.0),
            driven_center_distance=40.0,
            driven_half_angle=math.radians(30),
        )
        assert kinematic_carry_ratio(layout) == pytest.approx(1.0, abs=1e-6)


def test_envelope_diameter(ref_layout):
    d = envelope_diameter(ref_layout)
    expected = 2 * (ref_layout.driven_center_distance + 10.0)
    assert d == pytest.approx(expected)


_PHI = math.radians(25.0)
_TINY, _HUGE = GearSpec(20, 1e-300), GearSpec(20, 1e153)
# One layout per engagement failure kind, with the exception and the
# violation it gives, word for word.
ENGAGEMENT_FAILURES = [
    (  # 2*R*D underflows to zero
        MechanismLayout(_TINY, GearSpec(16, 1e-300), _TINY, 3e-299, _PHI),
        TrackDegenerate,
        "switch-driven-interference",
        "track radius 1.8e-299 mm and centre distance 3e-299 mm are too small to solve",
    ),
    (  # c > 1: the driven gears are out of reach
        MechanismLayout(GearSpec(20, 1.0), GearSpec(16, 1.0), GearSpec(20, 1.0), 100.0, _PHI),
        NoEngagement,
        "no-engagement",
        "switch track never comes within mesh distance of a driven gear",
    ),
    (  # c < -1: D < mesh - R
        MechanismLayout(GearSpec(8, 1.0), GearSpec(16, 1.0), GearSpec(40, 1.0), 10.0, _PHI),
        TrackDegenerate,
        "switch-driven-interference",
        "switch is inside mesh distance of a driven gear at every track angle",
    ),
    (  # the squares overflow, so the cosine is NaN
        MechanismLayout(_HUGE, GearSpec(16, 1e153), _HUGE, 1e155, _PHI),
        TrackDegenerate,
        "switch-driven-interference",
        "track radius 1.8e+154 mm and centre distance 1e+155 mm are too large to solve",
    ),
    (  # psi* <= 0
        MechanismLayout(GearSpec(20, 1.0), GearSpec(16, 1.0), GearSpec(20, 1.0), 18.0, _PHI),
        TrackDegenerate,
        "switch-driven-interference",
        "switch meshes a driven gear at the midline (psi* = -35.0000 deg <= 0); no usable track",
    ),
]


@pytest.mark.parametrize("layout, error, rule, message", ENGAGEMENT_FAILURES)
def test_engagement_failure_wording(layout, error, rule, message):
    with pytest.raises(SwitchSimError) as info:
        solve_engagement(layout)
    assert type(info.value) is error and str(info.value) == message
    report = validate_layout(layout)
    engagement_rules = {"no-engagement", "switch-driven-interference"}
    assert [v for v in report.violations if v.rule in engagement_rules] == [(rule, message)]
    assert report.engagement is None


_GEARS = GearSpec(20, 1.0), GearSpec(16, 1.0)
CENTER_DISTANCE_FAILURES = [
    (
        (*_GEARS, GearSpec(20, 1.0), _PHI, math.radians(26.0)),
        ValueError,
        "psi_star target 0.4537856055185257 must be in (0, driven_half_angle]",
    ),
    (  # the discriminant is NaN
        (GearSpec(20, 1e155), GearSpec(16, 1e155), GearSpec(20, 1e155), _PHI, math.radians(9.9)),
        NoEngagement,
        "no finite centre distance reaches pitch tangency at the requested track endpoint",
    ),
    (  # the larger root is negative
        (*_GEARS, GearSpec(19, 1.0), 2.0, 0.1),
        NoEngagement,
        "solved centre distance -1.8050833229682857 mm is not finite and positive",
    ),
    (  # the larger root is infinite
        (*_GEARS, GearSpec(20, 1e200), _PHI, math.radians(9.9)),
        NoEngagement,
        "solved centre distance inf mm is not finite and positive",
    ),
]


@pytest.mark.parametrize("args, error, message", CENTER_DISTANCE_FAILURES)
def test_center_distance_failure_wording(args, error, message):
    with pytest.raises(Exception) as info:
        solve_center_distance(*args)
    assert type(info.value) is error and str(info.value) == message
