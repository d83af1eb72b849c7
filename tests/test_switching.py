import math

import pytest
from hypothesis import example, given, settings, strategies as st

from switchsim import (
    EventKind,
    GearSpec,
    InvalidState,
    MechanismLayout,
    Side,
    SubKinematicRatio,
    SwitchMode,
    SwitchState,
    TraversalModel,
    calibrate_slip,
    step_switch,
)
from switchsim.switching import PSI_SNAP, _band_crossings

K_EFF_REF = 122.6 / 19.8


@pytest.fixture(scope="module")
def model():
    return calibrate_slip(122.6, 19.8, 1.8)


def engagement_kinds(events):
    return [(e.kind, e.side) for e in events]


class TestCalibrateSlip:
    def test_reference_measurement(self, model):
        assert model.effective_ratio == pytest.approx(6.1919, abs=1e-4)
        assert model.slip == pytest.approx(0.7093, abs=1e-4)

    def test_pure_carry_boundary(self):
        m = calibrate_slip(36.0, 20.0, 1.8)
        assert m.slip == 0.0
        assert m.effective_ratio == pytest.approx(1.8)

    def test_sub_kinematic_rejected(self):
        with pytest.raises(SubKinematicRatio):
            calibrate_slip(10.0, 20.0, 1.8)

    def test_non_finite_ratio_rejected(self):
        # max(0, 1 - k/nan) would silently calibrate slip 0
        with pytest.raises(ValueError, match="finite"):
            calibrate_slip(math.nan, 19.8, 1.8)
        with pytest.raises(ValueError, match="finite"):
            calibrate_slip(math.inf, 19.8, 1.8)

    def test_effective_ratio_lower_bound(self):
        assert TraversalModel(1.8, 0.5).effective_ratio == pytest.approx(3.6)
        with pytest.raises(ValueError):
            TraversalModel(1.8, 1.0)

    def test_carry_ratio_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^carry_ratio must be >= 1, got 0\.5$"):
            TraversalModel(0.5, 0.1)

    @pytest.mark.parametrize("carry_ratio", [math.inf, math.nan])
    def test_non_finite_carry_ratio_rejected(self, carry_ratio):
        with pytest.raises(ValueError, match="carry_ratio must be finite"):
            TraversalModel(carry_ratio, 0.1)


class TestMemberFacts:
    def test_side_sign(self):
        assert (Side.PLUS.sign, Side.MINUS.sign) == (1, -1)
        assert all(Side.from_sign(side.sign) is side for side in Side)

    @pytest.mark.parametrize(
        "mode, side, sign",
        [
            (SwitchMode.ENGAGED_PLUS, Side.PLUS, 1),
            (SwitchMode.ENGAGED_MINUS, Side.MINUS, -1),
            (SwitchMode.TRAVERSING, None, 0),
            (SwitchMode.NEUTRAL, None, 0),
        ],
    )
    def test_mode_side_and_sign(self, mode, side, sign):
        assert mode.side is side
        assert type(mode.sign) is int and mode.sign == sign
        assert SwitchState(mode, 0.0).engaged_side is side

    @pytest.mark.parametrize("side", list(Side))
    def test_engaged_state_has_its_side(self, side, ref_engagement):
        state = SwitchState.engaged(side, ref_engagement)
        assert state.mode.side is side
        assert state.psi == side.sign * ref_engagement.psi_star


class TestStepSwitch:
    def test_full_traversal_reference_numbers(self, model, ref_engagement):
        # One motor-side reversal of 122.6 deg walks psi across the full
        # 19.8 deg track and lands exactly engaged on the other side.
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        new, events, spool = step_switch(state, model, ref_engagement, math.radians(-122.6))
        assert new.mode is SwitchMode.ENGAGED_MINUS
        assert new.psi == -ref_engagement.psi_star
        assert engagement_kinds(events) == [
            (EventKind.DISENGAGED, Side.PLUS),
            (EventKind.ENTERED_NEUTRAL, None),
            (EventKind.EXITED_NEUTRAL, None),
            (EventKind.ENGAGED, Side.MINUS),
        ]
        assert spool == 0.0

    def test_engaging_direction_drives_spool(self, model, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        new, events, spool = step_switch(
            state, model, ref_engagement, math.radians(50.0), spool_ratio=1.0
        )
        assert new == state
        assert new.engaged_side is Side.PLUS
        assert events == []
        assert spool == pytest.approx(math.radians(50.0))

    def test_spool_ratio_scales_the_rotation(self, model, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        _, _, spool = step_switch(
            state, model, ref_engagement, math.radians(50.0), spool_ratio=20 / 30
        )
        assert spool == pytest.approx(math.radians(50.0) * 20 / 30)

    def test_half_traversal_reaches_midline(self, model, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        new, events, _ = step_switch(state, model, ref_engagement, math.radians(-61.3))
        assert new.mode is SwitchMode.TRAVERSING
        assert math.degrees(new.psi) == pytest.approx(0.0, abs=1e-9)
        assert (EventKind.ENGAGED, Side.MINUS) not in engagement_kinds(events)

    def test_round_trip_is_exact(self, model, ref_engagement):
        travel = model.effective_ratio * ref_engagement.theta_track
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        mid, _, _ = step_switch(state, model, ref_engagement, -travel)
        assert mid.mode is SwitchMode.ENGAGED_MINUS
        back, _, _ = step_switch(mid, model, ref_engagement, travel)
        assert back.mode is SwitchMode.ENGAGED_PLUS
        assert back.psi == ref_engagement.psi_star
        assert abs(back.psi - state.psi) < 1e-12

    def test_residual_drives_new_spool(self, model, ref_engagement):
        travel_deg = math.degrees(model.effective_ratio * ref_engagement.theta_track)
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        new, _, spool = step_switch(
            state, model, ref_engagement, math.radians(-(travel_deg + 30.0))
        )
        assert new.mode is SwitchMode.ENGAGED_MINUS
        assert new.engaged_side is Side.MINUS
        assert spool == pytest.approx(math.radians(-30.0), abs=1e-9)

    def test_reversal_mid_traversal(self, model, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        mid, _, _ = step_switch(state, model, ref_engagement, math.radians(-61.3))
        back, _, _ = step_switch(mid, model, ref_engagement, math.radians(61.3))
        assert back.mode is SwitchMode.ENGAGED_PLUS
        assert back.psi == ref_engagement.psi_star

    def test_halt_inside_band_parks_neutral(self, model, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        mid, _, _ = step_switch(state, model, ref_engagement, math.radians(-61.3))
        assert mid.mode is SwitchMode.TRAVERSING
        parked, events, spool = step_switch(mid, model, ref_engagement, 0.0)
        assert parked.mode is SwitchMode.NEUTRAL
        assert events == []
        assert spool == 0.0

    def test_halt_outside_band_stays_traversing(self, model, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        mid, _, _ = step_switch(state, model, ref_engagement, math.radians(-2.0))
        assert mid.mode is SwitchMode.TRAVERSING
        still, _, _ = step_switch(mid, model, ref_engagement, 0.0)
        assert still.mode is SwitchMode.TRAVERSING

    def test_revolution_travel_independent_of_slip(self, ref_engagement):
        # theta comes from the geometry; slip only changes the motor cost.
        for slip in (0.0, 0.3, 0.7092985318107667):
            m = TraversalModel(1.8, slip)
            travel = m.effective_ratio * ref_engagement.theta_track
            state = SwitchState.engaged(Side.PLUS, ref_engagement)
            new, _, _ = step_switch(state, m, ref_engagement, -travel)
            assert new.psi - state.psi == pytest.approx(
                -ref_engagement.theta_track, abs=1e-12
            )

    def test_invalid_state_rejected(self, model, ref_engagement):
        bad = SwitchState(SwitchMode.ENGAGED_PLUS, 0.0)
        with pytest.raises(InvalidState):
            step_switch(bad, model, ref_engagement, 0.1)
        outside = SwitchState(SwitchMode.TRAVERSING, ref_engagement.psi_star + 0.01)
        with pytest.raises(InvalidState):
            step_switch(outside, model, ref_engagement, 0.1)


class TestEventStream:
    @settings(deadline=None, max_examples=200)
    @given(
        start=st.sampled_from(["plus", "minus", "traversing"]),
        psi_frac=st.floats(min_value=-1.0, max_value=1.0),
        delta_deg=st.floats(min_value=-260.0, max_value=260.0),
    )
    @example(start="plus", psi_frac=0.0, delta_deg=-122.6000001)  # lands in the snap window
    def test_spool_rotation_matches_the_routing_rule(
        self, model, ref_engagement, start, psi_frac, delta_deg
    ):
        k_eff = model.effective_ratio
        psi_star = ref_engagement.psi_star
        ratio = 20 / 30

        def routed(state, delta):
            """Driven-spool rotation: the whole delta while engaged and driving,
            the residual past the snap window after engaging, else nothing."""
            if delta == 0.0:
                return 0.0
            direction = 1 if delta > 0 else -1
            if state.engaged_side is Side.from_sign(direction):
                return delta * ratio
            residual = delta - (direction * psi_star - state.psi) * k_eff
            if direction * residual > PSI_SNAP * k_eff:  # past the far endpoint's snap window
                return residual * ratio
            return 0.0

        if start == "traversing":
            state = SwitchState(SwitchMode.TRAVERSING, psi_frac * psi_star)
        else:
            state = SwitchState.engaged(Side(start), ref_engagement)
        delta = math.radians(delta_deg)
        new, events, spool = step_switch(state, model, ref_engagement, delta, ratio)
        assert EventKind.SPOOL_DRIVEN not in [e.kind for e in events]
        assert spool == routed(state, delta)
        if spool != 0.0:
            assert new.engaged_side is Side.from_sign(1 if delta > 0 else -1)

    def test_band_crossings_match_the_two_sided_rule(self, ref_engagement):
        w = ref_engagement.neutral_half_width
        psi_star = ref_engagement.psi_star

        def two_sided(psi0, psi1, direction):
            out = []
            if direction > 0:
                if psi0 <= -w and psi1 > -w:
                    out.append((EventKind.ENTERED_NEUTRAL, -w))
                if psi0 < w and psi1 >= w:
                    out.append((EventKind.EXITED_NEUTRAL, w))
            else:
                if psi0 >= w and psi1 < w:
                    out.append((EventKind.ENTERED_NEUTRAL, w))
                if psi0 > -w and psi1 <= -w:
                    out.append((EventKind.EXITED_NEUTRAL, -w))
            return out

        points = [0.0, psi_star, -psi_star, 0.5 * w, -0.5 * w]
        for edge in (w, -w):
            points += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
        for psi0 in points:
            for psi1 in points:
                if psi0 == psi1:
                    continue
                direction = 1 if psi1 > psi0 else -1
                got = _band_crossings(ref_engagement, psi0, psi1, direction)
                assert got == two_sided(psi0, psi1, direction)


class TestComposability:
    @settings(deadline=None, max_examples=200)
    @given(
        delta_deg=st.floats(min_value=-260.0, max_value=260.0),
        weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        start_minus=st.booleans(),
    )
    def test_split_steps_match_single_step(
        self, model, ref_engagement, delta_deg, weights, start_minus
    ):
        delta = math.radians(delta_deg)
        side = Side.MINUS if start_minus else Side.PLUS
        start = SwitchState.engaged(side, ref_engagement)

        whole, whole_events, whole_spool = step_switch(start, model, ref_engagement, delta)

        total = sum(weights)
        state = start
        split_events = []
        split_spool = 0.0
        for w in weights:
            state, evs, spool = step_switch(state, model, ref_engagement, delta * (w / total))
            split_events.extend(evs)
            split_spool += spool

        assert state.mode is whole.mode
        assert state.psi == pytest.approx(whole.psi, abs=1e-12)
        assert engagement_kinds(split_events) == engagement_kinds(whole_events)
        # A sub-step landing inside the endpoint snap window may shift up to
        # snap * k_eff of motor rotation between traversal and spool credit.
        assert split_spool == pytest.approx(whole_spool, abs=1e-8)


class TestCoupling:
    """The motor drives a spool only while engaged, at z_drive/z_driven and in its own sense."""

    @staticmethod
    def spool_rotation(state, model, engagement, delta, ratio=1.0):
        """Driven-spool rotation of one step."""
        return step_switch(state, model, engagement, delta, ratio)[2]

    def test_neutral_decoupled(self, model, ref_engagement):
        state = SwitchState.neutral()
        assert state.engaged_side is None
        assert self.spool_rotation(state, model, ref_engagement, 0.01) == 0.0

    def test_traversing_decoupled(self, model, ref_engagement):
        state = SwitchState(SwitchMode.TRAVERSING, 0.05)
        assert state.engaged_side is None
        assert self.spool_rotation(state, model, ref_engagement, 0.01) == 0.0

    def test_engaged_plus_unit_ratio(self, model, ref_layout, ref_engagement):
        state = SwitchState.engaged(Side.PLUS, ref_engagement)
        assert state.engaged_side is Side.PLUS
        assert ref_layout.driven_speed_ratio == pytest.approx(1.0)
        rotation = self.spool_rotation(
            state, model, ref_engagement, 0.1, ref_layout.driven_speed_ratio
        )
        assert rotation == pytest.approx(0.1)  # same sense as the motor

    def test_engaged_minus_reduced(self, model, ref_engagement):
        layout = MechanismLayout(
            driving=GearSpec(20, 1.0),
            switch=GearSpec(16, 1.0),
            driven=GearSpec(30, 1.0),
            driven_center_distance=40.0,
            driven_half_angle=math.radians(25.0),
        )
        state = SwitchState.engaged(Side.MINUS, ref_engagement)
        assert state.engaged_side is Side.MINUS
        assert layout.driven_speed_ratio == pytest.approx(0.6667, abs=1e-4)
        rotation = self.spool_rotation(
            state, model, ref_engagement, -0.1, layout.driven_speed_ratio
        )
        assert rotation == pytest.approx(-0.1 * 20 / 30)  # same sense as the motor
