import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from switchsim import (
    Config,
    DesignConstraints,
    DesignSpace,
    EmptyFeasibleSet,
    EngagementSolution,
    GearSpec,
    InvalidDesign,
    MechanismLayout,
    NoEngagement,
    SpaceTooLarge,
    TrackDegenerate,
    TraversalModel,
    envelope_diameter,
    evaluate_design,
    optimize,
    run_switching_time,
    solve_center_distance,
    trapezoid_duration,
    validate_layout,
)
from switchsim import geometry, motion
from switchsim.optimizer import _rank_key, enumerate_layouts

SLIP_REF = 1.0 - 1.8 / (122.6 / 19.8)
PSI_REF = math.radians(9.9)


@pytest.fixture(scope="module")
def motor():
    return Config().plant().motor


def singleton_space(**overrides):
    base = dict(
        drive_teeth=(20,),
        switch_teeth=(16,),
        driven_teeth=(20,),
        modules=(1.0,),
        half_angles=(math.radians(25.0),),
        psi_star_targets=(PSI_REF,),
    )
    base.update(overrides)
    return DesignSpace(**base)


def random_problem(seed: int) -> tuple[DesignSpace, DesignConstraints]:
    """A small random space of either distance policy, with ratio and
    envelope bounds. Its grids reach every rule ``optimize`` checks without
    ``validate_layout``: half-angles <= 0 and >= pi/2, zero and negative
    backlash margins, D <= 0, D inside the driving-driven clearance or out
    of reach of the driven gears, D or psi* targets that put the switch on
    a driven gear at the midline, and psi* targets above phi_d."""
    rng = random.Random(seed)

    def teeth(lo, hi):
        return tuple(sorted(rng.sample(range(lo, hi), 3)))

    if seed % 2:
        degrees = [rng.uniform(2.0, 14.0), rng.uniform(0.2, 2.0), rng.uniform(36.0, 80.0)]
        last_axis = {"psi_star_targets": tuple(math.radians(v) for v in degrees)}
    else:
        distances = [rng.uniform(20.0, 50.0) for _ in range(3)]
        distances += [rng.choice((0.0, -5.0)), rng.uniform(5.0, 15.0), rng.uniform(50.0, 90.0)]
        last_axis = {"center_distances": tuple(distances)}
    half_angles = [math.radians(rng.uniform(15.0, 35.0)), math.radians(rng.uniform(35.0, 85.0))]
    half_angles.append(rng.choice((0.0, -0.1, math.pi / 2, 2.0)))
    space = DesignSpace(
        drive_teeth=teeth(12, 28),
        switch_teeth=teeth(8, 20),
        driven_teeth=teeth(12, 28),
        modules=tuple(rng.sample((0.5, 0.8, 1.0, 1.25), 2)),
        half_angles=tuple(half_angles),
        envelope_max_diameter=rng.choice((None, rng.uniform(60.0, 110.0))),
        backlash_margin=(0.2, 0.0, 1.5, 0.2, -0.1, 0.8)[seed % 6],
        **last_axis,
    )
    lo, hi = rng.choice(((None, None), (0.7, None), (None, 1.3), (0.8, 1.25)))
    return space, DesignConstraints(driven_ratio_min=lo, driven_ratio_max=hi)


# A centre-distance space whose candidates reach every rule optimize checks.
COUNTED_SPACE = dict(
    drive_teeth=(16, 20, 24),
    switch_teeth=(10, 16),
    driven_teeth=(16, 20, 24),
    modules=(1.0,),
    half_angles=(math.radians(20.0), math.radians(95.0), 0.0, math.radians(30.0)),
    center_distances=(19.0, 25.0, 34.76, 45.0),
)


def solve_args(layout) -> tuple:
    """The engagement core's arguments for ``layout``."""
    return (
        layout.track_radius,
        layout.driven_center_distance,
        layout.driven_half_angle,
        layout.mesh_distance,
        layout.backlash_margin,
    )


def counted_optimize(space, constraints, motor, monkeypatch):
    """``optimize``'s ranking, the arguments of each engagement-core call it
    made and each layout it built, in order."""
    solved, built = [], []

    def counted_solve(*args):
        solved.append(args)
        return geometry._solve(*args)

    def counted_layout(*args, **kwargs):
        built.append(MechanismLayout(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("switchsim.optimizer._solve", counted_solve)
    monkeypatch.setattr("switchsim.optimizer.MechanismLayout", counted_layout)
    return optimize(space, constraints, SLIP_REF, motor), solved, built


def evaluate_design_rescan(space, constraints, motor) -> list:
    """The reference ranking: ``evaluate_design`` on every enumerated
    layout, filtered by the bounds and sorted."""
    lo, hi = constraints.driven_ratio_min, constraints.driven_ratio_max
    limit = space.envelope_max_diameter
    rescan = []
    for layout in enumerate_layouts(space):
        try:
            r = evaluate_design(layout, SLIP_REF, motor)
        except InvalidDesign:
            continue
        if (limit is not None and r.envelope > limit) or not (
            (lo is None or r.driven_ratio >= lo) and (hi is None or r.driven_ratio <= hi)
        ):
            continue
        rescan.append(r)
    rescan.sort(key=lambda r: r.sort_key)
    return rescan


class TestEvaluateDesign:
    def test_solves_the_engagement_once(self, ref_layout, motor, solve_calls):
        evaluate_design(ref_layout, SLIP_REF, motor)
        layout = ref_layout
        assert solve_calls == [
            (
                layout.track_radius,
                layout.driven_center_distance,
                layout.driven_half_angle,
                layout.mesh_distance,
                layout.backlash_margin,
            )
        ]

    def test_reference_time(self, ref_layout, motor):
        result = evaluate_design(ref_layout, SLIP_REF, motor)
        assert result.predicted_t_switch_ms == pytest.approx(302.0, abs=1e-6)
        assert math.degrees(result.theta_track) == pytest.approx(19.8, abs=1e-9)
        assert result.k_eff == pytest.approx(122.6 / 19.8, abs=1e-9)
        assert result.driven_ratio == pytest.approx(1.0)

    def test_zero_slip_triangular_branch(self, ref_layout, motor):
        # Travel shrinks to 1.8 * 19.8 = 35.64 deg, below v^2/a: triangular.
        result = evaluate_design(ref_layout, 0.0, motor)
        travel = 1.8 * 19.8
        assert travel < motor.max_output_speed**2 / motor.profile_accel
        expected_ms = 2000.0 * math.sqrt(travel / motor.profile_accel)
        assert result.predicted_t_switch_ms == pytest.approx(expected_ms, abs=1e-9)
        assert result.predicted_t_switch_ms == pytest.approx(161.5, abs=0.05)

    def test_invalid_layout_rejected(self, ref_layout, motor):
        bad = ref_layout._replace(driven_center_distance=0.0)
        with pytest.raises(InvalidDesign) as exc:
            evaluate_design(bad, SLIP_REF, motor)
        assert not exc.value.report.ok

    def test_matches_simulation_small_switch(self, motor):
        # Resize the switch gear, re-solve D for the same endpoint policy,
        # and check the closed-form prediction against the stepped plant.
        cfg = Config(
            switch_teeth=10, slip=SLIP_REF, profile_accel=motor.profile_accel
        )
        plant = cfg.plant()
        expected_d = solve_center_distance(
            GearSpec(20, 1.0), GearSpec(10, 1.0), GearSpec(20, 1.0),
            math.radians(25.0), PSI_REF,
        )
        assert plant.layout.driven_center_distance == pytest.approx(expected_d)

        result = evaluate_design(plant.layout, SLIP_REF, plant.motor)
        stats = run_switching_time(plant, n_trials=1, jitter=False)
        assert abs(result.predicted_t_switch_ms - stats.mean_up_ms) < 1.0

    def test_module_scale_invariance(self, motor):
        t = {}
        for module in (1.0, 2.0):
            space = singleton_space(modules=(module,))
            result = optimize(space, DesignConstraints(), SLIP_REF, motor)[0]
            t[module] = (
                result.predicted_t_switch_ms,
                result.theta_track,
                result.k_eff,
            )
        assert t[1.0][0] == pytest.approx(t[2.0][0], abs=1e-9)
        assert t[1.0][1] == pytest.approx(t[2.0][1], abs=1e-12)
        assert t[1.0][2] == pytest.approx(t[2.0][2], abs=1e-12)


class TestOverflowingMotorTravel:
    # 8-tooth gears and a 1e308-tooth switch of module 1e-300 validate at D = 9e7 mm,
    # but k_eff = 1 + r_switch / r_drive is 1.25e307: k_eff * theta overflows in deg.
    GEARS = (GearSpec(8, 1e-300), GearSpec(10**308, 1e-300), GearSpec(8, 1e-300))

    def test_evaluate_design_names_the_motor_travel(self, motor):
        layout = MechanismLayout(*self.GEARS, 9e7, 0.6)
        assert validate_layout(layout).ok
        with pytest.raises(ValueError, match=r"^motor travel k_eff \* theta \(1\.25e\+307 \* "):
            evaluate_design(layout, 0.0, motor)

    def test_optimize_skips_it(self, motor):
        space = DesignSpace(
            drive_teeth=(8,),
            switch_teeth=(8, 10**308),
            driven_teeth=(8,),
            modules=(1e-300, 1.0),
            half_angles=(0.6, 0.9),
            center_distances=(9e7, 12.0),
        )
        ranked = optimize(space, DesignConstraints(), 0.0, motor)
        assert [r.layout for r in ranked] == [
            MechanismLayout(GearSpec(8, 1.0), GearSpec(8, 1.0), GearSpec(8, 1.0), 12.0, 0.9)
        ]
        with pytest.raises(EmptyFeasibleSet):
            optimize(
                singleton_space(
                    drive_teeth=(8,), switch_teeth=(10**308,), driven_teeth=(8,),
                    modules=(1e-300,), half_angles=(0.6,), psi_star_targets=None,
                    center_distances=(9e7,),
                ),
                DesignConstraints(),
                0.0,
                motor,
            )


class TestOptimize:
    def test_subnormal_module_yields_no_design(self, motor):
        # Clears the driving gear, but 2*R*D underflows to zero in the engagement solve.
        space = singleton_space(modules=(1e-320,), psi_star_targets=None, center_distances=(3e-319,))
        with pytest.raises(EmptyFeasibleSet):
            optimize(space, DesignConstraints(), SLIP_REF, motor)

    def test_singleton_space(self, motor):
        results = optimize(singleton_space(), DesignConstraints(), SLIP_REF, motor)
        assert len(results) == 1
        assert results[0].predicted_t_switch_ms == pytest.approx(302.0, abs=1e-6)

    def test_ranking_matches_independent_rescan(self, motor):
        space = DesignSpace(
            drive_teeth=tuple(range(16, 25, 2)),
            switch_teeth=tuple(range(8, 17, 2)),
            driven_teeth=tuple(range(16, 25, 2)),
            modules=(0.8, 1.0),
            half_angles=(math.radians(20.0), math.radians(30.0)),
            psi_star_targets=(math.radians(6.0), math.radians(10.0)),
            envelope_max_diameter=120.0,
        )
        constraints = DesignConstraints(driven_ratio_min=0.7, driven_ratio_max=1.4)
        ranked = optimize(space, constraints, SLIP_REF, motor)
        rescan = evaluate_design_rescan(space, constraints, motor)

        assert len(ranked) == len(rescan) > 0
        assert [r.layout for r in ranked] == [r.layout for r in rescan]
        best = ranked[0].sort_key[0]
        assert all(best <= r.sort_key[0] for r in rescan)

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_evaluate_design_rescan(self, motor, seed):
        space, constraints = random_problem(seed)
        rescan = evaluate_design_rescan(space, constraints, motor)
        if not rescan:
            with pytest.raises(EmptyFeasibleSet):
                optimize(space, constraints, SLIP_REF, motor)
        else:
            assert optimize(space, constraints, SLIP_REF, motor) == rescan

    def test_random_problems_reach_every_rule(self):
        # The oracle above only proves the rules its spaces exercise.
        rules, margins, phis, distances, beyond_phi = set(), set(), [], [], False
        for seed in range(12):
            space, _ = random_problem(seed)
            margins.add(math.copysign(1.0, space.backlash_margin) if space.backlash_margin else 0.0)
            phis += space.half_angles
            distances += space.center_distances or ()
            beyond_phi |= any(t > max(space.half_angles) for t in space.psi_star_targets or ())
            for layout in enumerate_layouts(space):
                rules |= validate_layout(layout).rules()
        assert rules == {
            "invalid-parameter",
            "driving-driven-interference",
            "no-engagement",
            "switch-driven-interference",
            "empty-neutral-band",
        }
        assert margins == {-1.0, 0.0, 1.0}
        assert min(phis) <= 0.0 and max(phis) >= math.pi / 2
        assert min(distances) <= 0.0
        assert beyond_phi

    def test_solves_each_validated_candidate_once(self, motor, monkeypatch):
        # One engagement-core call per candidate that is within the ratio
        # bounds and passes the field checks, in grid order; a layout only
        # for a candidate that validates.
        space = DesignSpace(**COUNTED_SPACE)
        constraints = DesignConstraints(driven_ratio_min=0.8, driven_ratio_max=1.25)
        reaching = [
            layout for layout in enumerate_layouts(space)
            if 0.8 <= layout.driven_speed_ratio <= 1.25
        ]
        field_rules = {"invalid-parameter", "driving-driven-interference"}
        checked = [layout for layout in reaching if not validate_layout(layout).rules() & field_rules]
        valid = [layout for layout in checked if validate_layout(layout).ok]
        assert 0 < len(valid) < len(checked) < len(reaching) < space.size

        _, solved, built = counted_optimize(space, constraints, motor, monkeypatch)
        assert solved == [solve_args(layout) for layout in checked]
        assert built == valid

    def test_solves_no_candidate_over_the_envelope_bound(self, motor, monkeypatch):
        # The bounded twin of the test above: the envelope bound is checked
        # before the engagement core, so a candidate over it is never solved,
        # whether it would engage or not.
        limit = 80.0
        space = DesignSpace(**COUNTED_SPACE, envelope_max_diameter=limit)
        constraints = DesignConstraints(driven_ratio_min=0.8, driven_ratio_max=1.25)
        field_rules = {"invalid-parameter", "driving-driven-interference"}
        checked = [
            layout for layout in enumerate_layouts(space)
            if 0.8 <= layout.driven_speed_ratio <= 1.25
            and not validate_layout(layout).rules() & field_rules
        ]
        within = [layout for layout in checked if envelope_diameter(layout) <= limit]
        over = {validate_layout(layout).ok for layout in checked if layout not in within}
        valid = [layout for layout in within if validate_layout(layout).ok]
        assert over == {True, False} and 0 < len(valid) < len(within)
        rescan = evaluate_design_rescan(space, constraints, motor)

        ranked, solved, built = counted_optimize(space, constraints, motor, monkeypatch)
        assert solved == [solve_args(layout) for layout in within]
        assert built == valid
        assert ranked == rescan

    def test_rejects_candidates_without_raising(self, motor, monkeypatch):
        # The candidates reach every engagement failure that can follow the
        # D checks: out of reach (c > 1), psi* <= 0, 2*R*D underflowing and
        # the squares overflowing. (c < -1 needs D < r_driven - r_drive,
        # which the driving-driven clearance rejects first.)
        space = DesignSpace(
            drive_teeth=(16, 20, 24),
            switch_teeth=(10, 16),
            driven_teeth=(16, 20, 24),
            modules=(1.0, 1e-300, 1e153),
            half_angles=(math.radians(20.0), math.radians(30.0)),
            center_distances=(3e-299, 19.0, 25.0, 34.76, 45.0, 1e155),
        )
        field_rules = {"invalid-parameter", "driving-driven-interference"}
        messages = " ".join(
            str(report)
            for report in map(validate_layout, enumerate_layouts(space))
            if not report.rules() & field_rules
        )
        for kind in ("never comes within", "at the midline", "too small", "too large"):
            assert kind in messages

        constructed = []
        for error in (NoEngagement, TrackDegenerate):
            def counted_init(self, *args, error=error):
                constructed.append(error)
                Exception.__init__(self, *args)

            monkeypatch.setattr(error, "__init__", counted_init)
        assert optimize(space, DesignConstraints(), SLIP_REF, motor)
        assert constructed == []

    def test_checks_no_motor_limit_per_candidate(self, motor, monkeypatch):
        # The MotorModel checked its limits once; each candidate's duration
        # comes from the unchecked core, with the checked function's bits.
        checks = []
        limits = motion._limits
        monkeypatch.setattr(motion, "_limits", lambda *args: checks.append(args) or limits(*args))
        space = singleton_space(
            drive_teeth=(16, 20, 24), driven_teeth=(16, 20, 24), psi_star_targets=(0.1, PSI_REF)
        )
        ranked = optimize(space, DesignConstraints(), SLIP_REF, motor)
        assert len(ranked) > 5 and checks == []
        for result in ranked:
            travel = math.degrees(result.k_eff * result.theta_track)
            want = trapezoid_duration(travel, motor.max_output_speed, motor.profile_accel)
            assert result.predicted_t_switch_ms == want * 1000.0
        assert len(checks) == len(ranked)

    def test_builds_no_model_or_solution_per_candidate(self, motor, monkeypatch):
        # Slip is checked once before the loop, each gear set's k_eff comes
        # from the unchecked ratio core, the engagement core's plain triple is
        # unpacked, and a motor travel is positive by construction.
        built = {"TraversalModel": 0, "EngagementSolution": 0, "distance": 0}
        post_init = TraversalModel.__post_init__
        solution_new = EngagementSolution.__new__
        in_range = motion._in_range

        def counted_post_init(self):
            built["TraversalModel"] += 1
            post_init(self)

        def counted_new(cls, *args):
            built["EngagementSolution"] += 1
            return solution_new(cls, *args)

        def counted_in_range(name, value, *bound):
            built["distance"] += name == "distance"
            return in_range(name, value, *bound)

        monkeypatch.setattr(TraversalModel, "__post_init__", counted_post_init)
        monkeypatch.setattr(EngagementSolution, "__new__", counted_new)
        monkeypatch.setattr(motion, "_in_range", counted_in_range)
        space = singleton_space(
            drive_teeth=(16, 20, 24), driven_teeth=(16, 20, 24), psi_star_targets=(0.1, PSI_REF)
        )
        ranked = optimize(space, DesignConstraints(), SLIP_REF, motor)
        assert len({r.layout[:3] for r in ranked}) > 5
        assert built == {"TraversalModel": 0, "EngagementSolution": 0, "distance": 0}
        monkeypatch.undo()
        assert ranked == evaluate_design_rescan(space, DesignConstraints(), motor)

    @pytest.mark.parametrize("slip", [1.0, -0.1, math.nan])
    @pytest.mark.parametrize(
        "grid", [{}, {"psi_star_targets": None, "center_distances": (100.0,)}]
    )
    def test_refuses_a_bad_slip_before_any_candidate(self, motor, slip, grid):
        # With the traversal model's wording, also on a space where no
        # candidate is feasible.
        space = singleton_space(**grid)
        with pytest.raises(ValueError) as want:
            TraversalModel(1.8, slip)
        with pytest.raises(ValueError) as refused:
            optimize(space, DesignConstraints(), slip, motor)
        assert str(refused.value) == str(want.value)

    def test_negative_margin_solves_nothing(self, motor, monkeypatch):
        # A negative backlash margin fails every candidate's field checks.
        monkeypatch.setattr("switchsim.optimizer._solve", None)
        with pytest.raises(EmptyFeasibleSet):
            optimize(singleton_space(backlash_margin=-0.1), DesignConstraints(), SLIP_REF, motor)

    def test_space_too_large(self, motor):
        space = singleton_space(drive_teeth=tuple(range(8, 30)))
        with pytest.raises(SpaceTooLarge):
            optimize(space, DesignConstraints(cap=10), SLIP_REF, motor)

    def test_empty_feasible_set(self, motor):
        space = singleton_space(envelope_max_diameter=1.0)
        with pytest.raises(EmptyFeasibleSet):
            optimize(space, DesignConstraints(), SLIP_REF, motor)

    def test_deterministic_tie_break(self, motor):
        # Identical ratios/angles across modules tie on time; envelope breaks it.
        space = singleton_space(modules=(1.0, 0.5))
        results = optimize(space, DesignConstraints(), SLIP_REF, motor)
        assert len(results) == 2
        assert results[0].predicted_t_switch_ms == pytest.approx(
            results[1].predicted_t_switch_ms, abs=1e-9
        )
        assert results[0].envelope < results[1].envelope

    def test_a_roundoff_tie_ranks_by_envelope(self, motor):
        # 24 designs share one psi* target and k_eff, so their times agree in
        # exact arithmetic; roundoff spreads them over 285.0458200404995 to
        # 285.0458200405011 ms, across a 1e-9 ms boundary but inside one 1 ns tick.
        space = DesignSpace(
            drive_teeth=(18,),
            switch_teeth=(10,),
            driven_teeth=tuple(range(16, 22)),
            modules=(0.8, 1.25),
            half_angles=(0.35317424438615463, 0.5529206251967491),
            psi_star_targets=(0.18003235766510858,),
        )
        ranked = optimize(space, DesignConstraints(), SLIP_REF, motor)
        assert len(ranked) == 24
        assert {r.k_eff for r in ranked} == {5.351041276967203}
        times = [r.predicted_t_switch_ms for r in ranked]
        assert 285.0458200404995 <= min(times) < max(times) <= 285.0458200405011
        envelopes = [r.envelope for r in ranked]
        assert envelopes[0] == min(envelopes) == pytest.approx(52.793, abs=1e-3)
        assert envelopes == sorted(envelopes)

    def test_a_time_past_the_tick_range_ranks_last(self, motor):
        # A 1e306-tooth switch of module 1e-300 gives a carry ratio of 1.25e305:
        # the predicted time is finite, but its count of 1 ns ticks overflows.
        space = DesignSpace(
            drive_teeth=(8,),
            switch_teeth=(8, 10**306),
            driven_teeth=(8,),
            modules=(1e-300, 1.0),
            half_angles=(0.6, 0.9),
            center_distances=(9e5, 12.0),
        )
        ranked = optimize(space, DesignConstraints(), SLIP_REF, motor)
        times = [r.predicted_t_switch_ms for r in ranked]
        assert len(times) == 3 and times == sorted(times)
        assert 1e302 < times[1] < math.inf
        assert ranked == evaluate_design_rescan(space, DesignConstraints(), motor)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
TEETH = st.tuples(*[st.integers(min_value=7, max_value=200)] * 3)


class TestRankKey:
    @settings(deadline=None, max_examples=300)
    @given(POSITIVE, POSITIVE, POSITIVE, TEETH)
    def test_non_decreasing_in_time(self, t1, t2, envelope, teeth):
        t1, t2 = sorted((t1, t2))
        assert _rank_key(t1, envelope, *teeth) <= _rank_key(t2, envelope, *teeth)

    @settings(deadline=None, max_examples=300)
    @given(POSITIVE, POSITIVE, POSITIVE, TEETH)
    def test_non_decreasing_in_envelope(self, t, e1, e2, teeth):
        e1, e2 = sorted((e1, e2))
        assert _rank_key(t, e1, *teeth) <= _rank_key(t, e2, *teeth)

    @settings(deadline=None, max_examples=300)
    @given(POSITIVE, POSITIVE, POSITIVE, POSITIVE, TEETH, TEETH)
    def test_a_time_tick_tie_orders_by_envelope_then_teeth(self, t1, t2, e1, e2, teeth1, teeth2):
        k1, k2 = _rank_key(t1, e1, *teeth1), _rank_key(t2, e2, *teeth2)
        if k1[0] != k2[0]:
            assert (k1 < k2) == (t1 < t2)
        elif k1[1] != k2[1]:
            assert (k1 < k2) == (e1 < e2)
        else:
            assert (k1 < k2) == (teeth1 < teeth2)

    @settings(deadline=None, max_examples=300)
    @given(POSITIVE, POSITIVE)
    def test_ticks_are_1_ns_and_1_nm(self, t, envelope):
        for value, tick in zip((t, envelope), _rank_key(t, envelope, 8, 8, 8)):
            if value * 1e6 < math.inf:
                assert type(tick) is int and abs(tick - value * 1e6) <= 0.5
            else:  # past the tick range
                assert tick == math.inf


class TestDesignSpace:
    def test_size(self):
        space = singleton_space(drive_teeth=(16, 20), modules=(0.5, 1.0))
        assert space.size == 4

    def test_rejects_small_teeth(self):
        with pytest.raises(ValueError):
            singleton_space(switch_teeth=(6,))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            singleton_space(modules=())

    def test_requires_exactly_one_distance_policy(self):
        with pytest.raises(ValueError):
            singleton_space(center_distances=(34.76,))
        with pytest.raises(ValueError):
            DesignSpace(
                drive_teeth=(20,),
                switch_teeth=(16,),
                driven_teeth=(20,),
                modules=(1.0,),
                half_angles=(math.radians(25.0),),
            )

    @pytest.mark.parametrize("limit", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_envelope_limit(self, limit):
        with pytest.raises(ValueError, match="envelope_max_diameter must be finite and positive"):
            singleton_space(envelope_max_diameter=limit)

    @pytest.mark.parametrize("name", ["driven_ratio_min", "driven_ratio_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constraints_reject_non_finite_ratio_bounds(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DesignConstraints(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, good",
        [
            ("modules", 1.0),
            ("half_angles", math.radians(25.0)),
            ("psi_star_targets", PSI_REF),
            ("center_distances", 34.76),
        ],
    )
    def test_rejects_non_finite_grid_values(self, name, good, value):
        overrides = {name: (good, value)}
        if name == "center_distances":
            overrides["psi_star_targets"] = None
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            singleton_space(**overrides)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_backlash_margin(self, value):
        with pytest.raises(ValueError, match="backlash_margin must be finite"):
            singleton_space(backlash_margin=value)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("drive_teeth", 20),
            ("switch_teeth", 16),
            ("driven_teeth", 20),
            ("modules", 1.0),
            ("half_angles", math.radians(25.0)),
            ("psi_star_targets", PSI_REF),
            ("center_distances", 34.76),
        ],
    )
    def test_rejects_a_repeated_grid_value(self, name, value):
        # A repeated value would rank the same design twice and count it
        # twice against the cap.
        overrides = {name: (value, value)}
        if name == "center_distances":
            overrides["psi_star_targets"] = None
        with pytest.raises(ValueError, match=f"^{name} must not repeat a value, got "):
            singleton_space(**overrides)

    @pytest.mark.parametrize(
        "cap, rule",
        [
            (math.nan, "an integer"),  # space.size > nan is false: the cap would be off
            (2.5, "an integer"),
            (10.0, "an integer"),
            (0, "finite and positive"),
            (-5, "finite and positive"),
        ],
    )
    def test_constraints_reject_a_cap_that_is_not_a_positive_integer(self, cap, rule):
        with pytest.raises(ValueError, match=rf"^cap must be {rule}, got {cap!r}$"):
            DesignConstraints(cap=cap)

    def test_rejects_an_empty_distance_grid(self):
        with pytest.raises(ValueError, match="grid must be non-empty"):
            singleton_space(psi_star_targets=())

    def test_center_distance_grid_mode(self, motor):
        space = singleton_space(
            psi_star_targets=None,
            center_distances=(34.757014711652,),
        )
        results = optimize(space, DesignConstraints(), SLIP_REF, motor)
        assert math.degrees(results[0].theta_track) == pytest.approx(19.8, abs=1e-6)
