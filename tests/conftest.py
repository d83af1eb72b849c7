import math
import random

import pytest

from switchsim import (
    Config,
    MechanismLayout,
    solve_center_distance,
    solve_engagement,
    validate_layout,
)
from switchsim import geometry
from switchsim.geometry import GearSpec


@pytest.fixture(scope="session")
def ref_layout():
    return Config().layout()

@pytest.fixture(scope="session")
def ref_engagement(ref_layout):
    return solve_engagement(ref_layout)

@pytest.fixture(scope="session")
def ref_config():
    return Config()

@pytest.fixture(scope="session")
def ref_plant(ref_config):
    return ref_config.plant()


@pytest.fixture()
def solve_calls(monkeypatch):
    """Arguments passed to the engagement core ``geometry._solve`` from any
    module, in call order."""
    calls = []
    solve = geometry._solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    for module in ("geometry", "optimizer"):
        monkeypatch.setattr(f"switchsim.{module}._solve", counted)
    return calls


def random_valid_layout(rng: random.Random) -> MechanismLayout:
    """A validated layout with the centre distance solved for a random endpoint."""
    while True:
        module = rng.choice([0.5, 0.8, 1.0, 1.25])
        driving = GearSpec(rng.randint(10, 40), module)
        switch = GearSpec(rng.randint(8, 30), module)
        driven = GearSpec(rng.randint(10, 40), module)
        phi_d = math.radians(rng.uniform(12.0, 70.0))
        psi_target = rng.uniform(0.1, 0.9) * phi_d
        try:
            d = solve_center_distance(driving, switch, driven, phi_d, psi_target)
        except Exception:
            continue
        layout = MechanismLayout(
            driving=driving,
            switch=switch,
            driven=driven,
            driven_center_distance=d,
            driven_half_angle=phi_d,
        )
        if validate_layout(layout).ok:
            return layout
