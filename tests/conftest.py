"""Shared fixtures: small placement problems sized for fast unit tests."""

import numpy as np
import pytest

from adsbplace.objectives import ObjectiveRequirements
from adsbplace.scenario import AreaBounds, build_problem, generate_jammers


@pytest.fixture(scope="session")
def area_bounds():
    return AreaBounds(47.4, 51.4, 5.71, 9.71, (3000.0, 6000.0, 10000.0))


@pytest.fixture(scope="session")
def small_problem(area_bounds):
    """6x6x3 grid, 25 lattice candidates, 12 LOS jammers at 6 km."""
    req = ObjectiveRequirements()
    jammers = generate_jammers(area_bounds, 12, (6000.0,), "grid", None)
    return build_problem(
        bounds=area_bounds,
        lat_count=6,
        lon_count=6,
        candidate_count=25,
        requirements=req,
        jammers=jammers,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_geodetic(rng, n, alt_low=0.0, alt_high=15000.0):
    """n random positions away from the poles (oracle-friendly)."""
    lat = rng.uniform(-89.0, 89.0, n)
    lon = rng.uniform(-180.0, 180.0, n)
    alt = rng.uniform(alt_low, alt_high, n)
    return lat, lon, alt

