"""Geometry layer: frames, distances, horizon and visibility."""

import math

import numpy as np
import pytest

from adsbplace import geo

from conftest import random_geodetic
from oracles import (
    DegenerateGeometryError,
    EcefPosition,
    GeodeticPosition,
    direction_cosines,
    ecef_to_geodetic,
    ecef_to_geodetic_arrays,
    euclidean_distance,
    geodetic_to_ecef,
    ground_distance_km,
    is_visible,
    ned_rotation,
    ned_vector,
    radio_horizon_km,
    random_position,
)


def oracle_geodetic_to_ecef(lat_deg, lon_deg, alt_m):
    """Independent scalar WGS-84 conversion using math, not numpy."""
    a = 6378137.0
    f = 1.0 / 298.257223563
    e2 = f * (2.0 - f)
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    n = a / math.sqrt(1.0 - e2 * math.sin(lat) ** 2)
    x = (n + alt_m) * math.cos(lat) * math.cos(lon)
    y = (n + alt_m) * math.cos(lat) * math.sin(lon)
    z = (n * (1.0 - e2) + alt_m) * math.sin(lat)
    return x, y, z


class TestGeodeticEcef:
    def test_equator_prime_meridian(self):
        p = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        assert p.x == pytest.approx(6378137.0, abs=1e-6)
        assert p.y == pytest.approx(0.0, abs=1e-6)
        assert p.z == pytest.approx(0.0, abs=1e-6)

    def test_north_pole(self):
        p = geodetic_to_ecef(GeodeticPosition(90.0, 0.0, 0.0))
        assert p.x == pytest.approx(0.0, abs=1e-6)
        assert p.z == pytest.approx(6356752.314, abs=1e-3)

    def test_against_independent_oracle(self, rng):
        lat, lon, alt = random_geodetic(rng, 50)
        for la, lo, al in zip(lat, lon, alt):
            got = geodetic_to_ecef(GeodeticPosition(la, lo, al))
            ex, ey, ez = oracle_geodetic_to_ecef(la, lo, al)
            assert got.x == pytest.approx(ex, abs=1e-6)
            assert got.y == pytest.approx(ey, abs=1e-6)
            assert got.z == pytest.approx(ez, abs=1e-6)

    def test_inverse_of_equator_point(self):
        p = ecef_to_geodetic(EcefPosition(6378137.0, 0.0, 0.0))
        assert p.latitude_deg == pytest.approx(0.0, abs=1e-9)
        assert p.longitude_deg == pytest.approx(0.0, abs=1e-9)
        assert p.altitude_m == pytest.approx(0.0, abs=1e-3)

    def test_pole_longitude_is_zero(self):
        p = ecef_to_geodetic(EcefPosition(0.0, 0.0, 6356752.314))
        assert p.latitude_deg == pytest.approx(90.0, abs=1e-9)
        assert p.longitude_deg == 0.0

    def test_earth_center_rejected(self):
        with pytest.raises(ValueError):
            ecef_to_geodetic(EcefPosition(0.0, 0.0, 0.0))

    def test_round_trip(self, rng):
        lat, lon, alt = random_geodetic(rng, 200)
        xyz = geo.geodetic_to_ecef_arrays(lat, lon, alt)
        lat2, lon2, alt2 = ecef_to_geodetic_arrays(xyz)
        assert np.max(np.abs(lat2 - lat)) < 1e-9
        assert np.max(np.abs(lon2 - lon)) < 1e-9
        assert np.max(np.abs(alt2 - alt)) < 1e-3

    def test_surface_norm_plausible(self, rng):
        lat, lon, _ = random_geodetic(rng, 100)
        xyz = geo.geodetic_to_ecef_arrays(lat, lon, np.zeros(100))
        norms = np.linalg.norm(xyz, axis=0)
        assert np.all(norms >= 6.35e6) and np.all(norms <= 6.40e6)


class TestNedFrame:
    def test_rotation_at_origin(self):
        r = ned_rotation(GeodeticPosition(0.0, 0.0, 0.0))
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.allclose(r, expected, atol=1e-15)

    def test_orthonormal_everywhere(self, rng):
        lats = np.concatenate([rng.uniform(-90.0, 90.0, 100), [-90.0, 90.0]])
        lons = np.concatenate([rng.uniform(-180.0, 180.0, 100), [0.0, 45.0]])
        rots = geo.ned_rotation_arrays(lats, lons)
        eye = np.eye(3)
        for r in rots.transpose(2, 0, 1):
            assert np.max(np.abs(r @ r.T - eye)) < 1e-12

    def test_radially_below_maps_to_down(self):
        aircraft = GeodeticPosition(0.0, 0.0, 1000.0)
        sensor = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        north, east, down = ned_vector(aircraft, sensor)
        assert north == pytest.approx(0.0, abs=1e-3)
        assert east == pytest.approx(0.0, abs=1e-3)
        assert down == pytest.approx(1000.0, abs=1e-3)

    def test_norm_preserved(self, rng):
        for _ in range(20):
            a = random_position(rng, 1000.0, 12000.0)
            s = geodetic_to_ecef(random_position(rng))
            ecef_dist = euclidean_distance(geodetic_to_ecef(a), s)
            assert np.linalg.norm(ned_vector(a, s)) == pytest.approx(ecef_dist, rel=1e-6)

    def test_coincident_is_zero(self):
        a = GeodeticPosition(48.0, 7.0, 500.0)
        v = ned_vector(a, geodetic_to_ecef(a))
        assert np.linalg.norm(v) == pytest.approx(0.0, abs=1e-6)


class TestDirectionCosines:
    def test_unit_norm(self, rng):
        for _ in range(20):
            a = random_position(rng, 1000.0, 12000.0)
            s = geodetic_to_ecef(random_position(rng))
            b = direction_cosines(a, s)
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    def test_below_aircraft_points_down(self):
        a = GeodeticPosition(0.0, 0.0, 1000.0)
        s = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        assert np.allclose(direction_cosines(a, s), [0.0, 0.0, 1.0], atol=1e-6)

    def test_degenerate_rejected(self):
        a = GeodeticPosition(48.0, 7.0, 500.0)
        with pytest.raises(DegenerateGeometryError):
            direction_cosines(a, geodetic_to_ecef(a))

    def test_antipodal_flips_signs(self):
        a = GeodeticPosition(10.0, 20.0, 5000.0)
        center = geodetic_to_ecef(a).as_array()
        offset = np.array([20000.0, -5000.0, 12000.0])
        b1 = direction_cosines(a, EcefPosition(*(center + offset)))
        b2 = direction_cosines(a, EcefPosition(*(center - offset)))
        assert np.allclose(b1, -b2, atol=1e-12)


class TestDistances:
    def test_euclidean_pythagorean(self):
        assert euclidean_distance(EcefPosition(0, 0, 0), EcefPosition(3, 4, 0)) == 5.0

    def test_euclidean_symmetry(self, rng):
        a = EcefPosition(*rng.normal(0, 1e6, 3))
        b = EcefPosition(*rng.normal(0, 1e6, 3))
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    def test_ground_distance_quarter_meridian(self):
        d = ground_distance_km(GeodeticPosition(0, 0, 0), GeodeticPosition(90, 0, 0))
        assert d == pytest.approx(math.pi / 2 * 6371.0, rel=1e-12)


class TestRadioHorizon:
    def test_zero_heights(self):
        assert radio_horizon_km(0.0, 0.0) == 0.0

    def test_reference_value(self):
        # 3.57 * sqrt(4/3) * sqrt(10000) = 412.23 km
        assert radio_horizon_km(10000.0, 0.0) == pytest.approx(412.23, abs=0.01)

    def test_symmetry(self, rng):
        h1, h2 = rng.uniform(0, 12000, 2)
        assert radio_horizon_km(h1, h2) == radio_horizon_km(h2, h1)

    def test_monotone_in_heights(self):
        assert radio_horizon_km(5000.0, 0.0) < radio_horizon_km(6000.0, 0.0)
        assert radio_horizon_km(5000.0, 0.0) < radio_horizon_km(5000.0, 10.0)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            radio_horizon_km(-1.0, 0.0)


class TestVisibility:
    def test_boundary_counts_visible(self):
        d = 100.0
        h = 0.0785 * d**2 / (4.0 / 3.0)
        assert geo.visibility_mask_arrays(h, d)

    def test_zero_altitude_not_visible(self):
        a = GeodeticPosition(48.0, 7.0, 0.0)
        s = GeodeticPosition(48.0, 8.0, 0.0)
        assert not is_visible(a, s)

    def test_ten_km_altitude_300km(self):
        # required altitude = 0.0785 * 300^2 / (4/3) = 5299 m < 10000 m
        a = GeodeticPosition(48.0, 7.0, 10000.0)
        lon_offset = 300.0 / (111.195 * math.cos(math.radians(48.0)))
        s = GeodeticPosition(48.0, 7.0 + lon_offset, 0.0)
        assert abs(ground_distance_km(a, s) - 300.0) < 2.0
        assert is_visible(a, s)

    def test_receiver_antenna_extends_reach(self):
        d = 250.0
        h1 = 3000.0  # required 0.0785 d^2 / ke = 3680 m: not visible from the ground
        assert not geo.visibility_mask_arrays(h1, d)
        # Elevated receiver: horizon 3.57*sqrt(4/3)*(sqrt(3000)+sqrt(100)) = 267 km
        assert geo.visibility_mask_arrays(h1, d, 100.0)
