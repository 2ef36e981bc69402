"""GDOP evaluation against an independently coded linear-algebra oracle."""

import itertools
import math

import numpy as np
import pytest

from adsbplace.gdop import gdop_min_batched
from adsbplace.geo import GeodeticPosition

from oracles import (
    best_gdop_at,
    gdop_matrix,
    gdop_of_four,
    geodetic_to_ecef,
    oracle_direction_cosine,
    oracle_gdop,
    random_geometry,
    well_conditioned_geometry,
)


class TestGdopOfFour:
    def test_matches_oracle(self, rng):
        for _ in range(100):
            aircraft, sensors = well_conditioned_geometry(rng)
            got = gdop_of_four(aircraft, sensors)
            assert got == pytest.approx(oracle_gdop(aircraft, sensors), rel=1e-9)

    def test_identical_sensors_singular(self):
        aircraft = GeodeticPosition(48.0, 7.0, 10000.0)
        s = geodetic_to_ecef(GeodeticPosition(48.5, 7.5, 0.0))
        assert math.isinf(gdop_of_four(aircraft, [s, s, s, s]))

    def test_permutation_invariant(self, rng):
        aircraft, sensors = random_geometry(rng)
        base = gdop_of_four(aircraft, sensors)
        for perm in itertools.permutations(sensors):
            assert gdop_of_four(aircraft, list(perm)) == pytest.approx(base, rel=1e-12)

    def test_wrong_arity_rejected(self, rng):
        aircraft, sensors = random_geometry(rng, 3)
        with pytest.raises(ValueError):
            gdop_of_four(aircraft, sensors)

    def test_matrix_rows_unit_cosines(self, rng):
        aircraft, sensors = random_geometry(rng)
        b = gdop_matrix(aircraft, sensors)
        assert b.shape == (4, 4)
        assert np.allclose(np.linalg.norm(b[:, :3], axis=1), 1.0, atol=1e-9)
        assert np.all(b[:, 3] == 1.0)


class TestBestGdopAt:
    def test_fewer_than_four_is_infinite(self, rng):
        aircraft, sensors = random_geometry(rng, 3)
        assert math.isinf(best_gdop_at(aircraft, sensors))

    def test_four_equals_single_subset(self, rng):
        aircraft, sensors = random_geometry(rng, 4)
        assert best_gdop_at(aircraft, sensors) == gdop_of_four(aircraft, sensors)

    def test_exhaustive_matches_enumeration(self, rng):
        for n in (5, 6, 7, 8):
            aircraft, sensors = random_geometry(rng, n)
            expected = min(
                gdop_of_four(aircraft, list(sub))
                for sub in itertools.combinations(sensors, 4)
            )
            assert best_gdop_at(aircraft, sensors, None) == expected

    def test_adding_sensor_never_hurts(self, rng):
        aircraft, sensors = random_geometry(rng, 6)
        with_five = best_gdop_at(aircraft, sensors[:5], None)
        with_six = best_gdop_at(aircraft, sensors, None)
        assert with_six <= with_five

    def test_capped_strategy_restricts_to_nearest(self, rng):
        aircraft, sensors = random_geometry(rng, 8)
        capped = best_gdop_at(aircraft, sensors, 5)
        exhaustive = best_gdop_at(aircraft, sensors, None)
        assert capped >= exhaustive


class TestBatchedGdop:
    def test_matches_scalar_path(self, rng):
        """The vectorized many-points path equals per-point evaluation."""
        m, k = 17, 6
        subsets = np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp)
        dc = np.empty((m, k, 3))
        expected = np.empty(m)
        for i in range(m):
            aircraft, sensors = random_geometry(rng, k)
            for j, s in enumerate(sensors):
                dc[i, j] = oracle_direction_cosine(aircraft, s.as_array())
            expected[i] = best_gdop_at(aircraft, sensors, None)
        got = gdop_min_batched(dc, np.full(m, k), subsets)
        assert np.allclose(got, expected, rtol=1e-9)

    def test_too_few_valid_is_infinite(self, rng):
        k = 5
        subsets = np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp)
        dc = rng.normal(size=(3, k, 3))
        dc /= np.linalg.norm(dc, axis=-1, keepdims=True)
        got = gdop_min_batched(dc, np.array([3, 2, 0]), subsets)
        assert np.all(np.isinf(got))

    def test_partial_validity_uses_prefix(self, rng):
        """With v valid sensors only subsets inside the first v columns count."""
        k, v = 6, 4
        subsets = np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp)
        aircraft, sensors = random_geometry(rng, k)
        dc = np.array(
            [[oracle_direction_cosine(aircraft, s.as_array()) for s in sensors]]
        )
        got = gdop_min_batched(dc, np.array([v]), subsets)
        expected = best_gdop_at(aircraft, sensors[:v], None)
        assert got[0] == pytest.approx(expected, rel=1e-9)
