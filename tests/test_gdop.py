"""GDOP evaluation against an independently coded linear-algebra oracle."""

import itertools
import math

import numpy as np
import pytest

from adsbplace.gdop import gdop_min_batched, subset_triples
from adsbplace.geo import GeodeticPosition

from oracles import (
    best_gdop_at,
    gdop_matrix,
    gdop_min_batched_lapack,
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


CAPS = [4, 5, 6, 9, 12]


def subsets_of(k):
    return np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp)


def property_geometry(rng, m, k):
    """Direction cosines to k sensors below each of m points, with random
    valid counts; some points repeat a row, some put rows on one cone."""
    dc = rng.normal(size=(m, k, 3))
    dc[..., 2] = np.abs(dc[..., 2])
    dc /= np.linalg.norm(dc, axis=-1, keepdims=True)
    for i in range(0, m, 4):
        j = rng.integers(0, k - 1)
        dc[i, j + 1] = dc[i, j]  # duplicate row: each subset with both is singular
    for i in range(1, m, 4):
        # Equal depression angle: rows on one cone make every subset of
        # four of them singular (their ones column is a combination).
        on_cone = rng.choice(k, rng.integers(4, k + 1), replace=False)
        azimuth = rng.uniform(0.0, 2 * np.pi, on_cone.size)
        depression = rng.uniform(0.05, 1.5)
        dc[i, on_cone] = np.stack(
            [np.cos(depression) * np.cos(azimuth),
             np.cos(depression) * np.sin(azimuth),
             np.full(on_cone.size, np.sin(depression))], axis=-1)
    return dc, rng.integers(0, k + 1, size=m)


class TestBatchedGdop:
    @pytest.mark.parametrize("k", CAPS)
    def test_matches_scalar_path(self, rng, k):
        """The vectorized many-points path equals per-point evaluation."""
        m = 17
        dc = np.empty((m, k, 3))
        expected = np.empty(m)
        for i in range(m):
            aircraft, sensors = random_geometry(rng, k)
            for j, s in enumerate(sensors):
                dc[i, j] = oracle_direction_cosine(aircraft, s.as_array())
            expected[i] = best_gdop_at(aircraft, sensors, None)
        got = gdop_min_batched(dc, np.full(m, k), subsets_of(k))
        assert np.allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("k", CAPS)
    def test_matches_lapack_reference(self, rng, k):
        """Closed form against the batched LAPACK kernel it replaced."""
        subsets = subsets_of(k)
        dc, valid = property_geometry(rng, 200, k)
        got = gdop_min_batched(dc, valid, subsets)
        expected = gdop_min_batched_lapack(dc, valid, subsets)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        assert finite.any() and not finite.all()
        assert np.allclose(got[finite], expected[finite], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("k", CAPS)
    def test_subset_triples(self, k):
        """Each row triple once; each subset indexes the triples left after
        deleting its first, second, third and fourth row."""
        subsets = subsets_of(k)
        table, index = subset_triples(subsets)
        assert sorted(map(tuple, table.tolist())) == list(itertools.combinations(range(k), 3))
        for drop in range(4):
            kept = np.delete(subsets, drop, axis=1)
            assert np.array_equal(table[index[:, drop]], kept)

    @pytest.mark.parametrize("counts,subsets", [
        pytest.param([3, 2, 0], subsets_of(5), id="too_few_valid"),
        pytest.param([5, 4, 5], subsets_of(5)[:0], id="no_subsets"),
    ])
    def test_too_few_valid_is_infinite(self, rng, counts, subsets):
        dc = rng.normal(size=(3, 5, 3))
        dc /= np.linalg.norm(dc, axis=-1, keepdims=True)
        got = gdop_min_batched(dc, np.array(counts), subsets)
        assert np.all(np.isinf(got))

    def test_partial_validity_uses_prefix(self, rng):
        """With v valid sensors only subsets inside the first v columns count."""
        k, v = 6, 4
        aircraft, sensors = random_geometry(rng, k)
        dc = np.array(
            [[oracle_direction_cosine(aircraft, s.as_array()) for s in sensors]]
        )
        got = gdop_min_batched(dc, np.array([v]), subsets_of(k))
        expected = best_gdop_at(aircraft, sensors[:v], None)
        assert got[0] == pytest.approx(expected, rel=1e-9)
