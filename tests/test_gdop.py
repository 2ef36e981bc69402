"""GDOP evaluation against an independently coded linear-algebra oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsbplace.evaluator import prefix_gdop
from adsbplace.gdop import (
    SINGULARITY_COND,
    colex_subsets,
    gdop_min_batched,
    triple_values,
)

from oracles import (
    GeodeticPosition,
    best_gdop_at,
    gdop_matrix,
    gdop_min_batched_lapack,
    gdop_min_batched_reference,
    gdop_of_four,
    geodetic_to_ecef,
    oracle_direction_cosine,
    oracle_gdop,
    random_geometry,
    subset_triples,
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


def kernel(dc, valid_counts, subsets):
    """The kernel over any subsets, given their triple table."""
    return gdop_min_batched(dc, valid_counts, subsets, subset_triples(subsets))


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
        got = kernel(dc, np.full(m, k), subsets_of(k))
        assert np.allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("k", CAPS)
    def test_matches_lapack_reference(self, rng, k):
        """Closed form against the batched LAPACK kernel it replaced."""
        subsets = subsets_of(k)
        dc, valid = property_geometry(rng, 200, k)
        got = kernel(dc, valid, subsets)
        expected = gdop_min_batched_lapack(dc, valid, subsets)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        assert finite.any() and not finite.all()
        assert np.allclose(got[finite], expected[finite], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("k", CAPS)
    def test_subset_triples(self, k):
        """Each row triple once, in colex order, so the triples of range(j)
        lead; each subset indexes the triples left after deleting its
        first, second, third and fourth row."""
        subsets = subsets_of(k)
        table, index = subset_triples(subsets)
        colex = sorted(itertools.combinations(range(k), 3), key=lambda t: t[::-1])
        assert list(map(tuple, table.tolist())) == colex
        for drop in range(4):
            kept = np.delete(subsets, drop, axis=1)
            assert np.array_equal(table[index[:, drop]], kept)

    def test_colex_subsets(self):
        """The closed-form colex table of range(12) holds, as prefixes, the
        4-subsets of every range(k) in colex order with subset_triples'
        triples and index."""
        subsets, (table, index) = colex_subsets(12)
        for k in range(4, 13):
            s, t = math.comb(k, 4), math.comb(k, 3)
            colex = sorted(itertools.combinations(range(k), 4), key=lambda c: c[::-1])
            assert list(map(tuple, subsets[:s].tolist())) == colex
            want_table, want_index = subset_triples(subsets[:s])
            assert np.array_equal(table[:t], want_table)
            assert np.array_equal(index[:s], want_index)

    @pytest.mark.parametrize("counts,subsets", [
        pytest.param([3, 2, 0], subsets_of(5), id="too_few_valid"),
    ])
    def test_too_few_valid_is_infinite(self, rng, counts, subsets):
        dc = rng.normal(size=(3, 5, 3))
        dc /= np.linalg.norm(dc, axis=-1, keepdims=True)
        got = kernel(dc, np.array(counts), subsets)
        assert np.all(np.isinf(got))

    def test_partial_validity_uses_prefix(self, rng):
        """With v valid sensors only subsets inside the first v columns count."""
        k, v = 6, 4
        aircraft, sensors = random_geometry(rng, k)
        dc = np.array(
            [[oracle_direction_cosine(aircraft, s.as_array()) for s in sensors]]
        )
        got = kernel(dc, np.array([v]), subsets_of(k))
        expected = best_gdop_at(aircraft, sensors[:v], None)
        assert got[0] == pytest.approx(expected, rel=1e-9)


ROW_KINDS = ["unit", "scaled", "zero", "duplicate", "near_duplicate", "cone"]


@st.composite
def kernel_inputs(draw):
    """(dc, valid_counts, subsets) for a few points at one k in 4..12.

    Each valid row is a unit vector, a vector of another norm, a zero row
    (a candidate at the point), an exact or a 1e-6-perturbed copy of an
    earlier row, or a row on the point's cone of equal depression angle
    (four cone rows are singular). Rows past the valid count are NaN.
    """
    k = draw(st.integers(4, 12))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dc = np.full((m, k, 3), np.nan)
    valid = np.array(draw(st.lists(st.integers(0, k), min_size=m, max_size=m)))
    for i in range(m):
        kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=k, max_size=k))
        depression = rng.uniform(0.05, 1.5)
        for j, kind in enumerate(kinds[:valid[i]]):
            row = rng.normal(size=3)
            row /= np.linalg.norm(row)
            if kind == "scaled":
                row *= rng.uniform(0.3, 3.0)
            elif kind == "zero":
                row[:] = 0.0
            elif kind in ("duplicate", "near_duplicate") and j:
                row = dc[i, rng.integers(0, j)] + (1e-6 * row if kind == "near_duplicate" else 0.0)
            elif kind == "cone":
                azimuth = rng.uniform(0.0, 2 * np.pi)
                row = np.array([np.cos(depression) * np.cos(azimuth),
                                np.cos(depression) * np.sin(azimuth),
                                np.sin(depression)])
            dc[i, j] = row
    return dc, valid, subsets_of(k)


class TestKernelProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=kernel_inputs())
    def test_matches_references(self, case):
        """Bit for bit the per-subset-floor kernel; within the LAPACK
        tolerances the LAPACK one."""
        dc, valid, subsets = case
        got = kernel(dc, valid, subsets)
        assert np.array_equal(got, gdop_min_batched_reference(dc, valid, subsets))
        expected = gdop_min_batched_lapack(dc, valid, subsets)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        assert np.allclose(got[finite], expected[finite], rtol=1e-9, atol=0.0)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=kernel_inputs(), data=st.data())
    def test_known_triple_values(self, case, data):
        """Triple values passed in for a leading part of the table give the
        bits of computing them, NaN garbage rows included, and the kernel
        fills the rest of the buffer with the values it computes."""
        dc, valid, subsets = case
        table, index = triples = subset_triples(subsets)
        x, y, z = np.ascontiguousarray(dc.transpose(2, 1, 0))
        expected = np.stack(triple_values(x, y, z, table))
        known = data.draw(st.integers(0, len(table)), label="known")
        values = np.full_like(expected, np.nan)
        values[:, :known] = expected[:, :known]
        got = gdop_min_batched(dc, valid, subsets, triples, values, known)
        assert got.tobytes() == kernel(dc, valid, subsets).tobytes()
        assert np.array_equal(values, expected, equal_nan=True)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=kernel_inputs())
    def test_prefix_minima(self, case):
        """Column j of the prefix table is the brute-force best over
        combinations(range(j), 4), bit for bit, and its triple values are
        those of the whole table."""
        dc, valid, _ = case
        k = dc.shape[1]
        subsets, triples = colex_subsets(k)
        best, values = prefix_gdop(dc, valid, (subsets, triples))
        assert best.shape == (len(dc), k + 1)
        assert np.all(np.isinf(best[:, :4]))
        for j in range(4, k + 1):
            expected = gdop_min_batched_reference(dc, valid, subsets_of(j))
            assert best[:, j].tobytes() == expected.tobytes()
        x, y, z = np.ascontiguousarray(dc.transpose(2, 1, 0))
        assert np.array_equal(values, np.stack(triple_values(x, y, z, triples[0])), equal_nan=True)

    def test_floor_between_point_bounds(self):
        """A subset whose det(B)^2 lies between the point's bounds gets its
        own floor: above it at point 0, not above it at point 1."""
        u1, u2 = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        d = np.array([0.48, -0.6, 0.64])  # a unit vector
        # Rows 0, u1, u2 and u1 + eps d: det(B) = eps * g, linear in eps.
        rows = np.array([np.zeros(3), u1, u2, u1 + d])
        g = np.linalg.det(np.hstack([rows, np.ones((4, 1))]))

        def floor(trace):
            return (trace / 4) ** 4 / SINGULARITY_COND

        # Row values 1 + |b|^2 are about 1, 2, 2, 2.
        lo, own, hi = floor(4.0), floor(7.0), floor(8.0)
        dc = np.empty((2, 4, 3))
        for i, target in enumerate([np.sqrt(own * hi), np.sqrt(lo * own)]):
            dc[i] = rows
            dc[i, 3] = u1 + np.sqrt(target) / abs(g) * d
            row_sq = 1.0 + (dc[i] ** 2).sum(axis=1)
            det_sq = np.linalg.det(np.hstack([dc[i], np.ones((4, 1))])) ** 2
            assert floor(4 * row_sq.min()) < det_sq <= floor(4 * row_sq.max())
            assert (det_sq > floor(row_sq.sum())) == (i == 0)
        valid, subsets = np.array([4, 4]), subsets_of(4)
        got = kernel(dc, valid, subsets)
        assert np.array_equal(got, gdop_min_batched_reference(dc, valid, subsets))
        assert np.isfinite(got[0]) and np.isinf(got[1])
