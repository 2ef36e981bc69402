"""Problem construction: grids, candidates, jammers, deployed files."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsbplace import scenario as scenario_module
from adsbplace.config import parse_config, section8_preset
from adsbplace.objectives import InvalidConfigError, JammerModel, ObjectiveRequirements
from adsbplace.scenario import (
    AirspaceGrid,
    AreaBounds,
    DeployedFileError,
    PlacementProblem,
    build_problem,
    candidate_sites,
    clustered21_path,
    generate_jammers,
    load_deployed_csv,
    nearest_rank,
    precompute,
    sample_grid,
)

from oracles import (
    GeodeticPosition,
    direction_cosines,
    euclidean_distance,
    geodetic_to_ecef,
    grid_points,
    ground_distance_km,
    precompute_reference,
)


class TestAreaBounds:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            AreaBounds(51.0, 47.0, 5.71, 9.71)
        with pytest.raises(InvalidConfigError):
            AreaBounds(47.0, 51.0, 9.71, 5.71)
        with pytest.raises(InvalidConfigError):
            AreaBounds(47.0, 51.0, 5.71, 9.71, (6000.0, 3000.0))

    def test_range_checked(self):
        AreaBounds(-90.0, 90.0, -180.0, 180.0)
        for corners in ((-90.5, 51.0, 5.0, 9.0), (47.0, 90.5, 5.0, 9.0),
                        (47.0, 51.0, -180.5, 9.0), (47.0, 51.0, 5.0, 180.5)):
            with pytest.raises(InvalidConfigError, match="must lie in"):
                AreaBounds(*corners)

    def test_contains(self, area_bounds):
        assert area_bounds.contains(49.0, 7.0)
        assert not area_bounds.contains(46.0, 7.0)


class TestSampleGrid:
    def test_size_and_levels(self, area_bounds):
        grid = sample_grid(area_bounds, 20, 20)
        assert len(grid) == 20 * 20 * 3
        assert set(np.unique(grid.alt_m)) == {3000.0, 6000.0, 10000.0}

    def test_covers_bounds(self, area_bounds):
        grid = sample_grid(area_bounds, 5, 5)
        assert grid.lat_deg.min() == area_bounds.lat_low
        assert grid.lat_deg.max() == area_bounds.lat_up
        assert grid.lon_deg.min() == area_bounds.lon_low
        assert grid.lon_deg.max() == area_bounds.lon_up

    def test_sorted_by_lon_then_lat(self, area_bounds):
        grid = sample_grid(area_bounds, 4, 4)
        order = np.lexsort((grid.alt_m, grid.lat_deg, grid.lon_deg))
        assert np.array_equal(order, np.arange(len(grid)))


class TestCandidates:
    def test_lattice_count_and_bounds(self, area_bounds):
        (lat, lon, alt), forced = candidate_sites(area_bounds, 400)
        assert not forced.any()
        assert lat.size == lon.size == alt.size == 400
        assert np.all((lat > area_bounds.lat_low) & (lat < area_bounds.lat_up))
        assert np.all((lon > area_bounds.lon_low) & (lon < area_bounds.lon_up))

    def test_lattice_is_cell_centers(self, area_bounds):
        (lat, lon, _), _ = candidate_sites(area_bounds, 400)
        # 20x20 split: first center half a cell in from the corner.
        step_lat = (area_bounds.lat_up - area_bounds.lat_low) / 20
        assert lat.min() == pytest.approx(area_bounds.lat_low + step_lat / 2)

    def test_seeded_uniform_deterministic(self, area_bounds):
        a, _ = candidate_sites(area_bounds, 50, pattern="seeded-uniform", seed=9)
        b, _ = candidate_sites(area_bounds, 50, pattern="seeded-uniform", seed=9)
        c, _ = candidate_sites(area_bounds, 50, pattern="seeded-uniform", seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], c[0])

    def test_unknown_pattern_rejected(self, area_bounds):
        with pytest.raises(InvalidConfigError):
            candidate_sites(area_bounds, 10, pattern="spiral")


class TestJammers:
    def test_grid_per_height_level(self, area_bounds):
        lat, lon, alt = generate_jammers(area_bounds, 75, (3000.0, 6000.0, 10000.0), "grid", None)
        assert alt.tolist() == [3000.0] * 25 + [6000.0] * 25 + [10000.0] * 25
        # The same 25 lattice positions, longitude-major, at every level.
        assert np.array_equal(lat.reshape(3, 25), np.tile(lat[:25], (3, 1)))
        assert np.array_equal(lon.reshape(3, 25), np.tile(lon[:25], (3, 1)))
        assert np.all(np.diff(lon[:25]) >= 0)

    def test_grid_requires_divisibility(self, area_bounds):
        with pytest.raises(InvalidConfigError):
            generate_jammers(area_bounds, 10, (1.0, 2.0, 3.0), "grid", None)

    def test_kwargs_forwarded(self, area_bounds):
        """build_problem's jammer model reaches the problem and its affected
        matrix: a threshold no JSR reaches leaves every sensor unaffected."""
        jams = generate_jammers(area_bounds, 4, (5000.0,), "grid", None)
        model = JammerModel(affect_rule="jsr", jsr_threshold=1e30, power_w=5.0)
        kwargs = dict(bounds=area_bounds, lat_count=2, lon_count=2, candidate_count=9,
                      requirements=ObjectiveRequirements(), jammers=jams)
        los = build_problem(**kwargs)
        jsr = build_problem(**kwargs, jammer_model=model)
        assert los.jammer_model == JammerModel() and jsr.jammer_model is model
        assert los.affected_jam_cand.any() and not jsr.affected_jam_cand.any()
        assert np.array_equal(los.affected_jam_cand, jsr.los_jam_cand)

    def test_seeded_uniform_heights_from_set(self, area_bounds):
        lat, lon, alt = generate_jammers(area_bounds, 30, (1000.0, 2000.0), "seeded-uniform", 3)
        assert set(alt.tolist()) <= {1000.0, 2000.0}
        assert np.array_equal(np.lexsort((lat, lon)), np.arange(30))


class TestDeployedCsv:
    def test_fixture_loads(self):
        rows, seed = load_deployed_csv(clustered21_path())
        assert len(rows) == 21
        assert seed is None
        assert all(len(r) == 4 for r in rows)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lat,lon\n1,2\n")
        with pytest.raises(DeployedFileError):
            load_deployed_csv(p)

    def test_bad_value_line_numbered(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,lat_deg,lon_deg,alt_m\ns1,48.0,7.0,0\ns2,oops,7.0,0\n")
        with pytest.raises(DeployedFileError) as err:
            load_deployed_csv(p)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("row", [
        "s2,nan,7.0,0", "s2,48.0,inf,0", "s2,48.0,7.0,-inf",
        "s2,95.0,7.0,0", "s2,48.0,181.0,0",
    ])
    def test_bad_coordinates_line_numbered(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"# seed=1\n# solution_id=0\nid,lat_deg,lon_deg,alt_m\ns1,48.0,7.0,0\n{row}\n")
        with pytest.raises(DeployedFileError) as err:
            load_deployed_csv(p)
        assert err.value.line_no == 5

    def test_trailing_columns_ignored(self, tmp_path):
        p = tmp_path / "solution.csv"
        p.write_text("# seed=1\nid,lat_deg,lon_deg,alt_m,forced\n3,48.0,7.0,0,yes\n")
        assert load_deployed_csv(p) == ([("3", 48.0, 7.0, 0.0)], 1)

    def test_duplicates_skipped(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("id,lat_deg,lon_deg,alt_m\na,48.0,7.0,0\nb,48.0,7.0,0\n")
        assert len(load_deployed_csv(p)[0]) == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert load_deployed_csv(p) == ([], None)

    def test_non_utf8_line_numbered(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"id,lat_deg,lon_deg,alt_m\r\ns1,48.0,7.0,0\rx\xff,48.0,7.0,0\n")
        with pytest.raises(DeployedFileError, match="line 3: not UTF-8: byte 0xff") as err:
            load_deployed_csv(p)
        assert err.value.line_no == 3


# Pieces of sensor files: the header, comments, coordinates in and out of
# range or not finite, quotes and junk cells, under every line ending.
_EDGES = st.sampled_from(["-90", "180.0", "90.5", "-180.1", "nan", "NaN", "inf", "-inf",
                          "1e999", "", " ", '"', "x"])


def _coord(bound: float):
    """Mostly a coordinate in [-bound, bound], else an edge or junk cell."""
    valid = st.floats(-bound, bound).map(repr)
    return st.one_of(valid, valid, valid, _EDGES, st.floats().map(repr))


_IDS = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=4)
_ROWS = st.tuples(_IDS, _coord(90.0), _coord(180.0), _coord(1e5)).map(",".join)
_LINES = st.one_of(
    _ROWS,
    _ROWS,
    _ROWS,
    st.sampled_from(["id,lat_deg,lon_deg,alt_m", "# seed=1", "#", "id,lat_deg"]),
    st.lists(st.one_of(_EDGES, st.text(max_size=6)), max_size=6).map(",".join),
)


@st.composite
def _sensor_files(draw) -> bytes:
    """Arbitrary bytes, or lines of CSV-like text under an optional header,
    sometimes with an arbitrary byte string spliced in."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    lines = draw(st.lists(_LINES, min_size=1, max_size=8))
    if draw(st.integers(0, 3)):
        lines.insert(0, "id,lat_deg,lon_deg,alt_m")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends)).encode()
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.one_of(st.just(b""), st.just(b""), st.binary(max_size=3))) + text[at:]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_sensor_files())
def test_deployed_csv_fuzz(tmp_path_factory, data):
    """Any file gives valid rows or a DeployedFileError naming one of its
    lines; no other exception escapes."""
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    p.write_bytes(data)
    try:
        rows, _ = load_deployed_csv(p)
    except DeployedFileError as exc:
        assert 1 <= exc.line_no <= len(data.splitlines())
        assert str(exc).startswith(f"{p}: line {exc.line_no}: ")
        return
    for sensor_id, lat, lon, alt in rows:
        assert isinstance(sensor_id, str)
        assert all(map(math.isfinite, (lat, lon, alt)))
        assert -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0
    assert len(set((lat, lon, alt) for _, lat, lon, alt in rows)) == len(rows)


class TestBuildProblem:
    def test_matrix_shapes(self, small_problem):
        m = len(small_problem.grid)
        n = small_problem.n_candidates
        k = small_problem.jammers.shape[1]
        assert small_problem.dist_point_cand.shape == (m, n)
        assert small_problem.dc_point_cand.shape == (3, n, m)
        assert small_problem.los_point_cand.shape == (m, n)
        assert small_problem.rank_point_cand.shape == (m, n)
        assert small_problem.rank_point_cand.dtype == np.int16
        assert small_problem.dist_jam_cand.shape == (k, n)
        assert small_problem.affected_jam_cand.shape == (k, n)
        assert small_problem.dist_cand_cand.shape == (n, n)

    def test_direction_cosines_unit(self, small_problem):
        norms = np.linalg.norm(small_problem.dc_point_cand, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_point_matrices_match_scalar_geometry(self, small_problem):
        p = small_problem
        sensors = [
            geodetic_to_ecef(GeodeticPosition(float(la), float(lo), float(al)))
            for la, lo, al in zip(p.cand_lat, p.cand_lon, p.cand_alt)
        ]
        m, n = p.dist_point_cand.shape
        dist = np.empty((m, n))
        dc = np.empty((3, n, m))
        for j, point in enumerate(grid_points(p.grid)):
            origin = geodetic_to_ecef(point)
            for i, sensor in enumerate(sensors):
                dist[j, i] = euclidean_distance(origin, sensor)
                dc[:, i, j] = direction_cosines(point, sensor)
        np.testing.assert_allclose(p.dist_point_cand, dist, rtol=1e-12)
        np.testing.assert_allclose(p.dc_point_cand, dc, rtol=1e-12)

    def test_rank_orders_visible_by_distance(self, small_problem):
        p = small_problem
        masked = np.where(p.los_point_cand, p.dist_point_cand, np.inf)
        order = np.argsort(masked, axis=1, kind="stable")
        m, n = masked.shape
        ranks = np.take_along_axis(p.rank_point_cand, order, axis=1)
        assert np.array_equal(ranks, np.broadcast_to(np.arange(n), (m, n)))
        visible = p.los_point_cand.sum(axis=1)
        assert np.array_equal(p.rank_point_cand < visible[:, None], p.los_point_cand)

    def test_problem_is_frozen_and_whole(self, small_problem):
        """A built problem's fields, the matrices too, cannot be assigned,
        and none has a default for a later step to fill in."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_problem.dist_point_cand = np.zeros_like(small_problem.dist_point_cand)
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_problem.range_cap_km = 1.0
        for field in dataclasses.fields(PlacementProblem):
            assert field.default is dataclasses.MISSING, field.name
            assert field.default_factory is dataclasses.MISSING, field.name

    def test_range_cap_defaults_to_diagonal(self, small_problem):
        # The great-circle diagonal of the grid's extent, not of the area.
        grid = small_problem.grid
        low = GeodeticPosition(float(grid.lat_deg.min()), float(grid.lon_deg.min()), 0.0)
        high = GeodeticPosition(float(grid.lat_deg.max()), float(grid.lon_deg.max()), 0.0)
        assert small_problem.requirements.range_cap_km is None
        assert small_problem.range_cap_km == pytest.approx(ground_distance_km(low, high), rel=1e-12)

    def test_deployed_become_forced(self, area_bounds):
        req = ObjectiveRequirements()
        deployed = [("d0", 48.0, 7.0, 0.0), ("d1", 49.0, 8.0, 0.0)]
        prob = build_problem(
            bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=9,
            requirements=req, deployed=deployed,
        )
        assert prob.n_candidates == 11
        assert prob.forced_mask.sum() == 2
        assert np.all(prob.forced_mask[-2:])
        assert prob.cand_lat[-2] == 48.0 and prob.cand_lon[-1] == 8.0

    def test_out_of_bounds_deployed_warns_but_kept(self, area_bounds, caplog):
        req = ObjectiveRequirements()
        with caplog.at_level("WARNING"):
            prob = build_problem(
                bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=4,
                requirements=req, deployed=[("x", 45.0, 7.0, 0.0)],
            )
        assert prob.n_candidates == 5
        assert "outside" in caplog.text

    def test_from_sites_all_forced(self, area_bounds):
        """No generated candidates: the sites are the whole candidate set."""
        prob = build_problem(
            bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=0,
            requirements=ObjectiveRequirements(),
            deployed=[("a", 48.0, 7.0, 0.0), ("b", 49.0, 8.0, 0.0)],
        )
        assert prob.n_candidates == 2
        assert np.all(prob.forced_mask)
        assert prob.cand_lat.tolist() == [48.0, 49.0] and prob.cand_lon.tolist() == [7.0, 8.0]

    def test_from_sites_empty_rejected(self, area_bounds):
        with pytest.raises(InvalidConfigError, match="need at least one sensor site"):
            build_problem(
                bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=0,
                requirements=ObjectiveRequirements(),
            )


_PRECOMPUTED = ("dist_point_cand", "dc_point_cand", "los_point_cand", "rank_point_cand",
                "dist_jam_cand", "los_jam_cand", "affected_jam_cand", "dist_cand_cand",
                "range_cap_km")


@st.composite
def _small_problems(draw) -> tuple:
    """``precompute``'s arguments: a sampled grid at 1-3 altitude levels or
    a hand-built one whose horizontal positions repeat in shuffled order;
    no candidates (a free-standing deployment), or lattice or uniform ones
    on masts of 0 or 30 m; deployed sites, one at a grid point; no jammers,
    or up to four, one of them perhaps at a site, under the LOS or the JSR
    rule."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    levels = draw(st.lists(st.sampled_from([1500.0, 3000.0, 6000.0, 10000.0]),
                           min_size=1, max_size=3, unique=True))
    bounds = AreaBounds(47.4, 51.4, 5.71, 9.71, tuple(sorted(levels)))
    if draw(st.booleans()):
        grid = sample_grid(bounds, draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    else:
        lat = rng.uniform(47.4, 51.4, draw(st.integers(1, 5)))
        lon = rng.uniform(5.71, 9.71, lat.size)
        pick = rng.integers(0, lat.size, draw(st.integers(1, 15)))
        grid = AirspaceGrid(lat[pick], lon[pick], rng.choice(levels, pick.size))
    count = draw(st.integers(0, 9))
    cand = candidate_sites(bounds, count, (), draw(st.sampled_from(["lattice", "seeded-uniform"])),
                           seed, draw(st.sampled_from([0.0, 30.0])))[0] if count else [[]] * 3
    p = int(rng.integers(len(grid)))
    sites = [(grid.lat_deg[p], grid.lon_deg[p], grid.alt_m[p])]
    sites += [(la, lo, 0.0) for la, lo in rng.uniform((47.4, 5.71), (51.4, 9.71), (2, 2))]
    cand = np.array([np.append(c, [s[i] for s in sites]) for i, c in enumerate(cand)])
    jammers = [(*rng.uniform((47.4, 5.71), (51.4, 9.71)), 6000.0)
               for _ in range(draw(st.integers(0, 4)))]
    if jammers and draw(st.booleans()):
        jammers[0] = sites[-1]
    # With a nominal signal distance of 0, a JSR jammer on a site is 0 / 0.
    model = JammerModel(power_w=100.0, affect_rule=draw(st.sampled_from(["los", "jsr"])),
                        nominal_signal_distance_km=draw(st.sampled_from([150.0, 0.0])))
    return (grid, cand, np.arange(cand.shape[1]) >= count,
            np.array(jammers, dtype=float).reshape(-1, 3).T, model, ObjectiveRequirements())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(args=_small_problems())
def test_precompute_matches_reference_bits(args):
    """Every matrix precompute computes has the reference's dtype and bits;
    the point matrices are finite and each direction is unit or zero."""
    _check_precompute(args)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(args=_small_problems())
def test_precompute_blocks_match_reference_bits(args):
    """The same with 256-byte planes: LOS and ranks come in blocks of 2 to
    10 points, so most problems span several blocks and end in a partial
    one, and the NED pass takes one candidate per block."""
    with mock.patch.object(scenario_module, "_PLANE_BYTES", 256):
        _check_precompute(args)


def _check_precompute(args):
    got = precompute(*args)
    want = precompute_reference(*args)
    for name in _PRECOMPUTED:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # Bitwise, so signed zeros must agree too.
        assert a.tobytes() == b.tobytes(), name
    assert np.all(np.isfinite(got.dist_point_cand)) and np.all(np.isfinite(got.dc_point_cand))
    norms = np.linalg.norm(got.dc_point_cand, axis=0)
    zero = got.dist_point_cand.T == 0.0
    assert zero.any()  # the deployed site at a grid point
    assert np.all(got.dc_point_cand[:, zero] == 0.0)
    assert np.allclose(norms[~zero], 1.0, atol=1e-12)


def test_build_peak_is_the_kept_matrices():
    """Building the section-8 problem (1200 points, 400 candidates) holds
    at most 4 MiB beyond the matrices it keeps; LOS and ranks formed over
    the whole (m, N) matrix take 9.7 MiB beyond them. tracemalloc
    sees numpy's buffers."""
    config = parse_config(section8_preset(1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        problem = config.build_problem()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    kept = sum(np.asarray(getattr(problem, name)).nbytes for name in _PRECOMPUTED)
    assert kept > 17 << 20
    assert peak <= kept + (4 << 20)


class TestNearestRank:
    @pytest.mark.parametrize("n, dtype", [(5, np.int16), (32768, np.int16), (32769, np.int32)])
    def test_dtype_holds_largest_rank(self, n, dtype):
        rank = nearest_rank(np.zeros((1, n)))
        assert rank.dtype == dtype
        assert rank[0, -1] == n - 1

    def test_inverse_of_stable_argsort_with_ties_and_inf(self):
        rng = np.random.default_rng(3)
        masked = rng.integers(0, 500, (2, 40000)).astype(float)  # many exact ties
        masked[rng.random(masked.shape) < 0.3] = np.inf
        rank = nearest_rank(masked)
        assert rank.dtype == np.int32
        order = np.argsort(masked, axis=1, kind="stable")
        assert np.array_equal(np.take_along_axis(rank, order, axis=1),
                              np.broadcast_to(np.arange(40000), (2, 40000)))

    @staticmethod
    def assert_stable_inverse(masked):
        rank = nearest_rank(masked)
        order = np.argsort(masked, axis=1, kind="stable")
        want = np.empty(order.shape, dtype=rank.dtype)
        np.put_along_axis(want, order, np.arange(order.shape[1])[None, :], axis=1)
        assert np.array_equal(rank, want)

    @pytest.mark.parametrize("rows", [
        # Distinct finite values and +inf: the unstable sort's order stands.
        [[5.0, np.inf, 1.0, np.inf, 3.0, np.inf], [np.inf, 2.5, 0.5, 7.0, np.inf, 1.5]],
        # Exact finite ties, and 0.0 against -0.0.
        [[2.0, 1.0, 2.0, np.inf, 1.0, 2.0], [0.0, -0.0, 1.0, -0.0, 0.0, np.inf]],
        [[np.inf] * 6, [np.inf] * 6],
        [[3.0, np.nan, 1.0, np.inf, np.nan, -np.inf]],
        # Finite values at and above the +inf keys 2**52 + column.
        [[2.0**52 + 5, 3.0, np.inf, np.inf, 2.0**60, 1.0]],
        [[2.0**53, 2.0**52, 1e300, 4.0, 2.0**52 + 1, 0.0]],
    ], ids=["distinct-and-inf", "ties-and-signed-zeros", "all-inf", "nan",
            "huge-beside-inf", "huge-without-inf"])
    def test_inverse_of_stable_argsort(self, rows):
        self.assert_stable_inverse(np.array(rows))

    def test_block_mixing_tied_and_untied_rows(self):
        rng = np.random.default_rng(5)
        masked = rng.random((40, 400)) * 1e5
        masked[rng.random(masked.shape) < 0.4] = np.inf
        masked[::3, 7] = masked[::3, 300]
        masked[1::5, 11] = -0.0
        masked[1::5, 12] = 0.0
        masked[2, ::7] = np.nan
        self.assert_stable_inverse(masked)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e6, 2.0**52, 2.0**52 + 1, 1e300,
                                  math.inf, -math.inf, math.nan]),
                 min_size=7, max_size=7),
        min_size=1, max_size=6,
    ))
    def test_inverse_of_stable_argsort_on_drawn_rows(self, rows):
        self.assert_stable_inverse(np.array(rows))
