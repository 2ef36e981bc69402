"""Problem construction: airspace sampling, candidate sites, jammers,
deployed-sensor files, and ``precompute``, which builds the frozen
``PlacementProblem`` once with every geometry matrix that the evaluations
share.

Every set of positions is one component-major array: the (3, m)
airspace points, the (3, N) candidate sites, the (3, d) deployed sensors
of a file and the (3, J) jammers hold latitudes, longitudes and
altitudes as rows, and ``geo`` gives ECEF positions as (3, n) and NED
rotations as (3, 3, n). ``site_matches`` is the one rule that pairs
sites with positions."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import geo
from .objectives import InvalidConfigError, JammerModel, ObjectiveRequirements

log = logging.getLogger("adsbplace.scenario")


@dataclass(frozen=True)
class AreaBounds:
    """Geodetic bounding box plus the aircraft sampling altitudes."""

    lat_low: float
    lat_up: float
    lon_low: float
    lon_up: float
    altitude_levels_m: tuple[float, ...] = (3000.0, 6000.0, 10000.0)

    def __post_init__(self):
        if not self.lat_low < self.lat_up:
            raise InvalidConfigError("lat_low must be < lat_up")
        if not self.lon_low < self.lon_up:
            raise InvalidConfigError("lon_low must be < lon_up")
        if not (-90.0 <= self.lat_low and self.lat_up <= 90.0):
            raise InvalidConfigError("latitudes must lie in [-90, 90]")
        if not (-180.0 <= self.lon_low and self.lon_up <= 180.0):
            raise InvalidConfigError("longitudes must lie in [-180, 180]")
        alts = self.altitude_levels_m
        if not alts or any(a <= 0 for a in alts) or list(alts) != sorted(set(alts)):
            raise InvalidConfigError("altitudes must be strictly increasing and > 0")

    def contains(self, lat, lon):
        """Whether each latitude-longitude pair lies in the box."""
        return ((self.lat_low <= lat) & (lat <= self.lat_up)
                & (self.lon_low <= lon) & (lon <= self.lon_up))


def sample_grid(bounds: AreaBounds, lat_count: int, lon_count: int) -> np.ndarray:
    """Regular lat x lon lattice at each altitude level, as a (3, m) array
    of latitudes, longitudes and altitudes.

    Points come out sorted by longitude, ties broken by latitude, then
    altitude, so the node-uniqueness ordering holds by construction.
    """
    if lat_count < 2 or lon_count < 2:
        raise InvalidConfigError("grid counts must be >= 2")
    lats = np.linspace(bounds.lat_low, bounds.lat_up, lat_count)
    lons = np.linspace(bounds.lon_low, bounds.lon_up, lon_count)
    alts = np.asarray(bounds.altitude_levels_m, dtype=float)
    lon_g, lat_g, alt_g = np.meshgrid(lons, lats, alts, indexing="ij")
    return np.stack([lat_g.ravel(), lon_g.ravel(), alt_g.ravel()])


def _lattice_centers(bounds: AreaBounds, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes of the centers of a near-square split of
    the area into ``count`` rectangles."""
    rows = int(round(math.sqrt(count)))
    while rows > 1 and count % rows:
        rows -= 1
    cols = count // rows
    lat_step = (bounds.lat_up - bounds.lat_low) / rows
    lon_step = (bounds.lon_up - bounds.lon_low) / cols
    return (bounds.lat_low + lat_step * (np.arange(rows) + 0.5),
            bounds.lon_low + lon_step * (np.arange(cols) + 0.5))


def candidate_sites(
    bounds: AreaBounds,
    count: int,
    deployed: np.ndarray = np.empty((3, 0)),
    pattern: str = "lattice",
    seed: int = 0,
    antenna_height_m: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate sites, as a (3, N) array of latitudes, longitudes and
    altitudes, and their forced mask: ``count`` generated ground sites,
    ordering sorted, less those that ``site_matches`` pairs with a
    deployed site, then the (3, d) ``deployed`` sites, forced."""
    if count < 0:
        raise InvalidConfigError("candidate count must be >= 0")
    if not count and not deployed.shape[1]:
        raise InvalidConfigError("need at least one sensor site")
    if pattern not in ("lattice", "seeded-uniform"):
        raise InvalidConfigError(f"unknown candidate pattern: {pattern}")
    lat_arr = lon_arr = np.empty(0)
    if pattern == "lattice" and count:
        # One site per rectangle of the area split, placed at the center.
        lats, lons = _lattice_centers(bounds, count)
        lon_g, lat_g = np.meshgrid(lons, lats, indexing="ij")
        lat_arr, lon_arr = lat_g.ravel(), lon_g.ravel()
    elif pattern == "seeded-uniform":
        rng = np.random.default_rng(seed)
        lat_arr = rng.uniform(bounds.lat_low, bounds.lat_up, count)
        lon_arr = rng.uniform(bounds.lon_low, bounds.lon_up, count)
        order = np.lexsort((lat_arr, lon_arr))
        lat_arr, lon_arr = lat_arr[order], lon_arr[order]
    generated = np.stack([lat_arr, lon_arr, np.full(lat_arr.size, float(antenna_height_m))])
    # A generated site that a deployed one matches would be a second copy of it.
    generated = generated[:, ~site_matches(generated, deployed).any(axis=1)]
    sites = np.concatenate([generated, deployed], axis=1)
    return sites, np.arange(sites.shape[1]) >= generated.shape[1]


def site_matches(sites: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Which of the (3, N) sites each of the (3, d) positions matches, as
    (N, d) bools: within 1e-6 degrees in latitude and longitude and
    ``np.isclose`` in altitude, so a position written with 9 significant
    digits still matches its site."""
    return ((np.abs(sites[0, :, None] - positions[0]) < 1e-6)
            & (np.abs(sites[1, :, None] - positions[1]) < 1e-6)
            & np.isclose(sites[2, :, None], positions[2], rtol=1e-8, atol=1e-6))


def generate_jammers(
    bounds: AreaBounds,
    count: int,
    heights_m: Sequence[float],
    pattern: str = "grid",
    seed: int = 0,
) -> np.ndarray:
    """Jammers spread over the area at the given height levels, as a
    (3, J) array of latitudes, longitudes and heights: on a lattice at
    each level in turn, or uniform at random levels, sorted by longitude,
    then latitude."""
    if count < 1 or not heights_m:
        raise InvalidConfigError("need at least one jammer and one height")
    heights = np.asarray(heights_m, dtype=float)
    if pattern == "grid":
        if count % len(heights_m):
            raise InvalidConfigError("jammer count must be divisible by the height count")
        lats, lons = _lattice_centers(bounds, count // len(heights_m))
        alt_g, lon_g, lat_g = np.meshgrid(heights, lons, lats, indexing="ij")
        return np.stack([lat_g.ravel(), lon_g.ravel(), alt_g.ravel()])
    if pattern == "seeded-uniform":
        rng = np.random.default_rng(seed)
        lat_arr = rng.uniform(bounds.lat_low, bounds.lat_up, count)
        lon_arr = rng.uniform(bounds.lon_low, bounds.lon_up, count)
        alt_arr = rng.choice(heights, size=count)
        return np.stack([lat_arr, lon_arr, alt_arr])[:, np.lexsort((lat_arr, lon_arr))]
    raise InvalidConfigError(f"unknown jammer pattern: {pattern}")


@dataclass(frozen=True)
class PlacementProblem:
    """A problem instance with all its geometry, as ``precompute`` builds
    it. Its airspace points, candidate sites and jammers are (3, m),
    (3, N) and (3, J) arrays of latitudes, longitudes and altitudes, the
    jammers each following ``jammer_model``. Point-candidate matrices are
    (m, N) except the direction cosines, which are component-major
    (3, N, m)."""

    points: np.ndarray
    sites: np.ndarray
    forced_mask: np.ndarray
    jammers: np.ndarray
    jammer_model: JammerModel
    requirements: ObjectiveRequirements
    range_cap_km: float
    dist_point_cand: np.ndarray
    dc_point_cand: np.ndarray
    los_point_cand: np.ndarray
    rank_point_cand: np.ndarray
    dist_jam_cand: np.ndarray
    los_jam_cand: np.ndarray
    affected_jam_cand: np.ndarray
    dist_cand_cand: np.ndarray

    @property
    def n_candidates(self) -> int:
        return self.sites.shape[1]


# Bytes of one float64 plane of a block in precompute's blocked passes. A
# block of _ned_geometry holds about eight (block, origins) planes of
# differences, rotated components, products and norms, and a block of
# _visibility about six (block, candidates) planes of gathered ground
# distances, squares, masked distances and sort order. So 128 KiB keeps
# either working set near 1 MiB, in cache while the block is worked on:
# 13 candidates or 40 points per block at section-8 scale.
_PLANE_BYTES = 128 << 10


def precompute(
    points: np.ndarray,
    sites: np.ndarray,
    forced_mask: np.ndarray,
    jammers: np.ndarray,
    jammer_model: JammerModel,
    requirements: ObjectiveRequirements,
) -> PlacementProblem:
    """The problem over the (3, m) points, (3, N) candidate sites and
    (3, J) jammers, with every distance / direction-cosine / LOS matrix
    computed and the OF2 range cap resolved: the requirement's, else the
    points' diagonal.

    Each value is computed once. NED vectors, their lengths and the unit
    scaling run in one blocked pass. Ground distances are computed per
    distinct (lat, lon) of the points and of the jammers, and LOS and the
    nearest ranks per block of points, each block gathering its ground
    distances from that table; so beyond the matrices it keeps, precompute
    holds no (m, N) array. Candidate-to-candidate distances sum their
    squared ECEF component planes. The matrices keep the bits of the
    whole-array computation (``tests/oracles.precompute_reference``).
    """
    cand_ecef = geo.geodetic_to_ecef_arrays(*sites)
    dist, dc = _ned_geometry(points, cand_ecef, unit=True)
    los, rank = _visibility(sites, points, dist)
    jdist, _ = _ned_geometry(jammers, cand_ecef, unit=False)
    jlos, _ = _visibility(sites, jammers)
    affected = jlos.copy()
    model = jammer_model
    if model.affect_rule == "jsr":
        num = model.power_w * model.antenna_gain * model.nominal_signal_distance_km**2
        den = model.transmitter_power_w * model.transmitter_antenna_gain
        # A jammer on a site divides num by 0: inf, or NaN where num is 0
        # too. np.where gives that site inf either way.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(jdist > 0.0, num / (den * (jdist / 1000.0) ** 2), np.inf)
        affected &= ratio >= model.jsr_threshold

    cap = requirements.range_cap_km
    return PlacementProblem(
        points, sites, forced_mask, jammers, jammer_model, requirements,
        range_cap_km=_area_diagonal(points) if cap is None else float(cap),
        dist_point_cand=dist,
        dc_point_cand=dc,
        los_point_cand=los,
        rank_point_cand=rank,
        dist_jam_cand=jdist,
        los_jam_cand=jlos,
        affected_jam_cand=affected,
        dist_cand_cand=_pairwise_distance(cand_ecef),
    )


def _ned_geometry(origins, target_ecef, unit: bool):
    """Length of the NED vector from each of the (3, n) geodetic origins
    to each of the (3, N) ECEF targets, as (origins, targets), and with
    ``unit`` the unit vectors component-major (3, targets, origins), zero
    where the length is zero; else None.

    One pass over blocks of targets rotates, measures and scales each
    block while it is in cache. Each component sums as
    (r0 d0 + r2 d2) + r1 d1, the order that
    np.einsum("mij,mnj->mni", rot, diff) uses, and each length as
    (n0 n0 + n1 n1) + n2 n2; another order changes the low bits of the
    matrices and so of every score.
    """
    rot = geo.ned_rotation_arrays(origins[0], origins[1])
    origin_xyz = geo.geodetic_to_ecef_arrays(*origins)
    n_origins, n_targets = origins.shape[1], target_ecef.shape[1]
    dist = np.empty((n_origins, n_targets))
    dc = np.empty((3, n_targets, n_origins)) if unit else None
    rows = max(1, min(n_targets, _PLANE_BYTES // (8 * max(n_origins, 1))))
    diff = np.empty((3, rows, n_origins))
    ned_block = None if unit else np.empty((3, rows, n_origins))
    term = np.empty((rows, n_origins))
    norm = np.empty((rows, n_origins))
    for start in range(0, n_targets, rows):
        stop = min(start + rows, n_targets)
        k = stop - start
        d, t, r = diff[:, :k], term[:k], norm[:k]
        for c in range(3):
            np.subtract(target_ecef[c, start:stop, None], origin_xyz[c], out=d[c])
        ned = dc[:, start:stop] if unit else ned_block[:, :k]
        for i, out in enumerate(ned):
            np.multiply(rot[i, 0], d[0], out=out)
            out += np.multiply(rot[i, 2], d[2], out=t)
            out += np.multiply(rot[i, 1], d[1], out=t)
        np.multiply(ned[0], ned[0], out=r)
        r += np.multiply(ned[1], ned[1], out=t)
        r += np.multiply(ned[2], ned[2], out=t)
        np.sqrt(r, out=r)
        dist[:, start:stop] = r.T
        if unit:
            with np.errstate(divide="ignore", invalid="ignore"):
                ned /= r
            # A target at the origin itself gets zeros.
            zero = ~(r > 0.0)
            if zero.any():
                ned[:, zero] = 0.0
    return dist, dc


def _visibility(sites, origins, dist=None):
    """LOS from each of the (3, n) geodetic origins to each of the (3, N)
    candidate sites, as (n, N) bools, and with ``dist`` the
    ``nearest_rank`` of the LOS-masked distances, else None. Both are
    filled per block of origins, each gathering its ground distances from
    ``_ground_km``'s table, so their temporaries take a block's rows, not
    the matrix's. Every step is elementwise or per row, so the blocks keep
    the whole-matrix bits."""
    table, inverse = _ground_km(origins, sites)
    m, n = inverse.size, sites.shape[1]
    los = np.empty((m, n), dtype=bool)
    rank = None if dist is None else np.empty((m, n), dtype=index_dtype(n - 1))
    rows = max(1, _PLANE_BYTES // (8 * n))
    origin_alt, site_alt = origins[2, :, None], sites[2, None, :]
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        los[block] = geo.visibility_mask_arrays(origin_alt[block], table[inverse[block]], site_alt)
        if rank is not None:
            rank[block] = nearest_rank(np.where(los[block], dist[block], np.inf))
    return los, rank


def _ground_km(origins, sites) -> tuple[np.ndarray, np.ndarray]:
    """Great-circle km from each distinct (lat, lon) of the (3, n) origins
    to each of the (3, N) candidate sites, as (distinct origins,
    candidates), by ``geo.haversine_km_arrays``'s formula and operand
    order, and the row of each origin in it. Its sin^2(dlat / 2), cos(lat1) cos(lat2) and
    sin^2(dlon / 2) terms each depend on two latitudes or two longitudes
    only, so they are tabled over the distinct ones and gathered per
    pair."""
    pairs = np.stack(origins[:2], axis=1, dtype=float)
    # Positions of equal bits share a row. Unique over 16-byte keys sorts
    # them several times faster than unique(axis=0) does.
    keys, inverse = np.unique(pairs.view(np.dtype((np.void, 16))).ravel(), return_inverse=True)
    where = keys.view(float).reshape(-1, 2)
    lat1, i = _distinct_radians(where[:, 0])
    lon1, u = _distinct_radians(where[:, 1])
    lat2, j = _distinct_radians(sites[0])
    lon2, v = _distinct_radians(sites[1])
    sin_lat = np.sin((lat2 - lat1[:, None]) / 2.0) ** 2
    sin_lon = np.sin((lon2 - lon1[:, None]) / 2.0) ** 2
    cos_cos = np.cos(lat1)[:, None] * np.cos(lat2)
    # a = sin_lat + cos_cos * sin_lon; IEEE sums and products commute.
    a = np.take(cos_cos[i], j, axis=1)
    a *= np.take(sin_lon[u], v, axis=1)
    a += np.take(sin_lat[i], j, axis=1)
    ground = np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0, out=a), out=a), out=a)
    ground *= geo.EARTH_MEAN_RADIUS_KM * 2.0
    return ground, inverse


def _distinct_radians(deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float array, by their bits, in radians,
    and the index of each element's value among them."""
    bits, inverse = np.unique(np.asarray(deg, dtype=float).view(np.int64), return_inverse=True)
    return np.radians(bits.view(float)), inverse


def _pairwise_distance(ecef: np.ndarray) -> np.ndarray:
    """Euclidean distance between every pair of the (3, N) ECEF positions,
    summing the squared x, y and z planes in the order of a length-3
    ``sum(axis=0)``."""
    x, y, z = ecef
    dist = np.subtract.outer(x, x)
    dist *= dist
    plane = np.subtract.outer(y, y)
    plane *= plane
    dist += plane
    np.subtract.outer(z, z, out=plane)
    plane *= plane
    dist += plane
    return np.sqrt(dist, out=dist)


# Sort key of a +inf in column c: _INF_KEY + c. Distances are metres, far
# below 2**52, and every such key is an exact float64.
_INF_KEY = 2.0**52


def nearest_rank(masked: np.ndarray) -> np.ndarray:
    """Rank of every column in its row's stable ascending order.

    The inverse of ``np.argsort(masked, axis=1, kind="stable")``: ties
    rank by column index, so the ranks in a row are unique. The dtype is
    ``index_dtype(N - 1)`` for N columns: int16 up to N = 32768, int32
    above.

    One unstable argsort orders the rows by keys that cap each value at
    ``_INF_KEY`` plus its column. A +inf (a column out of LOS) so becomes
    a distinct key, above every finite one and in column order. A row
    whose sorted keys strictly increase has one ascending order, the
    stable one. In the other rows, equal keys (exact ties, 0.0 against
    -0.0, NaNs) sit together in no set order, so each such run is put in
    column order. A block holding a finite value of at least
    ``_INF_KEY``, whose key the cap changed, takes the stable argsort.
    """
    m, n = masked.shape
    dtype = index_dtype(n - 1)
    rank = np.empty((m, n), dtype=dtype)
    keys = np.minimum(masked, _INF_KEY + np.arange(n))
    # flat holds each row's flat indices in ascending order; base is the
    # flat index of each row's first column.
    base = np.arange(m)[:, None] * n
    if np.count_nonzero(keys >= _INF_KEY) > np.count_nonzero(masked == np.inf):
        flat = np.argsort(masked, axis=1, kind="stable") + base
    else:
        flat = np.argsort(keys, axis=1)
        flat += base
        ordered = keys.reshape(-1)[flat]
        # NaNs sort last, and ~(a < b) catches them as it catches ties.
        tied = ~(ordered[:, :-1] < ordered[:, 1:]).all(axis=1)
        if tied.any():
            ordered, start = ordered[tied], base[tied]
            new_run = ordered[:, 1:] != ordered[:, :-1]
            new_run &= ~np.isnan(ordered[:, :-1])  # the NaN tail is one run
            run = np.zeros(ordered.shape, dtype=np.int64)
            np.cumsum(new_run, axis=1, out=run[:, 1:])
            # (run, column) pairs are distinct: one unstable sort orders them.
            pairs = run * n + (flat[tied] - start)
            pairs.sort(axis=1)
            flat[tied] = pairs % n + start
    # flat runs row by row, so the repeated 0..N-1 gives each column its rank.
    np.put(rank, flat, np.arange(n, dtype=dtype))
    return rank


def index_dtype(n: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds n."""
    return next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if n <= np.iinfo(t).max)


def _area_diagonal(points: np.ndarray) -> float:
    (lat_low, lon_low, _), (lat_up, lon_up, _) = points.min(axis=1), points.max(axis=1)
    return float(geo.haversine_km_arrays(lat_low, lon_low, lat_up, lon_up))


class DeployedFileError(ValueError):
    """An unreadable or malformed input CSV, a sensor file or a
    ``pareto.csv``. The message names the file and the line, if any."""

    def __init__(self, path: str | Path, line_no: int | None, message: str):
        where = f"{path}: line {line_no}" if line_no else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


def csv_rows(path: str | Path, comments: dict | None = None) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of each CSV row of a UTF-8 file, read once and
    split into lines as text mode splits them. Lines starting with ``#``
    read as blank rows, so line numbers stay the file's; ``comments``, if
    given, gets ``comments[key] = (line number, value)`` of each
    ``# key=value`` line read so far. An unreadable file and text that is
    not UTF-8 or CSV raise ``DeployedFileError``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DeployedFileError(path, None, f"cannot read: {exc.strerror or exc}") from None

    def lines() -> Iterator[str]:
        for line_no, line in enumerate(data.splitlines(keepends=True), 1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DeployedFileError(
                    path, line_no, f"not UTF-8: byte {line[exc.start]:#04x} at column {exc.start + 1}"
                ) from None
            if text.startswith("#"):
                key, sep, value = text[1:].partition("=")
                if sep and comments is not None:
                    comments[key.strip()] = (line_no, value)
                text = "\n"
            yield text

    reader = csv.reader(lines())
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DeployedFileError(path, reader.line_num, str(exc)) from None


def load_deployed_csv(path: str | Path) -> tuple[np.ndarray, int | None]:
    """Parse a sensor CSV with header id,lat_deg,lon_deg,alt_m in one read:
    its positions, as a (3, d) array of latitudes, longitudes and
    altitudes in row order, and the seed of a ``# seed=`` line above the
    header or None.

    The ids, other ``#`` lines and columns after the fourth are ignored,
    so emitted solution files parse too. Rows repeating an earlier
    position are skipped with a warning. A file that cannot be read, text
    that is not UTF-8 or CSV, a seed that is not an integer and
    unparsable, non-finite or out-of-range coordinates raise
    ``DeployedFileError``.
    """
    positions: dict[tuple[float, float, float], None] = {}
    comments: dict[str, tuple[int, str]] = {}
    reader = csv_rows(path, comments)
    line_no, header = next(((n, row) for n, row in reader if row), (0, None))
    seed = None
    if "seed" in comments:
        seed_line, value = comments["seed"]
        try:
            seed = int(value)
        except ValueError:
            raise DeployedFileError(path, seed_line, f"seed {value.strip()!r} is not an integer") from None
    if header is None:
        return np.empty((3, 0)), seed
    expected = ["id", "lat_deg", "lon_deg", "alt_m"]
    if [h.strip() for h in header[:4]] != expected:
        raise DeployedFileError(path, line_no, f"expected header {','.join(expected)}")
    for line_no, row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 4:
            raise DeployedFileError(path, line_no, "expected 4 columns")
        try:
            lat, lon, alt = float(row[1]), float(row[2]), float(row[3])
        except ValueError as exc:
            raise DeployedFileError(path, line_no, str(exc)) from exc
        if not all(map(math.isfinite, (lat, lon, alt))):
            raise DeployedFileError(path, line_no, "coordinates must be finite")
        if not -90.0 <= lat <= 90.0:
            raise DeployedFileError(path, line_no, f"latitude {lat} outside [-90, 90]")
        if not -180.0 <= lon <= 180.0:
            raise DeployedFileError(path, line_no, f"longitude {lon} outside [-180, 180]")
        if (lat, lon, alt) in positions:
            log.warning("deployed sensor on line %d duplicates an earlier row; skipped", line_no)
        positions[lat, lon, alt] = None
    return np.array(list(zip(*positions)), dtype=float).reshape(3, -1), seed


def build_problem(
    bounds: AreaBounds,
    lat_count: int,
    lon_count: int,
    candidate_count: int,
    requirements: ObjectiveRequirements,
    jammers: np.ndarray | None = None,
    jammer_model: JammerModel = JammerModel(),
    deployed: np.ndarray = np.empty((3, 0)),
    candidate_pattern: str = "lattice",
    candidate_seed: int = 0,
    antenna_height_m: float = 0.0,
) -> PlacementProblem:
    """Assemble and precompute a placement problem over the sites of
    ``candidate_sites``.

    ``jammers`` is a (3, J) array of positions, as ``generate_jammers``
    gives, all following ``jammer_model``; None means no jammers.
    The (3, d) ``deployed`` sites are appended to the candidate list with their
    forced-mask bits set (Scenario 2); leave it empty for Scenario 1.
    With ``candidate_count=0`` no candidates are generated: the deployed
    sites are the whole candidate set and all forced, a free-standing
    deployment.
    """
    sites, forced = candidate_sites(
        bounds, candidate_count, deployed, candidate_pattern, candidate_seed, antenna_height_m
    )
    points = sample_grid(bounds, lat_count, lon_count)
    if jammers is None:
        jammers = np.empty((3, 0))
    for lat, lon in deployed[:2, ~bounds.contains(deployed[0], deployed[1])].T:
        log.warning("deployed sensor (%.4f, %.4f) lies outside the area bounds", lat, lon)
    return precompute(points, sites, forced, jammers, jammer_model, requirements)


def clustered21_path() -> Path:
    """Path of the bundled synthetic clustered 21-sensor deployment."""
    return Path(str(resources.files("adsbplace").joinpath("data/clustered21.csv")))
