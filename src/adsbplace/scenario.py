"""Problem construction: airspace sampling, candidate sites, jammers,
and the precomputed geometry matrices shared by every evaluation."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import geo
from .geo import GeodeticPosition, PropagationParams
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

    def contains(self, lat: float, lon: float) -> bool:
        return self.lat_low <= lat <= self.lat_up and self.lon_low <= lon <= self.lon_up


@dataclass
class AirspaceGrid:
    """Sampled airspace points with per-point requirements."""

    lat_deg: np.ndarray
    lon_deg: np.ndarray
    alt_m: np.ndarray
    required_gdop: np.ndarray
    required_range_km: np.ndarray

    def __len__(self) -> int:
        return self.lat_deg.size


def sample_grid(
    bounds: AreaBounds,
    lat_count: int,
    lon_count: int,
    required_gdop: float = 10.0,
    required_range_km: float = 150.0,
) -> AirspaceGrid:
    """Regular lat x lon lattice at each altitude level.

    Points come out sorted by longitude, ties broken by latitude, so the
    node-uniqueness ordering holds by construction.
    """
    if lat_count < 2 or lon_count < 2:
        raise InvalidConfigError("grid counts must be >= 2")
    lats = np.linspace(bounds.lat_low, bounds.lat_up, lat_count)
    lons = np.linspace(bounds.lon_low, bounds.lon_up, lon_count)
    alts = np.asarray(bounds.altitude_levels_m, dtype=float)
    lon_g, lat_g, alt_g = np.meshgrid(lons, lats, alts, indexing="ij")
    m = lon_g.size
    return AirspaceGrid(
        lat_deg=lat_g.ravel(),
        lon_deg=lon_g.ravel(),
        alt_m=alt_g.ravel(),
        required_gdop=np.full(m, float(required_gdop)),
        required_range_km=np.full(m, float(required_range_km)),
    )


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
    deployed: Sequence[tuple[str, float, float, float]] = (),
    pattern: str = "lattice",
    seed: int | None = None,
    antenna_height_m: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate sites, as a (3, N) array of latitudes, longitudes and
    altitudes, and their forced mask: ``count`` generated ground sites,
    ordering sorted, then the ``deployed`` sites, forced."""
    if count < 0:
        raise InvalidConfigError("candidate count must be >= 0")
    if not count and not deployed:
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
    sites = np.array([site[1:] for site in deployed], dtype=float).reshape(-1, 3)
    sites = np.concatenate(
        [[lat_arr, lon_arr, np.full(count, float(antenna_height_m))], sites.T], axis=1
    )
    return sites, np.arange(sites.shape[1]) >= count


def generate_jammers(
    bounds: AreaBounds,
    count: int,
    heights_m: Sequence[float],
    pattern: str = "grid",
    seed: int | None = None,
    **jammer_kwargs,
) -> list[JammerModel]:
    """Jammers spread over the area at the given height levels."""
    if count < 1 or not heights_m:
        raise InvalidConfigError("need at least one jammer and one height")
    positions: list[tuple[float, float, float]] = []
    if pattern == "grid":
        if count % len(heights_m):
            raise InvalidConfigError("jammer count must be divisible by the height count")
        lats, lons = _lattice_centers(bounds, count // len(heights_m))
        for h in heights_m:
            for lo in lons:
                for la in lats:
                    positions.append((float(la), float(lo), float(h)))
    elif pattern == "seeded-uniform":
        rng = np.random.default_rng(seed)
        lat_arr = rng.uniform(bounds.lat_low, bounds.lat_up, count)
        lon_arr = rng.uniform(bounds.lon_low, bounds.lon_up, count)
        h_arr = rng.choice(np.asarray(heights_m, dtype=float), size=count)
        for la, lo, h in sorted(zip(lat_arr, lon_arr, h_arr), key=lambda t: (t[1], t[0])):
            positions.append((float(la), float(lo), float(h)))
    else:
        raise InvalidConfigError(f"unknown jammer pattern: {pattern}")
    return [
        JammerModel(position=GeodeticPosition(la, lo, h), **jammer_kwargs)
        for la, lo, h in positions
    ]


@dataclass
class PlacementProblem:
    """Immutable problem instance with all geometry precomputed."""

    grid: AirspaceGrid
    cand_lat: np.ndarray
    cand_lon: np.ndarray
    cand_alt: np.ndarray
    forced_mask: np.ndarray
    jammers: list[JammerModel]
    requirements: ObjectiveRequirements
    propagation: PropagationParams = field(default_factory=PropagationParams)
    range_cap_km: float = 0.0

    # Filled by precompute(). Point-candidate matrices are (m, N) except
    # the direction cosines, which are component-major (3, N, m).
    dist_point_cand: np.ndarray | None = None
    dc_point_cand: np.ndarray | None = None
    los_point_cand: np.ndarray | None = None
    rank_point_cand: np.ndarray | None = None
    dist_jam_cand: np.ndarray | None = None
    los_jam_cand: np.ndarray | None = None
    affected_jam_cand: np.ndarray | None = None
    dist_cand_cand: np.ndarray | None = None

    @property
    def n_candidates(self) -> int:
        return self.cand_lat.size


# Bytes of one float64 plane of a block in precompute's blocked passes. A
# block of _ned_geometry holds about eight (block, origins) planes of
# differences, rotated components, products and norms, and a block of
# _visibility about six (block, candidates) planes of gathered ground
# distances, squares, masked distances and sort order. So 128 KiB keeps
# either working set near 1 MiB, in cache while the block is worked on:
# 13 candidates or 40 points per block at section-8 scale.
_PLANE_BYTES = 128 << 10


def precompute(problem: PlacementProblem) -> PlacementProblem:
    """Fill the distance / direction-cosine / LOS matrices in place.

    Each value is computed once. NED vectors, their lengths and the unit
    scaling run in one blocked pass. Ground distances are computed per
    distinct (lat, lon) of the grid and of the jammers, and LOS and the
    nearest ranks per block of points, each block gathering its ground
    distances from that table; so beyond the matrices it keeps, precompute
    holds no (m, N) array. Candidate-to-candidate distances sum their
    squared ECEF component planes. The matrices keep the bits of the
    whole-array computation (``tests/oracles.precompute_reference``).
    """
    grid = problem.grid
    cand_ecef = geo.geodetic_to_ecef_arrays(
        problem.cand_lat, problem.cand_lon, problem.cand_alt
    )
    grid_ecef = geo.geodetic_to_ecef_arrays(grid.lat_deg, grid.lon_deg, grid.alt_m)
    dist, dc = _ned_geometry(grid_ecef, grid.lat_deg, grid.lon_deg, cand_ecef, unit=True)
    problem.dist_point_cand = dist
    problem.dc_point_cand = dc
    problem.los_point_cand, problem.rank_point_cand = _visibility(
        problem, grid.lat_deg, grid.lon_deg, grid.alt_m, dist
    )

    jams = problem.jammers
    jam_lat = np.array([j.position.latitude_deg for j in jams])
    jam_lon = np.array([j.position.longitude_deg for j in jams])
    jam_alt = np.array([j.position.altitude_m for j in jams])
    jam_ecef = geo.geodetic_to_ecef_arrays(jam_lat, jam_lon, jam_alt)
    jdist, _ = _ned_geometry(jam_ecef, jam_lat, jam_lon, cand_ecef, unit=False)
    jlos, _ = _visibility(problem, jam_lat, jam_lon, jam_alt)
    affected = jlos.copy()
    for l, jam in enumerate(jams):
        if jam.affect_rule == "jsr":
            num = jam.power_w * jam.antenna_gain * jam.nominal_signal_distance_km**2
            den = jam.transmitter_power_w * jam.transmitter_antenna_gain
            with np.errstate(divide="ignore"):
                ratio = np.where(
                    jdist[l] > 0.0, num / (den * (jdist[l] / 1000.0) ** 2), np.inf
                )
            affected[l] &= ratio >= jam.jsr_threshold
    problem.dist_jam_cand = jdist
    problem.los_jam_cand = jlos
    problem.affected_jam_cand = affected

    problem.dist_cand_cand = _pairwise_distance(cand_ecef)

    if not problem.range_cap_km:
        cap = problem.requirements.range_cap_km
        problem.range_cap_km = _area_diagonal(problem) if cap is None else float(cap)
    return problem


def _ned_geometry(origin_ecef, origin_lat, origin_lon, target_ecef, unit: bool):
    """Length of the NED vector from each origin to each target, as
    (origins, targets), and with ``unit`` the unit vectors component-major
    (3, targets, origins), zero where the length is zero; else None.

    One pass over blocks of targets rotates, measures and scales each
    block while it is in cache. Each component sums as
    (r0 d0 + r2 d2) + r1 d1, the order that
    np.einsum("mij,mnj->mni", rot, diff) uses, and each length as
    (n0 n0 + n1 n1) + n2 n2; another order changes the low bits of the
    matrices and so of every score.
    """
    rot = np.ascontiguousarray(
        geo.ned_rotation_arrays(origin_lat, origin_lon).transpose(1, 2, 0)
    )  # (3, 3, origins)
    n_origins, n_targets = origin_ecef.shape[0], target_ecef.shape[0]
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
            np.subtract(target_ecef[start:stop, c, None], origin_ecef[None, :, c], out=d[c])
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


def _visibility(problem: PlacementProblem, lat_deg, lon_deg, alt_m, dist=None):
    """LOS from each origin to each candidate, as (origins, N) bools, and
    with ``dist`` the ``nearest_rank`` of the LOS-masked distances, else
    None. Both are filled per block of origins, each gathering its ground
    distances from ``_ground_km``'s table, so their temporaries take a
    block's rows, not the matrix's. Every step is elementwise or per row,
    so the blocks keep the whole-matrix bits."""
    table, inverse = _ground_km(lat_deg, lon_deg, problem.cand_lat, problem.cand_lon)
    m, n = inverse.size, problem.n_candidates
    los = np.empty((m, n), dtype=bool)
    rank = None if dist is None else np.empty((m, n), dtype=index_dtype(n - 1))
    rows = max(1, _PLANE_BYTES // (8 * n))
    cand_alt = problem.cand_alt[None, :]
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        los[block] = geo.visibility_mask_arrays(
            alt_m[block, None], table[inverse[block]], cand_alt, problem.propagation
        )
        if rank is not None:
            rank[block] = nearest_rank(np.where(los[block], dist[block], np.inf))
    return los, rank


def _ground_km(lat_deg, lon_deg, cand_lat, cand_lon) -> tuple[np.ndarray, np.ndarray]:
    """Great-circle km from each distinct (lat, lon) origin to each
    candidate, as (distinct origins, candidates), by
    ``geo.haversine_km_arrays``'s formula and operand order, and the row
    of each origin in it. Its sin^2(dlat / 2), cos(lat1) cos(lat2) and
    sin^2(dlon / 2) terms each depend on two latitudes or two longitudes
    only, so they are tabled over the distinct ones and gathered per
    pair."""
    pairs = np.stack([lat_deg, lon_deg], axis=1, dtype=float)
    # Positions of equal bits share a row. Unique over 16-byte keys sorts
    # them several times faster than unique(axis=0) does.
    keys, inverse = np.unique(pairs.view(np.dtype((np.void, 16))).ravel(), return_inverse=True)
    where = keys.view(float).reshape(-1, 2)
    lat1, i = _distinct_radians(where[:, 0])
    lon1, u = _distinct_radians(where[:, 1])
    lat2, j = _distinct_radians(cand_lat)
    lon2, v = _distinct_radians(cand_lon)
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
    """Euclidean distance between every pair of ECEF rows, summing the
    squared x, y and z planes in the order of a length-3 ``sum(axis=-1)``."""
    x, y, z = ecef.T
    dist = np.subtract.outer(x, x)
    dist *= dist
    plane = np.subtract.outer(y, y)
    plane *= plane
    dist += plane
    np.subtract.outer(z, z, out=plane)
    plane *= plane
    dist += plane
    return np.sqrt(dist, out=dist)


def nearest_rank(masked: np.ndarray) -> np.ndarray:
    """Rank of every column in its row's stable ascending order.

    The inverse of ``np.argsort(masked, axis=1, kind="stable")``: ties
    rank by column index, so the ranks in a row are unique. The dtype is
    ``index_dtype(N - 1)`` for N columns: int16 up to N = 32768, int32
    above.
    """
    m, n = masked.shape
    dtype = index_dtype(n - 1)
    rank = np.empty((m, n), dtype=dtype)
    order = np.argsort(masked, axis=1, kind="stable")
    np.put_along_axis(rank, order, np.arange(n, dtype=dtype)[None, :], axis=1)
    return rank


def index_dtype(n: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds n."""
    return next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if n <= np.iinfo(t).max)


def _area_diagonal(problem: PlacementProblem) -> float:
    grid = problem.grid
    return float(
        geo.haversine_km_arrays(
            grid.lat_deg.min(), grid.lon_deg.min(), grid.lat_deg.max(), grid.lon_deg.max()
        )
    )


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


def load_deployed_csv(path: str | Path) -> tuple[list[tuple[str, float, float, float]], int | None]:
    """Parse a sensor CSV with header id,lat_deg,lon_deg,alt_m in one read:
    its rows, and the seed of a ``# seed=`` line above the header or None.

    Other ``#`` lines and columns after the fourth are ignored, so emitted
    solution files parse too. Rows repeating an earlier position are
    skipped with a warning. A file that cannot be read, text that is not
    UTF-8 or CSV, a seed that is not an integer and unparsable, non-finite
    or out-of-range coordinates raise ``DeployedFileError``.
    """
    rows: list[tuple[str, float, float, float]] = []
    seen: set[tuple[float, float, float]] = set()
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
        return rows, seed
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
        key = (lat, lon, alt)
        if key in seen:
            log.warning("deployed sensor on line %d duplicates an earlier row; skipped", line_no)
            continue
        seen.add(key)
        rows.append((row[0].strip(), lat, lon, alt))
    return rows, seed


def build_problem(
    bounds: AreaBounds,
    lat_count: int,
    lon_count: int,
    candidate_count: int,
    requirements: ObjectiveRequirements,
    jammers: list[JammerModel] | None = None,
    deployed: Sequence[tuple[str, float, float, float]] = (),
    candidate_pattern: str = "lattice",
    candidate_seed: int | None = None,
    antenna_height_m: float = 0.0,
) -> PlacementProblem:
    """Assemble and precompute a placement problem over the sites of
    ``candidate_sites``.

    ``deployed`` sites are appended to the candidate list with their
    forced-mask bits set (Scenario 2); leave it empty for Scenario 1.
    With ``candidate_count=0`` no candidates are generated: the deployed
    sites are the whole candidate set and all forced, a free-standing
    deployment.
    """
    sites, forced = candidate_sites(
        bounds, candidate_count, deployed, candidate_pattern, candidate_seed, antenna_height_m
    )
    grid = sample_grid(
        bounds, lat_count, lon_count,
        requirements.required_gdop, requirements.required_range_km,
    )
    for _, lat, lon, _alt in deployed:
        if not bounds.contains(lat, lon):
            log.warning("deployed sensor (%.4f, %.4f) lies outside the area bounds", lat, lon)
    return precompute(PlacementProblem(grid, *sites, forced, list(jammers or []), requirements))


def clustered21_path() -> Path:
    """Path of the bundled synthetic clustered 21-sensor deployment."""
    return Path(str(resources.files("adsbplace").joinpath("data/clustered21.csv")))
