"""Per-point reference model that the vectorized pipeline is tested against.

``adsbplace`` scores placements in bulk: ``scenario.precompute`` builds
the geometry matrices and ``evaluator.PlacementEvaluator`` reduces them.
This module computes the same quantities one point and one sensor at a
time: scalar WGS-84/ECEF/NED geometry, a LAPACK GDOP per 4-subset, and
loop-based OF1-OF3. ``gdop_min_batched_lapack`` is the batched LAPACK
GDOP kernel the library had before its closed form,
``precompute_reference`` the problem matrices before their blocked
NED pass, ``gdop_min_batched_reference`` the closed form before its per-point
singularity bounds, ``subset_triples`` the kernel's triple table of any
subsets, ``masked_sort_of1_of2`` the evaluator's OF1/OF2 path
before its rank matrix, ``score_one`` its per-chromosome scoring before
it scored a batch in groups of equal sensor count. It also holds the
positions the scalar functions take (``GeodeticPosition``), the random
geometries, tiny grids and the brute-force front partition the tests
build their cases from.
Nothing in the library imports it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from adsbplace import geo
from adsbplace.evaluator import RawScores
from adsbplace.gdop import SINGULARITY_COND, gdop_min_batched
from adsbplace.objectives import JammerModel, ObjectiveRequirements, knapsack_penalty
from adsbplace.scenario import PlacementProblem

from conftest import random_geodetic


# --- Geometry -------------------------------------------------------------


class DegenerateGeometryError(ValueError):
    """Raised when a geometric operation has no defined result."""


@dataclass(frozen=True)
class GeodeticPosition:
    """Latitude/longitude in decimal degrees, altitude in meters."""

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0


def positions(sites: np.ndarray) -> list[GeodeticPosition]:
    """The columns of a (3, n) array of latitudes, longitudes and heights,
    such as a problem's points, sites or jammers, as positions."""
    return [GeodeticPosition(float(la), float(lo), float(al)) for la, lo, al in np.asarray(sites).T]


def random_position(rng, alt_low=0.0, alt_high=15000.0) -> GeodeticPosition:
    lat, lon, alt = random_geodetic(rng, 1, alt_low, alt_high)
    return GeodeticPosition(float(lat[0]), float(lon[0]), float(alt[0]))


@dataclass(frozen=True)
class EcefPosition:
    """Earth-Centered Earth-Fixed coordinates in meters."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def ecef_to_geodetic_arrays(xyz):
    """Vectorized ECEF -> geodetic inverse of component-major (3, ...)
    positions.

    Iterative latitude refinement; converges well below 1e-9 deg for
    near-Earth points. Longitude at the poles is returned as 0.
    """
    x, y, z = np.asarray(xyz, dtype=float)
    p = np.hypot(x, y)
    lon = np.where(p > 0.0, np.arctan2(y, x), 0.0)
    # Bowring's initial guess, then fixed-point iteration on latitude.
    lat = np.arctan2(z, p * (1.0 - geo.WGS84_E2))
    for _ in range(8):
        sin_lat = np.sin(lat)
        n = geo.WGS84_A / np.sqrt(1.0 - geo.WGS84_E2 * sin_lat**2)
        lat = np.arctan2(z + geo.WGS84_E2 * n * sin_lat, p)
    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    n = geo.WGS84_A / np.sqrt(1.0 - geo.WGS84_E2 * sin_lat**2)
    with np.errstate(invalid="ignore"):
        alt = np.where(
            np.abs(cos_lat) > 1e-10,
            p / cos_lat - n,
            np.abs(z) / np.abs(sin_lat) - n * (1.0 - geo.WGS84_E2),
        )
    return np.degrees(lat), np.degrees(lon), alt


def geodetic_to_ecef(pos: GeodeticPosition) -> EcefPosition:
    xyz = geo.geodetic_to_ecef_arrays(pos.latitude_deg, pos.longitude_deg, pos.altitude_m)
    return EcefPosition(float(xyz[0]), float(xyz[1]), float(xyz[2]))


def ecef_to_geodetic(pos: EcefPosition) -> GeodeticPosition:
    r = math.sqrt(pos.x**2 + pos.y**2 + pos.z**2)
    if r == 0.0:
        raise ValueError("ECEF position at Earth center has no geodetic image")
    lat, lon, alt = ecef_to_geodetic_arrays(pos.as_array())
    return GeodeticPosition(float(lat), float(lon), float(alt))


def ned_rotation(pos: GeodeticPosition) -> np.ndarray:
    return geo.ned_rotation_arrays(pos.latitude_deg, pos.longitude_deg)


def ned_vector(aircraft: GeodeticPosition, sensor: EcefPosition) -> np.ndarray:
    """Vector (north, east, down) in meters from the aircraft to the
    sensor, in the aircraft's NED frame."""
    diff = sensor.as_array() - geodetic_to_ecef(aircraft).as_array()
    return ned_rotation(aircraft) @ diff


def direction_cosines(aircraft: GeodeticPosition, sensor: EcefPosition) -> np.ndarray:
    """Unit vector from the aircraft toward the sensor, NED components."""
    v = ned_vector(aircraft, sensor)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DegenerateGeometryError("sensor coincides with aircraft position")
    return v / norm


def euclidean_distance(a: EcefPosition, b: EcefPosition) -> float:
    """Straight-line ECEF distance in meters."""
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def ground_distance_km(a: GeodeticPosition, b: GeodeticPosition) -> float:
    return float(
        geo.haversine_km_arrays(a.latitude_deg, a.longitude_deg, b.latitude_deg, b.longitude_deg)
    )


def radio_horizon_km(h1_m: float, h2_m: float) -> float:
    """Maximum LOS reception range in km for antenna heights in meters."""
    if h1_m < 0 or h2_m < 0:
        raise ValueError("antenna heights must be >= 0")
    return geo.HORIZON_KM_PER_SQRT_M * math.sqrt(geo.EFFECTIVE_EARTH_RADIUS_FACTOR) * (
        math.sqrt(h1_m) + math.sqrt(h2_m)
    )


def is_visible(transmitter: GeodeticPosition, receiver: GeodeticPosition) -> bool:
    """True when the receiver lies within the transmitter's radio horizon."""
    d = ground_distance_km(transmitter, receiver)
    return bool(geo.visibility_mask_arrays(transmitter.altitude_m, d, receiver.altitude_m))


# --- Problem matrices -----------------------------------------------------


def ned_vectors_reference(origin_ecef, origin_lat, origin_lon, target_ecef):
    """NED vectors from each origin to each target, component-major
    (3, targets, origins), and their lengths (targets, origins), as whole
    arrays: ``scenario.precompute``'s NED step before it was blocked.

    Each component sums as (r0 d0 + r2 d2) + r1 d1, the order that
    np.einsum("mij,mnj->mni", rot, diff) uses.
    """
    rot = geo.ned_rotation_arrays(origin_lat, origin_lon)  # (3, 3, m)
    d0, d1, d2 = (target_ecef[c, :, None] - origin_ecef[c, None, :] for c in range(3))
    ned = np.empty((3,) + d0.shape)
    for i, out in enumerate(ned):
        np.multiply(rot[i, 0], d0, out=out)
        out += rot[i, 2] * d2
        out += rot[i, 1] * d1
    return ned, np.sqrt(ned[0] * ned[0] + ned[1] * ned[1] + ned[2] * ned[2])


def precompute_reference(
    points: np.ndarray,
    sites: np.ndarray,
    forced_mask: np.ndarray,
    jammers: np.ndarray,
    jammer_model: JammerModel,
    requirements: ObjectiveRequirements,
) -> PlacementProblem:
    """``scenario.precompute`` before it shared ground distances between
    points of one horizontal position, blocked its NED pass and built the
    candidate distances plane by plane: the bit-exact reference for the
    nine values it computes."""
    lat, lon, alt = points
    cand_lat, cand_lon, cand_alt = sites
    point_ecef = geo.geodetic_to_ecef_arrays(lat, lon, alt)
    cand_ecef = geo.geodetic_to_ecef_arrays(cand_lat, cand_lon, cand_alt)

    dc, dist = ned_vectors_reference(point_ecef, lat, lon, cand_ecef)
    pos = dist > 0.0
    np.divide(dc, dist, out=dc, where=pos)
    dc[:, ~pos] = 0.0
    dist = np.ascontiguousarray(dist.T)
    ground = geo.haversine_km_arrays(
        lat[:, None], lon[:, None], cand_lat[None, :], cand_lon[None, :],
    )
    los = geo.visibility_mask_arrays(alt[:, None], ground, cand_alt[None, :])

    if jammers.size:
        jam_lat, jam_lon, jam_alt = jammers
        jam_ecef = geo.geodetic_to_ecef_arrays(jam_lat, jam_lon, jam_alt)
        jdist = np.ascontiguousarray(
            ned_vectors_reference(jam_ecef, jam_lat, jam_lon, cand_ecef)[1].T
        )
        jground = geo.haversine_km_arrays(
            jam_lat[:, None], jam_lon[:, None], cand_lat[None, :], cand_lon[None, :],
        )
        jlos = geo.visibility_mask_arrays(jam_alt[:, None], jground, cand_alt[None, :])
        affected = jlos.copy()
        jam = jammer_model
        for l in range(jdist.shape[0]):
            if jam.affect_rule == "jsr":
                num = jam.power_w * jam.antenna_gain * jam.nominal_signal_distance_km**2
                den = jam.transmitter_power_w * jam.transmitter_antenna_gain
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(
                        jdist[l] > 0.0, num / (den * (jdist[l] / 1000.0) ** 2), np.inf
                    )
                affected[l] &= ratio >= jam.jsr_threshold
    else:
        jdist = np.zeros((0, cand_lat.size))
        jlos = np.zeros((0, cand_lat.size), dtype=bool)
        affected = np.zeros((0, cand_lat.size), dtype=bool)

    # Each column's place in its row's stable order of the LOS-masked
    # distances: the inverse permutation of the stable argsort.
    order = np.argsort(np.where(los, dist, np.inf), axis=1, kind="stable")
    rank = np.empty(order.shape, dtype=np.int16 if order.shape[1] <= 32768 else np.int32)
    np.put_along_axis(rank, order, np.arange(order.shape[1])[None, :], axis=1)

    cdiff = cand_ecef[:, :, None] - cand_ecef[:, None, :]
    cap = requirements.range_cap_km
    if cap is None:
        cap = geo.haversine_km_arrays(lat.min(), lon.min(), lat.max(), lon.max())
    return PlacementProblem(
        points, sites, forced_mask, jammers, jammer_model, requirements,
        range_cap_km=float(cap),
        dist_point_cand=dist,
        dc_point_cand=dc,
        los_point_cand=los,
        rank_point_cand=rank,
        dist_jam_cand=jdist,
        los_jam_cand=jlos,
        affected_jam_cand=affected,
        dist_cand_cand=np.sqrt((cdiff**2).sum(axis=0)),
    )


# --- GDOP -----------------------------------------------------------------


def gdop_matrix(aircraft: GeodeticPosition, sensors: Sequence[EcefPosition]) -> np.ndarray:
    """4x4 matrix of direction-cosine rows [b1, b2, b3, 1]."""
    if len(sensors) != 4:
        raise ValueError("gdop matrix requires exactly 4 sensors")
    rows = [np.append(direction_cosines(aircraft, s), 1.0) for s in sensors]
    return np.array(rows)


def gdop_of_four(aircraft: GeodeticPosition, sensors: Sequence[EcefPosition]) -> float:
    """GDOP sqrt(tr((B^T B)^-1)) for exactly four sensors.

    Returns inf when the normal matrix is numerically singular
    (condition number above SINGULARITY_COND).
    """
    b = gdop_matrix(aircraft, sensors)
    m = b.T @ b
    if not np.all(np.isfinite(m)) or np.linalg.cond(m) > SINGULARITY_COND:
        return math.inf
    return float(math.sqrt(np.trace(np.linalg.inv(m))))


def best_gdop_at(
    aircraft: GeodeticPosition,
    visible_sensors: Iterable[EcefPosition],
    cap: int | None = None,
) -> float:
    """Minimal GDOP over 4-subsets of the visible sensors.

    With an integer ``cap`` only that many nearest sensors enter the
    enumeration, as in the evaluator; None enumerates every subset.
    Returns inf with fewer than four visible sensors.
    """
    if cap is not None and cap < 4:
        raise ValueError("subset cap must be >= 4")
    sensors = list(visible_sensors)
    if len(sensors) < 4:
        return math.inf

    if cap is not None and len(sensors) > cap:
        origin = geodetic_to_ecef(aircraft).as_array()
        dists = [float(np.linalg.norm(s.as_array() - origin)) for s in sensors]
        order = sorted(range(len(sensors)), key=lambda i: (dists[i], i))
        sensors = [sensors[i] for i in order[:cap]]

    best = math.inf
    for subset in itertools.combinations(sensors, 4):
        best = min(best, gdop_of_four(aircraft, subset))
    return best


def subset_triples(subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row triples of any 4-subsets and each subset's four triples, the
    ``triples`` argument of ``gdop_min_batched``, by sorting instead of
    ``gdop.colex_subsets``' closed form.

    Returns (triples, index): triples (T, 3) holds each ascending row
    triple once, in colex order (by largest row, then middle, then
    smallest); index (S, 4) gives, per subset, the triples left after
    deleting its smallest, second, third and largest row.
    """
    drop = np.sort(subsets, axis=1)[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3)
    table, index = np.unique(drop[:, ::-1], axis=0, return_inverse=True)
    return table[:, ::-1].astype(np.intp), index.reshape(-1, 4).astype(np.intp)


def gdop_min_batched_lapack(
    dc: np.ndarray, valid_counts: np.ndarray, subsets: np.ndarray
) -> np.ndarray:
    """``gdop_min_batched`` through LAPACK: form every subset's 4x4 normal
    matrix B^T B, floor its determinant against its trace, invert it and
    take sqrt(trace). Same contract as the closed-form kernel: rows past
    a point's valid count are zeroed first, since no usable subset reads
    them and NaN there would reach np.linalg.det."""
    m, k = dc.shape[:2]
    dc = np.where(np.arange(k)[None, :, None] < valid_counts[:, None, None], dc, 0.0)
    ones = np.ones(dc.shape[:2] + (1,))
    rows = np.concatenate([dc, ones], axis=-1)  # (m, k, 4)
    b = rows[:, subsets, :]  # (m, S, 4, 4)
    mat = np.einsum("psri,psrj->psij", b, b)
    t1 = np.einsum("psii->ps", mat)
    det = np.linalg.det(mat)
    # Relative determinant floor stands in for the condition-number
    # threshold; cond ~ 1e12 implies det ~ (t1/4)^4 * 1e-12.
    floor = (np.maximum(t1, 1e-300) / 4.0) ** 4 / SINGULARITY_COND
    ok = det > floor
    safe = np.where(ok[..., None, None], mat, np.eye(4))
    trace_inv = np.einsum("psii->ps", np.linalg.inv(safe))
    with np.errstate(invalid="ignore"):
        gd = np.sqrt(np.where(trace_inv > 0.0, trace_inv, np.inf))
    usable = subsets.max(axis=1)[None, :] < valid_counts[:, None]
    gd = np.where(ok & usable, gd, np.inf)
    best = gd.min(axis=1) if gd.shape[1] else np.full(m, np.inf)
    best[valid_counts < 4] = np.inf
    return best


def gdop_min_batched_reference(
    dc: np.ndarray,
    valid_counts: np.ndarray,
    subsets: np.ndarray,
    triples: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """``gdop_min_batched`` before its per-point singularity bounds: every
    subset's floor is computed from its own four row norms, and each
    expression allocates its result. The library kernel must return the
    same bits."""
    m = dc.shape[0]
    if len(subsets) == 0:
        return np.full(m, np.inf)
    table, index = subset_triples(subsets) if triples is None else triples
    x, y, z = np.ascontiguousarray(dc.transpose(2, 1, 0))
    a, b, c = table.T
    ux, uy, uz = x[a], y[a], z[a]
    ex, ey, ez = x[b] - ux, y[b] - uy, z[b] - uz
    fx, fy, fz = x[c] - ux, y[c] - uy, z[c] - uz
    cx = ey * fz - ez * fy
    cy = ez * fx - ex * fz
    cz = ex * fy - ey * fx
    det3 = ux * cx + uy * cy + uz * cz  # (T, m)
    minor_sq = det3 * det3 + cx * cx + cy * cy + cz * cz

    i0, i1, i2, i3 = index.T
    det_sq = det3[i3] - det3[i2] + det3[i1] - det3[i0]  # (S, m)
    det_sq *= det_sq
    cof_sq = minor_sq[i0] + minor_sq[i1] + minor_sq[i2] + minor_sq[i3]
    row_sq = 1.0 + x * x + y * y + z * z  # (k, m)
    s0, s1, s2, s3 = subsets.T
    trace = row_sq[s0] + row_sq[s1] + row_sq[s2] + row_sq[s3]
    trace *= 0.25
    trace *= trace
    trace *= trace
    ok = det_sq > trace / SINGULARITY_COND
    ok &= subsets.max(axis=1)[:, None] < valid_counts[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        gdop_sq = np.where(ok, cof_sq / det_sq, np.inf)
    best = np.sqrt(gdop_sq.min(axis=0))
    best[valid_counts < 4] = np.inf
    return best


def oracle_direction_cosine(aircraft: GeodeticPosition, sensor_xyz) -> np.ndarray:
    """Scalar NED direction cosines coded independently with math."""
    lat = math.radians(aircraft.latitude_deg)
    lon = math.radians(aircraft.longitude_deg)
    sp, cp, sl, cl = math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)
    r = [
        [-sp * cl, -sp * sl, cp],
        [-sl, cl, 0.0],
        [-cp * cl, -cp * sl, -sp],
    ]
    p = geodetic_to_ecef(aircraft)
    d = [sensor_xyz[0] - p.x, sensor_xyz[1] - p.y, sensor_xyz[2] - p.z]
    v = [sum(r[i][j] * d[j] for j in range(3)) for i in range(3)]
    norm = math.sqrt(sum(c * c for c in v))
    return np.array([c / norm for c in v])


def oracle_gdop(aircraft: GeodeticPosition, sensors) -> float:
    """Form B row by row, solve (B'B) X = I generically, take sqrt(trace)."""
    b = np.array(
        [list(oracle_direction_cosine(aircraft, s.as_array())) + [1.0] for s in sensors]
    )
    btb = b.T @ b
    inv = np.linalg.solve(btb, np.eye(4))
    return math.sqrt(np.trace(inv))


def random_geometry(rng, n=4):
    """Aircraft plus n nearby ground sensors spread over ~1 degree."""
    aircraft = random_position(rng, 3000.0, 12000.0)
    sensors = []
    for _ in range(n):
        lat = aircraft.latitude_deg + rng.uniform(-1.0, 1.0)
        lon = aircraft.longitude_deg + rng.uniform(-1.0, 1.0)
        sensors.append(geodetic_to_ecef(GeodeticPosition(lat, lon, 0.0)))
    return aircraft, sensors


def well_conditioned_geometry(rng, max_cond=1e6):
    """Resample until the normal matrix is far from singular, so both
    inversion routes agree to full comparison precision."""
    while True:
        aircraft, sensors = random_geometry(rng)
        b = gdop_matrix(aircraft, sensors)
        if np.linalg.cond(b.T @ b) < max_cond:
            return aircraft, sensors


# --- Objectives -----------------------------------------------------------


def _visible_sensors(
    point: GeodeticPosition,
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
):
    out = []
    for s_geo, s_ecef in zip(sensors_geo, sensors_ecef):
        if is_visible(point, s_geo):
            out.append(s_ecef)
    return out


def of1_gdop_msd(
    points: np.ndarray,
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    req: ObjectiveRequirements,
    cap: int | None = None,
) -> float:
    """Mean squared deviation of achieved vs required GDOP over the (3, m)
    points.

    Points where GDOP cannot be evaluated contribute the saturated
    deviation (required - gdop_cap)^2.
    """
    points = positions(points)
    if not points:
        raise ValueError("empty airspace grid")
    total = 0.0
    for point in points:
        visible = _visible_sensors(point, sensors_geo, sensors_ecef)
        achieved = best_gdop_at(point, visible, cap)
        if math.isinf(achieved):
            achieved = req.gdop_cap
        total += (req.required_gdop - achieved) ** 2
    return total / len(points)


def of2_range_msd(
    points: np.ndarray,
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    req: ObjectiveRequirements,
    range_cap_km: float,
) -> float:
    """MSD between required and achieved two-receiver verification range.

    The achieved range at a point is the distance to its second-nearest
    visible sensor; fewer than two visible sensors saturate at
    range_cap_km.
    """
    points = positions(points)
    if not points:
        raise ValueError("empty airspace grid")
    total = 0.0
    for point in points:
        visible = _visible_sensors(point, sensors_geo, sensors_ecef)
        if len(visible) < 2:
            achieved = range_cap_km
        else:
            p_ecef = geodetic_to_ecef(point)
            dists = sorted(euclidean_distance(p_ecef, s) / 1000.0 for s in visible)
            achieved = dists[1]
        total += (req.required_range_km - achieved) ** 2
    return total / len(points)


def of3_direction1_spacing(
    sensors_ecef: Sequence[EcefPosition], req: ObjectiveRequirements
) -> float:
    """Mean squared nearest-neighbor spacing shortfall, km^2."""
    n = len(sensors_ecef)
    if n < 2:
        raise ValueError("spacing objective needs at least two sensors")
    pts = np.array([s.as_array() for s in sensors_ecef]) / 1000.0
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    shortfall = np.minimum(0.0, nearest - req.min_sensor_spacing_km)
    return float(np.mean(shortfall**2))


def of3_direction2_jammer_distance(
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    jammers: Sequence[GeodeticPosition],
    req: ObjectiveRequirements,
) -> float:
    """Mean squared shortfall of the jammer-to-nearest-sensor distance.

    A jammer with no sensor inside its LOS contributes zero (it cannot
    affect the network at all).
    """
    if not jammers or not sensors_ecef:
        raise ValueError("need at least one jammer and one sensor")
    total = 0.0
    for jam in jammers:
        in_los = [is_visible(jam, s) for s in sensors_geo]
        if not any(in_los):
            continue
        jam_ecef = geodetic_to_ecef(jam)
        nearest = min(euclidean_distance(jam_ecef, s) / 1000.0 for s in sensors_ecef)
        shortfall = min(0.0, nearest - req.min_jammer_distance_km)
        total += shortfall**2
    return total / len(jammers)


def of3_direction3_sensors_in_range(
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    jammers: Sequence[GeodeticPosition],
    req: ObjectiveRequirements,
    model: JammerModel = JammerModel(),
) -> float:
    """Mean squared excess of affected-sensor counts over the target,
    every jammer following ``model``."""
    if not jammers or not sensors_ecef:
        raise ValueError("need at least one jammer and one sensor")
    total = 0.0
    for jam in jammers:
        count = sum(
            1
            for s_geo, s_ecef in zip(sensors_geo, sensors_ecef)
            if sensor_affected(model, jam, s_geo, s_ecef)
        )
        excess = max(0, count - req.max_sensors_in_jammer_los)
        total += float(excess) ** 2
    return total / len(jammers)


def sensor_affected(
    model: JammerModel,
    jammer: GeodeticPosition,
    sensor_geo: GeodeticPosition,
    sensor_ecef: EcefPosition,
) -> bool:
    """Whether a jammer at ``jammer`` disrupts this sensor under the
    model's affect rule."""
    if not is_visible(jammer, sensor_geo):
        return False
    if model.affect_rule == "los":
        return True
    dist_km = euclidean_distance(geodetic_to_ecef(jammer), sensor_ecef) / 1000.0
    return jsr(model, dist_km, model.nominal_signal_distance_km) >= model.jsr_threshold


def masked_sort_of1_of2(problem: PlacementProblem, genes: np.ndarray, cap: int):
    """OF1 and OF2 of a chromosome from the LOS-masked distances: a stable
    argsort per point picks the nearest ``cap`` selected sensors for the
    GDOP kernel, and ``np.partition`` gives the second-nearest visible
    distance. Returns (of1, of2, best_gdop, second_range_km, k_visible)
    as ``PlacementEvaluator.evaluate`` computes them."""
    req = problem.requirements
    m = problem.points.shape[1]
    sel = np.flatnonzero(genes)
    n = sel.size
    los = problem.los_point_cand[:, sel]
    vis_counts = los.sum(axis=1)
    masked = np.where(los, problem.dist_point_cand[:, sel], np.inf)

    if n >= 2:
        second_km = np.partition(masked, 1, axis=1)[:, 1] / 1000.0
    else:
        second_km = np.full(m, np.inf)
    achieved_range = np.where(vis_counts >= 2, second_km, problem.range_cap_km)
    of2 = float(np.mean((req.required_range_km - achieved_range) ** 2))

    if n < 4:
        best = np.full(m, np.inf)
    else:
        k = min(cap, n)
        order = np.argsort(masked, axis=1, kind="stable")[:, :k]
        dc = problem.dc_point_cand.transpose(2, 1, 0)  # (m, N, 3) view
        subsets = np.array(list(itertools.combinations(range(k), 4)))
        best = gdop_min_batched(
            dc[np.arange(m)[:, None], sel[order]], np.minimum(vis_counts, k), subsets,
            subset_triples(subsets),
        )
    achieved_gdop = np.where(np.isinf(best), req.gdop_cap, best)
    of1 = float(np.mean((req.required_gdop - achieved_gdop) ** 2))
    return of1, of2, best, np.where(vis_counts >= 2, second_km, np.inf), vis_counts


def score_one(problem: PlacementProblem, genes: np.ndarray, cap: int) -> RawScores:
    """Raw scores of one chromosome from its own selected columns, as
    ``PlacementEvaluator.evaluate`` computed them one chromosome at a time:
    1-D means, an (m, n) key sort for the nearest sensors and one kernel
    call over the chromosome's m points."""
    req = problem.requirements
    m = problem.points.shape[1]
    sel = np.flatnonzero(genes)
    n = sel.size

    vis_counts = problem.los_point_cand[:, sel].sum(axis=1)
    # rank * n + position is unique per row and sorts by rank.
    key = problem.rank_point_cand[:, sel].astype(np.int64)
    key *= n
    key += np.arange(n)
    key.sort(axis=1)
    top = key[:, : min(cap, n)] % n

    if n >= 2:
        second_km = problem.dist_point_cand[np.arange(m), sel[top[:, 1]]] / 1000.0
    else:
        second_km = np.full(m, np.inf)
    achieved_range = np.where(vis_counts >= 2, second_km, problem.range_cap_km)
    of2 = float(np.mean((req.required_range_km - achieved_range) ** 2))

    best = np.full(m, np.inf)
    if n >= 4:
        k = top.shape[1]
        subsets = np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp)
        dc = np.take(problem.dc_point_cand.reshape(3, -1), sel[top.T] * m + np.arange(m), axis=1)
        best = gdop_min_batched(dc.transpose(2, 1, 0), np.minimum(vis_counts, k), subsets,
                                subset_triples(subsets))
    achieved_gdop = np.where(np.isinf(best), req.gdop_cap, best)
    of1 = float(np.mean((req.required_gdop - achieved_gdop) ** 2))

    target = req.min_sensor_spacing_km
    if n >= 2:
        pair = problem.dist_cand_cand[np.ix_(sel, sel)] / 1000.0
        np.fill_diagonal(pair, np.inf)
        d1 = float(np.mean(np.minimum(0.0, pair.min(axis=1) - target) ** 2))
    else:
        d1 = target**2

    if problem.jammers.size and n:
        jdist = problem.dist_jam_cand[:, sel] / 1000.0
        any_los = problem.los_jam_cand[:, sel].any(axis=1)
        shortfall = np.minimum(0.0, jdist.min(axis=1) - req.min_jammer_distance_km)
        d2 = float(np.mean(np.where(any_los, shortfall**2, 0.0)))
        counts = problem.affected_jam_cand[:, sel].sum(axis=1)
        excess = np.maximum(0, counts - req.max_sensors_in_jammer_los)
        d3 = float(np.mean(excess.astype(float) ** 2))
    else:
        d2 = d3 = 0.0
    return RawScores(of1, of2, d1, d2, d3, knapsack_penalty(n, problem.n_candidates), int(n))


def jsr(model: JammerModel, jammer_sensor_km: float, transmitter_sensor_km: float) -> float:
    """Jamming-to-signal power ratio at a sensor."""
    if jammer_sensor_km <= 0.0:
        return math.inf
    return (model.power_w * model.antenna_gain * transmitter_sensor_km**2) / (
        model.transmitter_power_w * model.transmitter_antenna_gain * jammer_sensor_km**2
    )


def single_point_grid(lat=48.0, lon=7.0, alt=10000.0):
    return np.array([[lat], [lon], [alt]], dtype=float)


def sensors_at(coords):
    geos = [GeodeticPosition(la, lo, al) for la, lo, al in coords]
    return geos, [geodetic_to_ecef(g) for g in geos]


def ecef_line_km(offsets_km):
    """Sensors along the ECEF x-axis at the given km offsets."""
    return [EcefPosition(1000.0 * o, 0.0, 0.0) for o in offsets_km]


# --- Sorting --------------------------------------------------------------


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimization."""
    if len(a) != len(b):
        raise ValueError("objective vectors differ in length")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def brute_force_fronts(vectors):
    """Reference front partition by repeated maximal non-dominated sets."""
    remaining = list(range(len(vectors)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(vectors[j], vectors[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts
