"""Per-point reference model that the vectorized pipeline is tested against.

``adsbplace`` scores placements in bulk: ``scenario.precompute`` builds
the geometry matrices and ``evaluator.PlacementEvaluator`` reduces them.
This module computes the same quantities one point and one sensor at a
time: scalar WGS-84/ECEF/NED geometry, a LAPACK GDOP per 4-subset, and
loop-based OF1-OF3. ``gdop_min_batched_lapack`` is the batched LAPACK
GDOP kernel the library had before its closed form. It also holds the
random geometries, tiny grids and the brute-force front partition the
tests build their cases from.
Nothing in the library imports it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from adsbplace import geo
from adsbplace.gdop import SINGULARITY_COND
from adsbplace.geo import DEFAULT_PROPAGATION, GeodeticPosition, PropagationParams
from adsbplace.nsga2 import dominates
from adsbplace.objectives import JammerModel, ObjectiveRequirements
from adsbplace.scenario import AirspaceGrid

from conftest import random_position


# --- Geometry -------------------------------------------------------------


class DegenerateGeometryError(ValueError):
    """Raised when a geometric operation has no defined result."""


@dataclass(frozen=True)
class EcefPosition:
    """Earth-Centered Earth-Fixed coordinates in meters."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def ecef_to_geodetic_arrays(xyz):
    """Vectorized ECEF -> geodetic inverse.

    Iterative latitude refinement; converges well below 1e-9 deg for
    near-Earth points. Longitude at the poles is returned as 0.
    """
    xyz = np.asarray(xyz, dtype=float)
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
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


def radio_horizon_km(h1_m: float, h2_m: float, params: PropagationParams = DEFAULT_PROPAGATION) -> float:
    """Maximum LOS reception range in km for antenna heights in meters."""
    if h1_m < 0 or h2_m < 0:
        raise ValueError("antenna heights must be >= 0")
    return params.horizon_coefficient * math.sqrt(params.effective_earth_radius_factor) * (
        math.sqrt(h1_m) + math.sqrt(h2_m)
    )


def is_visible(
    transmitter: GeodeticPosition,
    receiver: GeodeticPosition,
    params: PropagationParams = DEFAULT_PROPAGATION,
) -> bool:
    """True when the receiver lies within the transmitter's radio horizon."""
    d = ground_distance_km(transmitter, receiver)
    return bool(
        geo.visibility_mask_arrays(transmitter.altitude_m, d, receiver.altitude_m, params)
    )


def grid_points(grid: AirspaceGrid) -> Iterator[GeodeticPosition]:
    for la, lo, al in zip(grid.lat_deg, grid.lon_deg, grid.alt_m):
        yield GeodeticPosition(float(la), float(lo), float(al))


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


def gdop_min_batched_lapack(
    dc: np.ndarray, valid_counts: np.ndarray, subsets: np.ndarray
) -> np.ndarray:
    """``gdop_min_batched`` through LAPACK: form every subset's 4x4 normal
    matrix B^T B, floor its determinant against its trace, invert it and
    take sqrt(trace). Same contract as the closed-form kernel."""
    m = dc.shape[0]
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
    params: PropagationParams,
):
    out = []
    for s_geo, s_ecef in zip(sensors_geo, sensors_ecef):
        if is_visible(point, s_geo, params):
            out.append(s_ecef)
    return out


def of1_gdop_msd(
    grid: AirspaceGrid,
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    req: ObjectiveRequirements,
    cap: int | None = None,
    params: PropagationParams = DEFAULT_PROPAGATION,
) -> float:
    """Mean squared deviation of achieved vs required GDOP over the grid.

    Points where GDOP cannot be evaluated contribute the saturated
    deviation (required - gdop_cap)^2.
    """
    points = list(grid_points(grid))
    if not points:
        raise ValueError("empty airspace grid")
    total = 0.0
    for j, point in enumerate(points):
        visible = _visible_sensors(point, sensors_geo, sensors_ecef, params)
        achieved = best_gdop_at(point, visible, cap)
        if math.isinf(achieved):
            achieved = req.gdop_cap
        total += (grid.required_gdop[j] - achieved) ** 2
    return total / len(points)


def of2_range_msd(
    grid: AirspaceGrid,
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    req: ObjectiveRequirements,
    range_cap_km: float,
    params: PropagationParams = DEFAULT_PROPAGATION,
) -> float:
    """MSD between required and achieved two-receiver verification range.

    The achieved range at a point is the distance to its second-nearest
    visible sensor; fewer than two visible sensors saturate at
    range_cap_km.
    """
    points = list(grid_points(grid))
    if not points:
        raise ValueError("empty airspace grid")
    total = 0.0
    for j, point in enumerate(points):
        visible = _visible_sensors(point, sensors_geo, sensors_ecef, params)
        if len(visible) < 2:
            achieved = range_cap_km
        else:
            p_ecef = geodetic_to_ecef(point)
            dists = sorted(euclidean_distance(p_ecef, s) / 1000.0 for s in visible)
            achieved = dists[1]
        total += (grid.required_range_km[j] - achieved) ** 2
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
    jammers: Sequence[JammerModel],
    req: ObjectiveRequirements,
    params: PropagationParams = DEFAULT_PROPAGATION,
) -> float:
    """Mean squared shortfall of the jammer-to-nearest-sensor distance.

    A jammer with no sensor inside its LOS contributes zero (it cannot
    affect the network at all).
    """
    if not jammers or not sensors_ecef:
        raise ValueError("need at least one jammer and one sensor")
    total = 0.0
    for jam in jammers:
        in_los = [is_visible(jam.position, s, params) for s in sensors_geo]
        if not any(in_los):
            continue
        jam_ecef = geodetic_to_ecef(jam.position)
        nearest = min(euclidean_distance(jam_ecef, s) / 1000.0 for s in sensors_ecef)
        shortfall = min(0.0, nearest - req.min_jammer_distance_km)
        total += shortfall**2
    return total / len(jammers)


def of3_direction3_sensors_in_range(
    sensors_geo: Sequence[GeodeticPosition],
    sensors_ecef: Sequence[EcefPosition],
    jammers: Sequence[JammerModel],
    req: ObjectiveRequirements,
    params: PropagationParams = DEFAULT_PROPAGATION,
) -> float:
    """Mean squared excess of affected-sensor counts over the target."""
    if not jammers or not sensors_ecef:
        raise ValueError("need at least one jammer and one sensor")
    total = 0.0
    for jam in jammers:
        count = sum(
            1
            for s_geo, s_ecef in zip(sensors_geo, sensors_ecef)
            if sensor_affected(jam, s_geo, s_ecef, params)
        )
        excess = max(0, count - req.max_sensors_in_jammer_los)
        total += float(excess) ** 2
    return total / len(jammers)


def sensor_affected(
    jam: JammerModel,
    sensor_geo: GeodeticPosition,
    sensor_ecef: EcefPosition,
    params: PropagationParams = DEFAULT_PROPAGATION,
) -> bool:
    """Whether the jammer disrupts this sensor under its affect rule."""
    if not is_visible(jam.position, sensor_geo, params):
        return False
    if jam.affect_rule == "los":
        return True
    dist_km = euclidean_distance(geodetic_to_ecef(jam.position), sensor_ecef) / 1000.0
    return jsr(jam, dist_km, jam.nominal_signal_distance_km) >= jam.jsr_threshold


def jsr(jam: JammerModel, jammer_sensor_km: float, transmitter_sensor_km: float) -> float:
    """Jamming-to-signal power ratio at a sensor."""
    if jammer_sensor_km <= 0.0:
        return math.inf
    return (jam.power_w * jam.antenna_gain * transmitter_sensor_km**2) / (
        jam.transmitter_power_w * jam.transmitter_antenna_gain * jammer_sensor_km**2
    )


def single_point_grid(lat=48.0, lon=7.0, alt=10000.0, req_gdop=10.0, req_range=150.0):
    return AirspaceGrid(
        lat_deg=np.array([lat]),
        lon_deg=np.array([lon]),
        alt_m=np.array([alt]),
        required_gdop=np.array([req_gdop]),
        required_range_km=np.array([req_range]),
    )


def sensors_at(coords):
    geos = [GeodeticPosition(la, lo, al) for la, lo, al in coords]
    return geos, [geodetic_to_ecef(g) for g in geos]


def ecef_line_km(offsets_km):
    """Sensors along the ECEF x-axis at the given km offsets."""
    return [EcefPosition(1000.0 * o, 0.0, 0.0) for o in offsets_km]


# --- Sorting --------------------------------------------------------------


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
