"""Geometric dilution of precision for four-sensor receiver subsets."""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .geo import EcefPosition, GeodeticPosition, direction_cosines

# Condition number above which the normal matrix counts as singular and
# the GDOP is reported as infinite.
SINGULARITY_COND = 1e12

# Default size cap on the visible set before 4-subset enumeration.
DEFAULT_SUBSET_CAP = 12


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
    subset_strategy: str | int | None = None,
) -> float:
    """Minimal GDOP over 4-subsets of the visible sensors.

    ``subset_strategy`` is either "exhaustive", an integer cap keeping
    only that many nearest sensors before enumeration, or None for the
    default (exhaustive up to DEFAULT_SUBSET_CAP, nearest-capped above).
    Returns inf with fewer than four visible sensors.
    """
    sensors = list(visible_sensors)
    if len(sensors) < 4:
        return math.inf

    if subset_strategy is None:
        cap = DEFAULT_SUBSET_CAP
    elif subset_strategy == "exhaustive":
        cap = len(sensors)
    elif isinstance(subset_strategy, int):
        if subset_strategy < 4:
            raise ValueError("subset cap must be >= 4")
        cap = subset_strategy
    else:
        raise ValueError(f"unknown subset strategy: {subset_strategy!r}")

    if len(sensors) > cap:
        from .geo import geodetic_to_ecef

        origin = geodetic_to_ecef(aircraft).as_array()
        dists = [float(np.linalg.norm(s.as_array() - origin)) for s in sensors]
        order = sorted(range(len(sensors)), key=lambda i: (dists[i], i))
        sensors = [sensors[i] for i in order[:cap]]

    best = math.inf
    for subset in itertools.combinations(sensors, 4):
        best = min(best, gdop_of_four(aircraft, subset))
    return best


def gdop_min_batched(dc: np.ndarray, valid_counts: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Minimal GDOP per point over precomputed 4-subsets, fully batched.

    dc:           (m, k, 3) direction cosines to the k nearest sensors
                  (rows beyond a point's valid count may hold garbage).
    valid_counts: (m,) number of usable leading rows per point.
    subsets:      (S, 4) index rows into the k dimension.

    Returns (m,) minimal GDOP, inf where no valid non-singular subset
    exists. Matches gdop_of_four up to the singularity tolerance.
    """
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
