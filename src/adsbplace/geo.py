"""Coordinate frames, distances and radio-horizon visibility.

All positions use the WGS-84 ellipsoid, and visibility the standard
4/3-Earth refraction model. The functions are pure and operate on numpy
arrays; they are the building blocks of the precomputed geometry
matrices.
"""

from __future__ import annotations

import math

import numpy as np

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

EARTH_MEAN_RADIUS_KM = 6371.0

# LOS inequality constant: heights in meters, ground distance in km.
LOS_COEFF = 0.0785
# Standard refraction: the radio horizon of an Earth whose radius is 4/3
# the true one, and 3.57 km of horizon per sqrt(m) of antenna height.
EFFECTIVE_EARTH_RADIUS_FACTOR = 4.0 / 3.0
HORIZON_KM_PER_SQRT_M = 3.57


def geodetic_to_ecef_arrays(lat_deg, lon_deg, alt_m):
    """Vectorized WGS-84 geodetic -> ECEF conversion (meters)."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    alt = np.asarray(alt_m, dtype=float)
    sin_lat = np.sin(lat)
    cos_lat = np.cos(lat)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
    x = (n + alt) * cos_lat * np.cos(lon)
    y = (n + alt) * cos_lat * np.sin(lon)
    z = (n * (1.0 - WGS84_E2) + alt) * sin_lat
    return np.stack([x, y, z], axis=-1)


def ned_rotation_arrays(lat_deg, lon_deg) -> np.ndarray:
    """Stacked 3x3 rotation matrices mapping ECEF displacements to NED."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    sp, cp = np.sin(lat), np.cos(lat)
    sl, cl = np.sin(lon), np.cos(lon)
    zeros = np.zeros_like(sp)
    rows = [
        [-sp * cl, -sp * sl, cp],
        [-sl, cl * np.ones_like(sp), zeros],
        [-cp * cl, -cp * sl, -sp],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def haversine_km_arrays(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Great-circle ground distance in km (mean Earth radius)."""
    lat1 = np.radians(np.asarray(lat1_deg, dtype=float))
    lon1 = np.radians(np.asarray(lon1_deg, dtype=float))
    lat2 = np.radians(np.asarray(lat2_deg, dtype=float))
    lon2 = np.radians(np.asarray(lon2_deg, dtype=float))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return EARTH_MEAN_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def visibility_mask_arrays(tx_alt_m, ground_km, rx_alt_m=0.0):
    """Vectorized LOS test for transmitter altitude vs ground separation.

    With a receiver at ground level the test is the curvature inequality
    h1 >= 0.0785 * d^2 / k_e. A nonzero receiver antenna height extends
    the reach through the radio-horizon sum of square roots.
    """
    h1 = np.asarray(tx_alt_m, dtype=float)
    h2 = np.asarray(rx_alt_m, dtype=float)
    d = np.asarray(ground_km, dtype=float)
    ke = EFFECTIVE_EARTH_RADIUS_FACTOR
    base = h1 >= LOS_COEFF * d**2 / ke
    if np.all(h2 == 0.0):
        return base
    horizon = HORIZON_KM_PER_SQRT_M * math.sqrt(ke) * (np.sqrt(h1) + np.sqrt(h2))
    return np.where(h2 > 0.0, d <= horizon, base)
