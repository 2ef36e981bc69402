"""Geometric dilution of precision for four-sensor receiver subsets."""

from __future__ import annotations

import numpy as np

# Condition number above which the normal matrix counts as singular and
# the GDOP is reported as infinite.
SINGULARITY_COND = 1e12


def gdop_min_batched(dc: np.ndarray, valid_counts: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Minimal GDOP per point over precomputed 4-subsets, fully batched.

    dc:           (m, k, 3) direction cosines to the k nearest sensors
                  (rows beyond a point's valid count may hold garbage).
    valid_counts: (m,) number of usable leading rows per point.
    subsets:      (S, 4) index rows into the k dimension.

    Returns (m,) minimal GDOP sqrt(tr((B^T B)^-1)) over the subsets'
    4x4 matrices B of rows [b1, b2, b3, 1], inf where no valid
    non-singular subset exists.
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
