"""Geometric dilution of precision for four-sensor receiver subsets.

The GDOP of four sensors is sqrt(tr((B^T B)^-1)) for the 4x4 matrix B of
rows [b1, b2, b3, 1], b the unit direction cosines to each sensor. B is
square, so no 4x4 matrix is formed, multiplied or inverted:

- det(B^T B) = det(B)^2
- tr((B^T B)^-1) = ||B^-1||_F^2 = sum(cofactor(B)^2) / det(B)^2
- tr(B^T B) = sum(B^2), so the singularity floor
  det(B^T B) > (tr / 4)^4 / SINGULARITY_COND keeps its meaning.

Deleting one row of B leaves three sensors, and deleting one column of
those leaves a 3x3 minor. For rows u, v, w with c = (v - u) x (w - u),
the minor without the ones column is D = u . c (= det[u; v; w]) and the
other three minors are the components of c. Each row triple is shared
by many 4-subsets, so the kernel computes D and the squared-minor sum
Q = D^2 + |c|^2 once per triple and gathers them per subset: det(B) is
the signed sum of the four triples' D (cofactor expansion along the ones
column) and sum(cofactor(B)^2) is the sum of their Q.
"""

from __future__ import annotations

import numpy as np

# Condition number above which the normal matrix counts as singular and
# the GDOP is reported as infinite.
SINGULARITY_COND = 1e12

# Rows of a sorted 4-subset left after deleting its row 0, 1, 2 or 3; the
# ones-column cofactors of those rows carry the signs -, +, -, +.
_DROP = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def subset_triples(subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row triples of the 4-subsets and each subset's four triples.

    Returns (triples, index): triples (T, 3) holds each ascending row
    triple once; index (S, 4) gives, per subset, the triples left after
    deleting its smallest, second, third and largest row.
    """
    drop = np.sort(subsets, axis=1)[:, _DROP].reshape(-1, 3)
    table, index = np.unique(drop, axis=0, return_inverse=True)
    return table.astype(np.intp), index.reshape(-1, 4).astype(np.intp)


def gdop_min_batched(
    dc: np.ndarray,
    valid_counts: np.ndarray,
    subsets: np.ndarray,
    triples: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Minimal GDOP per point over precomputed 4-subsets, in closed form.

    dc:           (m, k, 3) direction cosines to the k nearest sensors
                  (rows beyond a point's valid count may hold garbage).
    valid_counts: (m,) number of usable leading rows per point.
    subsets:      (S, 4) index rows into the k dimension, distinct per row.
    triples:      subset_triples(subsets), computed here when omitted.

    Returns (m,) minimal GDOP over the subsets, inf where no valid
    non-singular subset exists.
    """
    m = dc.shape[0]
    if len(subsets) == 0:
        return np.full(m, np.inf)
    table, index = subset_triples(subsets) if triples is None else triples
    # Component-major (3, k, m): gathering whole rows keeps points contiguous.
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
    # sqrt is monotone, so the root of the minimum is the minimal root.
    best = np.sqrt(gdop_sq.min(axis=0))
    best[valid_counts < 4] = np.inf
    return best
