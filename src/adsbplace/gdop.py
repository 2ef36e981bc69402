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
column) and sum(cofactor(B)^2) is the sum of their Q. The triple table
is in colex order, so the triples inside the first j rows come first, and
a caller that knows their D and Q (the same rows in the same order give
the same bits) passes them in and the kernel computes only the rest.

The floor is decided per point, not per subset. A subset's trace is the
sum of its rows' 1 + |b|^2, and every step of the floor (rounded
addition, the exact * 0.25, squaring non-negative numbers, dividing by a
positive constant) is monotone in each row's value. So every subset's
floor lies between lo and hi, the floor of four copies of the point's
smallest and of its largest usable row value. det(B)^2 > hi is above the
subset's own floor and det(B)^2 <= lo is not; only entries in (lo, hi]
get their own floor, computed exactly as before. The decision therefore
equals the per-subset one bit for bit, and since the arithmetic keeps
its operand order, so does every GDOP.
"""

from __future__ import annotations

import itertools

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
    triple once, in colex order (by largest row, then middle, then
    smallest), so the triples inside the first j rows come first whatever
    the subsets' largest row; index (S, 4) gives, per subset, the triples
    left after deleting its smallest, second, third and largest row.
    """
    drop = np.sort(subsets, axis=1)[:, _DROP].reshape(-1, 3)
    table, index = np.unique(drop[:, ::-1], axis=0, return_inverse=True)
    return table[:, ::-1].astype(np.intp), index.reshape(-1, 4).astype(np.intp)


def colex_subsets(k: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The 4-subsets of range(k) in colex order and their (triples, index)
    pair as ``subset_triples`` gives it, in closed form.

    In colex order the subsets and triples inside range(j) are the first
    C(j, 4) and C(j, 3) rows, for every j <= k, so prefixes of one table
    serve every smaller k. A triple a < b < c sits at colex position
    C(a, 1) + C(b, 2) + C(c, 3).
    """
    subsets, triples = (_colex(k, r) for r in (4, 3))
    a, b, c = subsets[:, _DROP].transpose(2, 0, 1)
    return subsets, (triples, a + b * (b - 1) // 2 + c * (c - 1) * (c - 2) // 6)


def _colex(k: int, r: int) -> np.ndarray:
    """The r-subsets of range(k) in colex order, one ascending row each.
    Mirroring x to k - 1 - x turns colex order into reversed lex order."""
    lex = np.array(list(itertools.combinations(range(k), r)), dtype=np.intp).reshape(-1, r)
    return np.ascontiguousarray((k - 1 - lex)[::-1, ::-1])


def triple_values(x, y, z, table, out=None):
    """D = u . c and Q = D^2 + |c|^2 of each row triple (u, v, w) of
    ``table`` (T, 3), with c = (v - u) x (w - u), from the component-major
    (k, m) direction cosines x, y, z. Returns (D, Q), each (T, m), written
    into ``out`` (2, T, m) when given."""
    a, b, c = table.T
    # In place: e = v - u, f = w - u, c = e x f, each sum left to right.
    ux, uy, uz = x.take(a, 0), y.take(a, 0), z.take(a, 0)
    ex, ey, ez = x.take(b, 0), y.take(b, 0), z.take(b, 0)
    fx, fy, fz = x.take(c, 0), y.take(c, 0), z.take(c, 0)
    ex -= ux
    ey -= uy
    ez -= uz
    fx -= ux
    fy -= uy
    fz -= uz
    cx = ey * fz
    cx -= ez * fy
    cy = np.multiply(ez, fx, out=ez)
    cy -= np.multiply(ex, fz, out=fz)
    cz = np.multiply(ex, fy, out=ex)
    cz -= np.multiply(ey, fx, out=fx)
    det3 = np.multiply(ux, cx, out=ux if out is None else out[0])
    det3 += np.multiply(uy, cy, out=uy)
    det3 += np.multiply(uz, cz, out=uz)
    minor_sq = np.multiply(det3, det3, out=ey if out is None else out[1])
    minor_sq += np.multiply(cx, cx, out=cx)
    minor_sq += np.multiply(cy, cy, out=cy)
    minor_sq += np.multiply(cz, cz, out=cz)
    return det3, minor_sq


def gdop_min_batched(
    dc: np.ndarray,
    valid_counts: np.ndarray,
    subsets: np.ndarray,
    triples: tuple[np.ndarray, np.ndarray] | None = None,
    values: np.ndarray | None = None,
    known: int = 0,
) -> np.ndarray:
    """Minimal GDOP per point over precomputed 4-subsets, in closed form.

    dc:           (m, k, 3) direction cosines to the k nearest sensors
                  (rows beyond a point's valid count may hold garbage).
    valid_counts: (m,) number of usable leading rows per point.
    subsets:      (S, 4) index rows into the k dimension, distinct per row.
    triples:      subset_triples(subsets), or a table holding at least
                  their triples and an index into it; computed when omitted.
    values:       (2, T, m) buffer for the D and Q of the T table triples.
                  Its first ``known`` triples are read as given, and only
                  the others are computed into it.

    Returns (m,) minimal GDOP over the subsets, inf where no valid
    non-singular subset exists.
    """
    m = dc.shape[0]
    if len(subsets) == 0:
        return np.full(m, np.inf)
    table, index = subset_triples(subsets) if triples is None else triples
    # Component-major (3, k, m): gathering whole rows keeps points contiguous.
    x, y, z = np.ascontiguousarray(dc.transpose(2, 1, 0))
    if values is None:
        det3, minor_sq = triple_values(x, y, z, table)
    else:
        triple_values(x, y, z, table[known:], values[:, known:])
        det3, minor_sq = values

    # Per subset (S, m): det(B)^2 and sum(cofactor(B)^2).
    i0, i1, i2, i3 = index.T
    det_sq = det3.take(i3, 0)
    det_sq -= det3.take(i2, 0)
    det_sq += det3.take(i1, 0)
    det_sq -= det3.take(i0, 0)
    det_sq *= det_sq
    cof_sq = minor_sq.take(i0, 0)
    cof_sq += minor_sq.take(i1, 0)
    cof_sq += minor_sq.take(i2, 0)
    cof_sq += minor_sq.take(i3, 0)

    # Singular: det_sq not above the subset's floor. The floor is monotone
    # in each row norm, so the point's smallest and largest usable norms
    # bound every subset's floor; only entries between them need their own.
    row_sq = 1.0 + x * x  # (k, m)
    row_sq += y * y
    row_sq += z * z
    unusable = np.arange(len(row_sq))[:, None] >= valid_counts
    # fmin and fmax skip NaN, so the masked rows drop out of both.
    masked = np.where(unusable, np.nan, row_sq)
    bounds = np.empty((2, m))
    np.fmin.reduce(masked, axis=0, out=bounds[0])
    np.fmax.reduce(masked, axis=0, out=bounds[1])
    lo, hi = _floor(bounds, bounds, bounds, bounds)
    bad = ~(det_sq > hi)  # det_sq <= hi, or NaN
    unsure = bad & (det_sq > lo)
    if unsure.any():
        s, p = np.nonzero(unsure)
        r0, r1, r2, r3 = row_sq[subsets[s].T, p]
        bad[s, p] = ~(det_sq[s, p] > _floor(r0, r1, r2, r3))
    bad |= unusable[subsets.max(axis=1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cof_sq /= det_sq
    cof_sq.reshape(-1)[np.flatnonzero(bad)] = np.inf
    # sqrt is monotone, so the root of the minimum is the minimal root.
    best = np.sqrt(cof_sq.min(axis=0))
    best[valid_counts < 4] = np.inf
    return best


def _floor(r0, r1, r2, r3):
    """Singularity floor (tr / 4)^4 / SINGULARITY_COND of 4-subsets whose
    rows have 1 + |b|^2 = r0, r1, r2, r3, summed in that order."""
    trace = r0 + r1
    trace += r2
    trace += r3
    trace *= 0.25
    trace *= trace
    trace *= trace
    trace /= SINGULARITY_COND
    return trace
