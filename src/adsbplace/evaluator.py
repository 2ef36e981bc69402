"""Vectorized placement evaluation over a precomputed problem.

This is the single evaluation code path: the genetic algorithm and the
post-hoc analysis both score chromosomes through PlacementEvaluator, so
reports always agree bit-for-bit with the fitness the optimizer saw.

It reads the static matrices of ``scenario.precompute``: distances, LOS
and nearest ranks as (m, N) point-by-candidate arrays, direction cosines
component-major as (3, N, m). A point's rank row orders all candidates
by distance, visible ones first and ties by candidate index. So the
nearest k selected sensors of every point come from one integer sort of
``rank[:, sel]``, in the order a stable sort of the LOS-masked distances
would give, and the second of them gives OF2's verification range.

``evaluate`` scores a (B, N) batch in one pass; a single chromosome is a
batch of one. The batch is grouped by sensor count n, and each group of
G chromosomes is scored by one set of array operations over its (G, n)
selected columns: one key sort gives every point's nearest sensors, and
the spacing, jammer and OF2 terms come from (G, n, n), (J, G, n) and
(m, G) gathers. Every mean reduces a contiguous row, so a chromosome's
scores do not depend on the group it was scored in. Its GDOP rows, one
per grid point, are collected per nearest-sensor count k, and the kernel
runs once per chunk of each k's (chromosome, point) rows. So on a small
grid a population costs a few dozen array operations and a few kernel
calls, not a set of each per chromosome. A batch's scores come back as
one ``RawScores`` of (B,) columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .gdop import gdop_min_batched, subset_triples
from .objectives import knapsack_penalty
from .scenario import PlacementProblem

# Rows per gdop_min_batched call. A row is one (chromosome, point) pair,
# and the kernel's largest float64 array is (max(C(k, 3), C(k, 4)), rows).
# The budget bounds that array: near 1 MiB it falls out of cache and each
# row costs more. The floor keeps calls at large k from shrinking to a few
# rows, where the per-call overhead (about 90 us) dominates. Where a
# chromosome's rows fit, a call takes whole chromosomes. At cap 6 that is
# 1632 rows on a 48-point grid and 1200 on a 1200-point grid; at cap 12 on
# the 1200-point grid the floor's 128 (a 495 KiB subset array).
_ROW_BYTES = 256 << 10
_MIN_ROWS = 128

# Elements per slice of a group of equal sensor count n in its largest
# temporaries: the (m, G, n) rank keys and LOS gather, the (G, n, n)
# spacing gather and the (J, G, n) jammer gathers. 1 Mi int32 keys take
# 4 MiB; on a 48-point grid a population's group is one slice.
_SLICE_ELEMS = 1 << 20


@dataclass
class RawScores:
    """Raw (unnormalized) objective values: floats and an int for one
    chromosome, or (B,) columns of them for a batch of B."""

    of1: float
    of2: float
    d1: float
    d2: float
    d3: float
    penalty: float
    n_selected: int

    def row(self, i: int) -> RawScores:
        """The scores of chromosome ``i`` of a batch."""
        return RawScores(*(getattr(self, f.name)[i].item() for f in fields(self)))


@dataclass
class Diagnostics:
    """Per-point and per-jammer evaluation detail for reporting."""

    k_visible: np.ndarray          # (m,) sensors in LOS per grid point
    best_gdop: np.ndarray          # (m,) minimal subset GDOP, may be inf
    second_range_km: np.ndarray    # (m,) distance to 2nd-nearest visible, inf if < 2
    affected_per_jammer: np.ndarray   # (k,) sensors hit per jammer
    min_jam_distance_km: np.ndarray   # (k,) nearest-sensor distance per jammer


class PlacementEvaluator:
    """Scores binary site-selection chromosomes against one problem."""

    def __init__(self, problem: PlacementProblem, gdop_subset_cap: int = 12):
        if problem.dist_point_cand is None:
            raise ValueError("problem matrices missing; run scenario.precompute first")
        if gdop_subset_cap < 4:
            raise ValueError("gdop subset cap must be >= 4")
        self.problem = problem
        self.cap = int(gdop_subset_cap)
        n = problem.n_candidates
        self.dc_flat = problem.dc_point_cand.reshape(3, -1)  # (3, N * m)
        # Penalty by sensor count from the scalar formula: numpy squares by a
        # multiply, Python's ``**`` by pow(); they can differ in the last bit.
        self.penalty_by_count = np.array([knapsack_penalty(c, n) for c in range(n + 1)])
        self._key_dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        # Per nearest-sensor count k: the 4-subsets of range(k) and their
        # triple table, built once rather than on every kernel call (at
        # cap 12 the table alone takes about 1.6 ms). No chromosome selects
        # more sensors than there are candidates, and below 4 OF1 is inf.
        self.tables = {}
        for k in range(4, min(self.cap, problem.n_candidates) + 1):
            subsets = np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp)
            self.tables[k] = (subsets, subset_triples(subsets))

    def evaluate(self, genes: np.ndarray, diagnostics: bool = False):
        """Raw scores of one chromosome (N,), or columns of them for a
        (B, N) batch. With ``diagnostics``, one chromosome only, returns
        (raw, diagnostics)."""
        problem = self.problem
        genes = np.asarray(genes, dtype=bool)
        if genes.ndim not in (1, 2) or genes.shape[-1] != problem.n_candidates:
            raise ValueError("chromosome length does not match the candidate count")
        if diagnostics and genes.ndim == 2:
            raise ValueError("diagnostics are computed for one chromosome, not a batch")
        batch = genes.reshape(-1, problem.n_candidates)
        req = problem.requirements
        grid = problem.grid
        m = len(grid)
        counts = batch.sum(axis=1)
        # Chromosomes in order of their sensor count n, so each group of
        # equal n is scored together and, as k = min(cap, n) rises with n,
        # the kernel rows of one k fill consecutive rows of ``best``.
        order = np.argsort(counts, kind="stable")
        sizes = counts[order]
        # Per k: the first slot of its chromosomes and its kernel rows, as
        # (k, rows) flat gather indices and (rows,) valid counts.
        ks = np.minimum(sizes, self.cap)
        gathers = {}
        for k in np.unique(ks[ks >= 4]).tolist():
            first, last = np.searchsorted(ks, [k, k + 1]).tolist()
            rows = (last - first) * m
            gathers[k] = (first, np.empty((k, rows), dtype=np.intp), np.empty(rows, dtype=np.intp))
        terms = np.empty((4, len(batch)))  # OF2, d1, d2, d3 by slot
        starts = np.flatnonzero(np.diff(sizes, prepend=-1))
        for start, stop in zip(starts, [*starts[1:], len(batch)]):
            n = int(sizes[start])
            step = max(1, _SLICE_ELEMS // max(1, n * max(m, n, len(problem.jammers))))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                sel = np.nonzero(batch[order[lo:hi]])[1].reshape(hi - lo, n)
                terms[:, lo:hi], gather, detail = self._score_group(sel)
                if gather is not None:
                    first, flat, valid = gathers[min(self.cap, n)]
                    span = slice((lo - first) * m, (hi - first) * m)
                    flat[:, span], valid[span] = gather
        best = np.full((len(batch), m), np.inf)
        out = best.reshape(-1)  # a view: row slot * m + point
        for k, (first, flat, valid) in gathers.items():
            self._gdop(k, flat, valid, out[first * m:first * m + valid.size])

        # OF1: best 4-subset GDOP per point, capped nearest enumeration.
        achieved_gdop = np.where(np.isinf(best), req.gdop_cap, best)
        np.subtract(grid.required_gdop, achieved_gdop, out=achieved_gdop)
        np.square(achieved_gdop, out=achieved_gdop)
        values = np.empty((5, len(batch)))
        values[0, order] = np.mean(achieved_gdop, axis=1)
        values[1:, order] = terms
        scores = RawScores(*values, self.penalty_by_count[counts], counts)
        if genes.ndim == 2:
            return scores
        if not diagnostics:
            return scores.row(0)
        vis_counts, second_km, jam_counts, min_dist = (a[:, 0] for a in detail)
        diag = Diagnostics(
            k_visible=vis_counts,
            best_gdop=best[0],
            second_range_km=np.where(vis_counts >= 2, second_km, np.inf),
            affected_per_jammer=jam_counts,
            min_jam_distance_km=min_dist,
        )
        return scores.row(0), diag

    def _gdop(self, k: int, flat: np.ndarray, valid: np.ndarray, out: np.ndarray) -> None:
        """Minimal GDOP of kernel rows with k nearest sensors, given as
        (k, rows) flat gather indices and (rows,) valid counts, into
        ``out``. Each call takes the budget's rows, down to whole
        chromosomes where one fits. Every kernel operation is elementwise
        along the rows, so a row's GDOP does not depend on its call."""
        subsets, shared = self.tables[k]
        m = len(self.problem.grid)
        rows = max(_MIN_ROWS, _ROW_BYTES // (8 * max(len(shared[0]), len(subsets))))
        chunk = rows - rows % m if rows >= m else rows
        for start in range(0, valid.size, chunk):
            # One contiguous (3, k, rows) gather, whose (rows, k, 3) view
            # the kernel reads without a copy.
            dc = np.take(self.dc_flat, flat[:, start:start + chunk], axis=1)
            out[start:start + chunk] = gdop_min_batched(
                dc.transpose(2, 1, 0), valid[start:start + chunk], subsets, shared
            )

    def _score_group(self, sel: np.ndarray):
        """Everything but OF1 of G chromosomes with n sensors each, given
        as their (G, n) selected candidates: (OF2, d1, d2, d3), each (G,);
        their kernel rows as (k, G * m) flat gather indices and (G * m,)
        valid counts, None below 4 sensors; and the diagnostic arrays,
        (m, G) per point and (J, G) per jammer."""
        problem = self.problem
        req = problem.requirements
        grid = problem.grid
        m = len(grid)
        g, n = sel.shape
        n_cand = problem.n_candidates

        vis_counts = problem.los_point_cand[:, sel].sum(axis=2)
        # Each point's selected sensors, nearest first: rank * N + candidate
        # is unique per row and sorts by rank. One int32 sort of these keys
        # beats an argpartition to k plus a sort of the k, about 3x at n = 25.
        key = np.multiply(problem.rank_point_cand[:, sel], n_cand, dtype=self._key_dtype)
        key += sel
        key.sort(axis=2)
        k = min(self.cap, n)
        near = key[:, :, :k] % n_cand  # (m, G, k) candidates

        # OF2: two-receiver verification range, from the second nearest.
        if n >= 2:
            second_km = problem.dist_point_cand[np.arange(m)[:, None], near[:, :, 1]] / 1000.0
        else:
            second_km = np.full((m, g), np.inf)
        achieved_range = np.where(vis_counts >= 2, second_km, problem.range_cap_km)
        of2 = _row_mean((grid.required_range_km - achieved_range.T) ** 2)

        gather = None
        if n >= 4:
            # Flat (candidate, point) indices into the component-major
            # direction cosines, one row per (chromosome, point); below 4
            # sensors OF1 is inf everywhere.
            flat = near.transpose(2, 1, 0).astype(np.intp, order="C")
            flat *= m
            flat += np.arange(m)
            gather = flat.reshape(k, g * m), np.minimum(vis_counts.T, k).reshape(-1)

        # OF3 direction 1: nearest-neighbor spacing shortfall.
        target = req.min_sensor_spacing_km
        if n >= 2:
            pair = problem.dist_cand_cand[sel[:, :, None], sel[:, None, :]] / 1000.0
            diagonal = np.arange(n)
            pair[:, diagonal, diagonal] = np.inf
            d1 = _row_mean(np.minimum(0.0, pair.min(axis=2) - target) ** 2)
        else:
            # Too few sensors to measure spacing: full shortfall.
            d1 = np.full(g, target**2)

        # OF3 directions 2 and 3 over the jammer set, (J, G) per jammer.
        n_jam = len(problem.jammers)
        if n_jam and n:
            # Division rounds monotonically, so it commutes with the min.
            min_dist = problem.dist_jam_cand[:, sel].min(axis=2) / 1000.0
            any_los = problem.los_jam_cand[:, sel].any(axis=2)
            shortfall = np.minimum(0.0, min_dist - req.min_jammer_distance_km)
            d2 = _row_mean(np.where(any_los, shortfall**2, 0.0).T)
            jam_counts = problem.affected_jam_cand[:, sel].sum(axis=2)
            excess = np.maximum(0, jam_counts - req.max_sensors_in_jammer_los)
            d3 = _row_mean(excess.T.astype(float) ** 2)
        else:
            d2 = d3 = np.zeros(g)
            jam_counts = np.zeros((n_jam, g), dtype=int)
            min_dist = np.full((n_jam, g), np.inf)
        return (of2, d1, d2, d3), gather, (vis_counts, second_km, jam_counts, min_dist)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean of each row of a 2-D array. numpy reduces each contiguous row
    by the same pairwise sum as a 1-D ``np.mean``, so a row's mean does not
    depend on the rows scored with it."""
    return np.mean(np.ascontiguousarray(x), axis=1)

