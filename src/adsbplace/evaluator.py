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
per grid point, queue by nearest-sensor count k, and the kernel runs
once per full chunk of (chromosome, point) rows. So on a small grid a
population costs a few dozen array operations and a few kernel calls,
not a set of each per chromosome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    """Raw (unnormalized) objective values of one chromosome."""

    of1: float
    of2: float
    d1: float
    d2: float
    d3: float
    penalty: float
    n_selected: int


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
        """Raw scores of one chromosome (N,), or a list of them for a
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
        best = np.full((len(batch), m), np.inf)
        rows = _GdopRows(self, best)
        terms = np.empty((4, len(batch)))  # OF2, d1, d2, d3 by slot
        starts = np.flatnonzero(np.diff(sizes, prepend=-1))
        for start, stop in zip(starts, [*starts[1:], len(batch)]):
            n = int(sizes[start])
            step = max(1, _SLICE_ELEMS // max(1, n * max(m, n, len(problem.jammers))))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                sel = np.nonzero(batch[order[lo:hi]])[1].reshape(hi - lo, n)
                terms[:, lo:hi], detail = self._score_group(sel, rows, lo)
        rows.flush()

        # OF1: best 4-subset GDOP per point, capped nearest enumeration.
        achieved_gdop = np.where(np.isinf(best), req.gdop_cap, best)
        np.subtract(grid.required_gdop, achieved_gdop, out=achieved_gdop)
        np.square(achieved_gdop, out=achieved_gdop)
        values = np.empty((5, len(batch)))
        values[0, order] = np.mean(achieved_gdop, axis=1)
        values[1:, order] = terms
        scores = [
            RawScores(of1, of2, d1, d2, d3, knapsack_penalty(n, problem.n_candidates), n)
            for of1, of2, d1, d2, d3, n in zip(*values.tolist(), counts.tolist())
        ]
        if genes.ndim == 2:
            return scores
        if not diagnostics:
            return scores[0]
        vis_counts, second_km, jam_counts, min_dist = (a[:, 0] for a in detail)
        diag = Diagnostics(
            k_visible=vis_counts,
            best_gdop=best[0],
            second_range_km=np.where(vis_counts >= 2, second_km, np.inf),
            affected_per_jammer=jam_counts,
            min_jam_distance_km=min_dist,
        )
        return scores[0], diag

    def _score_group(self, sel: np.ndarray, rows: _GdopRows, slot: int):
        """Everything but OF1 of G chromosomes with n sensors each, given
        as their (G, n) selected candidates, whose kernel rows go to
        ``rows`` from row ``slot`` on: (OF2, d1, d2, d3), each (G,), and
        the diagnostic arrays, (m, G) per point and (J, G) per jammer."""
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

        if n >= 4:
            # Flat (candidate, point) indices into the component-major
            # direction cosines, one row per (chromosome, point); below 4
            # sensors OF1 is inf everywhere.
            flat = near.transpose(2, 1, 0).astype(np.intp, order="C")
            flat *= m
            flat += np.arange(m)
            rows.add(slot, flat.reshape(k, g * m), np.minimum(vis_counts.T, k).reshape(-1))

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
        return (of2, d1, d2, d3), (vis_counts, second_km, jam_counts, min_dist)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean of each row of a 2-D array. numpy reduces each contiguous row
    by the same pairwise sum as a 1-D ``np.mean``, so a row's mean does not
    depend on the rows scored with it."""
    return np.mean(np.ascontiguousarray(x), axis=1)


class _GdopRows:
    """Kernel rows of one batch, queued in order of nearest-sensor count k.

    Each chromosome with n >= 4 sensors queues one row per point: k flat
    gather indices and a valid count, and its GDOP goes to its row of
    ``best``. Every kernel operation is elementwise along the rows, so a
    row's GDOP does not depend on which rows share its call. A call runs
    as soon as a full chunk of rows is queued, and when k changes.
    """

    def __init__(self, evaluator: PlacementEvaluator, best: np.ndarray):
        self.tables = evaluator.tables
        self.dc_flat = evaluator.problem.dc_point_cand.reshape(3, -1)  # (3, N * m)
        self.out = best.reshape(-1)  # a view: row slot * m + point
        self.m = best.shape[1]
        self.k = 0
        self.pos = 0                 # where the first queued row's GDOP goes
        self.flats: list[np.ndarray] = []
        self.valids: list[np.ndarray] = []
        self.queued = 0

    def add(self, slot: int, flat: np.ndarray, valid: np.ndarray) -> None:
        k = flat.shape[0]
        if k != self.k:
            self.flush()
            self.k, self.pos = k, slot * self.m
        self.flats.append(flat)
        self.valids.append(valid)
        self.queued += valid.size
        if self.queued >= self._chunk():
            self._run(final=False)

    def flush(self) -> None:
        """Run every queued row."""
        if self.queued:
            self._run(final=True)

    def _chunk(self) -> int:
        """Rows per call: the budget's, down to whole chromosomes where
        one fits."""
        subsets, (triples, _) = self.tables[self.k]
        rows = max(_MIN_ROWS, _ROW_BYTES // (8 * max(len(triples), len(subsets))))
        return rows - rows % self.m if rows >= self.m else rows

    def _run(self, final: bool) -> None:
        """Run the queued full chunks, and with ``final`` the rest."""
        flat = np.concatenate(self.flats, axis=1)
        valid = np.concatenate(self.valids)
        subsets, shared = self.tables[self.k]
        chunk = self._chunk()
        stop = valid.size if final else valid.size - valid.size % chunk
        for start in range(0, stop, chunk):
            end = min(start + chunk, stop)
            # One contiguous (3, k, rows) gather, whose (rows, k, 3) view
            # the kernel reads without a copy.
            dc = np.take(self.dc_flat, flat[:, start:end], axis=1)
            self.out[self.pos + start:self.pos + end] = gdop_min_batched(
                dc.transpose(2, 1, 0), valid[start:end], subsets, shared
            )
        self.pos += stop
        self.queued = valid.size - stop
        self.flats, self.valids = ([flat[:, stop:]], [valid[stop:]]) if self.queued else ([], [])
