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
batch of one. Each chromosome's spacing, jammer and OF2 terms come from
its own selected columns, but its GDOP rows, one per grid point, queue
by nearest-sensor count k, and the kernel runs once per full chunk of
(chromosome, point) rows. So on a small grid a population costs a few
kernel calls, not one per chromosome.
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
        # Chromosomes in order of their nearest-sensor count k = min(cap, n),
        # so that the kernel rows of one k fill consecutive rows of ``best``.
        order = np.argsort(np.minimum(batch.sum(axis=1), self.cap), kind="stable")
        best = np.full((len(batch), len(grid)), np.inf)
        rows = _GdopRows(self, best)
        parts = [None] * len(batch)
        for slot, b in enumerate(order):
            parts[b], detail = self._score(np.flatnonzero(batch[b]), rows, slot)
        rows.flush()

        # OF1: best 4-subset GDOP per point, capped nearest enumeration.
        achieved_gdop = np.where(np.isinf(best), req.gdop_cap, best)
        np.subtract(grid.required_gdop, achieved_gdop, out=achieved_gdop)
        np.square(achieved_gdop, out=achieved_gdop)
        of1 = np.empty(len(batch))
        of1[order] = np.mean(achieved_gdop, axis=1)
        scores = [
            RawScores(
                of1=float(x),
                of2=of2,
                d1=d1,
                d2=d2,
                d3=d3,
                penalty=knapsack_penalty(n, problem.n_candidates),
                n_selected=n,
            )
            for x, (of2, d1, d2, d3, n) in zip(of1, parts)
        ]
        if genes.ndim == 2:
            return scores
        if not diagnostics:
            return scores[0]
        vis_counts, second_km, counts, min_dist = detail
        diag = Diagnostics(
            k_visible=vis_counts,
            best_gdop=best[0],
            second_range_km=np.where(vis_counts >= 2, second_km, np.inf),
            affected_per_jammer=counts,
            min_jam_distance_km=min_dist,
        )
        return scores[0], diag

    def _score(self, sel: np.ndarray, rows: _GdopRows, slot: int):
        """Everything of one chromosome but OF1, whose kernel rows go to
        row ``slot`` of ``rows``: (of2, d1, d2, d3, n) and the diagnostic
        arrays."""
        problem = self.problem
        req = problem.requirements
        grid = problem.grid
        m = len(grid)
        n = sel.size

        vis_counts = problem.los_point_cand[:, sel].sum(axis=1)
        top = self._nearest(sel)

        # OF2: two-receiver verification range, from the second nearest.
        if n >= 2:
            second_km = problem.dist_point_cand[np.arange(m), sel[top[:, 1]]] / 1000.0
        else:
            second_km = np.full(m, np.inf)
        achieved_range = np.where(vis_counts >= 2, second_km, problem.range_cap_km)
        of2 = float(np.mean((grid.required_range_km - achieved_range) ** 2))

        if n >= 4:
            # Flat (candidate, point) indices into the component-major
            # direction cosines; below 4 sensors OF1 is inf everywhere.
            rows.add(slot, sel[top.T] * m + np.arange(m), np.minimum(vis_counts, top.shape[1]))

        # OF3 direction 1: nearest-neighbor spacing shortfall.
        target = req.min_sensor_spacing_km
        if n >= 2:
            pair = problem.dist_cand_cand[np.ix_(sel, sel)] / 1000.0
            np.fill_diagonal(pair, np.inf)
            nearest = pair.min(axis=1)
            d1 = float(np.mean(np.minimum(0.0, nearest - target) ** 2))
        else:
            # Too few sensors to measure spacing: full shortfall.
            d1 = target**2

        # OF3 directions 2 and 3 over the jammer set.
        k = len(problem.jammers)
        if k and n:
            jdist = problem.dist_jam_cand[:, sel] / 1000.0  # (k, n)
            jlos = problem.los_jam_cand[:, sel]
            jaffect = problem.affected_jam_cand[:, sel]
            any_los = jlos.any(axis=1)
            min_dist = jdist.min(axis=1)
            shortfall = np.minimum(0.0, min_dist - req.min_jammer_distance_km)
            d2 = float(np.mean(np.where(any_los, shortfall**2, 0.0)))
            counts = jaffect.sum(axis=1)
            excess = np.maximum(0, counts - req.max_sensors_in_jammer_los)
            d3 = float(np.mean(excess.astype(float) ** 2))
        else:
            d2 = 0.0
            d3 = 0.0
            counts = np.zeros(k, dtype=int)
            min_dist = np.full(k, np.inf)
        return (of2, d1, d2, d3, int(n)), (vis_counts, second_km, counts, min_dist)

    def _nearest(self, sel: np.ndarray) -> np.ndarray:
        """(m, min(cap, n)) positions in ``sel`` of each point's nearest
        selected sensors, visible ones first, ties by candidate index."""
        n = sel.size
        # rank * n + position is unique per row and sorts by rank. One
        # int32 sort of these keys beats an argpartition to k plus a sort
        # of the k, about 3x at n = 25.
        key = self.problem.rank_point_cand[:, sel].astype(self._key_dtype)
        key *= n
        key += np.arange(n, dtype=self._key_dtype)
        key.sort(axis=1)
        return key[:, : min(self.cap, n)] % n


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
