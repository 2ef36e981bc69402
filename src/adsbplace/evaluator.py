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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gdop import gdop_min_batched, subset_triples
from .objectives import knapsack_penalty
from .scenario import PlacementProblem

# Points per gdop_min_batched call: each of its (subsets, points) float64
# arrays stays within this budget. The kernel's (triples, points) arrays
# are not bounded by it; they are larger where C(k, 3) exceeds C(k, 4), as
# at cap 6 (20 triples, 15 subsets). 1 MiB gives 8738 points per call at
# cap 6, so the section-8 grid's 1200 points take one call, and 264 at
# cap 12 (495 subsets).
_CHUNK_BYTES = 1 << 20


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
        """Raw scores (and optional diagnostics) for one chromosome."""
        problem = self.problem
        genes = np.asarray(genes, dtype=bool)
        if genes.shape != (problem.n_candidates,):
            raise ValueError("chromosome length does not match the candidate count")
        req = problem.requirements
        grid = problem.grid
        m = len(grid)
        sel = np.flatnonzero(genes)
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

        # OF1: best 4-subset GDOP per point, capped nearest enumeration.
        best_gdop = self._best_gdop(sel, top, vis_counts)
        achieved_gdop = np.where(np.isinf(best_gdop), req.gdop_cap, best_gdop)
        of1 = float(np.mean((grid.required_gdop - achieved_gdop) ** 2))

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

        raw = RawScores(
            of1=of1,
            of2=of2,
            d1=d1,
            d2=d2,
            d3=d3,
            penalty=knapsack_penalty(int(n), problem.n_candidates),
            n_selected=int(n),
        )
        if not diagnostics:
            return raw
        diag = Diagnostics(
            k_visible=vis_counts,
            best_gdop=best_gdop,
            second_range_km=np.where(vis_counts >= 2, second_km, np.inf),
            affected_per_jammer=counts,
            min_jam_distance_km=min_dist,
        )
        return raw, diag

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

    def _best_gdop(self, sel: np.ndarray, top: np.ndarray, vis_counts: np.ndarray) -> np.ndarray:
        m = top.shape[0]
        n = sel.size
        if n < 4:
            return np.full(m, np.inf)
        k = top.shape[1]
        subsets, shared = self.tables[k]
        dc_flat = self.problem.dc_point_cand.reshape(3, -1)  # (3, N * m)
        best = np.empty(m)
        valid = np.minimum(vis_counts, k)
        chunk = max(1, _CHUNK_BYTES // (8 * len(subsets)))
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            # Flat (candidate, point) indices gather a contiguous (3, k, c)
            # block, whose (c, k, 3) view the kernel reads without a copy.
            flat = sel[top[start:stop].T] * m + np.arange(start, stop)
            dc = np.take(dc_flat, flat, axis=1)
            best[start:stop] = gdop_min_batched(
                dc.transpose(2, 1, 0), valid[start:stop], subsets, shared
            )
        return best
