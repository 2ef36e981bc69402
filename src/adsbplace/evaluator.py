"""Vectorized placement evaluation over a precomputed problem.

This is the single evaluation code path: the genetic algorithm and the
post-hoc analysis both score chromosomes through PlacementEvaluator, so
reports always agree bit-for-bit with the fitness the optimizer saw.

It reads the matrices of the frozen problem that ``scenario.precompute``
builds: distances, LOS and nearest ranks as (m, N) point-by-candidate
arrays, direction cosines component-major as (3, N, m). A point's rank
row orders all candidates by distance, visible ones first and ties by
candidate index. So the nearest k selected sensors of every point come
from one integer sort of ``rank[:, sel]``, in the order a stable sort of
the LOS-masked distances would give, and the second of them gives OF2's
verification range.

``evaluate`` scores a (B, N) batch in one pass; a single chromosome is a
batch of one. The batch is grouped by sensor count n, and each group of
G chromosomes is scored by one set of array operations over its (G, n)
selected columns: one key sort gives every point's nearest sensors, and
the spacing, jammer and OF2 terms come from (G, n, n), (J, G, n) and
(m, G) gathers. Every mean reduces a contiguous row, so a chromosome's
scores do not depend on the group it was scored in. Its GDOP rows, one
per grid point, are collected per nearest-sensor count k as candidate
indices in the narrowest integer type holding N, and the kernel runs once
per chunk of each k's (chromosome, point) rows, forming that chunk's flat
gather indices. So on a small grid a population costs a few dozen array
operations and a few kernel calls, not a set of each per chromosome. A
batch's scores come back as one ``RawScores`` of (B,) columns. With
``diagnostics``, a single chromosome's scores come with its per-point
``CoverageGrid`` and per-jammer ``JamReport``, the detail that the
scoring computes anyway; they carry the problem's (3, m) points and
(3, J) jammers as they are.

With ``threads > 1`` the groups are still scored on the calling thread;
only the kernel calls, over every k and f' group of the batch, are dealt
out as that many interleaved job lists, one per pool worker. Each call
writes its own rows of the result, and the chunking does not depend on
the thread count, so neither do the scores.

With four or more forced sites (Scenario 2, augmenting a deployment),
every chromosome holds the forced sensors, so the forced ones among a
point's usable nearest k are always its f' nearest visible forced ones.
The evaluator tables, per point, the best GDOP over the subsets inside
its first j forced sensors and the minors of their row triples, from one
kernel pass when it is built. A row whose usable sensors are all forced
reads the table; a row with 4 <= f' < valid puts its forced sensors
first and runs only the subsets and triples reaching past them, the rest
read from the table. All-forced subsets keep their rank order, so those
rows give the rank-order GDOP bit for bit; a mixed subset's rows change
order, so a mixed row's GDOP may differ from it in the last bits. A row
of a chromosome lacking a forced site, or with f' < 4, runs every subset
in rank order. Without forced sites nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .gdop import colex_subsets, gdop_min_batched
from .objectives import knapsack_penalty
from .scenario import PlacementProblem, index_dtype

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


# By default glibc serves a block above its mmap threshold by mmap and trims
# the top of its heap once more than its trim threshold lies free there.
# Both thresholds rise only when a block served by mmap is freed, to that
# block's size and twice it. So whether a batch's temporaries (about 7 MiB
# at population 400 on a 48-point grid) stayed in the heap between batches
# depended on the largest block freed before, by precompute for one; where
# they did not, every batch paged them in again, about 33 000 minor faults
# per 4-generation run. Fixed thresholds keep them in the heap. Kernel
# arrays below the default threshold (``_ROW_BYTES`` at 96 KiB) are no
# substitute: the other temporaries still reach it, and they stay in the
# heap only after a large block was freed, as precompute's (N, N)
# temporary is at 400 candidates (1.28 MB) but not at 100, where a
# repeated 400-row batch still took about 8000 minor faults.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt(3) parameters
_HEAP_BYTES = 16 << 20


def _retain_heap() -> None:
    """Fix glibc's mmap threshold at ``_HEAP_BYTES`` and its trim threshold
    at twice that; a no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BYTES)


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
class CoverageGrid:
    """Per-point coverage of one placement on the evaluation grid."""

    points: np.ndarray           # (3, m) latitudes, longitudes, altitudes
    k_visible: np.ndarray        # sensors in LOS
    best_gdop: np.ndarray        # minimal subset GDOP, may be inf
    second_range_km: np.ndarray  # distance to the 2nd-nearest visible, inf if < 2


@dataclass
class JamReport:
    """Per-jammer impact of one placement."""

    jammers: np.ndarray          # (3, J) latitudes, longitudes, heights
    affected_count: np.ndarray   # sensors hit
    min_distance_km: np.ndarray  # distance to the nearest sensor


class PlacementEvaluator:
    """Scores binary site-selection chromosomes against one problem. With
    ``threads > 1`` its kernel calls run on a pool of that many workers,
    which lasts until ``close``."""

    def __init__(self, problem: PlacementProblem, gdop_subset_cap: int = 12, threads: int = 1):
        if gdop_subset_cap < 4:
            raise ValueError("gdop subset cap must be >= 4")
        _retain_heap()
        self.problem = problem
        self.cap = int(gdop_subset_cap)
        n = problem.n_candidates
        self.n_points = problem.points.shape[1]
        self.dc_flat = problem.dc_point_cand.reshape(3, -1)  # (3, N * m)
        # Penalty by sensor count from the scalar formula: numpy squares by a
        # multiply, Python's ``**`` by pow(); they can differ in the last bit.
        self.penalty_by_count = np.array([knapsack_penalty(c, n) for c in range(n + 1)])
        self._key_dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        self._index_dtype = index_dtype(n)
        # Per nearest-sensor count k: the 4-subsets of range(k) and their
        # triple table, prefixes of one colex table built once. No
        # chromosome selects more sensors than there are candidates, and
        # below 4 OF1 is inf.
        k_max = min(self.cap, n)
        subsets, (triples, index) = colex_subsets(k_max)
        self.tables = {
            k: (subsets[:math.comb(k, 4)], (triples[:math.comb(k, 3)], index[:math.comb(k, 4)]))
            for k in range(4, k_max + 1)
        }
        # Scenario 2: the forced sites are in every chromosome, so the
        # forced sensors among a point's usable nearest k are always its
        # f' nearest visible forced sensors, whatever else is selected.
        # Their subsets' GDOP and their triples' values are per-point
        # facts, tabled once here for the rows that are forced-first.
        self.n_forced = int(problem.forced_mask.sum())
        self.best_forced = self.forced_values = None
        if self.n_forced >= 4:
            self._build_forced_tables()
        self.threads = threads
        self.pool = None
        if threads > 1:
            # Imported only here: single-threaded runs skip its 0.6 MiB.
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(max_workers=threads)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def _build_forced_tables(self) -> None:
        """Per point, from its kf = min(cap, n_forced) nearest visible
        forced sensors in rank order: ``best_forced`` (m, kf + 1), column j
        the minimal GDOP over the subsets inside the first j of them, and
        ``forced_values`` (2, C(kf, 3), m), the D and Q of their triples."""
        problem = self.problem
        m, n = self.n_points, problem.n_candidates
        forced = np.flatnonzero(problem.forced_mask)
        kf = min(self.cap, forced.size)
        key = np.multiply(problem.rank_point_cand[:, forced], n, dtype=self._key_dtype)
        key += forced
        key.sort(axis=1)
        flat = (key[:, :kf] % n).T.astype(np.intp) * m + np.arange(m)  # (kf, m)
        visible = problem.los_point_cand[:, forced]
        dc = np.take(self.dc_flat, flat, axis=1).transpose(2, 1, 0)
        self.best_forced, self.forced_values = prefix_gdop(
            dc, np.minimum(visible.sum(axis=1), kf), self.tables[kf]
        )

    def evaluate(self, genes: np.ndarray, diagnostics: bool = False):
        """Raw scores of one chromosome (N,), or columns of them for a
        (B, N) batch. With ``diagnostics``, one chromosome only, returns
        (raw, CoverageGrid, JamReport)."""
        problem = self.problem
        genes = np.asarray(genes, dtype=bool)
        if genes.ndim not in (1, 2) or genes.shape[-1] != problem.n_candidates:
            raise ValueError("chromosome length does not match the candidate count")
        if diagnostics and genes.ndim == 2:
            raise ValueError("diagnostics are computed for one chromosome, not a batch")
        batch = genes.reshape(-1, problem.n_candidates)
        req = problem.requirements
        m = self.n_points
        counts = batch.sum(axis=1)
        # Chromosomes in order of their sensor count n, so each group of
        # equal n is scored together and, as k = min(cap, n) rises with n,
        # the kernel rows of one k fill consecutive rows of ``best``.
        order = np.argsort(counts, kind="stable")
        sizes = counts[order]
        # Per k: the first slot of its B_k chromosomes and their kernel rows,
        # one per (chromosome, point): (k, B_k, m) candidates, nearest
        # first, (B_k, m) valid counts and, with a forced table, (B_k, m)
        # forced counts f', all in the narrowest integer dtype holding N.
        ks = np.minimum(sizes, self.cap)
        gathers = {}
        for k in np.unique(ks[ks >= 4]).tolist():
            first, last = np.searchsorted(ks, [k, k + 1]).tolist()
            shape = (last - first, m)
            arrays = [np.empty((k, *shape), self._index_dtype), np.empty(shape, self._index_dtype)]
            if self.best_forced is not None:
                arrays.append(np.empty(shape, self._index_dtype))
            gathers[k] = first, arrays
        terms = np.empty((4, len(batch)))  # OF2, d1, d2, d3 by slot
        starts = np.flatnonzero(np.diff(sizes, prepend=-1))
        for start, stop in zip(starts, [*starts[1:], len(batch)]):
            n = int(sizes[start])
            step = max(1, _SLICE_ELEMS // max(1, n * max(m, n, problem.jammers.shape[1])))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                sel = np.nonzero(batch[order[lo:hi]])[1].reshape(hi - lo, n)
                terms[:, lo:hi], gather, detail = self._score_group(sel)
                if gather is not None:
                    first, arrays = gathers[min(self.cap, n)]
                    for dst, src in zip(arrays, gather):
                        dst[..., lo - first:hi - first, :] = src
        best = np.full((len(batch), m), np.inf)
        out = best.reshape(-1)  # a view: row slot * m + point
        jobs = []
        for k, (first, (near, *row_counts)) in gathers.items():
            rows = near[0].size
            jobs += self._gdop_jobs(k, out[first * m:first * m + rows], near.reshape(k, rows),
                                    *(c.reshape(rows) for c in row_counts))
        parts = min(self.threads, len(jobs))
        if parts > 1:
            # Worker i runs every parts-th job from job i; each job writes
            # only its own rows of ``best``.
            list(self.pool.map(_run_jobs, [jobs[i::parts] for i in range(parts)]))
        else:
            _run_jobs(jobs)

        best_gdop = best[0].copy() if diagnostics else None
        # OF1: best 4-subset GDOP per point, capped nearest enumeration,
        # formed in place.
        np.copyto(best, req.gdop_cap, where=np.isinf(best))
        np.subtract(req.required_gdop, best, out=best)
        np.square(best, out=best)
        values = np.empty((5, len(batch)))
        values[0, order] = np.mean(best, axis=1)
        values[1:, order] = terms
        scores = RawScores(*values, self.penalty_by_count[counts], counts)
        if genes.ndim == 2:
            return scores
        if not diagnostics:
            return scores.row(0)
        vis_counts, second_km, jam_counts, min_dist = (a[:, 0] for a in detail)
        coverage = CoverageGrid(problem.points, vis_counts, best_gdop,
                                np.where(vis_counts >= 2, second_km, np.inf))
        return scores.row(0), coverage, JamReport(problem.jammers, jam_counts, min_dist)

    def _gdop_jobs(self, k: int, out: np.ndarray, near: np.ndarray, valid: np.ndarray,
                   fprime: np.ndarray | None = None) -> list:
        """Kernel jobs for the minimal GDOP of rows with k nearest sensors,
        given as (k, rows) candidates and (rows,) valid counts, row r at
        point r % m, into ``out``. With forced counts f', a row whose
        usable sensors are all forced reads the point's forced table here,
        and the others run in groups of equal f'; rows with fewer than 4
        usable sensors keep their inf."""
        if fprime is None:
            return self._kernel_jobs(k, 0, out, near, valid)
        tabled = (fprime > 0) & (fprime == valid)
        rows = np.flatnonzero(tabled)
        out[rows] = self.best_forced[rows % self.n_points, fprime[rows]]
        rest = ~tabled & (valid >= 4)
        jobs = []
        for f in np.unique(fprime[rest]).tolist():
            rows = np.flatnonzero(rest & (fprime == f))
            jobs += self._kernel_jobs(k, f, out, near, valid, rows)
        return jobs

    def _kernel_jobs(self, k: int, f: int, out: np.ndarray, near: np.ndarray, valid: np.ndarray,
                     rows: np.ndarray | None = None) -> list:
        """One job per kernel call over ``rows`` (all rows when None), whose
        first f sensors, f = 0 or 4 <= f < valid, are their points' nearest
        forced ones. Each call takes the budget's rows, down to whole
        chromosomes where one fits. Every kernel operation is elementwise
        along the rows, so a row's GDOP does not depend on its call."""
        subsets, (table, index) = self.tables[k]
        known = 0
        if f:
            # Only the subsets reaching past the forced sensors, those after
            # the C(f, 4) inside range(f) in colex order, and only the
            # triples doing so; the rest come from the forced table.
            past = slice(math.comb(f, 4), None)
            subsets, index = subsets[past], index[past]
            known = math.comb(f, 3)
        m = self.n_points
        size = valid.size if rows is None else rows.size
        budget = max(_MIN_ROWS, _ROW_BYTES // (8 * max(len(table), len(subsets))))
        chunk = budget - budget % m if budget >= m else budget
        spans = [slice(start, start + chunk) for start in range(0, size, chunk)]
        if rows is not None:
            spans = [rows[span] for span in spans]
        return [functools.partial(self._kernel, f, out, at, near, valid, subsets, (table, index), known)
                for at in spans]

    def _kernel(self, f, out, at, near, valid, subsets, table, known) -> None:
        """Minimal GDOP of the rows ``at`` (a slice or indices) into their
        places in ``out``."""
        m = self.n_points
        point = (np.arange(*at.indices(valid.size)) if isinstance(at, slice) else at) % m
        # Flat (candidate, point) indices into the component-major
        # direction cosines, and one contiguous (3, k, rows) gather, whose
        # (rows, k, 3) view the kernel reads without a copy.
        flat = np.multiply(near[:, at], m, dtype=np.intp)
        flat += point
        dc = np.take(self.dc_flat, flat, axis=1)
        values = None
        if f:
            values = np.empty((2, len(table[0]), dc.shape[2]))
            np.take(self.forced_values[:, :known], point, axis=2, out=values[:, :known])
        gdop = gdop_min_batched(dc.transpose(2, 1, 0), valid[at], subsets, table, values, known)
        if f:
            np.minimum(gdop, self.best_forced[point, f], out=gdop)
        out[at] = gdop

    def _score_group(self, sel: np.ndarray):
        """Everything but OF1 of G chromosomes with n sensors each, given
        as their (G, n) selected candidates: (OF2, d1, d2, d3), each (G,);
        their kernel rows as (k, G, m) candidates, nearest first, (G, m)
        valid counts and, with a forced table, (G, m) forced counts f',
        None below 4 sensors; and the diagnostic arrays, (m, G) per point
        and (J, G) per jammer."""
        problem = self.problem
        req = problem.requirements
        m = self.n_points
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
        of2 = _row_mean((req.required_range_km - achieved_range.T) ** 2)

        gather = None
        if n >= 4:
            # Below 4 sensors OF1 is inf everywhere.
            valid = np.minimum(vis_counts, k)
            fprime = None if self.best_forced is None else self._forced_first(sel, near, valid)
            gather = near.transpose(2, 1, 0), valid.T
            if fprime is not None:
                gather += (fprime.T,)

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
        n_jam = problem.jammers.shape[1]
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

    def _forced_first(self, sel, near, valid) -> np.ndarray:
        """Forced counts f' of a group's (m, G) rows: the forced sensors
        among a row's usable nearest, 0 where that is below 4 or the
        chromosome lacks a forced site. Rows with 4 <= f' < valid get their
        (m, G, k) ``near`` reordered forced first, stably, in place; the
        others keep rank order."""
        problem = self.problem
        position = np.arange(near.shape[2])
        forced = problem.forced_mask[near]
        forced &= position < valid[:, :, None]
        fprime = forced.sum(axis=2)
        fprime[(fprime < 4) | (problem.forced_mask[sel].sum(axis=1) < self.n_forced)] = 0
        mixed = np.nonzero((fprime > 0) & (fprime < valid))
        rows = near[mixed]
        forced = forced[mixed]
        # A row's f' forced usable sensors fill its first f' places and the
        # others follow, each in rank order: masks select row-major.
        lead = position < fprime[mixed][:, None]
        reordered = np.empty_like(rows)
        reordered[lead] = rows[forced]
        reordered[~lead] = rows[~forced]
        near[mixed] = reordered
        return fprime


def prefix_gdop(dc: np.ndarray, valid_counts: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """Minimal GDOP of each point over the subsets inside its first j
    rows, for j = 0..k, as (m, k + 1) (inf below 4), and the D and Q of
    every row triple, as (2, T, m). ``table`` is ``colex_subsets(k)``.
    Each subset and each triple is computed once: one kernel call per
    largest row j - 1 takes its subsets, a slice of the colex order, and
    the triples new at j, the earlier ones known."""
    subsets, (triples, index) = table
    m, k = dc.shape[:2]
    values = np.empty((2, len(triples), m))
    best = np.full((m, k + 1), np.inf)
    known = 0
    for j in range(4, k + 1):
        group = slice(math.comb(j - 1, 4), math.comb(j, 4))
        t = math.comb(j, 3)
        best[:, j] = gdop_min_batched(
            dc, valid_counts, subsets[group], (triples[:t], index[group]), values[:, :t], known
        )
        known = t
    # sqrt is monotone, so the minimum of the groups' roots is the root
    # of the minimum over their union.
    np.minimum.accumulate(best, axis=1, out=best)
    return best, values


def _run_jobs(jobs) -> None:
    for job in jobs:
        job()


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean of each row of a 2-D array. numpy reduces each contiguous row
    by the same pairwise sum as a 1-D ``np.mean``, so a row's mean does not
    depend on the rows scored with it."""
    return np.mean(np.ascontiguousarray(x), axis=1)

