"""Elitist non-dominated sorting genetic algorithm over binary
site-selection chromosomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evaluator import PlacementEvaluator, RawScores
from .objectives import (
    InvalidConfigError,
    Normalization,
    of3_weight_vector,
    saturation_normalization,
)
from .scenario import PlacementProblem


@dataclass(frozen=True)
class Chromosome:
    """Binary selection vector over candidate sites."""

    genes: np.ndarray
    forced_mask: np.ndarray

    def __post_init__(self):
        genes = np.asarray(self.genes, dtype=bool)
        forced = np.asarray(self.forced_mask, dtype=bool)
        object.__setattr__(self, "genes", genes)
        object.__setattr__(self, "forced_mask", forced)
        if genes.shape != forced.shape:
            raise ValueError("genes and forced mask lengths differ")
        if not np.all(genes[forced]):
            raise ValueError("forced sites must always be selected")

    def key(self) -> bytes:
        return np.packbits(self.genes).tobytes()


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # None: 1 / chromosome length
    tournament_size: int = 2
    rng_seed: int = 0
    n_max: int | None = None
    pareto_weight_a: float = 0.1
    gdop_subset_cap: int = 12

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise InvalidConfigError("population_size must be even and >= 4")
        if self.generations < 0:
            raise InvalidConfigError("generations must be >= 0")
        for name in ("crossover_rate", "pareto_weight_a"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidConfigError(f"{name} must lie in [0, 1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise InvalidConfigError("mutation_rate must lie in [0, 1]")
        if not 1 <= self.tournament_size <= self.population_size:
            raise InvalidConfigError("tournament_size must lie in [1, population_size]")
        if self.gdop_subset_cap < 4:
            raise InvalidConfigError("gdop_subset_cap must be >= 4")
        if self.n_max is not None and self.n_max < 0:
            raise InvalidConfigError("n_max must be >= 0")


@dataclass
class FrontMember:
    chromosome: Chromosome
    raw: RawScores
    objectives: np.ndarray


@dataclass
class ParetoFront:
    """Archive of non-dominated solutions plus run metadata."""

    members: list[FrontMember]
    seed: int
    bounds: Normalization


def _dominance(vecs: np.ndarray) -> np.ndarray:
    """Boolean matrix whose entry ``[p, q]`` is true when ``vecs[p]``
    Pareto-dominates ``vecs[q]`` under minimization: no worse in every
    objective and better in one. NaN compares neither better nor worse.

    ``worse[p, q]`` is true when ``vecs[p]`` is worse than ``vecs[q]`` in
    some objective, so ``worse.T[p, q]`` is true when it is better in
    some: ``q > p`` is ``p < q``, and with a NaN both are false. One
    comparison per objective gives both relations.
    """
    n = len(vecs)
    worse = np.zeros((n, n), dtype=bool)
    # One (n, n) comparison per objective, not one (n, n, d) tensor.
    for col in vecs.T:
        worse |= np.greater.outer(col, col)
    return ~worse & worse.T


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> list[list[int]]:
    """Partition indices into successive non-dominated fronts."""
    if len(objectives) == 0:
        raise ValueError("empty population")
    dom = _dominance(np.asarray(objectives, dtype=float))
    # Unplaced dominators of each index; placed indices are marked -1.
    count = dom.sum(axis=0)
    front = np.flatnonzero(count == 0)
    fronts = []
    while True:
        fronts.append(front.tolist())
        count[front] = -1
        count -= dom[front].sum(axis=0)
        front = np.flatnonzero(count == 0)
        if not front.size:
            return fronts


def crowding_distance(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """NSGA-II crowding distance within one front."""
    vecs = np.asarray(objectives, dtype=float)
    n = vecs.shape[0]
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = math.inf
        return dist
    for m in range(vecs.shape[1]):
        order = np.argsort(vecs[:, m], kind="stable")
        lo, hi = vecs[order[0], m], vecs[order[-1], m]
        dist[order[0]] = dist[order[-1]] = math.inf
        spread = hi - lo
        if spread <= 0 or not math.isfinite(spread):
            continue
        # A finite spread means finite values, so boundary members stay inf.
        dist[order[1:-1]] += (vecs[order[2:], m] - vecs[order[:-2], m]) / spread
    return dist


def _lowest(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mask of the ``counts[i]`` lowest keys of each row ``i``."""
    mask = np.empty(keys.shape, dtype=bool)
    taken = np.arange(keys.shape[1]) < counts[:, None]
    np.put_along_axis(mask, np.argsort(keys, axis=1), taken, axis=1)
    return mask


def tournament_select(rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator,
                      k: int = 2) -> np.ndarray:
    """Indices of the winners of ``len(rank)`` k-ary tournaments: lower
    rank, then higher crowding, then lower index for determinism."""
    n = len(rank)
    # lexsort is stable, so a full tie keeps the lower index first.
    order = np.lexsort((-crowding, rank))
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    return order[place[rng.integers(0, n, size=(n, k))].min(axis=1)]


def crossover(p1: np.ndarray, p2: np.ndarray, rate: float,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover of the parent pairs ``(p1[i], p2[i])``; each
    pair is cloned instead with probability ``1 - rate``."""
    take_first = rng.random(p1.shape) < 0.5
    take_first |= (rng.random(len(p1)) >= rate)[:, None]
    return np.where(take_first, p1, p2), np.where(take_first, p2, p1)


def mutate(genes: np.ndarray, forced: np.ndarray, per_bit_rate: float,
           rng: np.random.Generator, n_max: int | None = None) -> np.ndarray:
    """Independent per-bit flips on non-forced bits; a row above
    ``n_max`` then drops that many of its non-forced bits at random."""
    out = genes ^ (rng.random(genes.shape) < per_bit_rate)
    out |= forced
    if n_max is not None:
        excess = out.sum(axis=1) - n_max
        rows = np.flatnonzero(excess > 0)
        if rows.size:
            keys = np.where(out[rows] & ~forced, rng.random((rows.size, out.shape[1])), np.inf)
            out[rows] &= ~_lowest(keys, excess[rows])
    return out


# A cached evaluation: (its batch's columnar raw scores, its index there)
# and its objective vector.
_Entry = tuple[tuple[RawScores, int], np.ndarray]


class _Evaluation:
    """Shared evaluation cache.

    Each gene row is scored once and cached under its packed bits. Its
    objective vector comes from its raw scores through
    ``Normalization.scores``, the map the reports use, under a fixed
    normalization, so it never changes afterwards and the archive stays
    monotone across generations. A batch's new rows go to the evaluator
    in one call.
    """

    def __init__(self, evaluator: PlacementEvaluator, config: GaConfig, of3_weights,
                 bounds: Normalization):
        self.evaluator = evaluator
        self.config = config
        self.of3_weights = of3_weight_vector(of3_weights)
        self.bounds = bounds
        self.cache: dict[bytes, _Entry] = {}

    def evaluate_batch(self, batch: np.ndarray) -> tuple[list[bytes], np.ndarray]:
        """Keys and (B, 3) objective vectors of a (B, N) gene batch."""
        keys = [row.tobytes() for row in np.packbits(batch, axis=1)]
        todo = {key: i for i, key in enumerate(keys) if key not in self.cache}
        if todo:
            raws = self.evaluator.evaluate(batch[list(todo.values())])
            vecs = self.bounds.scores(raws, self.of3_weights).vectors(self.config.pareto_weight_a)
            self.cache.update((key, ((raws, i), vec)) for i, (key, vec) in enumerate(zip(todo, vecs)))
        return keys, np.array([self.cache[key][1] for key in keys])


def _survivors(vecs: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the ``size`` rows kept: whole fronts in rank order, then
    the members of the overflowing front with the highest crowding (lower
    index on ties). Also their ranks and crowding distances, the latter
    computed within each front of the survivors."""
    keep, ranks, crowds = [], [], []
    room = size
    for rank, front in enumerate(non_dominated_sort(vecs)):
        front = np.asarray(front)
        if len(front) > room:
            dist = crowding_distance(vecs[front])
            front = front[np.lexsort((front, -dist))[:room]]
        keep.append(front)
        ranks.append(np.full(len(front), rank))
        crowds.append(crowding_distance(vecs[front]))
        room -= len(front)
        if not room:
            break
    return np.concatenate(keep), np.concatenate(ranks), np.concatenate(crowds)


def _update_archive(archive: dict[bytes, _Entry], entries: dict[bytes, _Entry]) -> None:
    """Add the keyed entries and keep the archive's non-dominated ones."""
    archive.update(entries)
    items = list(archive.items())
    dominated = _dominance(np.array([vec for _, (_, vec) in items])).any(axis=0)
    archive.clear()
    archive.update(item for item, d in zip(items, dominated) if not d)


def evolve(
    problem: PlacementProblem,
    config: GaConfig,
    of3_weights: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
    progress: Callable[[dict], None] | None = None,
    threads: int = 1,
) -> ParetoFront:
    """Run the elitist generational loop and return the final archive."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n = problem.n_candidates
    forced = problem.forced_mask
    forced_count = int(forced.sum())
    n_max = config.n_max
    if n_max is not None and n_max < forced_count:
        raise InvalidConfigError("n_max is below the number of forced sensors")
    mutation_rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / n
    size = config.population_size
    rng = np.random.default_rng(config.rng_seed)
    bounds = saturation_normalization(problem.requirements, problem.range_cap_km,
                                      n_max if n_max is not None else n)

    # Each initial row: a uniform sensor count, then that many random
    # non-forced sites on top of the forced ones.
    high = min(n_max if n_max is not None else n, n)
    extra = rng.integers(forced_count, high + 1, size=size) - forced_count
    children = forced | _lowest(np.where(forced, np.inf, rng.random((size, n))), extra)
    genes, vecs = np.empty((0, n), dtype=bool), np.empty((0, 3))
    archive: dict[bytes, _Entry] = {}
    # The evaluator's kernel pool, with threads > 1, lasts the whole run.
    evaluator = PlacementEvaluator(problem, gdop_subset_cap=config.gdop_subset_cap, threads=threads)
    evaluation = _Evaluation(evaluator, config, of3_weights, bounds)
    try:
        for gen in range(config.generations + 1):
            if gen:
                winners = tournament_select(rank, crowding, rng, config.tournament_size)
                c1, c2 = crossover(genes[winners[0::2]], genes[winners[1::2]],
                                   config.crossover_rate, rng)
                children = mutate(np.concatenate([c1, c2]), forced, mutation_rate, rng, n_max)
            if not children[:, forced].all():
                raise ValueError("forced sites must always be selected")
            keys, child_vecs = evaluation.evaluate_batch(children)
            vecs = np.concatenate([vecs, child_vecs])
            keep, rank, crowding = _survivors(vecs, size)
            genes, vecs = np.concatenate([genes, children])[keep], vecs[keep]
            _update_archive(archive, {key: evaluation.cache[key] for key in keys})
            _emit(progress, gen, archive)
    finally:
        evaluator.close()

    members = []
    for key, ((raws, i), vec) in sorted(archive.items()):
        genes = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=n).astype(bool)
        members.append(FrontMember(Chromosome(genes, forced), raws.row(i), vec.copy()))
    return ParetoFront(members=members, seed=config.rng_seed, bounds=bounds)


def _emit(progress, gen: int, archive: dict[bytes, _Entry]) -> None:
    if progress is None:
        return
    vectors = sorted(vec.tolist() for _, vec in archive.values())
    best = [min(v[i] for v in vectors) for i in range(3)] if vectors else []
    progress({"gen": gen, "front_size": len(vectors), "best": best, "front": vectors})
