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
    weighted_fitness,
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

    def popcount(self) -> int:
        return int(self.genes.sum())


@dataclass
class Individual:
    chromosome: Chromosome
    raw: RawScores
    objectives: np.ndarray  # 3 minimized values used for dominance
    rank: int = -1
    crowding: float = 0.0


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
        if self.tournament_size < 1:
            raise InvalidConfigError("tournament_size must be >= 1")
        if self.gdop_subset_cap < 4:
            raise InvalidConfigError("gdop_subset_cap must be >= 4")


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
    objective and better in one. NaN compares neither better nor worse."""
    n = len(vecs)
    gt = np.zeros((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    # One (n, n) comparison per objective, not one (n, n, d) tensor.
    for col in vecs.T:
        gt |= col[:, None] > col[None, :]
        lt |= col[:, None] < col[None, :]
    return lt & ~gt


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


def tournament_select(population: list[Individual], rng: np.random.Generator, k: int = 2) -> Individual:
    """Binary (or k-ary) tournament: lower rank, then higher crowding,
    then lower index for determinism."""
    idx = rng.integers(0, len(population), size=k)
    best = None
    for i in idx:
        i = int(i)
        cand = (population[i].rank, -population[i].crowding, i)
        if best is None or cand < best:
            best = cand
    return population[best[2]]


def crossover(
    p1: Chromosome, p2: Chromosome, rate: float, rng: np.random.Generator
) -> tuple[Chromosome, Chromosome]:
    """Uniform crossover with probability ``rate``, else clones."""
    if p1.genes.shape != p2.genes.shape or not np.array_equal(p1.forced_mask, p2.forced_mask):
        raise ValueError("parents must share length and forced mask")
    if rng.random() >= rate:
        return Chromosome(p1.genes.copy(), p1.forced_mask), Chromosome(p2.genes.copy(), p2.forced_mask)
    take_first = rng.random(p1.genes.size) < 0.5
    c1 = np.where(take_first, p1.genes, p2.genes)
    c2 = np.where(take_first, p2.genes, p1.genes)
    forced = p1.forced_mask
    c1 |= forced
    c2 |= forced
    return Chromosome(c1, forced), Chromosome(c2, forced)


def mutate(
    c: Chromosome,
    per_bit_rate: float,
    rng: np.random.Generator,
    n_max: int | None = None,
) -> Chromosome:
    """Independent per-bit flips on non-forced bits, with cap repair."""
    if not 0.0 <= per_bit_rate <= 1.0:
        raise ValueError("mutation rate must lie in [0, 1]")
    flips = (rng.random(c.genes.size) < per_bit_rate) & ~c.forced_mask
    genes = c.genes ^ flips
    genes |= c.forced_mask
    if n_max is not None:
        excess = int(genes.sum()) - n_max
        if excess > 0:
            droppable = np.flatnonzero(genes & ~c.forced_mask)
            drop = rng.choice(droppable, size=excess, replace=False)
            genes[drop] = False
    return Chromosome(genes, c.forced_mask)


class _Evaluation:
    """Shared evaluation cache.

    Each chromosome is scored once. Its objective vector is a pure
    function of its raw scores under a fixed normalization, so it never
    changes afterwards and the archive stays monotone across generations.
    A batch's new chromosomes go to the evaluator in one call or, with
    ``threads > 1``, as that many interleaved sub-batches on a pool that
    lives until ``close``.
    """

    def __init__(self, evaluator: PlacementEvaluator, config: GaConfig, of3_weights,
                 bounds: Normalization, threads: int = 1):
        self.evaluator = evaluator
        self.config = config
        self.of3_weights = of3_weight_vector(of3_weights)
        self.bounds = bounds
        self.threads = threads
        self.pool = None
        if threads > 1:
            # Imported only here: single-threaded runs skip its 0.6 MiB.
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(max_workers=threads)
        self.cache: dict[bytes, tuple[RawScores, np.ndarray]] = {}

    def evaluate_batch(self, chromosomes: list[Chromosome]) -> list[Individual]:
        todo: dict[bytes, Chromosome] = {}
        for chrom in chromosomes:
            key = chrom.key()
            if key not in self.cache and key not in todo:
                todo[key] = chrom
        keys = list(todo)
        if keys:
            genes = np.array([todo[key].genes for key in keys])
            parts = min(self.threads, len(keys))
            if parts > 1:
                raws = [None] * len(keys)
                subs = [genes[i::parts] for i in range(parts)]
                for i, part in enumerate(self.pool.map(self.evaluator.evaluate, subs)):
                    raws[i::parts] = part
            else:
                raws = self.evaluator.evaluate(genes)
            # The batch's (B, 3) objective vectors, by the same elementwise
            # formulas the reports apply to one chromosome.
            of1, of2, d1, d2, d3, penalty = np.array(
                [(r.of1, r.of2, r.d1, r.d2, r.d3, r.penalty) for r in raws]
            ).T
            of3 = self.bounds.of3(d1, d2, d3, self.of3_weights)
            vecs = weighted_fitness(
                np.stack([of1, of2, of3], axis=1), penalty[:, None], self.config.pareto_weight_a
            )
            self.cache.update(zip(keys, zip(raws, vecs)))
        out = []
        for chrom in chromosomes:
            raw, vec = self.cache[chrom.key()]
            out.append(Individual(chromosome=chrom, raw=raw, objectives=vec.copy()))
        return out

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def _assign_ranks(population: list[Individual]) -> None:
    fronts = non_dominated_sort([ind.objectives for ind in population])
    for rank, front in enumerate(fronts):
        dists = crowding_distance([population[i].objectives for i in front])
        for i, d in zip(front, dists):
            population[i].rank = rank
            population[i].crowding = float(d)


def _update_archive(archive: dict[bytes, Individual], population: list[Individual]) -> None:
    for ind in population:
        archive.setdefault(ind.chromosome.key(), ind)
    items = list(archive.items())
    dominated = _dominance(np.array([ind.objectives for _, ind in items])).any(axis=0)
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
    rng = np.random.default_rng(config.rng_seed)
    evaluator = PlacementEvaluator(problem, gdop_subset_cap=config.gdop_subset_cap)
    bounds = saturation_normalization(problem.requirements, problem.range_cap_km,
                                      n_max if n_max is not None else n)

    high = min(n_max if n_max is not None else n, n)
    chroms = []
    non_forced = np.flatnonzero(~forced)
    for _ in range(config.population_size):
        total = int(rng.integers(forced_count, high + 1))
        genes = forced.copy()
        extra = total - forced_count
        if extra > 0:
            genes[rng.choice(non_forced, size=extra, replace=False)] = True
        chroms.append(Chromosome(genes, forced))

    evaluation = _Evaluation(evaluator, config, of3_weights, bounds, threads=threads)
    try:
        population = evaluation.evaluate_batch(chroms)

        archive: dict[bytes, Individual] = {}
        _update_archive(archive, population)
        _emit(progress, 0, archive)

        for gen in range(1, config.generations + 1):
            _assign_ranks(population)
            offspring: list[Chromosome] = []
            while len(offspring) < config.population_size:
                p1 = tournament_select(population, rng, config.tournament_size)
                p2 = tournament_select(population, rng, config.tournament_size)
                c1, c2 = crossover(p1.chromosome, p2.chromosome, config.crossover_rate, rng)
                offspring.append(mutate(c1, mutation_rate, rng, n_max))
                if len(offspring) < config.population_size:
                    offspring.append(mutate(c2, mutation_rate, rng, n_max))
            children = evaluation.evaluate_batch(offspring)
            merged = population + children
            fronts = non_dominated_sort([ind.objectives for ind in merged])
            nxt: list[Individual] = []
            for front in fronts:
                if len(nxt) + len(front) <= config.population_size:
                    nxt.extend(merged[i] for i in front)
                else:
                    dists = crowding_distance([merged[i].objectives for i in front])
                    order = sorted(
                        range(len(front)), key=lambda i: (-dists[i], front[i])
                    )
                    room = config.population_size - len(nxt)
                    nxt.extend(merged[front[i]] for i in order[:room])
                    break
            population = nxt
            _update_archive(archive, children)
            _emit(progress, gen, archive)
    finally:
        evaluation.close()

    members = [
        FrontMember(ind.chromosome, ind.raw, ind.objectives.copy())
        for ind in sorted(archive.values(), key=lambda i: i.chromosome.key())
    ]
    return ParetoFront(members=members, seed=config.rng_seed, bounds=bounds)


def _emit(progress, gen: int, archive: dict[bytes, Individual]) -> None:
    if progress is None:
        return
    vectors = sorted(
        [ind.objectives.tolist() for ind in archive.values()]
    )
    best = [min(v[i] for v in vectors) for i in range(3)] if vectors else []
    progress({"gen": gen, "front_size": len(vectors), "best": best, "front": vectors})
