"""Genetic-algorithm machinery: dominance, sorting, operators, evolve."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from adsbplace.nsga2 import (
    Chromosome,
    GaConfig,
    Individual,
    _dominance,
    _update_archive,
    crossover,
    crowding_distance,
    evolve,
    mutate,
    non_dominated_sort,
    tournament_select,
)
from adsbplace.evaluator import PlacementEvaluator
from adsbplace.objectives import InvalidConfigError, weighted_fitness

from oracles import dominates


def make_chromosome(bits, forced=None):
    genes = np.array(bits, dtype=bool)
    mask = np.zeros_like(genes) if forced is None else np.array(forced, dtype=bool)
    return Chromosome(genes, mask)


class TestDominates:
    def test_strict(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (1, 1, 1))

    def test_mutually_non_dominated(self):
        assert not dominates((1, 2), (2, 1))
        assert not dominates((2, 1), (1, 2))

    def test_equal_vectors(self):
        assert not dominates((1, 2), (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))


class TestDominanceMatrix:
    def test_matches_dominates_with_ties_inf_and_nan(self, rng):
        values = np.array([0.0, 1.0, 2.0, math.inf, -math.inf, math.nan])
        vecs = rng.choice(values, (40, 3))
        dom = _dominance(vecs)
        for p, q in itertools.product(range(len(vecs)), repeat=2):
            assert dom[p, q] == dominates(vecs[p], vecs[q])


class TestUpdateArchive:
    @staticmethod
    def individuals(vectors, start):
        return [
            Individual(chromosome=make_chromosome([int(b) for b in f"{start + i:08b}"]),
                       raw=None, objectives=np.asarray(v, dtype=float))
            for i, v in enumerate(vectors)
        ]

    def test_keeps_brute_force_non_dominated_set(self, rng):
        values = np.array([0.0, 1.0, 2.0, 3.0, math.inf])
        old = self.individuals(rng.choice(values, (20, 3)), 0)
        new = self.individuals(rng.choice(values, (30, 3)), 20)
        archive = {}
        _update_archive(archive, old)
        _update_archive(archive, new)
        pool = {ind.chromosome.key(): ind for ind in old + new}
        expected = [
            key for key, ind in pool.items()
            if not any(dominates(o.objectives, ind.objectives) for o in pool.values())
        ]
        assert list(archive) == expected
        assert all(archive[key] is pool[key] for key in expected)


class TestNonDominatedSort:
    def test_two_front_example(self):
        fronts = non_dominated_sort([(1, 2), (2, 1), (3, 3)])
        assert fronts == [[0, 1], [2]]

    def test_identical_vectors_single_front(self):
        fronts = non_dominated_sort([(1, 1)] * 5)
        assert fronts == [[0, 1, 2, 3, 4]]

    def test_chain_gives_singletons(self):
        fronts = non_dominated_sort([(i, i) for i in range(6)])
        assert fronts == [[i] for i in range(6)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            non_dominated_sort([])

    def test_rank_zero_iff_undominated(self, rng):
        vectors = [tuple(v) for v in rng.integers(0, 5, (30, 3))]
        fronts = non_dominated_sort(vectors)
        for i in range(len(vectors)):
            undominated = not any(
                dominates(vectors[j], vectors[i]) for j in range(len(vectors)) if j != i
            )
            assert (i in fronts[0]) == undominated


class TestCrowdingDistance:
    def test_pair_both_infinite(self):
        assert np.all(np.isinf(crowding_distance([(1, 2), (2, 1)])))

    def test_equally_spaced_line(self):
        d = crowding_distance([(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)])
        assert math.isinf(d[0]) and math.isinf(d[4])
        # Interior gap: (next - prev)/spread = 0.5 per objective.
        assert d[1] == d[2] == d[3] == pytest.approx(1.0)

    def test_duplicates_zero_gap(self):
        # A fully duplicated front has zero spread on every objective, so
        # interior members accumulate no contribution at all.
        d = crowding_distance([(0.5, 0.5)] * 4)
        assert math.isinf(d[0]) and math.isinf(d[3])
        assert d[1] == d[2] == 0.0


class TestTournament:
    @staticmethod
    def individual(rank, crowding):
        c = make_chromosome([True, False])
        return Individual(chromosome=c, raw=None, objectives=np.zeros(3),
                          rank=rank, crowding=crowding)

    def test_rank_wins(self):
        # Large k guarantees both candidates enter the tournament.
        pop = [self.individual(1, 10.0), self.individual(0, 0.0)]
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert tournament_select(pop, rng, 50) is pop[1]

    def test_crowding_breaks_rank_tie(self):
        pop = [self.individual(0, 0.4), self.individual(0, math.inf)]
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert tournament_select(pop, rng, 50) is pop[1]

    def test_index_breaks_full_tie(self):
        pop = [self.individual(0, 1.0), self.individual(0, 1.0)]
        rng = np.random.default_rng(0)
        # With both (fully identical) competitors present, determinism
        # demands the lower index.
        for _ in range(20):
            assert tournament_select(pop, rng, 50) is pop[0]


class TestOperators:
    def test_crossover_rate_zero_clones(self, rng):
        p1 = make_chromosome([1, 0, 1, 0])
        p2 = make_chromosome([0, 1, 0, 1])
        c1, c2 = crossover(p1, p2, 0.0, rng)
        assert np.array_equal(c1.genes, p1.genes)
        assert np.array_equal(c2.genes, p2.genes)

    def test_crossover_bits_from_parents(self, rng):
        p1 = make_chromosome(rng.random(32) < 0.5)
        p2 = make_chromosome(rng.random(32) < 0.5)
        c1, c2 = crossover(p1, p2, 1.0, rng)
        for c in (c1, c2):
            assert np.all((c.genes == p1.genes) | (c.genes == p2.genes))

    def test_crossover_identical_parents(self, rng):
        p = make_chromosome([1, 1, 0, 0])
        c1, c2 = crossover(p, p, 1.0, rng)
        assert np.array_equal(c1.genes, p.genes) and np.array_equal(c2.genes, p.genes)

    def test_crossover_preserves_forced(self, rng):
        forced = [1, 0, 0, 0]
        p1 = make_chromosome([1, 0, 1, 0], forced)
        p2 = make_chromosome([1, 1, 0, 1], forced)
        for _ in range(10):
            c1, c2 = crossover(p1, p2, 1.0, rng)
            assert c1.genes[0] and c2.genes[0]

    def test_crossover_mask_mismatch(self, rng):
        p1 = make_chromosome([1, 0], [1, 0])
        p2 = make_chromosome([0, 1], [0, 1])
        with pytest.raises(ValueError):
            crossover(p1, p2, 1.0, rng)

    def test_mutate_rate_zero_identity(self, rng):
        c = make_chromosome([1, 0, 1, 0])
        assert np.array_equal(mutate(c, 0.0, rng).genes, c.genes)

    def test_mutate_rate_one_flips_all_free(self, rng):
        c = make_chromosome([1, 0, 1, 0], [1, 0, 0, 0])
        out = mutate(c, 1.0, rng)
        assert out.genes[0]  # forced kept
        assert np.array_equal(out.genes[1:], ~c.genes[1:])

    def test_mutate_respects_n_max(self, rng):
        c = make_chromosome([0] * 20)
        for _ in range(30):
            out = mutate(c, 0.9, rng, n_max=5)
            assert out.popcount() <= 5

    def test_forced_never_dropped_by_repair(self, rng):
        forced = [1] * 4 + [0] * 16
        c = make_chromosome([1] * 20, forced)
        out = mutate(c, 0.5, rng, n_max=6)
        assert np.all(out.genes[:4])
        assert out.popcount() <= 6


class TestChromosome:
    def test_forced_must_be_selected(self):
        with pytest.raises(ValueError):
            make_chromosome([0, 1], [1, 0])

    def test_key_distinguishes(self):
        a = make_chromosome([1, 0, 1])
        b = make_chromosome([1, 1, 1])
        assert a.key() != b.key()
        assert a.key() == make_chromosome([1, 0, 1]).key()


class TestGaConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(InvalidConfigError):
            GaConfig(population_size=7)

    def test_bad_rates_rejected(self):
        with pytest.raises(InvalidConfigError):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(InvalidConfigError):
            GaConfig(mutation_rate=-0.1)


class TestEvolve:
    def test_archive_non_dominated_and_deterministic(self, small_problem):
        config = GaConfig(population_size=12, generations=6, rng_seed=5, n_max=10,
                          gdop_subset_cap=6)
        front1 = evolve(small_problem, config)
        front2 = evolve(small_problem, config)
        keys1 = [m.chromosome.key() for m in front1.members]
        keys2 = [m.chromosome.key() for m in front2.members]
        assert keys1 == keys2
        vecs = [m.objectives for m in front1.members]
        for a, b in itertools.permutations(vecs, 2):
            assert not dominates(a, b)

    def test_n_max_respected(self, small_problem):
        config = GaConfig(population_size=12, generations=6, rng_seed=1, n_max=8,
                          gdop_subset_cap=6)
        front = evolve(small_problem, config)
        assert all(m.chromosome.popcount() <= 8 for m in front.members)

    def test_n_max_below_forced_rejected(self, area_bounds):
        from adsbplace.objectives import ObjectiveRequirements
        from adsbplace.scenario import build_problem

        prob = build_problem(
            bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=4,
            requirements=ObjectiveRequirements(),
            deployed=[("a", 48.0, 7.0, 0.0), ("b", 49.0, 8.0, 0.0)],
        )
        with pytest.raises(InvalidConfigError):
            evolve(prob, GaConfig(population_size=4, generations=1, n_max=1))

    def test_progress_stream_shape(self, small_problem):
        records = []
        config = GaConfig(population_size=8, generations=3, rng_seed=2, n_max=8,
                          gdop_subset_cap=6)
        evolve(small_problem, config, progress=records.append)
        assert [r["gen"] for r in records] == [0, 1, 2, 3]
        for r in records:
            assert r["front_size"] == len(r["front"])
            assert len(r["best"]) == 3

    def test_threads_equivalent(self, small_problem):
        config = GaConfig(population_size=8, generations=3, rng_seed=4, n_max=8,
                          gdop_subset_cap=6)
        serial = evolve(small_problem, config, threads=1)
        for threads in (2, 3, 4):
            parallel = evolve(small_problem, config, threads=threads)
            assert [m.chromosome.key() for m in serial.members] == [
                m.chromosome.key() for m in parallel.members
            ]
            for a, b in zip(serial.members, parallel.members):
                assert a.raw == b.raw
                assert np.array_equal(a.objectives, b.objectives)

    @pytest.mark.parametrize("weights", [(1, 1, 1), (0.5, 0.5), (-0.5, 0.5, 1.0)])
    def test_bad_of3_weights_rejected_before_scoring(self, small_problem, weights):
        config = GaConfig(population_size=4, generations=1, rng_seed=4, gdop_subset_cap=6)
        with mock.patch.object(PlacementEvaluator, "evaluate") as scored:
            with pytest.raises(InvalidConfigError, match="of3 weights"):
                evolve(small_problem, config, of3_weights=weights)
        scored.assert_not_called()

    def test_objective_vectors_match_scalar_formulas(self, small_problem):
        """The batch's vectorized objective vectors equal the scalar
        formulas applied to each member's raw scores, bit for bit."""
        config = GaConfig(population_size=12, generations=4, rng_seed=3, n_max=12,
                          gdop_subset_cap=6, pareto_weight_a=0.3)
        weights = (0.2, 0.3, 0.5)
        front = evolve(small_problem, config, of3_weights=weights)
        a = config.pareto_weight_a
        for m in front.members:
            r = m.raw
            of3 = front.bounds.of3(r.d1, r.d2, r.d3, weights)
            expected = [weighted_fitness(v, r.penalty, a) for v in (r.of1, r.of2, of3)]
            assert m.objectives.tolist() == expected

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, small_problem, threads):
        config = GaConfig(population_size=4, generations=1, rng_seed=4, gdop_subset_cap=6)
        with pytest.raises(ValueError, match="threads"):
            evolve(small_problem, config, threads=threads)
