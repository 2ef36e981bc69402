"""Genetic-algorithm machinery: dominance, sorting, operators, evolve."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adsbplace import nsga2
from adsbplace.nsga2 import (
    Chromosome,
    GaConfig,
    _dominance,
    _survivors,
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
from adsbplace.scenario import build_problem, clustered21_path, load_deployed_csv

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
    def entries(vectors, start):
        return {
            make_chromosome([int(b) for b in f"{start + i:08b}"]).key():
                (None, np.asarray(v, dtype=float))
            for i, v in enumerate(vectors)
        }

    def test_keeps_brute_force_non_dominated_set(self, rng):
        values = np.array([0.0, 1.0, 2.0, 3.0, math.inf])
        old = self.entries(rng.choice(values, (20, 3)), 0)
        new = self.entries(rng.choice(values, (30, 3)), 20)
        archive = {}
        _update_archive(archive, old)
        _update_archive(archive, new)
        pool = {**old, **new}
        expected = [
            key for key, (_, vec) in pool.items()
            if not any(dominates(other, vec) for _, other in pool.values())
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
    # Tournaments of 50 entrants from two individuals: in each of the 20
    # tournaments both enter, except with probability 2 ** -49.
    @staticmethod
    def winners(rank, crowding):
        rank = np.repeat(rank, 10)
        crowding = np.repeat(crowding, 10)
        return tournament_select(rank, crowding, np.random.default_rng(0), 50) // 10

    def test_rank_wins(self):
        assert np.all(self.winners([1, 0], [10.0, 0.0]) == 1)

    def test_crowding_breaks_rank_tie(self):
        assert np.all(self.winners([0, 0], [0.4, math.inf]) == 1)

    def test_index_breaks_full_tie(self):
        # With fully identical competitors present, determinism demands
        # the lowest index.
        winners = tournament_select(np.zeros(20, dtype=int), np.ones(20),
                                    np.random.default_rng(0), 20)
        rng = np.random.default_rng(0)
        entrants = rng.integers(0, 20, size=(20, 20))
        assert np.array_equal(winners, entrants.min(axis=1))

    def test_one_winner_per_individual_in_range(self, rng):
        rank = rng.integers(0, 3, 30)
        winners = tournament_select(rank, rng.random(30), rng, 2)
        assert winners.shape == (30,)
        assert np.all((0 <= winners) & (winners < 30))


def rows(bits):
    return np.array(bits, dtype=bool)


class TestOperators:
    def test_crossover_rate_zero_clones(self, rng):
        p1 = rows([[1, 0, 1, 0], [1, 1, 0, 0]])
        p2 = rows([[0, 1, 0, 1], [0, 0, 1, 1]])
        c1, c2 = crossover(p1, p2, 0.0, rng)
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)

    def test_crossover_bits_from_parents(self, rng):
        p1 = rng.random((8, 32)) < 0.5
        p2 = rng.random((8, 32)) < 0.5
        c1, c2 = crossover(p1, p2, 1.0, rng)
        for c in (c1, c2):
            assert np.all((c == p1) | (c == p2))
        # Each bit of a pair goes to one child and the other to the other.
        assert np.array_equal(c1 ^ c2, p1 ^ p2)

    def test_crossover_identical_parents(self, rng):
        p = rows([[1, 1, 0, 0], [0, 1, 0, 1]])
        c1, c2 = crossover(p, p, 1.0, rng)
        assert np.array_equal(c1, p) and np.array_equal(c2, p)

    def test_crossover_preserves_forced(self, rng):
        p1 = np.tile(rows([1, 0, 1, 0]), (10, 1))
        p2 = np.tile(rows([1, 1, 0, 1]), (10, 1))
        c1, c2 = crossover(p1, p2, 1.0, rng)
        assert c1[:, 0].all() and c2[:, 0].all()

    def test_mutate_rate_zero_identity(self, rng):
        genes = rows([[1, 0, 1, 0], [0, 1, 1, 0]])
        out = mutate(genes, np.zeros(4, dtype=bool), 0.0, rng)
        assert np.array_equal(out, genes)

    def test_mutate_rate_one_flips_all_free(self, rng):
        genes = rows([[1, 0, 1, 0], [1, 1, 1, 1]])
        out = mutate(genes, rows([1, 0, 0, 0]), 1.0, rng)
        assert out[:, 0].all()  # forced kept
        assert np.array_equal(out[:, 1:], ~genes[:, 1:])

    def test_mutate_respects_n_max(self, rng):
        out = mutate(np.zeros((30, 20), dtype=bool), np.zeros(20, dtype=bool), 0.9, rng,
                     n_max=5)
        assert np.all(out.sum(axis=1) <= 5)

    def test_forced_never_dropped_by_repair(self, rng):
        forced = rows([1] * 4 + [0] * 16)
        out = mutate(np.ones((10, 20), dtype=bool), forced, 0.5, rng, n_max=6)
        assert out[:, :4].all()
        assert np.all(out.sum(axis=1) <= 6)

    def test_rates_within_binomial_bounds(self):
        """Fixed seed: flip rate and parent-bit share stay within five
        standard deviations of their binomial means, and repair drops
        each droppable bit about equally often and no other bit."""
        rng = np.random.default_rng(2022)

        def within(count, trials, p):
            return abs(count - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))

        zeros = np.zeros((200, 100), dtype=bool)
        flips = mutate(zeros, zeros[0], 0.1, rng)
        assert within(flips.sum(), flips.size, 0.1)
        c1, c2 = crossover(~zeros, zeros, 1.0, rng)
        assert within(c1.sum(), c1.size, 0.5)
        assert np.array_equal(c2, ~c1)

        forced = rows([1] * 4 + [0] * 16)
        genes = np.ones((2000, 20), dtype=bool)
        genes[:, 4] = False  # not selected, so not droppable
        out = mutate(genes, forced, 0.0, rng, n_max=10)
        assert np.all(out.sum(axis=1) == 10)
        assert out[:, :4].all() and not out[:, 4].any()
        dropped = (genes & ~out).sum(axis=0)[5:]
        # Each row drops 9 of its 15 droppable bits.
        assert all(within(d, len(genes), 9 / 15) for d in dropped)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_offspring_step_properties(data):
    """Tournament, crossover and mutation as ``evolve`` chains them keep
    every forced bit and the sensor cap; with rate-1 crossover and no
    mutation every child bit comes from one of its two parents."""
    size = 2 * data.draw(st.integers(1, 12), label="pairs")
    n = data.draw(st.integers(1, 40), label="n")
    forced = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    n_max = data.draw(st.none() | st.integers(int(forced.sum()), n), label="n_max")
    cross_rate = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1), label="crossover")
    mut_rate = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1), label="mutation")
    k = data.draw(st.integers(1, size), label="tournament")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    genes = (rng.random((size, n)) < rng.random()) | forced
    rank = rng.integers(0, 3, size)
    crowding = rng.choice([0.0, 0.5, math.inf], size)

    winners = tournament_select(rank, crowding, rng, k)
    p1, p2 = genes[winners[0::2]], genes[winners[1::2]]
    c1, c2 = crossover(p1, p2, cross_rate, rng)
    children = mutate(np.concatenate([c1, c2]), forced, mut_rate, rng, n_max)
    assert children.shape == (size, n)
    assert children[:, forced].all()
    if n_max is not None:
        assert np.all(children.sum(axis=1) <= n_max)

    c1, c2 = crossover(p1, p2, 1.0, rng)
    parents = np.concatenate([p1, p1]), np.concatenate([p2, p2])
    children = mutate(np.concatenate([c1, c2]), forced, 0.0, rng)
    assert np.all((children == parents[0]) | (children == parents[1]))
    assert children[:, forced].all()


class TestSurvivors:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_and_crowding_match_recomputed(self, seed):
        """Survivors' ranks and crowding distances equal a fresh sort and
        crowding of the survivors, on populations with tied vectors."""
        rng = np.random.default_rng(seed)
        vecs = rng.integers(0, 4, (40, 3)).astype(float)
        keep, rank, crowding = _survivors(vecs, 20)
        assert len(set(keep.tolist())) == 20
        kept = vecs[keep]
        fronts = non_dominated_sort(kept)
        for r, front in enumerate(fronts):
            assert np.all(rank[front] == r)
            assert np.array_equal(crowding[front], crowding_distance(kept[front]))
        # Whole fronts of the merged sort come first, in rank order.
        merged = non_dominated_sort(vecs)
        whole = [i for front in merged[:len(fronts) - 1] for i in front]
        assert keep[:len(whole)].tolist() == whole
        # Then the overflowing front's most crowding-distant members,
        # lower index first on ties.
        last = merged[len(fronts) - 1]
        dist = crowding_distance(vecs[last])
        best = sorted(range(len(last)), key=lambda i: (-dist[i], last[i]))
        assert keep[len(whole):].tolist() == [last[i] for i in best[:20 - len(whole)]]


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

    def test_tournament_above_population_rejected(self):
        GaConfig(population_size=8, tournament_size=8)
        with pytest.raises(InvalidConfigError, match="tournament_size"):
            GaConfig(population_size=8, tournament_size=9)
        with pytest.raises(InvalidConfigError, match="tournament_size"):
            GaConfig(population_size=8, tournament_size=1_000_000_000)

    def test_bad_rates_rejected(self):
        with pytest.raises(InvalidConfigError):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(InvalidConfigError):
            GaConfig(mutation_rate=-0.1)

    def test_negative_seed_rejected(self):
        """A negative seed fails when the config is built, before ``evolve``
        hands it to numpy, and so does one set through ``replace``."""
        with pytest.raises(InvalidConfigError, match="rng_seed must be >= 0, got -1"):
            GaConfig(population_size=8, generations=1, rng_seed=-1)
        with pytest.raises(InvalidConfigError, match="rng_seed"):
            dataclasses.replace(GaConfig(), rng_seed=-5)
        assert GaConfig(rng_seed=0).rng_seed == 0


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

    @pytest.mark.parametrize("forced", [False, True])
    def test_archive_is_non_dominated_set_of_everything_evaluated(
            self, small_problem, area_bounds, monkeypatch, forced):
        """The final archive holds, key for key, the entries that no entry
        evaluated during the run dominates; with clustered21 forced too."""
        problem = small_problem
        if forced:
            problem = build_problem(
                bounds=area_bounds, lat_count=6, lon_count=6, candidate_count=25,
                requirements=small_problem.requirements, jammers=small_problem.jammers,
                deployed=load_deployed_csv(clustered21_path())[0],
            )
        evaluated = {}
        update_archive = nsga2._update_archive

        def collect(archive, entries):
            evaluated.update(entries)
            return update_archive(archive, entries)

        monkeypatch.setattr(nsga2, "_update_archive", collect)
        n_max = int(problem.forced_mask.sum()) + 8
        front = evolve(problem, GaConfig(population_size=12, generations=8, rng_seed=3,
                                         n_max=n_max, gdop_subset_cap=6))
        vecs = [vec for _, vec in evaluated.values()]
        expected = {key for key, (_, vec) in evaluated.items()
                    if not any(dominates(other, vec) for other in vecs)}
        assert len(evaluated) > len(expected) > 1
        assert {m.chromosome.key() for m in front.members} == expected

    def test_n_max_respected(self, small_problem):
        config = GaConfig(population_size=12, generations=6, rng_seed=1, n_max=8,
                          gdop_subset_cap=6)
        front = evolve(small_problem, config)
        assert all(m.chromosome.genes.sum() <= 8 for m in front.members)

    def test_n_max_below_forced_rejected(self, area_bounds):
        from adsbplace.objectives import ObjectiveRequirements
        from adsbplace.scenario import build_problem

        prob = build_problem(
            bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=4,
            requirements=ObjectiveRequirements(),
            deployed=np.array([[48.0, 49.0], [7.0, 8.0], [0.0, 0.0]]),
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
        """The batch's vectorized objective vectors equal the objective map
        and the scalar blend applied to each member's raw scores, bit for
        bit."""
        config = GaConfig(population_size=12, generations=4, rng_seed=3, n_max=12,
                          gdop_subset_cap=6, pareto_weight_a=0.3)
        weights = (0.2, 0.3, 0.5)
        front = evolve(small_problem, config, of3_weights=weights)
        a = config.pareto_weight_a
        for m in front.members:
            r = m.raw
            scores = front.bounds.scores(r, weights)
            expected = [weighted_fitness(v, r.penalty, a) for v in (r.of1, r.of2, scores.of3)]
            assert m.objectives.tolist() == expected
            assert scores.vectors(a).tolist() == expected

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, small_problem, threads):
        config = GaConfig(population_size=4, generations=1, rng_seed=4, gdop_subset_cap=6)
        with pytest.raises(ValueError, match="threads"):
            evolve(small_problem, config, threads=threads)
