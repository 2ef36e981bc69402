"""Post-hoc placement evaluation, distributions and front summaries."""

import numpy as np
import pytest

from adsbplace.analysis import (
    CoverageGrid,
    evaluate_placement,
    gdop_distribution,
    pareto_summary,
    select_row,
)
from adsbplace.evaluator import RawScores
from adsbplace.nsga2 import Chromosome, FrontMember, GaConfig, ParetoFront, evolve
from adsbplace.objectives import Normalization, weighted_fitness

from oracles import dominates

TOY_BOUNDS = Normalization({"of1": 10.0, "of2": 10.0, "of3": 1.0, "d1": 1.0, "d2": 1.0, "d3": 1.0})


def zero_chromosome(problem):
    return Chromosome(np.zeros(problem.n_candidates, dtype=bool), problem.forced_mask)


def coverage_with_gdop(values):
    n = len(values)
    z = np.zeros(n)
    return CoverageGrid(
        points=np.zeros((3, n)),
        k_visible=np.zeros(n, dtype=int),
        best_gdop=np.asarray(values, dtype=float),
        second_range_km=z,
    )


class TestEvaluatePlacement:
    def test_empty_selection_saturated(self, small_problem):
        scores, coverage, report = evaluate_placement(small_problem, zero_chromosome(small_problem))
        assert np.all(coverage.k_visible == 0)
        assert np.all(np.isinf(coverage.best_gdop))
        req = small_problem.requirements
        assert scores.of1 == pytest.approx((req.required_gdop - req.gdop_cap) ** 2)
        assert scores.penalty == 0.0
        assert report.affected_count.max() == 0
        # No sensors: OF1 and d1 saturate, d2 and d3 vanish.
        assert scores.normalized["of1"] == 1.0
        assert scores.of3 == pytest.approx(1 / 3)

    def test_matches_ga_internal_scores(self, small_problem):
        """The report path and the optimizer score the same chromosome identically."""
        config = GaConfig(population_size=8, generations=2, rng_seed=3, n_max=8,
                          gdop_subset_cap=6)
        front = evolve(small_problem, config)
        member = front.members[0]
        scores, _, _ = evaluate_placement(
            small_problem, member.chromosome, bounds=front.bounds, gdop_subset_cap=6
        )
        assert scores.of1 == member.raw.of1
        assert scores.of2 == member.raw.of2
        assert scores.of3_components == (member.raw.d1, member.raw.d2, member.raw.d3)
        assert scores.penalty == member.raw.penalty

    def test_idempotent(self, small_problem, rng):
        genes = rng.random(small_problem.n_candidates) < 0.3
        c = Chromosome(genes | small_problem.forced_mask, small_problem.forced_mask)
        s1, _, _ = evaluate_placement(small_problem, c)
        s2, _, _ = evaluate_placement(small_problem, c)
        assert s1.of1 == s2.of1 and s1.of2 == s2.of2 and s1.of3 == s2.of3

    def test_dimension_mismatch(self, small_problem):
        bad = Chromosome(np.zeros(3, dtype=bool), np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            evaluate_placement(small_problem, bad)

    def test_jammer_without_los_unaffected(self, small_problem):
        c = zero_chromosome(small_problem)
        _, _, report = evaluate_placement(small_problem, c)
        assert np.all(report.affected_count == 0)


class TestGdopDistribution:
    def test_all_infinite(self):
        dist = gdop_distribution(coverage_with_gdop([np.inf] * 4), [10, 60, 100])
        assert np.all(dist.fraction_above == 1.0)

    def test_all_below(self):
        dist = gdop_distribution(coverage_with_gdop([5.0] * 4), [60])
        assert dist.fraction_above[0] == 0.0

    def test_half_above(self):
        dist = gdop_distribution(coverage_with_gdop([10.0, 10.0, 80.0, 80.0]), [60])
        assert dist.fraction_above[0] == 0.5

    def test_monotone_in_threshold(self, rng):
        values = rng.uniform(0, 200, 50)
        dist = gdop_distribution(coverage_with_gdop(values), [5, 20, 60, 150])
        assert np.all(np.diff(dist.fraction_above) <= 0)

    def test_infinite_gdop_exceeds_threshold(self):
        dist = gdop_distribution(coverage_with_gdop([10.0, 70.0, np.inf]), [60.0])
        assert dist.fraction_above[0] == pytest.approx(2 / 3)


def toy_front():
    def member(bits, of1, of2, of3, d=(0.1, 0.2, 0.3)):
        genes = np.array(bits, dtype=bool)
        raw = RawScores(of1=of1, of2=of2, d1=d[0], d2=d[1], d3=d[2],
                        penalty=0.01, n_selected=int(genes.sum()))
        return FrontMember(
            chromosome=Chromosome(genes, np.zeros_like(genes)),
            raw=raw,
            objectives=np.array([of1, of2, of3]),
        )

    members = [
        member([1, 0, 0, 0], 1.0, 9.0, 0.5),
        member([0, 1, 1, 0], 5.0, 5.0, 0.2),
        member([1, 1, 1, 1], 9.0, 1.0, 0.9),
    ]
    return ParetoFront(members=members, seed=0, bounds=TOY_BOUNDS)


class TestParetoSummary:
    def test_row_count_and_ids(self):
        rows = pareto_summary(toy_front())
        assert [r["solution_id"] for r in rows] == [0, 1, 2]
        assert [r["n_sensors"] for r in rows] == [1, 2, 4]

    def test_rows_non_dominated(self):
        rows = pareto_summary(toy_front())
        for a in rows:
            for b in rows:
                if a is not b:
                    va = (a["of1"], a["of2"], a["of3"])
                    vb = (b["of1"], b["of2"], b["of3"])
                    assert not dominates(va, vb)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_rows_non_dominated_in_blended_columns(self, small_problem, seed):
        """The rows of pareto.csv blend to the members' objective vectors,
        bit for bit, so they are mutually non-dominated."""
        config = GaConfig(population_size=20, generations=30, rng_seed=seed, n_max=10,
                          gdop_subset_cap=6)
        front = evolve(small_problem, config)
        rows = pareto_summary(front)
        a = config.pareto_weight_a
        vecs = [[weighted_fitness(r[k], r["penalty"], a) for k in ("of1", "of2", "of3")]
                for r in rows]
        assert np.array(vecs).tobytes() == np.array([m.objectives for m in front.members]).tobytes()
        assert not any(dominates(q, v) for v in vecs for q in vecs)

    def test_of3_recomputed_under_bounds(self):
        rows = pareto_summary(toy_front(), of3_weights=(1.0, 0.0, 0.0))
        # d1 = 0.1 over a saturation value of 1, with weight 1.
        assert rows[0]["of3"] == pytest.approx(0.1)

    def test_empty_front_rejected(self):
        front = ParetoFront(members=[], seed=0, bounds=TOY_BOUNDS)
        with pytest.raises(ValueError):
            pareto_summary(front)


def selected(front, budget_cap=None, weights=(1 / 3, 1 / 3, 1 / 3)):
    """The solution id ``report`` picks from the front's rows, or None."""
    best = select_row(pareto_summary(front), budget_cap, weights)
    return None if best is None else best[2]


class TestSelectSolution:
    def test_single_objective_weights(self):
        assert selected(toy_front(), weights=(1.0, 0.0, 0.0)) == 0
        assert selected(toy_front(), weights=(0.0, 1.0, 0.0)) == 2

    def test_budget_filters(self):
        assert selected(toy_front(), budget_cap=2, weights=(0.0, 1.0, 0.0)) == 1

    def test_budget_infeasible(self):
        assert selected(toy_front(), budget_cap=0) is None

    def test_tie_breaks_to_fewer_sensors_then_id(self):
        front = toy_front()
        # Make scores identical: equal weights on a duplicated member pair.
        front.members[1].raw = front.members[0].raw
        front.members[1].objectives = front.members[0].objectives.copy()
        rows_weights = (1.0, 0.0, 0.0)
        assert selected(front, weights=rows_weights) == 0

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            selected(toy_front(), weights=(0.9, 0.9, 0.9))

    def test_selected_is_front_member(self):
        front = toy_front()
        sol = selected(front, weights=(0.2, 0.3, 0.5))
        assert 0 <= sol < len(front.members)
