"""Vectorized evaluator vs the per-point reference objective functions."""

import itertools

import numpy as np
import pytest

from adsbplace.evaluator import PlacementEvaluator
from adsbplace.geo import GeodeticPosition
from adsbplace.objectives import knapsack_penalty

from oracles import (
    geodetic_to_ecef,
    of1_gdop_msd,
    of2_range_msd,
    of3_direction1_spacing,
    of3_direction2_jammer_distance,
    of3_direction3_sensors_in_range,
)


def reference_scores(problem, genes, cap):
    """Score a chromosome through the scalar objective implementations."""
    sel = np.flatnonzero(genes)
    geos = [
        GeodeticPosition(
            float(problem.cand_lat[i]), float(problem.cand_lon[i]), float(problem.cand_alt[i])
        )
        for i in sel
    ]
    ecefs = [geodetic_to_ecef(g) for g in geos]
    req = problem.requirements
    of1 = of1_gdop_msd(problem.grid, geos, ecefs, req, cap)
    of2 = of2_range_msd(problem.grid, geos, ecefs, req, problem.range_cap_km)
    d1 = of3_direction1_spacing(ecefs, req) if len(ecefs) >= 2 else None
    d2 = of3_direction2_jammer_distance(geos, ecefs, problem.jammers, req)
    d3 = of3_direction3_sensors_in_range(geos, ecefs, problem.jammers, req)
    return of1, of2, d1, d2, d3


class TestEvaluatorAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_chromosomes_match(self, small_problem, seed):
        rng = np.random.default_rng(seed)
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=8)
        genes = np.zeros(small_problem.n_candidates, dtype=bool)
        genes[rng.choice(small_problem.n_candidates, 7, replace=False)] = True
        raw = evaluator.evaluate(genes)
        of1, of2, d1, d2, d3 = reference_scores(small_problem, genes, 8)
        assert raw.of1 == pytest.approx(of1, rel=1e-9)
        assert raw.of2 == pytest.approx(of2, rel=1e-9)
        assert raw.d1 == pytest.approx(d1, rel=1e-9)
        assert raw.d2 == pytest.approx(d2, rel=1e-9)
        assert raw.d3 == pytest.approx(d3, rel=1e-9)
        assert raw.penalty == knapsack_penalty(7, small_problem.n_candidates)
        assert raw.n_selected == 7

    def test_empty_selection_saturates(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        raw = evaluator.evaluate(np.zeros(small_problem.n_candidates, dtype=bool))
        req = small_problem.requirements
        grid = small_problem.grid
        assert raw.of1 == pytest.approx(
            float(np.mean((grid.required_gdop - req.gdop_cap) ** 2))
        )
        assert raw.of2 == pytest.approx(
            float(np.mean((grid.required_range_km - small_problem.range_cap_km) ** 2))
        )
        assert raw.d1 == req.min_sensor_spacing_km**2
        assert raw.d2 == 0.0 and raw.d3 == 0.0
        assert raw.penalty == 0.0

    def test_single_sensor_spacing_convention(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        genes = np.zeros(small_problem.n_candidates, dtype=bool)
        genes[0] = True
        raw = evaluator.evaluate(genes)
        assert raw.d1 == small_problem.requirements.min_sensor_spacing_km**2

    def test_diagnostics_consistent(self, small_problem):
        rng = np.random.default_rng(7)
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=8)
        genes = np.zeros(small_problem.n_candidates, dtype=bool)
        genes[rng.choice(small_problem.n_candidates, 9, replace=False)] = True
        raw, diag = evaluator.evaluate(genes, diagnostics=True)
        m = len(small_problem.grid)
        assert diag.k_visible.shape == (m,)
        # Finite best GDOP requires at least 4 visible sensors.
        assert np.all(diag.k_visible[np.isfinite(diag.best_gdop)] >= 4)
        # Fewer than 2 visible sensors leaves the range undefined.
        assert np.all(np.isinf(diag.second_range_km[diag.k_visible < 2]))
        assert diag.affected_per_jammer.shape == (len(small_problem.jammers),)
        assert np.all(diag.affected_per_jammer <= int(genes.sum()))

    def test_wrong_length_rejected(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        with pytest.raises(ValueError):
            evaluator.evaluate(np.zeros(3, dtype=bool))

    def test_cap_below_four_rejected(self, small_problem):
        with pytest.raises(ValueError):
            PlacementEvaluator(small_problem, gdop_subset_cap=3)

    @pytest.mark.parametrize("cap", [4, 9, 14, 40])
    def test_subset_rows_below_k_are_combinations(self, small_problem, cap):
        """The evaluator holds combinations(range(k), 4), row for row, for
        every sensor count k the cap allows, and no table below k = 4."""
        tables = PlacementEvaluator(small_problem, gdop_subset_cap=cap).tables
        k_max = min(cap, small_problem.n_candidates)
        assert sorted(tables) == list(range(4, k_max + 1))
        for k, (subsets, _) in tables.items():
            expected = [list(c) for c in itertools.combinations(range(k), 4)]
            assert subsets.tolist() == expected

    def test_deterministic(self, small_problem):
        rng = np.random.default_rng(11)
        evaluator = PlacementEvaluator(small_problem)
        genes = rng.random(small_problem.n_candidates) < 0.3
        a = evaluator.evaluate(genes)
        b = evaluator.evaluate(genes)
        assert a == b
