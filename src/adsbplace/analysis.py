"""Post-hoc evaluation of placements: coverage grids, GDOP threshold
distributions, jammer-impact reports and Pareto-front summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluator import CoverageGrid, JamReport, PlacementEvaluator
from .nsga2 import Chromosome, ParetoFront
from .objectives import Normalization, ObjectiveScores, of3_weight_vector, saturation_normalization
from .scenario import PlacementProblem


@dataclass
class GdopDistribution:
    thresholds: np.ndarray
    fraction_above: np.ndarray


def evaluate_placement(
    problem: PlacementProblem,
    chromosome: Chromosome,
    of3_weights: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
    bounds: Normalization | None = None,
    gdop_subset_cap: int = 12,
) -> tuple[ObjectiveScores, CoverageGrid, JamReport]:
    """Score a placement and derive its diagnostic grids.

    Uses the same evaluator and objective map as the optimizer, so the
    scores equal the GA-internal fitness for the same chromosome.
    ``bounds`` supplies the run's normalization; without it the sensor
    cap is the candidate count.
    """
    if bounds is None:
        bounds = saturation_normalization(problem.requirements, problem.range_cap_km,
                                          problem.n_candidates)
    evaluator = PlacementEvaluator(problem, gdop_subset_cap=gdop_subset_cap)
    raw, coverage, report = evaluator.evaluate(chromosome.genes, diagnostics=True)
    return bounds.scores(raw, of3_weights), coverage, report


def gdop_distribution(coverage: CoverageGrid, thresholds: Sequence[float]) -> GdopDistribution:
    """Fraction of grid points whose best GDOP exceeds each threshold.

    Points with unevaluable (infinite) GDOP exceed every threshold.
    """
    t = np.asarray(sorted(thresholds), dtype=float)
    gd = coverage.best_gdop
    fractions = np.array([float(np.mean(gd > thr)) for thr in t])
    return GdopDistribution(thresholds=t, fraction_above=fractions)


def pareto_summary(front: ParetoFront, of3_weights: Sequence[float] = (1 / 3, 1 / 3, 1 / 3)) -> list[dict]:
    """One row per archived solution with raw and normalized scores.

    OF3 and the normalized columns come from ``Normalization.scores`` under
    the run's normalization, the map the search used: with the run's OF3
    weights, each row's OF1, OF2 and OF3 blended with its penalty are the
    member's objective vector, so the rows are mutually non-dominated.
    """
    if not front.members:
        raise ValueError("empty pareto front")
    rows = []
    for sol_id, member in enumerate(front.members):
        raw = member.raw
        scores = front.bounds.scores(raw, of3_weights)
        rows.append(
            {
                "solution_id": sol_id,
                "n_sensors": raw.n_selected,
                "n_forced": int(member.chromosome.forced_mask.sum()),
                "of1": raw.of1,
                "of2": raw.of2,
                "of3": scores.of3,
                **{f"{key}_norm": value for key, value in scores.normalized.items()},
                "d1": raw.d1,
                "d2": raw.d2,
                "d3": raw.d3,
                "penalty": raw.penalty,
            }
        )
    return rows


def select_row(
    rows: Sequence[dict],
    budget_cap: int | None = None,
    weights: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
) -> tuple | None:
    """``(score, n_sensors, solution_id)`` of the ``pareto_summary`` row
    minimizing the weighted normalized score, or None if no row fits.

    Only rows within the sensor budget qualify; ties break toward fewer
    sensors, then the lower solution id.
    """
    w = of3_weight_vector(weights)
    return min(
        (
            (w[0] * row["of1_norm"] + w[1] * row["of2_norm"] + w[2] * row["of3_norm"],
             row["n_sensors"], row["solution_id"])
            for row in rows
            if budget_cap is None or row["n_sensors"] <= budget_cap
        ),
        default=None,
    )
