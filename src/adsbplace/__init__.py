"""Security-aware placement optimization for ground ADS-B sensor networks."""

from .objectives import (
    JammerModel,
    ObjectiveRequirements,
    ObjectiveScores,
    knapsack_penalty,
    weighted_fitness,
)
from .scenario import AreaBounds, AirspaceGrid, PlacementProblem, build_problem
from .nsga2 import Chromosome, GaConfig, ParetoFront, evolve
from .analysis import evaluate_placement, gdop_distribution, pareto_summary
from .config import RunConfig, load_config, parse_config, section8_preset

__version__ = "0.1.0"

__all__ = [
    "AreaBounds",
    "AirspaceGrid",
    "Chromosome",
    "GaConfig",
    "JammerModel",
    "ObjectiveRequirements",
    "ObjectiveScores",
    "ParetoFront",
    "PlacementProblem",
    "RunConfig",
    "build_problem",
    "evaluate_placement",
    "evolve",
    "gdop_distribution",
    "knapsack_penalty",
    "load_config",
    "parse_config",
    "pareto_summary",
    "section8_preset",
    "weighted_fitness",
]
