"""Objective requirements, the jammer model, penalty, score combination
and normalization.

The scores themselves are computed by evaluator.PlacementEvaluator over
the precomputed problem matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_GDOP_CAP = 100.0


class InvalidConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectiveRequirements:
    """The requirements every grid point shares and the caps that
    saturate them."""

    required_gdop: float = 10.0
    required_range_km: float = 150.0
    min_sensor_spacing_km: float = 80.0
    min_jammer_distance_km: float = 80.0
    max_sensors_in_jammer_los: int = 0
    gdop_cap: float = DEFAULT_GDOP_CAP
    range_cap_km: float | None = None  # None: the diagonal of the grid's extent

    def __post_init__(self):
        for name in (
            "required_gdop",
            "required_range_km",
            "min_sensor_spacing_km",
            "min_jammer_distance_km",
            "gdop_cap",
        ):
            # The squares bound the saturation values from below, so a
            # square that underflows to 0 would leave one at 0.
            value = getattr(self, name)
            if not (value * value > 0 and math.isfinite(value)):
                raise InvalidConfigError(
                    f"{name} must be finite and positive, with a square above 0")
        cap = self.range_cap_km
        if cap is not None and not (cap > 0 and math.isfinite(cap)):
            raise InvalidConfigError("range_cap_km must be finite and positive")
        if self.max_sensors_in_jammer_los < 0:
            raise InvalidConfigError("max_sensors_in_jammer_los must be >= 0")


@dataclass(frozen=True)
class JammerModel:
    """The one model every jammer of a problem follows: its link budget
    and the rule that decides which sensors in its LOS it affects."""

    power_w: float = 1.0
    antenna_gain: float = 1.0
    transmitter_power_w: float = 100.0
    transmitter_antenna_gain: float = 1.0
    affect_rule: str = "los"  # "los" or "jsr"
    jsr_threshold: float = 1.0
    # Nominal transmitter-to-sensor distance (km) used by the "jsr" rule.
    nominal_signal_distance_km: float = 150.0

    def __post_init__(self):
        for name in ("power_w", "antenna_gain", "transmitter_power_w", "transmitter_antenna_gain"):
            if not (getattr(self, name) > 0 and math.isfinite(getattr(self, name))):
                raise InvalidConfigError(f"{name} must be finite and positive")
        for name in ("jsr_threshold", "nominal_signal_distance_km"):
            if not (getattr(self, name) >= 0 and math.isfinite(getattr(self, name))):
                raise InvalidConfigError(f"{name} must be finite and >= 0")
        if self.affect_rule not in ("los", "jsr"):
            raise InvalidConfigError(f"unknown affect rule: {self.affect_rule}")


@dataclass
class ObjectiveScores:
    """Objective scores of one placement, or (B,) columns of them for a
    batch: raw OF1, OF2, directions and penalty, OF3 over the normalized
    directions, and normalized OF1-OF3."""

    of1: float
    of2: float
    of3: float
    of3_components: tuple[float, float, float]
    penalty: float
    normalized: dict[str, float]

    def vectors(self, pareto_weight_a: float) -> np.ndarray:
        """The optimizer's objective vectors: OF1, OF2 and OF3, each
        blended with the penalty; (B, 3) for columns, (3,) for one."""
        return weighted_fitness(np.stack([self.of1, self.of2, self.of3], axis=-1),
                                np.asarray(self.penalty)[..., None], pareto_weight_a)


def of3_weight_vector(weights: Sequence[float]) -> np.ndarray:
    """The OF3 weights as an array, checked: three non-negative values
    that sum to 1."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,) or not np.all(w >= 0):
        raise InvalidConfigError("of3 weights must be three non-negative values")
    if not abs(float(w.sum()) - 1.0) <= 1e-9:
        raise InvalidConfigError("of3 weights must sum to 1")
    return w


def knapsack_penalty(selected_count: int, total_cells: int) -> float:
    """Site-count pressure: half the squared selected fraction."""
    if total_cells <= 0:
        raise InvalidConfigError("total cell count must be positive")
    if not 0 <= selected_count <= total_cells:
        raise ValueError("selected count out of range")
    return 0.5 * (selected_count / total_cells) ** 2


def weighted_fitness(objective_score, penalty, pareto_weight_a: float):
    """Convex blend of an objective score with the knapsack penalty,
    elementwise over arrays."""
    return (1.0 - pareto_weight_a) * objective_score + pareto_weight_a * penalty


@dataclass(frozen=True)
class Normalization:
    """Each score divided by the value at which it saturates, clamped to
    [0, 1]. The saturation values follow from the requirements and the
    sensor cap alone, so a normalized value never depends on the search;
    each is positive."""

    saturation: dict[str, float]

    def normalize(self, key: str, value):
        """``value`` over the saturation value of ``key``, clamped to [0, 1]
        with NaN mapped to 0; elementwise over arrays, a float for scalars."""
        v = np.asarray(value, dtype=float) / self.saturation[key]
        v = np.where(v > 0.0, v, 0.0)
        v = np.where(v < 1.0, v, 1.0)
        return float(v) if v.ndim == 0 else v

    def scores(self, raw, of3_weights: Sequence[float]) -> ObjectiveScores:
        """The one map from raw scores, a ``RawScores`` of floats or of (B,)
        columns, to objective space: OF3 over the normalized directions and
        the normalized OF1, OF2 and OF3. The optimizer, the front's report
        rows and ``evaluate`` all use it."""
        w = of3_weight_vector(of3_weights)
        d1, d2, d3 = (self.normalize(key, getattr(raw, key)) for key in ("d1", "d2", "d3"))
        of3 = w[0] * d1 + w[1] * d2 + w[2] * d3
        normalized = {key: self.normalize(key, value)
                      for key, value in (("of1", raw.of1), ("of2", raw.of2), ("of3", of3))}
        return ObjectiveScores(raw.of1, raw.of2, of3, (raw.d1, raw.d2, raw.d3), raw.penalty,
                               normalized)


def saturation_normalization(
    req: ObjectiveRequirements, range_cap_km: float, n_max: int
) -> Normalization:
    """Normalization of a problem whose placements select at most ``n_max``
    sensors. OF1 and OF2 saturate at the larger squared deviation from the
    requirement, d1 and d2 at the squared minimum distances, d3 when every
    jammer affects all ``n_max`` sensors; OF3 already lies in [0, 1]."""
    return Normalization({
        "of1": max(req.gdop_cap - req.required_gdop, req.required_gdop) ** 2,
        "of2": max(range_cap_km - req.required_range_km, req.required_range_km) ** 2,
        "d1": req.min_sensor_spacing_km ** 2,
        "d2": req.min_jammer_distance_km ** 2,
        "d3": float(max(n_max - req.max_sensors_in_jammer_los, 1)) ** 2,
        "of3": 1.0,
    })
