"""Run configuration: JSON schema, validation and problem assembly."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .nsga2 import GaConfig
from .objectives import InvalidConfigError, ObjectiveRequirements, of3_weight_vector
from .scenario import (
    AreaBounds,
    PlacementProblem,
    build_problem,
    generate_jammers,
    load_deployed_csv,
)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


def _number(where: str, value) -> float:
    # JSON true/false parse as bool, which is an int subclass: not a number here.
    if isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(where, "expected a finite number")
    return value


def _get(data: dict, path: str, key: str, kind, default=None, required=False):
    where = f"{path}.{key}" if path else key
    if key not in data:
        if required:
            raise ConfigError(where, "missing required field")
        return default
    value = data[key]
    if kind is float:
        return _number(where, value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(where, f"expected {kind.__name__}")
    # Counts and seeds reach numpy as int64; a larger JSON integer would
    # overflow there.
    if kind is int and not _INT64_MIN <= value <= _INT64_MAX:
        raise ConfigError(where, "integer out of the 64-bit range")
    return value


def _non_negative(where: str, value):
    """Seeds and heights: None (unset) or at least 0."""
    if value is not None and value < 0:
        raise ConfigError(where, f"must be >= 0, got {value}")
    return value


def _numbers(data: dict, path: str, key: str, default=None, required=False) -> tuple[float, ...]:
    """A non-empty list of finite numbers."""
    where = f"{path}.{key}" if path else key
    values = _get(data, path, key, list, default, required)
    if not values:
        raise ConfigError(where, "must not be empty")
    return tuple(_number(f"{where}[{i}]", v) for i, v in enumerate(values))


@dataclass
class RunConfig:
    """Validated run configuration; one JSON document drives a run."""

    bounds: AreaBounds
    lat_count: int
    lon_count: int
    candidate_count: int
    candidate_pattern: str
    candidate_seed: int | None
    antenna_height_m: float
    jammer_count: int
    jammer_heights_m: tuple[float, ...]
    jammer_pattern: str
    jammer_seed: int | None
    jammer_params: dict[str, Any]
    requirements: ObjectiveRequirements
    of3_weights: tuple[float, float, float]
    ga: GaConfig
    scenario_kind: str  # "scratch" | "augment"
    deployed_file: str | None
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def build_problem(self) -> PlacementProblem:
        deployed = ()
        if self.scenario_kind == "augment":
            if not self.deployed_file:
                raise ConfigError("scenario.deployed_file", "required for augment runs")
            deployed = load_deployed_csv(self.deployed_file)
        jammers = generate_jammers(
            self.bounds,
            self.jammer_count,
            self.jammer_heights_m,
            self.jammer_pattern,
            self.jammer_seed,
            **self.jammer_params,
        )
        return build_problem(
            bounds=self.bounds,
            lat_count=self.lat_count,
            lon_count=self.lon_count,
            candidate_count=self.candidate_count,
            requirements=self.requirements,
            jammers=jammers,
            deployed=deployed,
            candidate_pattern=self.candidate_pattern,
            candidate_seed=self.candidate_seed,
            antenna_height_m=self.antenna_height_m,
        )

    def ga_for_problem(self, problem: PlacementProblem, seed_override: int | None = None) -> GaConfig:
        """GA config with the augmentation budget folded into n_max."""
        ga = self.ga
        n_max = ga.n_max
        if n_max is not None and self.scenario_kind == "augment":
            n_max = n_max + int(problem.forced_mask.sum())
        return replace(
            ga,
            rng_seed=seed_override if seed_override is not None else ga.rng_seed,
            n_max=n_max,
        )


def parse_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ConfigError("", "config root must be a JSON object")
    area = _get(data, "", "area", dict, required=True)
    try:
        bounds = AreaBounds(
            lat_low=_get(area, "area", "lat_low_deg", float, required=True),
            lat_up=_get(area, "area", "lat_up_deg", float, required=True),
            lon_low=_get(area, "area", "lon_low_deg", float, required=True),
            lon_up=_get(area, "area", "lon_up_deg", float, required=True),
            altitude_levels_m=_numbers(area, "area", "altitudes_m", required=True),
        )
    except InvalidConfigError as exc:
        raise ConfigError("area", str(exc)) from exc

    grid = _get(data, "", "grid", dict, default={})
    lat_count = _get(grid, "grid", "lat_count", int, default=20)
    lon_count = _get(grid, "grid", "lon_count", int, default=20)
    if lat_count < 2 or lon_count < 2:
        raise ConfigError("grid", "lat_count and lon_count must be >= 2")

    cand = _get(data, "", "candidates", dict, default={})
    candidate_count = _get(cand, "candidates", "count", int, default=400)
    candidate_pattern = _get(cand, "candidates", "pattern", str, default="lattice")
    candidate_seed = _non_negative("candidates.seed", _get(cand, "candidates", "seed", int))
    antenna_height_m = _non_negative(
        "candidates.antenna_height_m",
        _get(cand, "candidates", "antenna_height_m", float, default=0.0),
    )
    if candidate_count < 1:
        raise ConfigError("candidates.count", "must be >= 1")
    if candidate_pattern not in ("lattice", "seeded-uniform"):
        raise ConfigError("candidates.pattern", "must be lattice or seeded-uniform")

    jam = _get(data, "", "jammers", dict, default={})
    jammer_count = _get(jam, "jammers", "count", int, default=75)
    heights = _numbers(jam, "jammers", "heights_m", default=[3000.0, 6000.0, 10000.0])
    for i, h in enumerate(heights):
        _non_negative(f"jammers.heights_m[{i}]", h)
    jammer_pattern = _get(jam, "jammers", "pattern", str, default="grid")
    if jammer_pattern not in ("grid", "seeded-uniform"):
        raise ConfigError("jammers.pattern", "must be grid or seeded-uniform")
    jammer_seed = _non_negative("jammers.seed", _get(jam, "jammers", "seed", int))
    jammer_params = {}
    for key, kind, dflt in (
        ("power_w", float, 1.0),
        ("antenna_gain", float, 1.0),
        ("transmitter_power_w", float, 100.0),
        ("transmitter_antenna_gain", float, 1.0),
        ("affect_rule", str, "los"),
        ("jsr_threshold", float, 1.0),
        ("nominal_signal_distance_km", float, 150.0),
    ):
        jammer_params[key] = _get(jam, "jammers", key, kind, default=dflt)
    if jammer_params["affect_rule"] not in ("los", "jsr"):
        raise ConfigError("jammers.affect_rule", "must be los or jsr")

    req_data = _get(data, "", "requirements", dict, default={})
    req_kwargs = {}
    for key, kind in (
        ("required_gdop", float),
        ("required_range_km", float),
        ("min_sensor_spacing_km", float),
        ("min_jammer_distance_km", float),
        ("max_sensors_in_jammer_los", int),
        ("gdop_cap", float),
        ("range_cap_km", float),
    ):
        value = _get(req_data, "requirements", key, kind)
        if value is not None:
            req_kwargs[key] = value
    try:
        requirements = ObjectiveRequirements(**req_kwargs)
    except InvalidConfigError as exc:
        raise ConfigError("requirements", str(exc)) from exc

    weights = _numbers(data, "", "of3_weights", default=[1 / 3, 1 / 3, 1 / 3])
    try:
        of3_weight_vector(weights)
    except InvalidConfigError as exc:
        raise ConfigError("of3_weights", str(exc)) from exc

    ga_data = _get(data, "", "ga", dict, default={})
    ga_kwargs = {}
    for key, kind in (
        ("population_size", int),
        ("generations", int),
        ("crossover_rate", float),
        ("mutation_rate", float),
        ("tournament_size", int),
        ("rng_seed", int),
        ("n_max", int),
        ("pareto_weight_a", float),
        ("gdop_subset_cap", int),
    ):
        value = _get(ga_data, "ga", key, kind)
        if value is not None:
            ga_kwargs[key] = value
    _non_negative("ga.rng_seed", ga_kwargs.get("rng_seed"))
    try:
        ga = GaConfig(**ga_kwargs)
    except InvalidConfigError as exc:
        raise ConfigError("ga", str(exc)) from exc

    scen = _get(data, "", "scenario", dict, default={})
    kind = _get(scen, "scenario", "kind", str, default="scratch")
    if kind not in ("scratch", "augment"):
        raise ConfigError("scenario.kind", "must be scratch or augment")
    deployed_file = _get(scen, "scenario", "deployed_file", str)
    if deployed_file and base_dir is not None and not Path(deployed_file).is_absolute():
        deployed_file = str(base_dir / deployed_file)

    output_dir = _get(data, "", "output_dir", str, default="out")

    return RunConfig(
        bounds=bounds,
        lat_count=lat_count,
        lon_count=lon_count,
        candidate_count=candidate_count,
        candidate_pattern=candidate_pattern,
        candidate_seed=candidate_seed,
        antenna_height_m=antenna_height_m,
        jammer_count=jammer_count,
        jammer_heights_m=heights,
        jammer_pattern=jammer_pattern,
        jammer_seed=jammer_seed,
        jammer_params=jammer_params,
        requirements=requirements,
        of3_weights=weights,
        ga=ga,
        scenario_kind=kind,
        deployed_file=deployed_file,
        output_dir=output_dir,
        raw=data,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


def section8_preset(seed: int = 1, output_dir: str = "out") -> dict:
    """Config document reproducing the central-Europe experiment scale:
    400 lattice candidates, 75 jammers at three heights, 30-sensor cap."""
    return {
        "area": {
            "lat_low_deg": 47.4,
            "lat_up_deg": 51.4,
            "lon_low_deg": 5.71,
            "lon_up_deg": 9.71,
            "altitudes_m": [3000.0, 6000.0, 10000.0],
        },
        "grid": {"lat_count": 20, "lon_count": 20},
        "candidates": {"count": 400, "pattern": "lattice"},
        "jammers": {"count": 75, "heights_m": [3000.0, 6000.0, 10000.0]},
        "requirements": {},
        "of3_weights": [1 / 3, 1 / 3, 1 / 3],
        "ga": {
            "population_size": 100,
            "generations": 200,
            "rng_seed": seed,
            "n_max": 30,
            "gdop_subset_cap": 6,
        },
        "scenario": {"kind": "scratch"},
        "output_dir": output_dir,
    }
