"""Run configuration: JSON schema, validation and problem assembly."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .nsga2 import GaConfig
from .objectives import InvalidConfigError, JammerModel, ObjectiveRequirements, of3_weight_vector
from .scenario import (
    AreaBounds,
    PlacementProblem,
    build_problem,
    generate_jammers,
    index_dtype,
    load_deployed_csv,
)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# Far beyond any height, distance, power or GDOP of a run, and small enough
# that the squares and link-budget products formed of such numbers stay
# finite in float64.
_MAX_MAGNITUDE = 1e50
# The most bytes of matrices a config may ask for (see _check_footprint):
# 64 GiB, far above the 23 MB it counts for section 8, and fixed, so that a
# config's exit code does not depend on the host it runs on.
MAX_FOOTPRINT_BYTES = 64 << 30


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path


def _number(where: str, value) -> float:
    # JSON true/false parse as bool, which is an int subclass: not a number here.
    if isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, float) or not abs(value) <= _MAX_MAGNITUDE:
        raise ConfigError(where, f"expected a finite number of magnitude at most {_MAX_MAGNITUDE:g}")
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


_KINDS = {"float": float, "int": int, "str": str}


def _record(cls, data: dict, path: str):
    """``cls`` built from the fields of it that ``data`` sets, each checked
    by ``_get`` against its annotation (``"float"``, ``"int"``, ``"str"``,
    or one of them with ``" | None"``, which JSON null does not satisfy);
    unset fields keep their defaults. The class's own checks raise
    ``ConfigError`` naming ``path``."""
    kwargs = {f.name: _get(data, path, f.name, _KINDS[f.type.removesuffix(" | None")])
              for f in fields(cls) if f.name in data}
    try:
        return cls(**kwargs)
    except InvalidConfigError as exc:
        raise ConfigError(path, str(exc)) from exc


def _non_negative(where: str, value):
    """Seeds and heights: at least 0."""
    if value < 0:
        raise ConfigError(where, f"must be >= 0, got {value}")
    return value


def _check_footprint(counts: dict[str, int]) -> None:
    """Reject counts whose matrices would exceed MAX_FOOTPRINT_BYTES:
    precompute's (m, N) float64 distances, bool LOS and ranks (int32 at
    most) and (3, N, m) float64 direction cosines, its (J, N) float64
    distances and two bool masks and (N, N) float64 distances, the GA's
    (P, N) float64 draws, the sort's two (2P, 2P) bool matrices, and an
    evaluated batch's (P, m) float64 best GDOPs and its kernel rows: at
    most min(cap, N) candidates and two counts per (chromosome, point),
    in ``scenario.index_dtype(N)``. Here m is the grid points, N the
    generated candidates, J the jammers, P the population and cap the
    GDOP subset cap. The message names the largest count of the largest
    term."""
    points = ("grid.lat_count", "grid.lon_count", "area.altitudes_m")
    n = counts["candidates.count"]
    row_bytes = 8 + index_dtype(n).itemsize * (min(counts["ga.gdop_subset_cap"], n) + 2)
    terms = [
        (8 + 1 + 4 + 3 * 8, (*points, "candidates.count")),
        (8 + 1 + 1, ("jammers.count", "candidates.count")),
        (8, ("candidates.count", "candidates.count")),
        (8, ("ga.population_size", "candidates.count")),
        (2 * 2 * 2, ("ga.population_size", "ga.population_size")),
        (row_bytes, ("ga.population_size", *points)),
    ]
    sizes = [(math.prod(counts[key] for key in keys) * size, keys) for size, keys in terms]
    total = sum(nbytes for nbytes, _ in sizes)
    if total > MAX_FOOTPRINT_BYTES:
        keys = max(sizes)[1]
        raise ConfigError(
            max(keys, key=counts.get),
            f"the run would hold {total:.3g} bytes of matrices, above the "
            f"{MAX_FOOTPRINT_BYTES:.3g}-byte limit",
        )


def _numbers(data: dict, path: str, key: str, default=None, required=False) -> tuple[float, ...]:
    """A non-empty list of numbers, each checked by ``_number``."""
    where = f"{path}.{key}" if path else key
    values = _get(data, path, key, list, default, required)
    if not values:
        raise ConfigError(where, "must not be empty")
    return tuple(_number(f"{where}[{i}]", v) for i, v in enumerate(values))


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; one JSON document drives a run."""

    bounds: AreaBounds
    lat_count: int
    lon_count: int
    candidate_count: int
    candidate_pattern: str
    candidate_seed: int
    antenna_height_m: float
    jammer_count: int
    jammer_heights_m: tuple[float, ...]
    jammer_pattern: str
    jammer_seed: int
    jammer_model: JammerModel
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

    def deployed_sites(self) -> list[tuple[str, float, float, float]]:
        """The rows of ``scenario.deployed_file`` under an augment config, else none."""
        if self.scenario_kind != "augment":
            return []
        if not self.deployed_file:
            raise ConfigError("scenario.deployed_file", "required for augment runs")
        return load_deployed_csv(self.deployed_file)[0]

    def build_problem(self, candidate_count: int | None = None, deployed=None) -> PlacementProblem:
        """The config's problem. ``deployed`` stands for the rows of
        ``scenario.deployed_file``, already read; with ``candidate_count=0``
        too, it is the free-standing problem of those sites alone."""
        if deployed is None:
            deployed = self.deployed_sites()
        jammers = generate_jammers(
            self.bounds, self.jammer_count, self.jammer_heights_m, self.jammer_pattern,
            self.jammer_seed,
        )
        return build_problem(
            bounds=self.bounds,
            lat_count=self.lat_count,
            lon_count=self.lon_count,
            candidate_count=self.candidate_count if candidate_count is None else candidate_count,
            requirements=self.requirements,
            jammers=jammers,
            jammer_model=self.jammer_model,
            deployed=deployed,
            candidate_pattern=self.candidate_pattern,
            candidate_seed=self.candidate_seed,
            antenna_height_m=self.antenna_height_m,
        )

    def ga_for_problem(self, problem: PlacementProblem, seed_override: int | None = None) -> GaConfig:
        """GA config with the augmentation budget folded into n_max: the
        forced sites do not count against it."""
        ga = self.ga
        return replace(
            ga,
            rng_seed=seed_override if seed_override is not None else ga.rng_seed,
            n_max=None if ga.n_max is None else ga.n_max + int(problem.forced_mask.sum()),
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
    candidate_seed = _non_negative("candidates.seed", _get(cand, "candidates", "seed", int, default=0))
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
    if jammer_count < 1:
        raise ConfigError("jammers.count", f"must be >= 1, got {jammer_count}")
    heights = _numbers(jam, "jammers", "heights_m", default=[3000.0, 6000.0, 10000.0])
    for i, h in enumerate(heights):
        _non_negative(f"jammers.heights_m[{i}]", h)
    # A repeated height would place each grid jammer there twice.
    if len(set(heights)) < len(heights):
        raise ConfigError("jammers.heights_m", f"must not repeat a height, got {list(heights)}")
    jammer_pattern = _get(jam, "jammers", "pattern", str, default="grid")
    if jammer_pattern not in ("grid", "seeded-uniform"):
        raise ConfigError("jammers.pattern", "must be grid or seeded-uniform")
    if jammer_pattern == "grid" and jammer_count % len(heights):
        raise ConfigError(
            "jammers.count",
            f"{jammer_count} is not a multiple of the {len(heights)} heights_m of the grid pattern",
        )
    jammer_seed = _non_negative("jammers.seed", _get(jam, "jammers", "seed", int, default=0))
    if _get(jam, "jammers", "affect_rule", str, default="los") not in ("los", "jsr"):
        raise ConfigError("jammers.affect_rule", "must be los or jsr")
    jammer_model = _record(JammerModel, jam, "jammers")
    requirements = _record(ObjectiveRequirements, _get(data, "", "requirements", dict, default={}),
                           "requirements")

    weights = _numbers(data, "", "of3_weights", default=[1 / 3, 1 / 3, 1 / 3])
    try:
        of3_weight_vector(weights)
    except InvalidConfigError as exc:
        raise ConfigError("of3_weights", str(exc)) from exc

    ga = _record(GaConfig, _get(data, "", "ga", dict, default={}), "ga")
    _non_negative("ga.rng_seed", ga.rng_seed)

    scen = _get(data, "", "scenario", dict, default={})
    kind = _get(scen, "scenario", "kind", str, default="scratch")
    if kind not in ("scratch", "augment"):
        raise ConfigError("scenario.kind", "must be scratch or augment")
    deployed_file = _get(scen, "scenario", "deployed_file", str)
    if deployed_file and base_dir is not None and not Path(deployed_file).is_absolute():
        deployed_file = str(base_dir / deployed_file)

    output_dir = _get(data, "", "output_dir", str, default="out")
    _check_footprint({
        "grid.lat_count": lat_count,
        "grid.lon_count": lon_count,
        "area.altitudes_m": len(bounds.altitude_levels_m),
        "candidates.count": candidate_count,
        "jammers.count": jammer_count,
        "ga.population_size": ga.population_size,
        "ga.gdop_subset_cap": ga.gdop_subset_cap,
    })

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
        jammer_model=jammer_model,
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
