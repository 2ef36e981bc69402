"""Run-configuration parsing, validation and hashing."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsbplace.config import ConfigError, load_config, parse_config, section8_preset
from adsbplace.evaluator import PlacementEvaluator
from adsbplace.objectives import InvalidConfigError, JammerModel


def minimal_config(**overrides):
    data = {
        "area": {
            "lat_low_deg": 47.4,
            "lat_up_deg": 51.4,
            "lon_low_deg": 5.71,
            "lon_up_deg": 9.71,
            "altitudes_m": [3000.0, 6000.0, 10000.0],
        },
        "grid": {"lat_count": 4, "lon_count": 4},
        "candidates": {"count": 9},
        "jammers": {"count": 4, "heights_m": [6000.0]},
        "ga": {"population_size": 8, "generations": 2, "rng_seed": 0, "n_max": 6,
               "gdop_subset_cap": 6},
    }
    data.update(overrides)
    return data


class TestParseConfig:
    def test_minimal_parses(self):
        cfg = parse_config(minimal_config())
        assert cfg.lat_count == 4
        assert cfg.candidate_count == 9
        assert cfg.ga.population_size == 8
        assert cfg.scenario_kind == "scratch"

    def test_defaults_applied(self):
        cfg = parse_config({"area": minimal_config()["area"]})
        assert cfg.candidate_count == 400
        assert cfg.jammer_count == 75
        assert cfg.requirements.required_gdop == 10.0
        assert cfg.of3_weights == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_missing_area_field_named(self):
        data = minimal_config()
        del data["area"]["lat_low_deg"]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert "lat_low_deg" in str(err.value)

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(of3_weights=[0.5, 0.5, 0.5]))

    def test_bad_scenario_kind(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(scenario={"kind": "other"}))

    def test_bad_pattern(self):
        data = minimal_config()
        data["candidates"]["pattern"] = "hexagonal"
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_type_mismatch_reported(self):
        data = minimal_config()
        data["grid"]["lat_count"] = "many"
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert "grid.lat_count" in str(err.value)

    def test_relative_deployed_path_resolved(self, tmp_path):
        data = minimal_config(scenario={"kind": "augment", "deployed_file": "dep.csv"})
        cfg = parse_config(data, base_dir=tmp_path)
        assert cfg.deployed_file == str(tmp_path / "dep.csv")


class TestConfigHash:
    def test_stable_under_key_order(self):
        a = parse_config(minimal_config())
        data = json.loads(json.dumps(minimal_config(), sort_keys=True))
        b = parse_config(data)
        assert a.config_hash() == b.config_hash()

    def test_changes_with_content(self):
        a = parse_config(minimal_config())
        b = parse_config(minimal_config(of3_weights=[0.5, 0.25, 0.25]))
        assert a.config_hash() != b.config_hash()


class TestBuildFromConfig:
    def test_problem_matches_document(self):
        cfg = parse_config(minimal_config())
        prob = cfg.build_problem()
        assert prob.n_candidates == 9
        assert len(prob.grid) == 4 * 4 * 3
        assert len(prob.jammers) == 4

    def test_augment_requires_deployed_file(self):
        cfg = parse_config(minimal_config(scenario={"kind": "augment"}))
        with pytest.raises(ConfigError):
            cfg.build_problem()

    def test_augment_folds_forced_into_budget(self, tmp_path):
        dep = tmp_path / "dep.csv"
        dep.write_text("id,lat_deg,lon_deg,alt_m\na,48.0,7.0,0\nb,49.0,8.0,0\n")
        data = minimal_config(scenario={"kind": "augment", "deployed_file": str(dep)})
        cfg = parse_config(data)
        prob = cfg.build_problem()
        assert prob.forced_mask.sum() == 2
        ga = cfg.ga_for_problem(prob)
        assert ga.n_max == cfg.ga.n_max + 2

    @pytest.mark.parametrize("link_budget", [{}, {"power_w": 2.0, "affect_rule": "jsr"}])
    def test_jammers_default_to_jammer_model(self, link_budget):
        """Link-budget keys the document leaves out take JammerModel's own
        defaults; the ones it sets reach every jammer."""
        data = minimal_config()
        data["jammers"].update(link_budget)
        prob = parse_config(data).build_problem()
        assert prob.jammers
        assert all(j == JammerModel(j.position, **link_budget) for j in prob.jammers)

    def test_seed_override(self):
        cfg = parse_config(minimal_config())
        prob = cfg.build_problem()
        assert cfg.ga_for_problem(prob, seed_override=77).rng_seed == 77


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(minimal_config()))
        cfg = load_config(p)
        assert cfg.lat_count == 4

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(p)


class TestPreset:
    def test_experiment_scale(self):
        cfg = parse_config(section8_preset())
        assert cfg.candidate_count == 400
        assert cfg.jammer_count == 75
        assert cfg.ga.n_max == 30
        assert cfg.ga.population_size == 100
        assert cfg.ga.generations == 200
        assert cfg.lat_count == cfg.lon_count == 20
        assert cfg.bounds.altitude_levels_m == (3000.0, 6000.0, 10000.0)


# Every field the schema knows, set: at its default, or where that is None
# (seeds, mutation rate, range cap), at a value of the section-8 scale.
DEFAULT_DOCUMENT = {
    "area": section8_preset()["area"],
    "grid": {"lat_count": 20, "lon_count": 20},
    "candidates": {"count": 400, "pattern": "lattice", "seed": 0, "antenna_height_m": 0.0},
    "jammers": {
        "count": 75, "heights_m": [3000.0, 6000.0, 10000.0], "pattern": "grid", "seed": 0,
        "power_w": 1.0, "antenna_gain": 1.0, "transmitter_power_w": 100.0,
        "transmitter_antenna_gain": 1.0, "affect_rule": "los", "jsr_threshold": 1.0,
        "nominal_signal_distance_km": 150.0,
    },
    "requirements": {
        "required_gdop": 10.0, "required_range_km": 150.0, "min_sensor_spacing_km": 80.0,
        "min_jammer_distance_km": 80.0, "max_sensors_in_jammer_los": 0, "gdop_cap": 100.0,
        "range_cap_km": 600.0,
    },
    "of3_weights": [1 / 3, 1 / 3, 1 / 3],
    "ga": {
        "population_size": 100, "generations": 200, "crossover_rate": 0.9,
        "mutation_rate": 0.0025, "tournament_size": 2, "rng_seed": 0, "n_max": 30,
        "pareto_weight_a": 0.1, "gdop_subset_cap": 12,
    },
    "scenario": {"kind": "scratch"},
    "output_dir": "out",
}

INF = float("inf")
FUZZ_VALUES = [INF, -INF, float("nan"), 0, 0.0, -1, -0.5, -1e6, 1e200, 1e308, 10**18,
               2**63 - 1, 10**30, "x", "", True, None, [], {}]


def _slots(node, path=()):
    """(path, value) of every section, field and list element."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


@st.composite
def fuzzed_documents(draw):
    """The section-8 preset or the default document with one to three
    fields deleted, retyped, scaled, set to an edge value or emptied."""
    doc = copy.deepcopy(draw(st.sampled_from([section8_preset(), DEFAULT_DOCUMENT])))
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_slots(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        choices = ["delete", "edge"]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            choices.append("scale")
        action = draw(st.sampled_from(choices))
        if action == "delete":
            del parent[key]
        elif action == "scale":
            parent[key] = value * draw(st.sampled_from([-1, -1e3, 1e3, 1e100]))
        else:
            parent[key] = draw(st.sampled_from(FUZZ_VALUES))
    return doc


@settings(max_examples=500, derandomize=True, deadline=None)
@given(doc=fuzzed_documents())
def test_fuzzed_config_parses_or_is_rejected(doc):
    """A document either parses or raises ConfigError / InvalidConfigError,
    which ``main`` maps to exit 2. An accepted one, with its grid, sites
    and jammers cut to a few so that any count stays cheap to build, gives
    finite distances and directions wherever LOS holds and finite raw
    scores for one evaluated batch."""
    try:
        cfg = parse_config(doc)
        cfg = dataclasses.replace(
            cfg,
            lat_count=min(cfg.lat_count, 3),
            lon_count=min(cfg.lon_count, 3),
            candidate_count=min(cfg.candidate_count, 9),
            jammer_count=min(cfg.jammer_count, len(cfg.jammer_heights_m)),
        )
        problem = cfg.build_problem()
    except (ConfigError, InvalidConfigError):
        return
    los = problem.los_point_cand
    assert np.isfinite(problem.dist_point_cand[los]).all()
    assert np.isfinite(problem.dc_point_cand[:, los.T]).all()
    assert np.isfinite(problem.dist_jam_cand[problem.los_jam_cand]).all()
    assert np.isfinite(problem.dist_cand_cand).all()
    n = problem.n_candidates
    batch = np.arange(n) < np.array([[0], [n // 2], [n]])
    raw = PlacementEvaluator(problem, cfg.ga.gdop_subset_cap).evaluate(batch)
    for field in dataclasses.fields(raw):
        assert np.isfinite(getattr(raw, field.name)).all(), field.name
