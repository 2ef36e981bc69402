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
from adsbplace.nsga2 import evolve
from adsbplace.objectives import InvalidConfigError, JammerModel, saturation_normalization


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

    def test_config_is_frozen(self):
        cfg = parse_config(minimal_config())
        for name, value in (("scenario_kind", "augment"), ("deployed_file", "dep.csv"),
                            ("raw", {}), ("ga", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert cfg.scenario_kind == "scratch" and cfg.raw

    def test_uniform_jammer_count_needs_no_multiple(self):
        """Only the grid pattern splits the count among the heights."""
        cfg = parse_config(minimal_config(jammers={
            "count": 5, "heights_m": [3000.0, 6000.0], "pattern": "seeded-uniform", "seed": 1}))
        assert cfg.build_problem().jammers.shape == (3, 5)

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
        assert prob.jammers.shape == (3, 4)

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
        defaults; the ones it sets reach the one model every jammer follows."""
        data = minimal_config()
        data["jammers"].update(link_budget)
        cfg = parse_config(data)
        prob = cfg.build_problem()
        assert prob.jammers.shape[1] == 4
        assert cfg.jammer_model == prob.jammer_model == JammerModel(**link_budget)

    def test_jsr_jammer_on_a_site(self):
        """A JSR jammer on a site, with a nominal signal distance of 0, has
        a JSR of 0 / 0 there and of 0 elsewhere. It affects that site alone,
        with no RuntimeWarning, which the suite turns into an error."""
        problem = parse_config(JSR_DOCUMENT).build_problem()
        assert problem.dist_jam_cand[0, 4] == 0.0
        assert problem.affected_jam_cand.tolist() == [[i == 4 for i in range(9)]]

    @pytest.mark.parametrize("key, value", [("power_w", -1.0), ("jsr_threshold", -1.0),
                                            ("transmitter_antenna_gain", 0.0)])
    def test_bad_link_budget_rejected_at_parse(self, key, value):
        data = minimal_config()
        data["jammers"][key] = value
        with pytest.raises(ConfigError, match=f"^jammers: {key} must be finite"):
            parse_config(data)

    def test_seed_override(self):
        cfg = parse_config(minimal_config())
        prob = cfg.build_problem()
        assert cfg.ga_for_problem(prob, seed_override=77).rng_seed == 77

    def test_seedless_uniform_patterns_are_deterministic(self):
        """Seeded-uniform candidates and jammers without a seed draw from
        seed 0, so one document gives the same sites, jammers and front
        each time it is built."""
        data = minimal_config(
            candidates={"count": 9, "pattern": "seeded-uniform"},
            jammers={"count": 4, "heights_m": [3000.0, 6000.0], "pattern": "seeded-uniform"},
        )
        runs = []
        for _ in range(2):
            cfg = parse_config(copy.deepcopy(data))
            assert cfg.candidate_seed == cfg.jammer_seed == 0
            prob = cfg.build_problem()
            front = evolve(prob, cfg.ga_for_problem(prob), cfg.of3_weights)
            runs.append((prob.cand_lat, prob.cand_lon, prob.jammers,
                         np.array([m.chromosome.genes for m in front.members]),
                         np.array([m.objectives for m in front.members])))
        for first, second in zip(*runs):
            np.testing.assert_array_equal(first, second)


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
# (mutation rate, range cap), at a value of the section-8 scale.
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

# A small JSR run with every field set: 9 points and 9 candidates, so the
# fuzzer builds it uncut, and a ground jammer on the centre candidate with
# a nominal signal distance of 0, so that its JSR there is 0 / 0.
JSR_DOCUMENT = {
    **DEFAULT_DOCUMENT,
    "area": {**DEFAULT_DOCUMENT["area"], "altitudes_m": [6000.0]},
    "grid": {"lat_count": 3, "lon_count": 3},
    "candidates": {**DEFAULT_DOCUMENT["candidates"], "count": 9},
    "jammers": {**DEFAULT_DOCUMENT["jammers"], "count": 1, "heights_m": [0.0],
                "affect_rule": "jsr", "nominal_signal_distance_km": 0.0},
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
    """The section-8 preset, the default document or the JSR one with one
    to three fields deleted, retyped, scaled, set to an edge value or
    emptied."""
    doc = copy.deepcopy(draw(st.sampled_from([section8_preset(), DEFAULT_DOCUMENT, JSR_DOCUMENT])))
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
    which ``main`` maps to exit 2. An accepted one gives finite distances
    and directions wherever LOS holds, and one evaluated batch gives finite
    raw scores, finite objective vectors and normalized columns in [0, 1]
    under the run's normalization. A document of more than 10**4 grid
    points times candidates has its grid, sites and jammers cut to a few
    first, so that any count stays cheap to build."""
    try:
        cfg = parse_config(doc)
        points = cfg.lat_count * cfg.lon_count * len(cfg.bounds.altitude_levels_m)
        if points * cfg.candidate_count > 10**4:
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
    ga = cfg.ga_for_problem(problem)
    bounds = saturation_normalization(problem.requirements, problem.range_cap_km,
                                      n if ga.n_max is None else ga.n_max)
    scores = bounds.scores(raw, cfg.of3_weights)
    assert np.isfinite(scores.vectors(ga.pareto_weight_a)).all()
    for key, column in scores.normalized.items():
        assert ((column >= 0.0) & (column <= 1.0)).all(), key
