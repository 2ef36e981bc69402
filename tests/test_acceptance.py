"""End-to-end acceptance suite.

Each test class corresponds to one acceptance criterion, from geometry
oracles through the full experiment-scale optimization run. The
experiment-scale run (criterion 7) executes once as a session fixture
and takes several minutes on a single core.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from adsbplace import geo
from adsbplace.analysis import evaluate_placement, gdop_distribution, pareto_summary
from adsbplace.cli import main, read_pareto_csv
from adsbplace.config import parse_config, section8_preset
from adsbplace.evaluator import PlacementEvaluator
from adsbplace.nsga2 import (
    Chromosome,
    GaConfig,
    crowding_distance,
    evolve,
    non_dominated_sort,
)
from adsbplace.objectives import (
    ObjectiveRequirements,
    knapsack_penalty,
    weighted_fitness,
)
from adsbplace.scenario import build_problem, clustered21_path, load_deployed_csv

from conftest import random_geodetic
from oracles import (
    GeodeticPosition,
    best_gdop_at,
    brute_force_fronts,
    dominates,
    ecef_line_km,
    ecef_to_geodetic_arrays,
    euclidean_distance,
    gdop_of_four,
    geodetic_to_ecef,
    of1_gdop_msd,
    of2_range_msd,
    of3_direction1_spacing,
    of3_direction2_jammer_distance,
    of3_direction3_sensors_in_range,
    oracle_gdop,
    random_geometry,
    sensors_at,
    single_point_grid,
    well_conditioned_geometry,
)


class TestCriterion1GeodesyOracle:
    def test_round_trip_and_orthonormality_within_budget(self):
        rng = np.random.default_rng(20240817)
        start = time.perf_counter()

        lat, lon, alt = random_geodetic(rng, 1000)
        xyz = geo.geodetic_to_ecef_arrays(lat, lon, alt)
        lat2, lon2, alt2 = ecef_to_geodetic_arrays(xyz)
        assert np.max(np.abs(lat2 - lat)) < 1e-9
        assert np.max(np.abs(lon2 - lon)) < 1e-9
        assert np.max(np.abs(alt2 - alt)) < 1e-3

        sample_lat = np.concatenate([rng.uniform(-90, 90, 200), [-90.0, 90.0]])
        sample_lon = np.concatenate([rng.uniform(-180, 180, 200), [13.0, -77.0]])
        rots = geo.ned_rotation_arrays(sample_lat, sample_lon)
        residual = np.abs(np.einsum("ijn,kjn->nik", rots, rots) - np.eye(3))
        assert residual.max() < 1e-12

        assert time.perf_counter() - start < 1.0


class TestCriterion2GdopOracle:
    def test_oracle_equivalence_within_budget(self):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        for _ in range(100):
            aircraft, sensors = well_conditioned_geometry(rng)
            got = gdop_of_four(aircraft, sensors)
            assert got == pytest.approx(oracle_gdop(aircraft, sensors), rel=1e-9)
        for n in range(5, 9):
            aircraft, sensors = random_geometry(rng, n)
            expected = min(
                gdop_of_four(aircraft, list(sub))
                for sub in itertools.combinations(sensors, 4)
            )
            assert best_gdop_at(aircraft, sensors, None) == expected
        assert time.perf_counter() - start < 5.0


class TestCriterion3LosBoundary:
    def test_boundary_exact_and_flip(self):
        rng = np.random.default_rng(3)
        ke = 4.0 / 3.0
        for d in rng.uniform(10.0, 400.0, 50):
            h = 0.0785 * d**2 / ke
            assert geo.visibility_mask_arrays(h, d)
            assert not geo.visibility_mask_arrays(h - 1e-6, d)

    def test_monotone_in_altitude(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            d = rng.uniform(1.0, 500.0)
            h = rng.uniform(0.0, 15000.0)
            higher = h + rng.uniform(0.0, 5000.0)
            if geo.visibility_mask_arrays(h, d):
                assert geo.visibility_mask_arrays(higher, d)


class TestCriterion4ObjectiveZeroPoints:
    def test_of1_zero_when_requirement_met(self):
        # Grid requirement relaxed to the exactly achieved GDOP value.
        # Asymmetric spread: equal depression angles would make the down
        # cosine column a multiple of the ones column and B singular.
        geos, ecefs = sensors_at(
            [(47.5, 6.8, 0.0), (48.6, 6.9, 0.0), (47.8, 7.7, 0.0), (48.2, 7.35, 0.0)]
        )
        point = GeodeticPosition(48.0, 7.2, 10000.0)
        achieved = best_gdop_at(point, ecefs, None)
        assert math.isfinite(achieved)
        grid = single_point_grid(48.0, 7.2, 10000.0)
        req = ObjectiveRequirements(required_gdop=achieved)
        assert of1_gdop_msd(grid, geos, ecefs, req, None) == 0.0

    def test_of2_zero_when_requirement_met(self):
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0), (48.0, 7.5, 0.0)])
        point = GeodeticPosition(48.0, 7.2, 10000.0)
        p_ecef = geodetic_to_ecef(point)
        second = sorted(euclidean_distance(p_ecef, s) / 1000.0 for s in ecefs)[1]
        grid = single_point_grid(48.0, 7.2, 10000.0)
        req = ObjectiveRequirements(required_range_km=second)
        assert of2_range_msd(grid, geos, ecefs, req, 600.0) == 0.0

    def test_of3_zero_when_requirements_met(self):
        req = ObjectiveRequirements(
            min_sensor_spacing_km=50.0, min_jammer_distance_km=50.0,
            max_sensors_in_jammer_los=5,
        )
        assert of3_direction1_spacing(ecef_line_km([0.0, 60.0, 125.0]), req) == 0.0
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0), (48.6, 7.0, 0.0)])
        far_jam = [GeodeticPosition(50.9, 9.5, 10000.0)]
        assert of3_direction2_jammer_distance(geos, ecefs, far_jam, req) == 0.0
        assert of3_direction3_sensors_in_range(geos, ecefs, far_jam, req) == 0.0

    def test_penalty_values_exact(self):
        assert knapsack_penalty(0, 400) == 0.0
        assert knapsack_penalty(400, 400) == 0.5
        assert knapsack_penalty(30, 400) == 0.0028125

    def test_fitness_blend_endpoints(self):
        assert weighted_fitness(0.7, 0.3, 0.0) == 0.7
        assert weighted_fitness(0.7, 0.3, 1.0) == 0.3


class TestCriterion5Nsga2Correctness:
    def test_sort_matches_brute_force(self):
        rng = np.random.default_rng(5)
        # No NaN: with it dominance can cycle and the brute force never ends.
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, math.inf, -math.inf])
        for _ in range(50):
            n = int(rng.integers(1, 65))
            vectors = [tuple(v) for v in rng.choice(values, (n, 3))]
            assert non_dominated_sort(vectors) == brute_force_fronts(vectors)

    def test_crowding_boundaries_infinite(self):
        rng = np.random.default_rng(6)
        vecs = rng.random((8, 3))
        d = crowding_distance(vecs)
        for m in range(3):
            assert math.isinf(d[int(np.argmin(vecs[:, m]))])
            assert math.isinf(d[int(np.argmax(vecs[:, m]))])

    def test_toy_problem_matches_exhaustive_search(self, area_bounds):
        """On 10 candidates the archive's per-objective minima equal the
        optimum of enumerating all 2^10 selections."""
        from adsbplace.scenario import generate_jammers

        req = ObjectiveRequirements()
        jams = generate_jammers(area_bounds, 4, (6000.0,), "grid", None)
        prob = build_problem(
            bounds=area_bounds, lat_count=4, lon_count=4, candidate_count=10,
            requirements=req, jammers=jams,
        )
        evaluator = PlacementEvaluator(prob, gdop_subset_cap=10)
        a = 0.1
        best_of1 = math.inf
        best_of2 = math.inf
        for bits in itertools.product([False, True], repeat=10):
            raw = evaluator.evaluate(np.array(bits))
            best_of1 = min(best_of1, weighted_fitness(raw.of1, raw.penalty, a))
            best_of2 = min(best_of2, weighted_fitness(raw.of2, raw.penalty, a))
        config = GaConfig(population_size=40, generations=60, rng_seed=9,
                          pareto_weight_a=a, gdop_subset_cap=10)
        front = evolve(prob, config)
        got_of1 = min(m.objectives[0] for m in front.members)
        got_of2 = min(m.objectives[1] for m in front.members)
        assert got_of1 == best_of1
        assert got_of2 == best_of2


SMALL_RUN_CONFIG = {
    "area": {
        "lat_low_deg": 47.4,
        "lat_up_deg": 51.4,
        "lon_low_deg": 5.71,
        "lon_up_deg": 9.71,
        "altitudes_m": [3000.0, 6000.0, 10000.0],
    },
    "grid": {"lat_count": 6, "lon_count": 6},
    "candidates": {"count": 36},
    "jammers": {"count": 9, "heights_m": [3000.0, 6000.0, 10000.0]},
    "ga": {"population_size": 12, "generations": 5, "rng_seed": 11, "n_max": 10,
           "gdop_subset_cap": 6},
}


def write_config(tmp_path, data, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def run_cli(args):
    code = main([str(a) for a in args])
    assert code == 0
    return code


class TestCriterion6Determinism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN_CONFIG)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(["optimize", "--config", cfg, "--out", out, "--threads", "1"])
            files = sorted(out.glob("*.csv"))
            outputs.append({f.name: f.read_bytes() for f in files})
        assert outputs[0].keys() == outputs[1].keys()
        assert "pareto.csv" in outputs[0]
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name]


@pytest.fixture(scope="session")
def experiment_run():
    """The full experiment-scale optimization (criterion 7), 9-20 s."""
    cfg = parse_config(section8_preset(seed=1))
    problem = cfg.build_problem()
    ga = cfg.ga_for_problem(problem)
    start = time.perf_counter()
    front = evolve(problem, ga, of3_weights=cfg.of3_weights)
    elapsed = time.perf_counter() - start
    return cfg, problem, front, elapsed


@pytest.fixture(scope="session")
def clustered_baseline(experiment_run):
    """The clustered 21-sensor deployment scored on the same grid/jammers."""
    cfg, problem, _, _ = experiment_run
    sites, _ = load_deployed_csv(clustered21_path())
    baseline = build_problem(
        bounds=cfg.bounds, lat_count=cfg.lat_count, lon_count=cfg.lon_count,
        candidate_count=0, requirements=cfg.requirements, jammers=problem.jammers,
        jammer_model=problem.jammer_model, deployed=sites,
    )
    chromosome = Chromosome(baseline.forced_mask.copy(), baseline.forced_mask)
    return evaluate_placement(baseline, chromosome, gdop_subset_cap=6)


class TestCriterion7ExperimentScale:
    def test_front_respects_sensor_cap(self, experiment_run):
        _, _, front, _ = experiment_run
        assert front.members
        assert all(m.chromosome.genes.sum() <= 30 for m in front.members)

    def test_gdop_coverage_halved_vs_clustered(self, experiment_run, clustered_baseline):
        cfg, problem, front, _ = experiment_run
        _, base_cov, _ = clustered_baseline
        base_frac = gdop_distribution(base_cov, [60.0]).fraction_above[0]
        assert base_frac >= 0.75  # clustered deployment leaves most points poor
        best = min(front.members, key=lambda m: m.raw.of1)
        _, cov, _ = evaluate_placement(
            problem, best.chromosome, bounds=front.bounds, gdop_subset_cap=6
        )
        frac = gdop_distribution(cov, [60.0]).fraction_above[0]
        assert frac <= 0.5 * base_frac

    def test_jamming_impact_halved_vs_clustered(self, experiment_run, clustered_baseline):
        cfg, problem, front, _ = experiment_run
        _, _, base_report = clustered_baseline
        rows = pareto_summary(front, cfg.of3_weights)
        best_row = min(rows, key=lambda r: (r["of3"], r["solution_id"]))
        member = front.members[best_row["solution_id"]]
        _, _, report = evaluate_placement(
            problem, member.chromosome, bounds=front.bounds, gdop_subset_cap=6
        )
        assert base_report.affected_count.max() > 0
        assert report.affected_count.max() <= 0.5 * base_report.affected_count.max()

    def test_wall_clock_budget(self, experiment_run):
        # Budget: 15 min on an 8-core desktop; this single-core run must
        # still land inside it.
        _, _, _, elapsed = experiment_run
        assert elapsed <= 15 * 60


class TestCriterion8AugmentContract:
    def test_forced_and_budget(self, tmp_path, capsys):
        data = dict(SMALL_RUN_CONFIG)
        data["candidates"] = {"count": 400}
        data["ga"] = {"population_size": 12, "generations": 3, "rng_seed": 2,
                      "n_max": 15, "gdop_subset_cap": 6}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "aug"
        run_cli(["augment", "--config", cfg, "--sensors", clustered21_path(),
                 "--out", out, "--threads", "1"])
        rows = read_pareto_csv(out / "pareto.csv")
        assert rows
        for row in rows:
            assert row["n_forced"] == 21
            assert row["n_sensors"] <= 36
            sol = (out / f"solution_{row['solution_id']}.csv").read_text()
            forced_rows = [
                line for line in sol.splitlines()
                if line and not line.startswith(("#", "id")) and line.endswith(",1")
            ]
            assert len(forced_rows) == 21

    def test_empty_deployment_equals_scratch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN_CONFIG)
        empty = tmp_path / "none.csv"
        empty.write_text("id,lat_deg,lon_deg,alt_m\n")
        out_scratch = tmp_path / "scratch"
        out_aug = tmp_path / "aug"
        run_cli(["optimize", "--config", cfg, "--out", out_scratch, "--threads", "1"])
        run_cli(["augment", "--config", cfg, "--sensors", empty,
                 "--out", out_aug, "--threads", "1"])

        def payload(path):
            # Identical results; only the hashed-config comment may differ.
            return [
                line for line in path.read_text().splitlines()
                if not line.startswith("#")
            ]

        assert payload(out_scratch / "pareto.csv") == payload(out_aug / "pareto.csv")
        scratch_sols = sorted(p.name for p in out_scratch.glob("solution_*.csv"))
        aug_sols = sorted(p.name for p in out_aug.glob("solution_*.csv"))
        assert scratch_sols == aug_sols
        for name in scratch_sols:
            assert payload(out_scratch / name) == payload(out_aug / name)


class TestCriterion9Elitism:
    def test_progress_fronts_never_regress(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN_CONFIG)
        run_cli(["optimize", "--config", cfg, "--out", tmp_path / "out", "--threads", "1"])
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines() if line.strip()]
        assert len(records) == SMALL_RUN_CONFIG["ga"]["generations"] + 1
        for prev, cur in zip(records, records[1:]):
            for vec in cur["front"]:
                assert not any(dominates(old, vec) for old in prev["front"])


class TestCriterion10RoundTripAudit:
    def test_evaluate_reproduces_front_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN_CONFIG)
        out = tmp_path / "out"
        run_cli(["optimize", "--config", cfg, "--out", out, "--threads", "1"])
        rows = read_pareto_csv(out / "pareto.csv")
        assert rows
        for row in rows:
            eval_out = tmp_path / f"audit_{row['solution_id']}"
            run_cli([
                "evaluate", "--config", cfg,
                "--sensors", out / f"solution_{row['solution_id']}.csv",
                "--out", eval_out,
            ])
            scores = json.loads((eval_out / "scores.json").read_text())
            for key in ("of1", "of2", "of3", "d1", "d2", "d3", "penalty"):
                assert scores[key] == row[key], (row["solution_id"], key)
            assert scores["n_sensors"] == row["n_sensors"]
            for key in ("of1", "of2", "of3"):
                assert scores["normalized"][key] == row[f"{key}_norm"]

    def test_evaluate_needs_no_metadata_lines(self, tmp_path, capsys):
        """An augment front audited from solution files stripped of every
        ``#`` line: the normalization follows from the config alone."""
        sensors = str(clustered21_path())
        cfg = write_config(tmp_path, SMALL_RUN_CONFIG)
        eval_cfg = write_config(
            tmp_path, dict(SMALL_RUN_CONFIG, scenario={"kind": "augment", "deployed_file": sensors}),
            name="evaluate.json",
        )
        out = tmp_path / "out"
        run_cli(["augment", "--config", cfg, "--sensors", sensors, "--out", out, "--threads", "1"])
        for row in read_pareto_csv(out / "pareto.csv"):
            stripped = tmp_path / f"bare_{row['solution_id']}.csv"
            lines = (out / f"solution_{row['solution_id']}.csv").read_text().splitlines(True)
            stripped.write_text("".join(line for line in lines if not line.startswith("#")))
            eval_out = tmp_path / f"audit_{row['solution_id']}"
            run_cli(["evaluate", "--config", eval_cfg, "--sensors", stripped,
                     "--out", eval_out])
            scores = json.loads((eval_out / "scores.json").read_text())
            for key in ("of1", "of2", "of3", "d1", "d2", "d3", "penalty"):
                assert scores[key] == row[key], (row["solution_id"], key)
            for key in ("of1", "of2", "of3"):
                assert scores["normalized"][key] == row[f"{key}_norm"]
