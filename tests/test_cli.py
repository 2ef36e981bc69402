"""Command-line surface: runs, files, exit codes, reports."""

import json
from pathlib import Path

import pytest

from adsbplace.cli import (
    EXIT_NO_FEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    fmt,
    main,
    read_pareto_csv,
)
from adsbplace import scenario
from adsbplace.config import parse_config
from adsbplace.scenario import clustered21_path

from test_acceptance import SMALL_RUN_CONFIG

SMALL_CONFIG = {
    "area": {
        "lat_low_deg": 47.4,
        "lat_up_deg": 51.4,
        "lon_low_deg": 5.71,
        "lon_up_deg": 9.71,
        "altitudes_m": [3000.0, 6000.0, 10000.0],
    },
    "grid": {"lat_count": 5, "lon_count": 5},
    "candidates": {"count": 16},
    "jammers": {"count": 8, "heights_m": [3000.0, 6000.0]},
    "ga": {"population_size": 10, "generations": 3, "rng_seed": 7, "n_max": 8,
           "gdop_subset_cap": 6},
}


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(SMALL_CONFIG))
    return p


def run_optimize(config_file, out_dir):
    code = main(
        ["optimize", "--config", str(config_file), "--out", str(out_dir), "--threads", "1"]
    )
    assert code == EXIT_OK
    return Path(out_dir)


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(0.123456789123) == "0.123456789"
        assert fmt(3) == "3"
        assert fmt(float("inf")) == "inf"

    def test_round_trips_through_float(self):
        v = 1234.56789012
        assert float(fmt(v)) == pytest.approx(v, rel=1e-9)


class TestOptimize:
    def test_outputs_present(self, config_file, tmp_path, capsys):
        out = run_optimize(config_file, tmp_path / "out")
        assert (out / "pareto.csv").exists()
        assert (out / "run_meta.json").exists()
        rows = read_pareto_csv(out / "pareto.csv")
        assert rows
        for row in rows:
            assert (out / f"solution_{row['solution_id']}.csv").exists()
            assert row["n_sensors"] <= 8

    def test_progress_stream_json(self, config_file, tmp_path, capsys):
        run_optimize(config_file, tmp_path / "out")
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines() if line.strip()]
        assert [r["gen"] for r in records] == list(range(4))
        assert all("front_size" in r and "best" in r and "front" in r for r in records)

    def test_metadata_embedded(self, config_file, tmp_path, capsys):
        out = run_optimize(config_file, tmp_path / "out")
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["total_cells"] == 16
        assert "bounds" not in meta
        header = (out / "pareto.csv").read_text().splitlines()[:2]
        assert header[0].startswith("# config_hash=")
        assert header[1] == "# seed=7"

    def test_zero_generations_front_of_initial_population(self, config_file, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG)
        cfg["ga"] = dict(cfg["ga"], generations=0)
        p = config_file.parent / "zero.json"
        p.write_text(json.dumps(cfg))
        out = run_optimize(p, tmp_path / "out0")
        assert read_pareto_csv(out / "pareto.csv")

    def test_three_candidates(self, tmp_path, capsys):
        """Three candidate sites never make a GDOP subset; the run completes."""
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["candidates"]["count"] = 3
        p = tmp_path / "three.json"
        p.write_text(json.dumps(doc))
        out = run_optimize(p, tmp_path / "out3")
        assert read_pareto_csv(out / "pareto.csv")

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"area": {"lat_low_deg": 51.0, "lat_up_deg": 47.0,
                                          "lon_low_deg": 5.0, "lon_up_deg": 9.0,
                                          "altitudes_m": [1000.0]}}))
        code = main(["optimize", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_missing_subcommand_exit_2(self, capsys):
        assert main([]) == EXIT_USAGE


NAN = float("nan")


@pytest.mark.parametrize("section,key,value,field", [
    (None, "of3_weights", [NAN, 0.5, 0.5], "of3_weights"),
    (None, "of3_weights", ["a", 0.5, 0.5], "of3_weights"),
    ("area", "altitudes_m", [NAN], "area.altitudes_m"),
    ("area", "altitudes_m", ["high"], "area.altitudes_m"),
    ("jammers", "heights_m", [NAN], "jammers.heights_m"),
    ("jammers", "heights_m", ["low"], "jammers.heights_m"),
    ("jammers", "heights_m", [], "jammers.heights_m"),
    ("jammers", "power_w", NAN, "jammers.power_w"),
    ("jammers", "jsr_threshold", NAN, "jammers.jsr_threshold"),
    ("jammers", "pattern", "spiral", "jammers.pattern"),
    ("jammers", "affect_rule", "always", "jammers.affect_rule"),
    ("candidates", "antenna_height_m", NAN, "candidates.antenna_height_m"),
    ("ga", "gdop_subset_cap", 3, "gdop_subset_cap"),
    (None, "requirements", {"range_cap_km": -50.0}, "requirements"),
    (None, "requirements", {"range_cap_km": 0}, "requirements"),
    ("ga", "rng_seed", -1, "ga.rng_seed"),
    (None, "candidates", {"count": 16, "pattern": "seeded-uniform", "seed": -1},
     "candidates.seed"),
    (None, "jammers", {"count": 8, "heights_m": [3000.0], "pattern": "seeded-uniform",
                       "seed": -5}, "jammers.seed"),
    ("ga", "n_max", 10**30, "ga.n_max"),
    (None, "requirements", {"max_sensors_in_jammer_los": 10**30},
     "requirements.max_sensors_in_jammer_los"),
    ("candidates", "antenna_height_m", -10, "candidates.antenna_height_m"),
    ("jammers", "heights_m", [-100], "jammers.heights_m"),
    (None, "of3_weights", [0.5, 0.5, 0.5], "of3_weights"),
    (None, "of3_weights", [-0.5, 0.75, 0.75], "of3_weights"),
    (None, "of3_weights", [0.5, 0.5], "of3_weights"),
    ("jammers", "jsr_threshold", -1, "jsr_threshold"),
    ("jammers", "nominal_signal_distance_km", -5, "nominal_signal_distance_km"),
    # Counts whose matrices would exceed config.MAX_FOOTPRINT_BYTES.
    ("grid", "lat_count", 10**12, "grid.lat_count"),
    ("candidates", "count", 10**12, "candidates.count"),
    ("jammers", "count", 10**12, "jammers.count"),
    ("ga", "population_size", 10**12, "ga.population_size"),
    ("ga", "population_size", 10**6, "ga.population_size"),
])
def test_malformed_config_exit_2(tmp_path, capsys, section, key, value, field):
    """Rejected before the search starts, with a message naming the field."""
    doc = json.loads(json.dumps(SMALL_CONFIG))
    (doc[section] if section else doc)[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(["optimize", "--config", str(p), "--out", str(tmp_path / "o"), "--threads", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert field in err
    assert '"gen"' not in err


def exit_code_and_err(tmp_path, capsys, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(["optimize", "--config", str(p), "--out", str(tmp_path / "o"), "--threads", "1"])
    return code, capsys.readouterr().err


def test_evaluator_footprint_exit_2(tmp_path, capsys):
    """Population 10**4 on a 1000 x 1000 grid at three altitudes: only an
    evaluated batch's rows pass config.MAX_FOOTPRINT_BYTES. They take
    10**4 x 3e6 x (8 + 2 x (6 + 2)) bytes, 720 GB; the other terms sum to
    2.6 GB."""
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["grid"] = {"lat_count": 1000, "lon_count": 1000}
    doc["ga"]["population_size"] = 10**4
    code, err = exit_code_and_err(tmp_path, capsys, doc)
    assert code == EXIT_USAGE
    assert "ga.population_size" in err and "7.23e+11 bytes" in err
    assert '"gen"' not in err


@pytest.mark.parametrize("section,key,field", [
    ("candidates", "count", "candidates.count"),
    ("ga", "tournament_size", "ga.tournament_size"),
    ("ga", "population_size", "ga.population_size"),
    ("ga", "crossover_rate", "ga.crossover_rate"),
    ("area", "lat_up_deg", "area.lat_up_deg"),
    ("jammers", "power_w", "jammers.power_w"),
])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_number_exit_2(tmp_path, capsys, section, key, field, value):
    """JSON true/false is not a number, although Python's bool is an int."""
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc.setdefault(section, {})[key] = value
    code, err = exit_code_and_err(tmp_path, capsys, doc)
    assert code == EXIT_USAGE
    assert field in err
    assert '"gen"' not in err


def test_tournament_above_population_exit_2(tmp_path, capsys):
    """Rejected while parsing; the search never draws the tournaments."""
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["ga"]["tournament_size"] = 1_000_000_000
    code, err = exit_code_and_err(tmp_path, capsys, doc)
    assert code == EXIT_USAGE
    assert "ga: tournament_size" in err
    assert '"gen"' not in err


@pytest.mark.parametrize("key,value", [
    ("lat_up_deg", 91.0),
    ("lat_low_deg", -91.0),
    ("lon_up_deg", 181.0),
    ("lon_low_deg", -181.0),
    ("lat_up_deg", 200.0),
])
def test_area_out_of_range_exit_2(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["area"][key] = value
    code, err = exit_code_and_err(tmp_path, capsys, doc)
    assert code == EXIT_USAGE
    assert "area:" in err
    assert '"gen"' not in err


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
@pytest.mark.parametrize("command", ["optimize", "augment"])
def test_bad_threads_exit_2(config_file, tmp_path, capsys, command, threads):
    """A worker count below 1 is a usage error, before any search."""
    argv = [command, "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--threads", threads]
    if command == "augment":
        argv += ["--sensors", str(clustered21_path())]
    assert main(argv) == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["optimize", "augment"])
def test_negative_seed_exit_2(config_file, tmp_path, capsys, command):
    """A seed below 0 is a usage error, before any search."""
    argv = [command, "--config", str(config_file), "--out", str(tmp_path / "o"),
            "--seed", "-1", "--threads", "1"]
    if command == "augment":
        argv += ["--sensors", str(clustered21_path())]
    assert main(argv) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["optimize", "augment"])
def test_threads_default_is_affinity_mask(monkeypatch, command):
    """The default worker count is the CPUs the process may run on, not
    every CPU of the machine; without an affinity call, the machine's."""
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2}, raising=False)
    argv = [command, "--config", "run.json"]
    if command == "augment":
        argv += ["--sensors", "deployed.csv"]
    assert build_parser().parse_args(argv).threads == 2
    monkeypatch.delattr("os.sched_getaffinity")
    assert build_parser().parse_args(argv).threads == 64


class TestAugment:
    def test_forced_sensors_in_every_solution(self, config_file, tmp_path, capsys):
        out = tmp_path / "aug"
        code = main([
            "augment", "--config", str(config_file), "--sensors", str(clustered21_path()),
            "--out", str(out), "--threads", "1",
        ])
        assert code == EXIT_OK
        rows = read_pareto_csv(out / "pareto.csv")
        assert rows
        for row in rows:
            assert row["n_forced"] == 21
            assert row["n_sensors"] >= 21

    def test_default_threads_byte_identical(self, tmp_path, capsys):
        """The pool that ``--threads`` sizes changes no output: every file
        but run_meta.json and the stderr progress stream are identical at
        one and two threads."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps(SMALL_RUN_CONFIG))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"aug{threads}"
            code = main(["augment", "--config", str(config), "--sensors", str(clustered21_path()),
                         "--out", str(out), "--threads", threads])
            assert code == EXIT_OK
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"}
            outputs.append((files, capsys.readouterr().err))
        (files, err), (files2, err2) = outputs
        assert "pareto.csv" in files and "solution_0.csv" in files
        assert files == files2
        assert err.count("\n") == SMALL_RUN_CONFIG["ga"]["generations"] + 1
        assert err == err2

    def test_malformed_deployed_exit_2(self, config_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,lat_deg,lon_deg,alt_m\nx,not-a-number,7.0,0\n")
        code = main([
            "augment", "--config", str(config_file), "--sensors", str(bad),
            "--out", str(tmp_path / "aug"), "--threads", "1",
        ])
        assert code == EXIT_USAGE


def test_outputs_end_lines_in_lf(config_file, tmp_path, capsys):
    """Every file optimize, augment and evaluate write, and the table
    report prints, end their lines in LF alone."""
    opt, aug, ev = tmp_path / "opt", tmp_path / "aug", tmp_path / "eval"
    run_optimize(config_file, opt)
    assert main(["augment", "--config", str(config_file), "--sensors", str(clustered21_path()),
                 "--out", str(aug), "--threads", "1"]) == EXIT_OK
    assert main(["evaluate", "--config", str(config_file), "--sensors",
                 str(opt / "solution_0.csv"), "--out", str(ev)]) == EXIT_OK
    files = [p for out in (opt, aug, ev) for p in out.iterdir()]
    assert {"pareto.csv", "solution_0.csv", "run_meta.json", "scores.json", "coverage.csv",
            "jam_report.csv"} <= {p.name for p in files}
    assert [p.name for p in files if b"\r" in p.read_bytes()] == []
    capsys.readouterr()
    assert main(["report", str(opt)]) == EXIT_OK
    assert "\r" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["augment", "evaluate"])
@pytest.mark.parametrize("row", ["x,nan,7.0,0", "x,48.0,inf,0", "x,95.0,7.0,0", "x,48.0,181.0,0"])
def test_bad_sensor_coordinates_exit_2(config_file, tmp_path, capsys, command, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"id,lat_deg,lon_deg,alt_m\n{row}\n")
    code = main([
        command, "--config", str(config_file), "--sensors", str(bad), "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_USAGE
    assert f"error: {bad}: line 2:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["augment", "evaluate"])
@pytest.mark.parametrize("data, line", [
    (b"id,lat_deg,lon_deg,alt_m\nx\xff,48.0,7.0,0\n", 2),
    (b"# seed=1 \xe9t\xe9\nid,lat_deg,lon_deg,alt_m\nx,48.0,7.0,0\n", 1),
])
def test_non_utf8_sensor_file_exit_2(config_file, tmp_path, capsys, command, data, line):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(data)
    code = main([
        command, "--config", str(config_file), "--sensors", str(bad), "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {bad}: line {line}: not UTF-8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, broken, fault", [
    ("evaluate", "sensors", "row"),
    ("evaluate", "deployed", "row"),
    ("evaluate", "sensors", "missing"),
    ("evaluate", "deployed", "missing"),
    ("augment", "sensors", "missing"),
    ("optimize", "deployed", "missing"),
])
def test_input_file_error_names_file(tmp_path, capsys, command, broken, fault):
    """Under an augment config, whose scenario.deployed_file is read as
    well as --sensors, a missing or malformed input file exits 2 with a
    message naming that file, without a traceback."""
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("id,lat_deg,lon_deg,alt_m\na,48.0,7.0,0\n")
    if fault == "row":
        bad.write_text("id,lat_deg,lon_deg,alt_m\nx,abc,7.0,0\n")
    files = {"sensors": good, "deployed": good, broken: bad}
    config = tmp_path / "augment.json"
    config.write_text(json.dumps(dict(
        SMALL_CONFIG, scenario={"kind": "augment", "deployed_file": str(files["deployed"])})))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command != "optimize":
        argv += ["--sensors", str(files["sensors"])]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    message = ("line 2: could not convert string to float: 'abc'" if fault == "row"
               else "cannot read: No such file or directory")
    assert f"error: {bad}: {message}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_fixture_scores_finite(self, config_file, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--config", str(config_file), "--sensors", str(clustered21_path()),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        scores = json.loads((out / "scores.json").read_text())
        for key in ("of1", "of2", "of3", "d1", "d2", "d3", "penalty"):
            assert isinstance(scores[key], float)
        assert scores["n_sensors"] == 21
        assert (out / "coverage.csv").exists()
        assert (out / "jam_report.csv").exists()

    def test_idempotent(self, config_file, tmp_path, capsys):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main([
                "evaluate", "--config", str(config_file),
                "--sensors", str(clustered21_path()), "--out", str(out),
            ])
            outs.append((out / "scores.json").read_bytes())
        assert outs[0] == outs[1]

    def test_empty_sensor_file_saturated(self, config_file, tmp_path, capsys):
        empty = tmp_path / "none.csv"
        empty.write_text("id,lat_deg,lon_deg,alt_m\n")
        out = tmp_path / "eval0"
        code = main([
            "evaluate", "--config", str(config_file), "--sensors", str(empty),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        scores = json.loads((out / "scores.json").read_text())
        assert scores["n_sensors"] == 0
        coverage = (out / "coverage.csv").read_text().splitlines()
        data = [line for line in coverage if not line.startswith(("#", "lat_deg"))]
        assert all(line.split(",")[3] == "0" for line in data)

    def test_empty_sensor_file_under_augment_config_scores_deployment(self, tmp_path, capsys):
        """Under an augment config the forced sites are always selected, so
        a header-only file scores the deployment alone, as the deployment
        file itself does."""
        config = tmp_path / "augment.json"
        config.write_text(json.dumps(dict(
            SMALL_CONFIG, scenario={"kind": "augment", "deployed_file": str(clustered21_path())})))
        empty = tmp_path / "none.csv"
        empty.write_text("id,lat_deg,lon_deg,alt_m\n")
        outputs = []
        for sensors in (empty, clustered21_path()):
            out = tmp_path / sensors.stem
            code = main(["evaluate", "--config", str(config), "--sensors", str(sensors),
                         "--out", str(out)])
            assert code == EXIT_OK
            outputs.append({name: (out / name).read_bytes()
                            for name in ("scores.json", "coverage.csv", "jam_report.csv")})
        assert json.loads(outputs[0]["scores.json"])["n_sensors"] == 21
        assert outputs[0] == outputs[1]

    def test_three_off_lattice_sensors_saturate_of1(self, config_file, tmp_path, capsys):
        """Fewer than four sensors leave no GDOP subset: OF1 sits at the cap,
        the same as with no sensors at all."""
        scores = {}
        for name, rows in (("three", ["a,48.13,7.31,0", "b,49.27,8.06,0", "c,50.33,6.24,0"]),
                           ("none", [])):
            sensors = tmp_path / f"{name}.csv"
            sensors.write_text("\n".join(["id,lat_deg,lon_deg,alt_m", *rows]) + "\n")
            out = tmp_path / name
            code = main(["evaluate", "--config", str(config_file), "--sensors", str(sensors),
                         "--out", str(out)])
            assert code == EXIT_OK
            scores[name] = json.loads((out / "scores.json").read_text())
        assert scores["three"]["n_sensors"] == 3
        assert scores["three"]["of1"] == scores["none"]["of1"]

    def test_sensor_altitude_is_scored(self, tmp_path, capsys):
        """Rows at lattice sites but another altitude are scored at their
        own altitude, as free-standing sensors, not at the candidates'."""
        doc = dict(SMALL_CONFIG, grid={"lat_count": 4, "lon_count": 4})
        config = tmp_path / "grid4.json"
        config.write_text(json.dumps(doc))
        problem = parse_config(doc).build_problem()
        scores = {}
        # Lattice sites at 0 m and 2000 m, and off the lattice by 1e-5 deg
        # at 2000 m, which is always a free-standing placement.
        for shift, alt in ((0.0, 0.0), (0.0, 2000.0), (1e-5, 2000.0)):
            sensors = tmp_path / "sensors.csv"
            sensors.write_text("\n".join(["id,lat_deg,lon_deg,alt_m", *(
                f"s{i},{fmt(problem.cand_lat[i] + shift)},{fmt(problem.cand_lon[i])},{fmt(alt)}"
                for i in (0, 3, 5, 10, 15)
            )]) + "\n")
            out = tmp_path / f"eval{shift}_{alt}"
            code = main(["evaluate", "--config", str(config), "--sensors", str(sensors),
                         "--out", str(out)])
            assert code == EXIT_OK
            scores[shift, alt] = json.loads((out / "scores.json").read_text())
        assert problem.cand_alt.tolist() == [0.0] * 16
        assert all(s["n_sensors"] == 5 for s in scores.values())
        assert scores[0.0, 0.0]["of1"] != scores[0.0, 2000.0]["of1"]
        assert scores[0.0, 2000.0]["of1"] == pytest.approx(scores[1e-5, 2000.0]["of1"], rel=1e-3)

    def test_bad_seed_line_exit_2(self, config_file, tmp_path, capsys):
        sensors = tmp_path / "sol.csv"
        sensors.write_text("# config_hash=0\n# seed=abc\nid,lat_deg,lon_deg,alt_m\nx,48.0,7.0,0\n")
        out = tmp_path / "eval"
        code = main(["evaluate", "--config", str(config_file), "--sensors", str(sensors),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "line 2:" in capsys.readouterr().err
        assert not out.exists()

    def test_free_standing_fallback_warns(self, config_file, tmp_path, capsys, caplog,
                                          monkeypatch):
        """An augment solution scored under the plain config matches none of
        its deployed rows, so evaluate warns naming the first one; under the
        augment config every row is a candidate and nothing is logged.
        Either way evaluate precomputes one problem: the file's sites alone,
        or the config's 16 candidates and 21 deployed sites."""
        out = tmp_path / "aug"
        assert main(["augment", "--config", str(config_file), "--sensors",
                     str(clustered21_path()), "--out", str(out), "--threads", "1"]) == EXIT_OK
        solution = out / "solution_0.csv"
        lines = [l for l in solution.read_text().splitlines() if not l.startswith("#")]
        first_forced = next(l.split(",")[0] for l in lines[1:] if l.endswith(",1"))
        augment_config = tmp_path / "augment.json"
        augment_config.write_text(json.dumps(dict(
            SMALL_CONFIG, scenario={"kind": "augment", "deployed_file": str(clustered21_path())})))
        precompute, precomputed = scenario.precompute, []

        def counted(problem):
            precomputed.append(problem.n_candidates)
            return precompute(problem)

        monkeypatch.setattr(scenario, "precompute", counted)
        for config, warns in ((config_file, True), (augment_config, False)):
            caplog.clear()
            precomputed.clear()
            with caplog.at_level("WARNING", logger="adsbplace.cli"):
                code = main(["evaluate", "--config", str(config), "--sensors", str(solution),
                             "--out", str(tmp_path / f"eval_{warns}")])
            assert code == EXIT_OK
            assert precomputed == [len(lines) - 1 if warns else 16 + 21]
            records = [r for r in caplog.records if r.name == "adsbplace.cli"]
            if warns:
                assert len(records) == 1 and records[0].levelname == "WARNING"
                message = records[0].getMessage()
                assert f"sensor {first_forced!r}" in message
                assert "penalty and of3 are relative to the file's own sites" in message
            else:
                assert records == []

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_search_flags_rejected(self, config_file, tmp_path, capsys, flag):
        code = main(["evaluate", "--config", str(config_file), "--sensors", str(clustered21_path()),
                     "--out", str(tmp_path / "eval"), flag, "1"])
        assert code == EXIT_USAGE


class TestReport:
    def test_summary_and_selection(self, config_file, tmp_path, capsys):
        out = run_optimize(config_file, tmp_path / "out")
        capsys.readouterr()
        code = main(["report", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        rows = read_pareto_csv(out / "pareto.csv")
        assert "selected solution_id=" in printed
        assert len([l for l in printed.splitlines() if l and l[0].isdigit()]) == len(rows)

    def test_weights_pick_of1_minimum(self, config_file, tmp_path, capsys):
        out = run_optimize(config_file, tmp_path / "out")
        capsys.readouterr()
        assert main(["report", str(out), "--weights", "1,0,0"]) == EXIT_OK
        printed = capsys.readouterr().out
        rows = read_pareto_csv(out / "pareto.csv")
        best = min(rows, key=lambda r: (r["of1_norm"], r["n_sensors"], r["solution_id"]))
        assert f"selected solution_id={best['solution_id']} " in printed

    def test_budget_infeasible_exit_3(self, tmp_path, capsys):
        out = tmp_path / "front"
        out.mkdir()
        (out / "pareto.csv").write_text(
            "# config_hash=deadbeef\n# seed=0\n"
            "solution_id,n_sensors,n_forced,of1,of2,of3,of1_norm,of2_norm,of3_norm,"
            "d1,d2,d3,penalty\n"
            "0,5,0,1,1,1,0.5,0.5,0.5,0,0,0,0.01\n"
        )
        assert main(["report", str(out), "--budget", "4"]) == EXIT_NO_FEASIBLE

    def test_missing_front_exit_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == EXIT_USAGE

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace(",n_forced,", ",n_fixed,"), "line 3: no column 'n_forced'"),
        (lambda text: text.replace("0.5,0.5,0.5", "abc,0.5,0.5"), "line 4: column of1_norm: 'abc'"),
        (lambda text: text.replace("0,5,0,1", "0,x,0,1"), "line 4: column n_sensors: 'x'"),
        (lambda text: text.replace(",0.01\n", "\n"), "line 4: column penalty: ''"),
        (lambda text: text.replace("0.01", "0.\udcff1"), "line 4: not UTF-8: byte 0xff"),
    ], ids=["missing-column", "text-cell", "text-count", "short-row", "not-utf8"])
    def test_malformed_pareto_exit_2(self, tmp_path, capsys, edit, message):
        """A broken pareto.csv exits 2 naming the file and the bad column or
        line, without a traceback."""
        out = tmp_path / "front"
        out.mkdir()
        (out / "pareto.csv").write_bytes(edit(
            "# config_hash=deadbeef\n# seed=0\n"
            "solution_id,n_sensors,n_forced,of1,of2,of3,of1_norm,of2_norm,of3_norm,"
            "d1,d2,d3,penalty\n"
            "0,5,0,1,1,1,0.5,0.5,0.5,0,0,0,0.01\n"
        ).encode("utf-8", "surrogateescape"))
        assert main(["report", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {out / 'pareto.csv'}: {message}" in err
        assert "Traceback" not in err

    def test_bad_weights_exit_2(self, config_file, tmp_path, capsys):
        out = run_optimize(config_file, tmp_path / "out")
        assert main(["report", str(out), "--weights", "1,1"]) == EXIT_USAGE

    @pytest.mark.parametrize("weights", ["a,b,c", "nan,0,0", "inf,0,0"])
    def test_malformed_weights_exit_2(self, config_file, tmp_path, capsys, weights):
        out = run_optimize(config_file, tmp_path / "out")
        capsys.readouterr()
        assert main(["report", str(out), "--weights", weights]) == EXIT_USAGE
        assert "--weights" in capsys.readouterr().err
