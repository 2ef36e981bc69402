"""Command-line surface: runs, files, exit codes, reports."""

import json
from pathlib import Path

import pytest

from adsbplace.cli import (
    EXIT_NO_FEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    fmt,
    main,
    read_pareto_csv,
)
from adsbplace.scenario import clustered21_path

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

    def test_malformed_deployed_exit_2(self, config_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,lat_deg,lon_deg,alt_m\nx,not-a-number,7.0,0\n")
        code = main([
            "augment", "--config", str(config_file), "--sensors", str(bad),
            "--out", str(tmp_path / "aug"), "--threads", "1",
        ])
        assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["augment", "evaluate"])
@pytest.mark.parametrize("row", ["x,nan,7.0,0", "x,48.0,inf,0", "x,95.0,7.0,0", "x,48.0,181.0,0"])
def test_bad_sensor_coordinates_exit_2(config_file, tmp_path, capsys, command, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"id,lat_deg,lon_deg,alt_m\n{row}\n")
    code = main([
        command, "--config", str(config_file), "--sensors", str(bad), "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_USAGE
    assert "line 2:" in capsys.readouterr().err
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

    def test_bad_seed_line_exit_2(self, config_file, tmp_path, capsys):
        sensors = tmp_path / "sol.csv"
        sensors.write_text("# config_hash=0\n# seed=abc\nid,lat_deg,lon_deg,alt_m\nx,48.0,7.0,0\n")
        out = tmp_path / "eval"
        code = main(["evaluate", "--config", str(config_file), "--sensors", str(sensors),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "line 2:" in capsys.readouterr().err
        assert not out.exists()

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

    def test_bad_weights_exit_2(self, config_file, tmp_path, capsys):
        out = run_optimize(config_file, tmp_path / "out")
        assert main(["report", str(out), "--weights", "1,1"]) == EXIT_USAGE

    @pytest.mark.parametrize("weights", ["a,b,c", "nan,0,0", "inf,0,0"])
    def test_malformed_weights_exit_2(self, config_file, tmp_path, capsys, weights):
        out = run_optimize(config_file, tmp_path / "out")
        capsys.readouterr()
        assert main(["report", str(out), "--weights", weights]) == EXIT_USAGE
        assert "--weights" in capsys.readouterr().err
