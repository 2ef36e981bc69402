"""Command-line surface: optimize, augment, evaluate, report."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, RunConfig, load_config
from .nsga2 import Chromosome, evolve
from .objectives import InvalidConfigError, saturation_normalization
from .scenario import DeployedFileError, build_problem_from_sites, load_deployed_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NO_FEASIBLE = 3

log = logging.getLogger("adsbplace.cli")

PARETO_COLUMNS = [
    "solution_id", "n_sensors", "n_forced",
    "of1", "of2", "of3", "of1_norm", "of2_norm", "of3_norm",
    "d1", "d2", "d3", "penalty",
]


def fmt(value) -> str:
    """Serialize a number with 9 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.9g" % value


def _progress_writer(stream):
    def emit(record: dict) -> None:
        stream.write(json.dumps(record) + "\n")
        stream.flush()

    return emit


def _write_front(cfg: RunConfig, problem, front, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = cfg.config_hash()
    rows = analysis.pareto_summary(front, cfg.of3_weights)
    meta = {
        "config_hash": config_hash,
        "seed": front.seed,
        "total_cells": problem.n_candidates,
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    with open(out_dir / "pareto.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n# seed={front.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(PARETO_COLUMNS)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in PARETO_COLUMNS])

    for row, member in zip(rows, front.members):
        sol_id = row["solution_id"]
        with open(out_dir / f"solution_{sol_id}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write(
                f"# config_hash={config_hash}\n# seed={front.seed}\n"
                f"# solution_id={sol_id}\n# total_cells={problem.n_candidates}\n"
            )
            writer = csv.writer(fh)
            writer.writerow(["id", "lat_deg", "lon_deg", "alt_m", "forced"])
            for idx in np.flatnonzero(member.chromosome.genes):
                writer.writerow(
                    [
                        int(idx),
                        fmt(problem.cand_lat[idx]),
                        fmt(problem.cand_lon[idx]),
                        fmt(problem.cand_alt[idx]),
                        int(member.chromosome.forced_mask[idx]),
                    ]
                )


def _run_optimization(cfg: RunConfig, out_dir: Path, seed_override: int | None, threads: int) -> int:
    problem = cfg.build_problem()
    ga = cfg.ga_for_problem(problem, seed_override)
    front = evolve(
        problem,
        ga,
        of3_weights=cfg.of3_weights,
        progress=_progress_writer(sys.stderr),
        threads=threads,
    )
    _write_front(cfg, problem, front, out_dir)
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.output_dir)
    return _run_optimization(cfg, out_dir, args.seed, args.threads)


def cmd_augment(args) -> int:
    cfg = load_config(args.config)
    cfg.scenario_kind = "augment"
    cfg.deployed_file = args.sensors
    # Fold the deployment into the hashed document so re-evaluation with
    # an equivalent augment config reproduces this run's identity.
    cfg.raw = dict(cfg.raw)
    cfg.raw["scenario"] = {"kind": "augment", "deployed_file": str(args.sensors)}
    out_dir = Path(args.out or cfg.output_dir)
    return _run_optimization(cfg, out_dir, args.seed, args.threads)


def _read_sensor_file(path: Path) -> tuple[list, int | None]:
    """Sensor rows plus the seed of a leading ``# seed=`` line, if any."""
    seed = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].partition("=")
            if sep and key.strip() == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise DeployedFileError(
                        line_no, f"seed {value.strip()!r} is not an integer"
                    ) from None
    return load_deployed_csv(path), seed


def _map_to_candidates(problem, rows) -> np.ndarray | None:
    """Chromosome over the problem's candidates, or None if rows do not
    correspond to candidate sites."""
    genes = np.zeros(problem.n_candidates, dtype=bool)
    for _, lat, lon, _alt in rows:
        close = np.flatnonzero(
            (np.abs(problem.cand_lat - lat) < 1e-6) & (np.abs(problem.cand_lon - lon) < 1e-6)
        )
        if close.size != 1:
            return None
        genes[close[0]] = True
    return genes


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    rows, seed = _read_sensor_file(Path(args.sensors))
    if seed is None:
        seed = cfg.ga.rng_seed

    problem = cfg.build_problem()
    n_max = cfg.ga_for_problem(problem).n_max
    bounds = saturation_normalization(problem.requirements, problem.range_cap_km,
                                      problem.n_candidates if n_max is None else n_max)
    genes = None if not rows else _map_to_candidates(problem, rows)
    if genes is None:
        # Free-standing placement: evaluate the file's sensors directly.
        if rows:
            problem = build_problem_from_sites(
                bounds=cfg.bounds,
                lat_count=cfg.lat_count,
                lon_count=cfg.lon_count,
                requirements=cfg.requirements,
                sites=rows,
                jammers=problem.jammers,
            )
            chromosome = Chromosome(problem.forced_mask.copy(), problem.forced_mask)
        else:
            chromosome = Chromosome(
                np.zeros(problem.n_candidates, dtype=bool), problem.forced_mask
            )
    else:
        forced = problem.forced_mask
        chromosome = Chromosome(genes | forced, forced)

    scores, coverage, report = analysis.evaluate_placement(
        problem,
        chromosome,
        of3_weights=cfg.of3_weights,
        bounds=bounds,
        gdop_subset_cap=cfg.ga.gdop_subset_cap,
    )

    out_dir = Path(args.out or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = cfg.config_hash()
    payload = {
        "config_hash": config_hash,
        "seed": seed,
        "n_sensors": int(chromosome.popcount()),
        "of1": float(fmt(scores.of1)),
        "of2": float(fmt(scores.of2)),
        "of3": float(fmt(scores.of3)),
        "d1": float(fmt(scores.of3_components[0])),
        "d2": float(fmt(scores.of3_components[1])),
        "d3": float(fmt(scores.of3_components[2])),
        "penalty": float(fmt(scores.penalty)),
        "normalized": {k: float(fmt(v)) for k, v in scores.normalized.items()},
    }
    (out_dir / "scores.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    with open(out_dir / "coverage.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n# seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["lat_deg", "lon_deg", "alt_m", "k", "gdop", "range2_km"])
        for i in range(coverage.lat_deg.size):
            writer.writerow(
                [
                    fmt(coverage.lat_deg[i]),
                    fmt(coverage.lon_deg[i]),
                    fmt(coverage.alt_m[i]),
                    int(coverage.k_visible[i]),
                    fmt(coverage.best_gdop[i]),
                    fmt(coverage.second_range_km[i]),
                ]
            )

    with open(out_dir / "jam_report.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n# seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["jammer_id", "lat_deg", "lon_deg", "alt_m", "affected", "min_dist_km"])
        for i in range(report.affected_count.size):
            writer.writerow(
                [
                    i,
                    fmt(report.jammer_lat[i]),
                    fmt(report.jammer_lon[i]),
                    fmt(report.jammer_alt[i]),
                    int(report.affected_count[i]),
                    fmt(report.min_distance_km[i]),
                ]
            )
    return EXIT_OK


def read_pareto_csv(path: Path) -> list[dict]:
    if not path.exists():
        raise FileNotFoundError(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for rec in reader:
            rows.append(
                {
                    key: (int(rec[key]) if key in ("solution_id", "n_sensors", "n_forced") else float(rec[key]))
                    for key in PARETO_COLUMNS
                }
            )
    return rows


def cmd_report(args) -> int:
    front_dir = Path(args.front_dir)
    try:
        rows = read_pareto_csv(front_dir / "pareto.csv")
    except FileNotFoundError:
        print(f"error: no pareto.csv in {front_dir}", file=sys.stderr)
        return EXIT_USAGE
    try:
        weights = [float(w) for w in args.weights.split(",")]
        best = analysis.select_row(rows, args.budget, weights)
    except ValueError:
        print("error: --weights must be three non-negative values summing to 1", file=sys.stderr)
        return EXIT_USAGE

    header = PARETO_COLUMNS
    print(",".join(header))
    for row in rows:
        print(",".join(fmt(row[c]) for c in header))

    if best is None:
        print("no feasible solution under the sensor budget", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    print(f"selected solution_id={best[2]} score={fmt(best[0])} n_sensors={best[1]}")
    return EXIT_OK


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsbplace",
        description="Security-aware ADS-B sensor placement optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", help="output directory (overrides config)")

    def add_search(p):
        add_common(p)
        p.add_argument("--seed", type=int, help="override the GA seed")
        p.add_argument(
            "--threads", type=_thread_count, default=os.cpu_count() or 1,
            help="evaluation worker count",
        )

    p_opt = sub.add_parser("optimize", help="scenario 1: placement from scratch")
    add_search(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_aug = sub.add_parser("augment", help="scenario 2: augment a deployment")
    add_search(p_aug)
    p_aug.add_argument("--sensors", required=True, help="deployed-sensor CSV")
    p_aug.set_defaults(func=cmd_augment)

    p_eval = sub.add_parser("evaluate", help="score an explicit placement")
    add_common(p_eval)
    p_eval.add_argument("--sensors", required=True, help="sensor CSV to evaluate")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="summarize a front and pick a solution")
    p_rep.add_argument("front_dir", help="directory containing pareto.csv")
    p_rep.add_argument("--budget", type=int, help="maximum sensors")
    p_rep.add_argument("--weights", default="0.3333333333,0.3333333333,0.3333333334")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("OSP_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, DeployedFileError, InvalidConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except analysis.NoFeasibleSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
