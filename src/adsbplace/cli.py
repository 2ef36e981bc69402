"""Command-line surface: optimize, augment, evaluate, report."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, RunConfig, load_config
from .nsga2 import Chromosome, evolve
from .objectives import InvalidConfigError, of3_weight_vector, saturation_normalization
from .scenario import DeployedFileError, candidate_sites, csv_rows, load_deployed_csv

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
# The raw scores of scores.json, in ObjectiveScores order.
SCORE_FIELDS = ("of1", "of2", "of3", "d1", "d2", "d3", "penalty")


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


def _write_table(path: Path, meta: dict, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _print_table(fh, meta, header, rows)


def _print_table(stream, meta: dict, header: list[str], rows) -> None:
    """Every table the CLI writes: a ``# key=value`` line per ``meta``
    item, the header, then each row's values through ``fmt``; every line
    ends in LF."""
    stream.writelines(f"# {key}={value}\n" for key, value in meta.items())
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(value) for value in row] for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_front(cfg: RunConfig, problem, front, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": cfg.config_hash(), "seed": front.seed}
    _write_json(out_dir / "run_meta.json", dict(meta, total_cells=problem.n_candidates))
    rows = analysis.pareto_summary(front, cfg.of3_weights)
    _write_table(out_dir / "pareto.csv", meta, PARETO_COLUMNS,
                 ([row[c] for c in PARETO_COLUMNS] for row in rows))
    for row, member in zip(rows, front.members):
        sol_id = row["solution_id"]
        idx = np.flatnonzero(member.chromosome.genes)
        _write_table(
            out_dir / f"solution_{sol_id}.csv",
            dict(meta, solution_id=sol_id, total_cells=problem.n_candidates),
            ["id", "lat_deg", "lon_deg", "alt_m", "forced"],
            zip(idx, problem.cand_lat[idx], problem.cand_lon[idx], problem.cand_alt[idx],
                member.chromosome.forced_mask[idx].astype(int)),
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
    # Fold the deployment into the hashed document so re-evaluation with
    # an equivalent augment config reproduces this run's identity.
    scenario = {"kind": "augment", "deployed_file": str(args.sensors)}
    cfg = replace(cfg, scenario_kind="augment", deployed_file=args.sensors,
                  raw=dict(cfg.raw, scenario=scenario))
    out_dir = Path(args.out or cfg.output_dir)
    return _run_optimization(cfg, out_dir, args.seed, args.threads)


def _map_to_candidates(sites: np.ndarray, rows) -> tuple[np.ndarray | None, int | None]:
    """Chromosome over the (3, N) candidate sites, or None and the index
    of the first row that does not match exactly one site in latitude,
    longitude and altitude, up to ``fmt``'s rounding to 9 significant
    digits."""
    cand_lat, cand_lon, cand_alt = sites
    genes = np.zeros(cand_lat.size, dtype=bool)
    for i, (_, lat, lon, alt) in enumerate(rows):
        close = np.flatnonzero(
            (np.abs(cand_lat - lat) < 1e-6) & (np.abs(cand_lon - lon) < 1e-6)
            & np.isclose(cand_alt, alt, rtol=1e-8, atol=1e-6)
        )
        if close.size != 1:
            return None, i
        genes[close[0]] = True
    return genes, None


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    rows, seed = load_deployed_csv(args.sensors)
    deployed = cfg.deployed_sites()
    sites, forced = candidate_sites(cfg.bounds, cfg.candidate_count, deployed,
                                    cfg.candidate_pattern, cfg.candidate_seed, cfg.antenna_height_m)
    # The config's sites set the normalization, on the fallback too.
    n_max = forced.size if cfg.ga.n_max is None else cfg.ga.n_max + int(forced.sum())
    genes, miss = _map_to_candidates(sites, rows)
    if genes is None:
        sensor_id, lat, lon, alt = rows[miss]
        log.warning(
            "sensor %r (%s, %s, %s m), row %d of %s, matches no single candidate site of the "
            "config; scoring the file's %d sites as a free-standing problem, so penalty "
            "and of3 are relative to the file's own sites",
            sensor_id, fmt(lat), fmt(lon), fmt(alt), miss + 1, args.sensors, len(rows),
        )
        problem = cfg.build_problem(candidate_count=0, deployed=rows)
        genes = problem.forced_mask
    else:
        problem = cfg.build_problem(deployed=deployed)
    chromosome = Chromosome(genes | problem.forced_mask, problem.forced_mask)
    bounds = saturation_normalization(problem.requirements, problem.range_cap_km, n_max)

    scores, coverage, report = analysis.evaluate_placement(
        problem,
        chromosome,
        of3_weights=cfg.of3_weights,
        bounds=bounds,
        gdop_subset_cap=cfg.ga.gdop_subset_cap,
    )

    out_dir = Path(args.out or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": cfg.config_hash(), "seed": cfg.ga.rng_seed if seed is None else seed}
    values = (scores.of1, scores.of2, scores.of3, *scores.of3_components, scores.penalty)
    _write_json(out_dir / "scores.json", {
        **meta,
        "n_sensors": int(chromosome.genes.sum()),
        **{key: float(fmt(value)) for key, value in zip(SCORE_FIELDS, values)},
        "normalized": {key: float(fmt(value)) for key, value in scores.normalized.items()},
    })
    _write_table(
        out_dir / "coverage.csv", meta, ["lat_deg", "lon_deg", "alt_m", "k", "gdop", "range2_km"],
        zip(coverage.lat_deg, coverage.lon_deg, coverage.alt_m, coverage.k_visible,
            coverage.best_gdop, coverage.second_range_km),
    )
    _write_table(
        out_dir / "jam_report.csv", meta,
        ["jammer_id", "lat_deg", "lon_deg", "alt_m", "affected", "min_dist_km"],
        zip(range(report.affected_count.size), report.jammer_lat, report.jammer_lon,
            report.jammer_alt, report.affected_count, report.min_distance_km),
    )
    return EXIT_OK


def read_pareto_csv(path: Path) -> list[dict]:
    """``pareto.csv``'s rows as dicts over PARETO_COLUMNS. An unreadable
    file, text that is not UTF-8 or CSV, a missing column and a cell that
    is not a number raise ``DeployedFileError`` naming the file and line."""
    records = ((line_no, row) for line_no, row in csv_rows(path) if row)
    line_no, header = next(records, (1, []))
    missing = [key for key in PARETO_COLUMNS if key not in header]
    if missing:
        raise DeployedFileError(path, line_no, f"no column {missing[0]!r}")
    at = {key: header.index(key) for key in PARETO_COLUMNS}
    rows = []
    for line_no, row in records:
        rec = {}
        for key in PARETO_COLUMNS:
            cell = row[at[key]] if at[key] < len(row) else ""
            try:
                rec[key] = (int if key in ("solution_id", "n_sensors", "n_forced") else float)(cell)
            except ValueError:
                raise DeployedFileError(path, line_no, f"column {key}: {cell!r} is not a number") from None
        rows.append(rec)
    return rows


def cmd_report(args) -> int:
    rows = read_pareto_csv(Path(args.front_dir) / "pareto.csv")
    best = analysis.select_row(rows, args.budget, args.weights)
    _print_table(sys.stdout, {}, PARETO_COLUMNS, ([row[c] for c in PARETO_COLUMNS] for row in rows))

    if best is None:
        print("no feasible solution under the sensor budget", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    print(f"selected solution_id={best[2]} score={fmt(best[0])} n_sensors={best[1]}")
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _weights(text: str) -> list[float]:
    """argparse type: three non-negative weights summing to 1."""
    try:
        weights = [float(w) for w in text.split(",")]
        of3_weight_vector(weights)
    except ValueError:
        raise argparse.ArgumentTypeError("must be three non-negative values summing to 1") from None
    return weights


def _available_cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        p.add_argument("--seed", type=_int_at_least(0), help="override the GA seed")
        p.add_argument(
            "--threads", type=_int_at_least(1), default=_available_cores(),
            help="GDOP kernel worker count (outputs do not depend on it)",
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
    p_rep.add_argument("--budget", type=_int_at_least(0), help="maximum sensors")
    p_rep.add_argument("--weights", type=_weights, default="0.3333333333,0.3333333333,0.3333333334")
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
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
