"""The three workloads and one measured run of each.

Every workload takes the seed as the GA seed. Candidates are a lattice
and jammers a grid, so the seed changes only the search, never the
problem. A run repeats cycles while its time budget lasts: one seeded
optimization, a burst of set-ups, a burst of audits of the first
optimization's front. All optimizations of one seed must give the same
front.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from adsbplace import analysis, cli, nsga2
from adsbplace.config import parse_config, section8_preset
from adsbplace.evaluator import PlacementEvaluator
from adsbplace.objectives import weighted_fitness
from adsbplace.scenario import clustered21_path

from hv import dominated_count, hypervolume_3d, static_objectives

# Generations per optimization, fixed so that a front and its
# hypervolume repeat exactly for a seed. One optimization takes 5-15 s
# on a 2-core host, so a 40 s run holds several.
GENERATIONS = {"s8_scratch": 3, "screen_pop400": 4, "augment_cli_default": 4}

MIN_CYCLES = 2          # optimizations per run, to check that they repeat
# After each optimization, set-up and audit repeat in bursts of at least
# this long and this often, so that their medians cover the whole run
# like the optimizations do, rather than one moment of a noisy machine.
BURST_SECONDS = 0.6
BURST_MIN = 2
BURST_MAX = 50


def s8_document(seed: int) -> dict:
    """The paper's section-8 problem: 1200 points, 400 candidates, cap 6."""
    doc = section8_preset(seed)
    doc["ga"]["generations"] = GENERATIONS["s8_scratch"]
    return doc


def screen_document(seed: int) -> dict:
    """Same area on a coarse 4x4x3 grid with a population of 400."""
    doc = section8_preset(seed)
    doc["grid"] = {"lat_count": 4, "lon_count": 4}
    doc["ga"]["population_size"] = 400
    doc["ga"]["generations"] = GENERATIONS["screen_pop400"]
    return doc


def augment_document(seed: int) -> dict:
    """A user's config: defaults for candidates, jammers, requirements and
    the GDOP subset cap (12), on a 6x6x3 grid."""
    area = section8_preset(seed)["area"]
    return {
        "area": area,
        "grid": {"lat_count": 6, "lon_count": 6},
        "ga": {"population_size": 24, "generations": GENERATIONS["augment_cli_default"],
               "rng_seed": seed, "n_max": 9},
    }


@dataclass
class Outcome:
    """One optimization's front and what is needed to check it."""

    front: object
    cfg: object
    problem: object
    ga: object
    stamps: list[float]


@dataclass
class Run:
    """Everything one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    gen_s: list[float] = field(default_factory=list)
    audit_s: list[float] = field(default_factory=list)
    setup_windows: list[tuple[float, float]] = field(default_factory=list)
    rep_windows: list[tuple[float, float]] = field(default_factory=list)
    audit_windows: list[tuple[float, float]] = field(default_factory=list)
    front_hv: float = 0.0
    pareto_rows: int = 0
    pareto_dominated_rows: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, failures: list[str]) -> None:
        """Count one operation and whether any of its checks failed."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)


def _burst(op, times: list[float], windows: list) -> None:
    """Time ``op`` repeatedly for about BURST_SECONDS."""
    start = time.perf_counter()
    n = 0
    while n < BURST_MIN or (n < BURST_MAX and time.perf_counter() - start < BURST_SECONDS):
        t0 = time.perf_counter()
        op()
        times.append(time.perf_counter() - t0)
        n += 1
    windows.append((start, time.perf_counter()))


def _gaps(stamps: list[float]) -> list[float]:
    """Seconds between consecutive progress records (generations >= 1)."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _check_front(outcome: Outcome, first: Outcome | None) -> list[str]:
    """Failures of one optimization's front; ``first`` is the first
    optimization of the run, or None for the first itself."""
    members, problem, ga = outcome.front.members, outcome.problem, outcome.ga
    if not members:
        return ["empty front"]
    problems = []
    forced = problem.forced_mask
    for i, m in enumerate(members):
        genes = m.chromosome.genes
        if ga.n_max is not None and int(genes.sum()) > ga.n_max:
            problems.append(f"member {i} selects {int(genes.sum())} > n_max {ga.n_max}")
        if not genes[forced].all():
            problems.append(f"member {i} drops a forced site")
    if dominated_count([m.objectives.tolist() for m in members]):
        problems.append("archive holds dominated objective vectors")
    if first is None:
        evaluator = PlacementEvaluator(problem, gdop_subset_cap=ga.gdop_subset_cap)
        for i, m in enumerate(members):
            if evaluator.evaluate(m.chromosome.genes) != m.raw:
                problems.append(f"member {i} re-evaluates to different raw scores")
    elif [(m.chromosome.key(), m.raw, m.objectives.tolist()) for m in members] != \
            [(m.chromosome.key(), m.raw, m.objectives.tolist()) for m in first.front.members]:
        problems.append("front differs from the first optimization of the run")
    return problems


def front_hypervolume(outcome: Outcome) -> float:
    cfg, problem, ga = outcome.cfg, outcome.problem, outcome.ga
    points = [
        static_objectives(m.raw, problem.requirements, problem.range_cap_km, ga.n_max,
                          cfg.of3_weights, ga.pareto_weight_a)
        for m in outcome.front.members
    ]
    return hypervolume_3d(points)


def _blended_rows(rows: list[dict], a: float) -> list[tuple[float, float, float]]:
    return [tuple(weighted_fitness(r[k], r["penalty"], a) for k in ("of1", "of2", "of3"))
            for r in rows]


def measure(workload, seconds: float) -> Run:
    """Cycles of optimization, set-up burst and audit burst."""
    run = Run()
    started = time.perf_counter()
    _burst(workload.setup, run.setup_s, run.setup_windows)
    first = None
    cycles: list[float] = []
    while len(cycles) < MIN_CYCLES or \
            time.perf_counter() - started + statistics.median(cycles) <= seconds:
        cycle_start = t0 = time.perf_counter()
        outcome, failure = workload.optimize(len(run.run_s))
        t1 = time.perf_counter()
        run.run_s.append(t1 - t0)
        run.rep_windows.append((t0, t1))
        label = f"optimization {len(run.run_s)}: "
        if outcome is None:
            run.record([label + failure])
            break
        run.gen_s.extend(_gaps(outcome.stamps))
        run.record([label + f for f in _check_front(outcome, first)])
        if first is None:
            if not outcome.front.members:
                break
            first = outcome
            run.front_hv = front_hypervolume(outcome)
            rows = workload.pareto_rows(outcome)
            run.pareto_rows = len(rows)
            # Known defect: these rows are not always mutually non-dominated.
            run.pareto_dominated_rows = dominated_count(_blended_rows(rows, outcome.ga.pareto_weight_a))
        _burst(workload.setup, run.setup_s, run.setup_windows)
        _burst(lambda: run.record(workload.audit(first)), run.audit_s, run.audit_windows)
        cycles.append(time.perf_counter() - cycle_start)
    return run


class EvolveWorkload:
    """s8_scratch and screen_pop400: evolve() called directly, one thread."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.cfg = self.problem = None

    def setup(self) -> None:
        cfg = parse_config(copy.deepcopy(self.doc))
        problem = cfg.build_problem()
        if self.problem is None:
            self.cfg, self.problem = cfg, problem

    def optimize(self, index: int):
        ga = self.cfg.ga_for_problem(self.problem)
        stamps: list[float] = []
        front = nsga2.evolve(self.problem, ga, of3_weights=self.cfg.of3_weights,
                             progress=lambda _rec: stamps.append(time.perf_counter()), threads=1)
        return Outcome(front, self.cfg, self.problem, ga, stamps), None

    def pareto_rows(self, outcome: Outcome) -> list[dict]:
        """The rows `optimize` would write to pareto.csv, unrounded."""
        return analysis.pareto_summary(outcome.front, outcome.cfg.of3_weights)

    def audit(self, first: Outcome) -> list[str]:
        """Re-score the largest member through the function the `evaluate`
        command uses; its size, near n_max, varies least with the seed."""
        member = max(first.front.members, key=lambda m: m.raw.n_selected)
        scores, _, _ = analysis.evaluate_placement(
            first.problem, member.chromosome, first.cfg.of3_weights,
            bounds=first.front.bounds, gdop_subset_cap=first.ga.gdop_subset_cap)
        raw = member.raw
        if (scores.of1, scores.of2, scores.of3_components, scores.penalty) != \
                (raw.of1, raw.of2, (raw.d1, raw.d2, raw.d3), raw.penalty):
            return ["audit: scores differ from the front"]
        return []


class _ProgressStamps:
    """Stands in for stderr: stamps each progress record, keeps the rest."""

    def __init__(self):
        self.stamps: list[float] = []
        self.other: list[str] = []

    def write(self, text: str) -> int:
        if text.startswith('{"gen"'):
            self.stamps.append(time.perf_counter())
        else:
            self.other.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class AugmentWorkload:
    """augment_cli_default: the `augment` command with default threads,
    audited by the `evaluate` command on solution_0.csv."""

    def __init__(self, doc: dict, workdir: Path):
        self.sensors = str(clustered21_path())
        self.workdir = workdir
        # The config `augment` hashes, and the one `evaluate` needs to
        # rebuild the same problem.
        self.eval_doc = dict(doc, scenario={"kind": "augment", "deployed_file": self.sensors})
        self.config_path = workdir / "augment.json"
        self.eval_path = workdir / "evaluate.json"
        self.config_path.write_text(json.dumps(doc))
        self.eval_path.write_text(json.dumps(self.eval_doc))
        self.first_out = None
        self.row0 = None

    def setup(self) -> None:
        parse_config(copy.deepcopy(self.eval_doc)).build_problem()

    def optimize(self, index: int):
        out = self.workdir / f"front{index}"
        captured = []
        write_front = cli._write_front

        def capture(cfg, problem, front, out_dir):
            captured.append((cfg, problem, front))
            return write_front(cfg, problem, front, out_dir)

        stream = _ProgressStamps()
        real_stderr = sys.stderr
        cli._write_front, sys.stderr = capture, stream
        try:
            code = cli.main(["augment", "--config", str(self.config_path),
                             "--sensors", self.sensors, "--out", str(out)])
        finally:
            cli._write_front, sys.stderr = write_front, real_stderr
            real_stderr.write("".join(stream.other))
        if code != 0 or not captured:
            return None, f"augment exited with {code}"
        cfg, problem, front = captured[0]
        if self.first_out is None:
            self.first_out = out
        return Outcome(front, cfg, problem, cfg.ga_for_problem(problem), stream.stamps), None

    def pareto_rows(self, outcome: Outcome) -> list[dict]:
        rows = cli.read_pareto_csv(self.first_out / "pareto.csv")
        self.row0 = rows[0]
        return rows

    def audit(self, first: Outcome) -> list[str]:
        out = self.workdir / "audit"
        code = cli.main(["evaluate", "--config", str(self.eval_path),
                         "--sensors", str(self.first_out / "solution_0.csv"), "--out", str(out)])
        if code != 0:
            return [f"audit: evaluate exited with {code}"]
        scores = json.loads((out / "scores.json").read_text())
        row = self.row0
        keys = ("of1", "of2", "of3", "d1", "d2", "d3", "penalty")
        same = all(cli.fmt(scores[k]) == cli.fmt(row[k]) for k in keys)
        same &= all(cli.fmt(scores["normalized"][k]) == cli.fmt(row[f"{k}_norm"])
                    for k in ("of1", "of2", "of3"))
        if not same or scores["n_sensors"] != row["n_sensors"]:
            return ["audit: scores.json differs from pareto.csv row 0 as cli.fmt prints it"]
        return []


def run_workload(name: str, seed: int, seconds: float, workdir: Path) -> Run:
    if name == "augment_cli_default":
        workload = AugmentWorkload(augment_document(seed), workdir)
    else:
        workload = EvolveWorkload(s8_document(seed) if name == "s8_scratch" else screen_document(seed))
    return measure(workload, seconds)
