"""Benchmark of adsbplace, timed from outside the package.

One workload, as the contract asks:

    python3 perfbench/run.py --workload s8_scratch --seed 1 --seconds 40 --trace 0

Every workload untraced, then every workload traced, with a summary and
the tracing overhead:

    python3 perfbench/run.py --seed 1

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics. The untraced run reports the
end-to-end metrics of BENCHMARK.json, the traced run its per-layer
metrics. Each run also writes perfbench/out/<workload>-seed<n>-trace<t>.json
with the environment, sample counts and computed counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

# Counts that follow from the seed alone; they must repeat exactly.
COMPUTED = ("gdop.solves", "gdop.bytes_computed", "nsga2.sort_pairs", "nsga2.new_evals",
            "nsga2.front_hv")
BYTES_PER_SYSTEM = 4 * 4 * 8   # one float64 4x4 matrix of the (points, S, 4, 4) tensor
# The layer each workload exists to load, checked on its traced run.
INTENDED_LOAD = {
    "s8_scratch": lambda m: (f"gdop.busy_s / run_s = {m['load.gdop_share']:.3f} >= 0.8",
                             m["load.gdop_share"] >= 0.8),
    "screen_pop400": lambda m: (f"(sort_s + crowding_s) / run_s = {m['load.sort_share']:.3f} >= 0.5",
                                m["load.sort_share"] >= 0.5),
    "augment_cli_default": lambda m: (
        f"batch_parallelism = {m['nsga2.batch_parallelism']:.3f} > 1 with {len(os.sched_getaffinity(0))} cores",
        m["nsga2.batch_parallelism"] > 1 or len(os.sched_getaffinity(0)) < 2),
}


def _import_package():
    """Import adsbplace from this checkout's src, or exit with an error."""
    if not (SRC / "adsbplace" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'adsbplace'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import adsbplace

    if Path(adsbplace.__file__).resolve().parent != (SRC / "adsbplace").resolve():
        sys.exit(f"error: imported adsbplace from {adsbplace.__file__}, not from {SRC}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **{k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(run) -> dict:
    import resource

    return {
        "setup_s": _median(run.setup_s),
        "run_s": _median(run.run_s),
        "gen_s_p50": _median(run.gen_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _within(spans, *windows):
    return [s for s in spans if any(a <= s.start and s.end <= b for a, b in windows)]


def _rep_layers(spans, child_s) -> dict:
    """Layer totals over one optimization's spans."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by[name])

    def self_time(name):
        return sum(s.duration - child_s[s.id] for s in by[name])

    def total(name, i=0):
        return sum(s.counts[i] for s in by[name])

    solves = total("gdop.gdop_min_batched")
    gdop_busy = busy("gdop.gdop_min_batched")
    eval_busy = busy("evaluator.evaluate")
    batch_s = busy("nsga2.evaluate_batch")
    requested = total("nsga2.evaluate_batch")
    new = max((s.counts[1] for s in by["nsga2.evaluate_batch"]), default=0)
    archives = sorted(by["nsga2.update_archive"], key=lambda s: s.end)
    return {
        "gdop.calls": len(by["gdop.gdop_min_batched"]),
        "gdop.busy_s": gdop_busy,
        "gdop.solves": solves,
        "gdop.solves_per_s": solves / gdop_busy if gdop_busy else 0.0,
        "gdop.bytes_computed": solves * BYTES_PER_SYSTEM,
        "evaluator.calls": len(by["evaluator.evaluate"]),
        "evaluator.busy_s": eval_busy,
        "evaluator.self_s": self_time("evaluator.evaluate"),
        "evaluator.call_ms_p50": 1000.0 * _median([s.duration for s in by["evaluator.evaluate"]]),
        "nsga2.batch_s": batch_s,
        "nsga2.requested_evals": requested,
        "nsga2.new_evals": new,
        "nsga2.cache_hit_ratio": 1.0 - new / requested if requested else 0.0,
        "nsga2.batch_parallelism": eval_busy / batch_s if batch_s else 0.0,
        "nsga2.sort_s": busy("nsga2.non_dominated_sort"),
        "nsga2.sort_pairs": total("nsga2.non_dominated_sort"),
        "nsga2.crowding_s": busy("nsga2.crowding_distance"),
        "nsga2.archive_s": busy("nsga2.update_archive"),
        "nsga2.archive_size_final": archives[-1].counts[0] if archives else 0,
        "nsga2.evolve_self_s": self_time("nsga2.evolve"),
        "cli.write_front_s": busy("cli.write_front"),
        "cli.bytes_written": total("cli.write_front"),
    }


def per_layer_metrics(tracer, run) -> dict:
    spans = tracer.spans
    child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    reps = [_rep_layers(_within(spans, w), child_s) for w in run.rep_windows]
    for rep in reps[1:]:
        for key in COMPUTED:
            if key in rep and rep[key] != reps[0][key]:
                run.failures.append(f"computed count {key} differs between repetitions")
                run.failed = min(run.attempted, run.failed + 1)
    # Counts from the first repetition, times as medians over repetitions.
    metrics = {
        key: reps[0][key] if isinstance(reps[0][key], int) else _median([r[key] for r in reps])
        for key in reps[0]
    }
    setup = _within(spans, *run.setup_windows)
    audit = _within(spans, *run.audit_windows)
    run_s = _median(run.run_s)
    metrics.update({
        "config.build_problem_s": _median([s.duration for s in setup if s.name == "config.build_problem"]),
        "scenario.precompute_s": _median([s.duration for s in setup if s.name == "scenario.precompute"]),
        "nsga2.front_hv": run.front_hv,
        "cli.pareto_rows": run.pareto_rows,
        "cli.pareto_dominated_rows": run.pareto_dominated_rows,
        "cli.evaluate_s_p50": _median([s.duration for s in audit if s.name == "cli.evaluate"]),
        "analysis.evaluate_placement_s": _median(
            [s.duration for s in audit if s.name == "analysis.evaluate_placement"]),
        "load.gdop_share": metrics["gdop.busy_s"] / run_s,
        "load.sort_share": (metrics["nsga2.sort_s"] + metrics["nsga2.crowding_s"]) / run_s,
        "trace.run_s": run_s,
        "trace.spans": len(spans),
    })
    return metrics


def run_one(args) -> int:
    _import_package()
    import logging

    from spans import Tracer
    from workloads import GENERATIONS, run_workload

    if args.workload not in GENERATIONS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(GENERATIONS)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    # Bind logging to the real stderr before the CLI's progress stream is captured.
    logging.basicConfig()
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    restore = tracer.install() if tracer else None
    try:
        run = run_workload(args.workload, args.seed, args.seconds, workdir)
    finally:
        if restore:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = per_layer_metrics(tracer, run)
        tracer.dump(OUT / f"{label}.spans.tsv")
    else:
        metrics = end_to_end_metrics(run)
    names = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "generations": GENERATIONS[args.workload],
        "optimizations": len(run.run_s), "environment": environment(),
        "samples": {"setup_s": len(run.setup_s), "run_s": len(run.run_s),
                    "gen_s_p50": len(run.gen_s), "audits": len(run.audit_s)},
        "computed": {"nsga2.front_hv": run.front_hv,
                     **{k: metrics[k] for k in COMPUTED if k in metrics}},
        "failures": run.failures,
        **result,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {label}: {len(run.run_s)} optimizations of {GENERATIONS[args.workload]} generations")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# samples {json.dumps(record['samples'])}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for n in names:
        tag = " (computed)" if n in COMPUTED else ""
        print(f"{n} = {metrics[n]!r} {units[n]}{tag}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, in its own process."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    results = {}
    for trace in (0, 1):
        for name in workloads:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])

    print("\n# summary: workload, failed/attempted, run_s untraced -> traced (tracing overhead)")
    ok = True
    for name in workloads:
        plain, traced = results[name, 0], results[name, 1]
        run_s = plain["metrics"]["run_s"]["value"]
        traced_s = traced["metrics"]["trace.run_s"]["value"]
        failed = plain["failed"] + traced["failed"]
        ok &= failed == 0
        print(f"{name}: {failed}/{plain['attempted'] + traced['attempted']} failed, "
              f"run_s {run_s:.3f} -> {traced_s:.3f} s ({100 * (traced_s / run_s - 1):+.1f}%)")
        hv = [json.loads((OUT / f"{name}-seed{args.seed}-trace{t}.json").read_text())["computed"]["nsga2.front_hv"]
              for t in (0, 1)]
        if hv[0] != hv[1]:
            ok = False
            print(f"  FAILED front_hv differs between the untraced and traced runs: {hv}")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        text, holds = INTENDED_LOAD[name](layer)
        print(f"  intended load {text}: {'confirmed' if holds else 'NOT confirmed'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; omit to run them all, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        parser.error("--seconds is required with --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
