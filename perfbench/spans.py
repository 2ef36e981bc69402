"""In-memory spans around the package's layer entry points.

``Tracer.install`` replaces module and class attributes of ``adsbplace``
with timing wrappers, so the program itself is unchanged. Each wrapper
records one span: name, start, end, parent span, thread id and
optional counts taken from the call's arguments.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counts taken after a call from its arguments; each returns a tuple.

def _gdop_counts(args):
    dc, _valid, subsets = args[:3]
    return (dc.shape[0] * subsets.shape[0],)     # 4x4 systems solved


def _batch_counts(args):
    evaluation, chromosomes = args[:2]
    # Requested chromosomes, and the cache size after the batch: a fresh
    # evolve starts with an empty cache, so its last size is the number
    # of new evaluations.
    return (len(chromosomes), len(evaluation.cache))


def _sort_counts(args):
    n = len(args[0])
    return (n * (n - 1) // 2,)                   # pairs compared


def _archive_counts(args):
    return (len(args[0]),)                       # archive size after the update


def _write_counts(args):
    out_dir = args[3]
    return (sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),)


class Tracer:
    """Collects spans from every thread; ``install`` returns an undo."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped to record one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = count(args) if count else ()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), counts))
            return result

        return wrapper

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self):
        """Wrap the layer entry points; returns a function that restores them."""
        from adsbplace import analysis, cli, config, evaluator, nsga2, scenario

        targets = [
            (config.RunConfig, "build_problem", "config.build_problem", None),
            (scenario, "precompute", "scenario.precompute", None),
            (evaluator.PlacementEvaluator, "evaluate", "evaluator.evaluate", None),
            # The evaluator calls the kernel through its own module global.
            (evaluator, "gdop_min_batched", "gdop.gdop_min_batched", _gdop_counts),
            (nsga2._Evaluation, "evaluate_batch", "nsga2.evaluate_batch", _batch_counts),
            (nsga2, "non_dominated_sort", "nsga2.non_dominated_sort", _sort_counts),
            (nsga2, "crowding_distance", "nsga2.crowding_distance", None),
            (nsga2, "_update_archive", "nsga2.update_archive", _archive_counts),
            (nsga2, "evolve", "nsga2.evolve", None),
            (cli, "evolve", "nsga2.evolve", None),
            (cli, "_write_front", "cli.write_front", _write_counts),
            # main() binds the subcommand when it builds its parser.
            (cli, "cmd_evaluate", "cli.evaluate", None),
            (analysis, "evaluate_placement", "analysis.evaluate_placement", None),
        ]
        saved = []
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, count))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\tcounts\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t{s.thread}\t{','.join(map(str, s.counts))}\n")
