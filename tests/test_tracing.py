"""The benchmark's tracer still sees the optimizer's layers.

``perfbench/spans.Tracer`` wraps module and class attributes by name. If
``evolve`` stopped calling them through those attributes, the traced
benchmark pass would report zeros without failing, so a tiny run checks
that every ``nsga2.*`` span is recorded with its counts.
"""

from pathlib import Path

from adsbplace import nsga2
from adsbplace.nsga2 import GaConfig

NSGA2_SPANS = {
    "nsga2.evaluate_batch",
    "nsga2.non_dominated_sort",
    "nsga2.crowding_distance",
    "nsga2.update_archive",
    "nsga2.evolve",
}


def test_tracer_records_every_nsga2_span(small_problem, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import Tracer

    originals = (nsga2.evolve, nsga2._Evaluation.__dict__["evaluate_batch"],
                 nsga2.non_dominated_sort, nsga2.crowding_distance, nsga2._update_archive)
    tracer = Tracer()
    restore = tracer.install()
    try:
        config = GaConfig(population_size=8, generations=2, rng_seed=3, n_max=8,
                          gdop_subset_cap=6)
        nsga2.evolve(small_problem, config)
    finally:
        restore()
    assert originals == (nsga2.evolve, nsga2._Evaluation.__dict__["evaluate_batch"],
                         nsga2.non_dominated_sort, nsga2.crowding_distance,
                         nsga2._update_archive)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert NSGA2_SPANS <= by_name.keys()
    assert {name for name in by_name if name.startswith("nsga2.")} == NSGA2_SPANS

    # One batch per generation: (requested rows, cache size after the batch).
    batches = [span.counts for span in by_name["nsga2.evaluate_batch"]]
    assert len(batches) == 3
    assert all(requested == 8 for requested, _ in batches)
    assert 0 < batches[0][1] <= batches[-1][1]
    assert all(span.counts[0] > 0 for span in by_name["nsga2.non_dominated_sort"])
    assert all(span.counts[0] > 0 for span in by_name["nsga2.update_archive"])
