"""The benchmark's tracer still sees the program's layers.

``perfbench/spans.Tracer`` wraps module and class attributes by name. If
the program stopped calling them through those attributes, the traced
benchmark pass would report zeros without failing, so tiny runs check
that every ``nsga2.*`` span, and the spans of building, scoring and
auditing a problem, are recorded with their counts.
"""

from pathlib import Path

import pytest

from adsbplace import analysis, nsga2
from adsbplace.config import parse_config
from adsbplace.nsga2 import GaConfig

NSGA2_SPANS = {
    "nsga2.evaluate_batch",
    "nsga2.non_dominated_sort",
    "nsga2.crowding_distance",
    "nsga2.update_archive",
    "nsga2.evolve",
}


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import Tracer

    return Tracer()


def test_tracer_records_every_nsga2_span(small_problem, tracer):
    originals = (nsga2.evolve, nsga2._Evaluation.__dict__["evaluate_batch"],
                 nsga2.non_dominated_sort, nsga2.crowding_distance, nsga2._update_archive)
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


def test_tracer_records_build_and_audit_spans(tracer):
    """Building a config's problem, a search and an audit of its largest
    member record the set-up, evaluator, kernel and audit spans; the
    kernel's with the 4x4 systems it solved."""
    cfg = parse_config({
        "area": {"lat_low_deg": 47.4, "lat_up_deg": 51.4, "lon_low_deg": 5.71,
                 "lon_up_deg": 9.71, "altitudes_m": [6000.0]},
        "grid": {"lat_count": 3, "lon_count": 3},
        "candidates": {"count": 9},
        "jammers": {"count": 4, "heights_m": [6000.0]},
        "ga": {"population_size": 8, "generations": 1, "rng_seed": 1, "n_max": 6,
               "gdop_subset_cap": 6},
    })
    restore = tracer.install()
    try:
        problem = cfg.build_problem()
        front = nsga2.evolve(problem, cfg.ga_for_problem(problem))
        member = max(front.members, key=lambda m: m.raw.n_selected)
        analysis.evaluate_placement(problem, member.chromosome, bounds=front.bounds,
                                    gdop_subset_cap=cfg.ga.gdop_subset_cap)
    finally:
        restore()

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert member.raw.n_selected >= 4
    assert len(by_name["config.build_problem"]) == 1
    [precompute] = by_name["scenario.precompute"]
    assert precompute.parent == by_name["config.build_problem"][0].id
    # One batch per generation, then the audit's single chromosome.
    assert len(by_name["evaluator.evaluate"]) == 3
    [audit] = by_name["analysis.evaluate_placement"]
    assert by_name["evaluator.evaluate"][-1].parent == audit.id
    kernel = by_name["gdop.gdop_min_batched"]
    assert kernel and all(span.counts[0] > 0 for span in kernel)
