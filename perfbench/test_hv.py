"""Hypervolume sweep against a brute-force cell count.

Run with ``python3 -m pytest perfbench/test_hv.py``.
"""

import itertools
import random

import pytest

from hv import dominated_count, hypervolume_3d


def brute_force_hv(points, reference):
    """Sum the grid cells, cut at every coordinate, that a point dominates."""
    inside = [p for p in points if all(c < r for c, r in zip(p, reference))]
    axes = [sorted({p[d] for p in inside} | {reference[d]}) for d in range(3)]
    volume = 0.0
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        low = [axes[d][cell[d]] for d in range(3)]
        if any(all(p[d] <= low[d] for d in range(3)) for p in inside):
            size = 1.0
            for d in range(3):
                size *= axes[d][cell[d] + 1] - axes[d][cell[d]]
            volume += size
    return volume


@pytest.mark.parametrize("seed", range(40))
def test_sweep_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    # Coarse values force ties in every objective; some points leave the box.
    points = [tuple(rng.choice([0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.2, rng.random()])
                    for _ in range(3)) for _ in range(n)]
    reference = (1.0, 1.0, 1.0)
    assert hypervolume_3d(points, reference) == pytest.approx(
        brute_force_hv(points, reference), rel=1e-12, abs=1e-15)


def test_single_point_and_dominated_extra():
    assert hypervolume_3d([(0.5, 0.25, 0.0)]) == pytest.approx(0.375)
    assert hypervolume_3d([(0.5, 0.25, 0.0), (0.6, 0.3, 0.1)]) == pytest.approx(0.375)
    assert hypervolume_3d([]) == 0.0


def test_dominated_count():
    assert dominated_count([(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 2)]) == 3
    assert dominated_count([(0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)]) == 0
