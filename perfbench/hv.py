"""Exact 3-D hypervolume of a front in a space fixed by the requirements.

The optimizer's own objective vectors are normalized with running bounds
that depend on the search history, so two runs cannot be compared in
them. Here each raw score is divided by its saturation value instead:
OF1 and OF2 by the squared deviation at the GDOP and range caps, d1 and
d2 by the squared spacing and jammer-distance requirements, d3 and the
sensor-count penalty by their values at ``n_max`` sensors. The blend is
the optimizer's, and the reference point is (1, 1, 1), so the volume lies
in [0, 1] and does not depend on the run (Beume et al., "On the
complexity of computing the hypervolume indicator", IEEE TEC 2009).
"""

from __future__ import annotations

from typing import Sequence

REFERENCE = (1.0, 1.0, 1.0)


def static_objectives(raw, requirements, range_cap_km: float, n_max: int,
                      of3_weights: Sequence[float], pareto_weight_a: float) -> tuple[float, float, float]:
    """Blended (OF1, OF2, OF3) of one member, each in [0, 1]."""
    req = requirements
    saturation = (
        max(req.gdop_cap - req.required_gdop, req.required_gdop) ** 2,
        max(range_cap_km - req.required_range_km, req.required_range_km) ** 2,
        req.min_sensor_spacing_km ** 2,
        req.min_jammer_distance_km ** 2,
        float(max(n_max - req.max_sensors_in_jammer_los, 1)) ** 2,
    )
    of1, of2, d1, d2, d3 = (
        min(1.0, value / sat)
        for value, sat in zip((raw.of1, raw.of2, raw.d1, raw.d2, raw.d3), saturation)
    )
    of3 = of3_weights[0] * d1 + of3_weights[1] * d2 + of3_weights[2] * d3
    penalty = min(1.0, (raw.n_selected / n_max) ** 2)
    a = pareto_weight_a
    return tuple((1.0 - a) * x + a * penalty for x in (of1, of2, of3))


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimization."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def dominated_count(points: Sequence[Sequence[float]]) -> int:
    """Number of points that some other point of the set dominates."""
    return sum(
        any(dominates(q, p) for j, q in enumerate(points) if j != i)
        for i, p in enumerate(points)
    )


def _area_2d(points: list[tuple[float, float]], ref_x: float, ref_y: float) -> float:
    area = 0.0
    low_y = ref_y
    for x, y in sorted(points):
        if y < low_y:
            area += (ref_x - x) * (low_y - y)
            low_y = y
    return area


def hypervolume_3d(points: Sequence[Sequence[float]],
                   reference: Sequence[float] = REFERENCE) -> float:
    """Volume dominated by ``points`` and bounded by ``reference``
    (minimization), by a sweep over the third objective."""
    rx, ry, rz = reference
    inside = sorted(
        (tuple(p) for p in points if p[0] < rx and p[1] < ry and p[2] < rz),
        key=lambda p: p[2],
    )
    volume = 0.0
    slab: list[tuple[float, float]] = []
    for i, (x, y, z) in enumerate(inside):
        slab.append((x, y))
        z_next = inside[i + 1][2] if i + 1 < len(inside) else rz
        if z_next > z:
            volume += _area_2d(slab, rx, ry) * (z_next - z)
    return volume
