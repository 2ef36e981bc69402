"""Golden outputs of everything that runs after ``precompute``.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make.py

For the small run configuration of the acceptance suite (108 points, 36
candidates, 9 jammers), once plain and once with the bundled
clustered21.csv deployment forced, it writes

- ``<problem>.npz``: the nine values ``precompute`` computes;
- ``expected.json``: the config, a fixed gene batch and its ``evaluate``
  columns at caps 6 and 12, and the seed-1 ``evolve`` front: genes, raw
  columns, objective vectors, ``pareto_summary`` columns and the scores
  ``evaluate_placement`` reports for each member. Every float is stored
  as ``float.hex``.

``test_golden.py`` loads the matrices into the rebuilt problem and
compares each value exactly. Storing the matrices, not only the config,
keeps the check off ``precompute``'s sin, cos and arcsin chains, whose
last bits may depend on the CPU and its libm. A change that moves bits on
purpose reruns this script and says which values moved and why.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from adsbplace.analysis import evaluate_placement, pareto_summary
from adsbplace.config import parse_config
from adsbplace.evaluator import PlacementEvaluator
from adsbplace.nsga2 import evolve
from adsbplace.scenario import clustered21_path, load_deployed_csv

HERE = Path(__file__).resolve().parent
FIELDS = (
    "dist_point_cand", "dc_point_cand", "los_point_cand", "rank_point_cand",
    "dist_jam_cand", "los_jam_cand", "affected_jam_cand", "dist_cand_cand", "range_cap_km",
)
PROBLEMS = ("plain", "forced")
CAPS = (6, 12)
SEED = 1
BATCH = 40
RAW = ("of1", "of2", "d1", "d2", "d3", "penalty")
SUMMARY = ("of3", "of1_norm", "of2_norm", "of3_norm")


def build(doc: dict, name: str, matrices=None):
    """The config and problem of ``name``; with ``matrices`` (a mapping of
    FIELDS) the problem's precomputed fields are replaced by them."""
    cfg = parse_config(json.loads(json.dumps(doc)))
    deployed = load_deployed_csv(clustered21_path())[0] if name == "forced" else np.empty((3, 0))
    problem = cfg.build_problem(deployed=deployed)
    if matrices is not None:
        problem = dataclasses.replace(problem, **{
            field: float(matrices[field]) if field == "range_cap_km" else matrices[field]
            for field in FIELDS
        })
    return cfg, problem


def gene_batch(problem) -> np.ndarray:
    """BATCH rows from empty to full; on a problem with forced sites every
    odd row holds them and the even rows mostly lack some."""
    rng = np.random.default_rng(0)
    density = np.linspace(0.0, 1.0, BATCH)
    genes = rng.random((BATCH, problem.n_candidates)) < density[:, None]
    genes[1::2] |= problem.forced_mask
    return genes


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def _columns(raw) -> dict:
    cols = {key: _hex(getattr(raw, key)) for key in RAW}
    cols["n_selected"] = np.asarray(raw.n_selected).reshape(-1).tolist()
    return cols


def pack(genes: np.ndarray) -> list[str]:
    return [row.tobytes().hex() for row in np.packbits(genes, axis=1)]


def unpack(rows: list[str], n: int) -> np.ndarray:
    packed = np.array([np.frombuffer(bytes.fromhex(r), dtype=np.uint8) for r in rows])
    return np.unpackbits(packed, axis=1, count=n).astype(bool)


def results(cfg, problem, genes: np.ndarray) -> dict:
    """Every golden value of one problem, given its gene batch."""
    out = {"evaluate": {}}
    for cap in CAPS:
        evaluator = PlacementEvaluator(problem, gdop_subset_cap=cap)
        out["evaluate"][str(cap)] = _columns(evaluator.evaluate(genes))
    ga = cfg.ga_for_problem(problem, SEED)
    front = evolve(problem, ga, of3_weights=cfg.of3_weights)
    members = front.members
    rows = pareto_summary(front, cfg.of3_weights)
    reports = [
        evaluate_placement(problem, m.chromosome, cfg.of3_weights, bounds=front.bounds,
                           gdop_subset_cap=ga.gdop_subset_cap)[0]
        for m in members
    ]
    out["front"] = {
        "genes": pack(np.array([m.chromosome.genes for m in members])),
        "raw": {key: _hex([getattr(m.raw, key) for m in members]) for key in RAW},
        "n_selected": [m.raw.n_selected for m in members],
        "objectives": [_hex(m.objectives) for m in members],
        "summary": {key: _hex([row[key] for row in rows]) for key in SUMMARY},
        "evaluate_placement": [
            _hex([s.of1, s.of2, s.of3, *s.of3_components, s.penalty,
                  *(s.normalized[k] for k in ("of1", "of2", "of3"))])
            for s in reports
        ],
    }
    return out


def save_npz(path: Path, arrays: dict) -> None:
    """``np.savez_compressed`` with a fixed timestamp, so that an unchanged
    regeneration leaves the file's bytes unchanged."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, array in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(array), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue(), compress_type=zipfile.ZIP_DEFLATED)


def main() -> int:
    sys.path.insert(0, str(HERE.parent))
    from test_acceptance import SMALL_RUN_CONFIG

    expected = {"config": SMALL_RUN_CONFIG, "problems": {}}
    for name in PROBLEMS:
        cfg, problem = build(SMALL_RUN_CONFIG, name)
        save_npz(HERE / f"{name}.npz", {field: getattr(problem, field) for field in FIELDS})
        genes = gene_batch(problem)
        expected["problems"][name] = {"genes": pack(genes), **results(cfg, problem, genes)}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
