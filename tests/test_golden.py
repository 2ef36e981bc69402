"""Bit-identity with the committed golden outputs (``golden/make.py``).

The stored ``precompute`` matrices are loaded into the rebuilt problem,
and the evaluator columns, the seed-1 front, its ``pareto_summary``
columns and ``evaluate_placement``'s scores must equal the stored values
in every bit. A change that moves them on purpose regenerates the golden
files with ``golden/make.py``.
"""

import json

import numpy as np
import pytest

from golden import make

EXPECTED = json.loads((make.HERE / "expected.json").read_text())


@pytest.mark.parametrize("name", make.PROBLEMS)
def test_golden_bits(name):
    want = EXPECTED["problems"][name]
    with np.load(make.HERE / f"{name}.npz") as matrices:
        cfg, problem = make.build(EXPECTED["config"], name, matrices)
    genes = make.unpack(want["genes"], problem.n_candidates)
    got = make.results(cfg, problem, genes)
    for cap in make.CAPS:
        assert got["evaluate"][str(cap)] == want["evaluate"][str(cap)], f"evaluate at cap {cap}"
    for key, value in got["front"].items():
        assert value == want["front"][key], f"front {key}"
