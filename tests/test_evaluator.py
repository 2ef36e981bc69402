"""Vectorized evaluator vs the per-point reference objective functions."""

import dataclasses
import itertools
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsbplace import evaluator as evaluator_module
from adsbplace.config import parse_config, section8_preset
from adsbplace.evaluator import PlacementEvaluator, RawScores
from adsbplace.gdop import subset_triples
from adsbplace.geo import GeodeticPosition
from adsbplace.objectives import ObjectiveRequirements, knapsack_penalty
from adsbplace.scenario import (
    AreaBounds,
    build_problem,
    clustered21_path,
    load_deployed_csv,
)

from oracles import (
    geodetic_to_ecef,
    masked_sort_of1_of2,
    of1_gdop_msd,
    of2_range_msd,
    of3_direction1_spacing,
    of3_direction2_jammer_distance,
    of3_direction3_sensors_in_range,
    score_one,
)


def reference_scores(problem, genes, cap):
    """Score a chromosome through the scalar objective implementations."""
    sel = np.flatnonzero(genes)
    geos = [
        GeodeticPosition(
            float(problem.cand_lat[i]), float(problem.cand_lon[i]), float(problem.cand_alt[i])
        )
        for i in sel
    ]
    ecefs = [geodetic_to_ecef(g) for g in geos]
    req = problem.requirements
    of1 = of1_gdop_msd(problem.grid, geos, ecefs, req, cap)
    of2 = of2_range_msd(problem.grid, geos, ecefs, req, problem.range_cap_km)
    d1 = of3_direction1_spacing(ecefs, req) if len(ecefs) >= 2 else None
    d2 = of3_direction2_jammer_distance(geos, ecefs, problem.jammers, req)
    d3 = of3_direction3_sensors_in_range(geos, ecefs, problem.jammers, req)
    return of1, of2, d1, d2, d3


class TestEvaluatorAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_chromosomes_match(self, small_problem, seed):
        rng = np.random.default_rng(seed)
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=8)
        genes = np.zeros(small_problem.n_candidates, dtype=bool)
        genes[rng.choice(small_problem.n_candidates, 7, replace=False)] = True
        raw = evaluator.evaluate(genes)
        of1, of2, d1, d2, d3 = reference_scores(small_problem, genes, 8)
        assert raw.of1 == pytest.approx(of1, rel=1e-9)
        assert raw.of2 == pytest.approx(of2, rel=1e-9)
        assert raw.d1 == pytest.approx(d1, rel=1e-9)
        assert raw.d2 == pytest.approx(d2, rel=1e-9)
        assert raw.d3 == pytest.approx(d3, rel=1e-9)
        assert raw.penalty == knapsack_penalty(7, small_problem.n_candidates)
        assert raw.n_selected == 7

    def test_empty_selection_saturates(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        raw = evaluator.evaluate(np.zeros(small_problem.n_candidates, dtype=bool))
        req = small_problem.requirements
        grid = small_problem.grid
        assert raw.of1 == pytest.approx(
            float(np.mean((grid.required_gdop - req.gdop_cap) ** 2))
        )
        assert raw.of2 == pytest.approx(
            float(np.mean((grid.required_range_km - small_problem.range_cap_km) ** 2))
        )
        assert raw.d1 == req.min_sensor_spacing_km**2
        assert raw.d2 == 0.0 and raw.d3 == 0.0
        assert raw.penalty == 0.0

    def test_single_sensor_spacing_convention(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        genes = np.zeros(small_problem.n_candidates, dtype=bool)
        genes[0] = True
        raw = evaluator.evaluate(genes)
        assert raw.d1 == small_problem.requirements.min_sensor_spacing_km**2

    def test_diagnostics_consistent(self, small_problem):
        rng = np.random.default_rng(7)
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=8)
        genes = np.zeros(small_problem.n_candidates, dtype=bool)
        genes[rng.choice(small_problem.n_candidates, 9, replace=False)] = True
        raw, diag = evaluator.evaluate(genes, diagnostics=True)
        m = len(small_problem.grid)
        assert diag.k_visible.shape == (m,)
        # Finite best GDOP requires at least 4 visible sensors.
        assert np.all(diag.k_visible[np.isfinite(diag.best_gdop)] >= 4)
        # Fewer than 2 visible sensors leaves the range undefined.
        assert np.all(np.isinf(diag.second_range_km[diag.k_visible < 2]))
        assert diag.affected_per_jammer.shape == (len(small_problem.jammers),)
        assert np.all(diag.affected_per_jammer <= int(genes.sum()))

    def test_wrong_length_rejected(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        n = small_problem.n_candidates
        for shape in [(3,), (2, 3), (2, 2, n), ()]:
            with pytest.raises(ValueError):
                evaluator.evaluate(np.zeros(shape, dtype=bool))

    def test_cap_below_four_rejected(self, small_problem):
        with pytest.raises(ValueError):
            PlacementEvaluator(small_problem, gdop_subset_cap=3)

    @pytest.mark.parametrize("cap", [4, 9, 14, 40])
    def test_subset_rows_below_k_are_combinations(self, small_problem, cap):
        """The evaluator holds combinations(range(k), 4) in colex order, row
        for row, with subset_triples' table and index, for every sensor
        count k the cap allows, and no table below k = 4."""
        tables = PlacementEvaluator(small_problem, gdop_subset_cap=cap).tables
        k_max = min(cap, small_problem.n_candidates)
        assert sorted(tables) == list(range(4, k_max + 1))
        for k, (subsets, (table, index)) in tables.items():
            expected = sorted(itertools.combinations(range(k), 4), key=lambda c: c[::-1])
            assert subsets.tolist() == [list(c) for c in expected]
            want_table, want_index = subset_triples(subsets)
            assert np.array_equal(table, want_table) and np.array_equal(index, want_index)

    def test_deterministic(self, small_problem):
        rng = np.random.default_rng(11)
        evaluator = PlacementEvaluator(small_problem)
        genes = rng.random(small_problem.n_candidates) < 0.3
        a = evaluator.evaluate(genes)
        b = evaluator.evaluate(genes)
        assert a == b


@pytest.fixture(scope="module")
def tied_problem():
    """Candidates mirrored about the grid's lon = 0 column: their
    distances to the points on it tie exactly, visible ones included."""
    problem = build_problem(
        bounds=AreaBounds(47.4, 51.4, -2.5, 2.5), lat_count=5, lon_count=5,
        candidate_count=25, requirements=ObjectiveRequirements(),
    )
    masked = np.where(problem.los_point_cand, problem.dist_point_cand, np.inf)
    finite = [row[np.isfinite(row)] for row in masked]
    assert sum(f.size - np.unique(f).size for f in finite) > 50
    return problem


class TestNearestFromRanks:
    """The rank-matrix path reproduces the masked stable-sort reference bit
    for bit: same nearest sensors, ties included, same OF1 and OF2."""

    @pytest.mark.parametrize("cap", [4, 6, 12])
    @pytest.mark.parametrize("name", ["small_problem", "tied_problem"])
    def test_matches_masked_sort(self, request, name, cap):
        problem = request.getfixturevalue(name)
        evaluator = PlacementEvaluator(problem, gdop_subset_cap=cap)
        rng = np.random.default_rng(cap)
        n = problem.n_candidates
        for size in [*range(15), n]:
            genes = np.zeros(n, dtype=bool)
            genes[rng.choice(n, size, replace=False)] = True
            raw, diag = evaluator.evaluate(genes, diagnostics=True)
            of1, of2, best, second, k_visible = masked_sort_of1_of2(problem, genes, cap)
            assert (raw.of1, raw.of2) == (of1, of2)
            assert raw == evaluator.evaluate(genes)
            for got, want in [(diag.best_gdop, best), (diag.second_range_km, second),
                              (diag.k_visible, k_visible)]:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestBatch:
    """A (B, N) batch scores each chromosome as the 1-D path, the
    per-chromosome scorer and the masked stable-sort reference do, bit for
    bit, however few rows each kernel call takes and however few
    chromosomes each group slice holds: kernel calls then split
    chromosomes and join neighbours, and groups of equal sensor count
    span several calls and slices."""

    @pytest.mark.parametrize("cap", [4, 6, 12])
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_single_and_masked_sort(self, small_problem, cap, data):
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=cap)
        n = small_problem.n_candidates
        size = st.one_of(st.integers(0, 3), st.integers(4, cap), st.integers(cap + 1, n))
        sizes = data.draw(st.lists(size, max_size=6), label="sizes")
        shared = data.draw(st.tuples(size, st.integers(0, 30)), label="shared size, count")
        sizes += [shared[0]] * shared[1]
        chromosomes = []
        for count in sizes:
            sites = data.draw(st.permutations(range(n)), label="sites")[:count]
            genes = np.zeros(n, dtype=bool)
            genes[sites] = True
            chromosomes.append(genes)
        if chromosomes:
            repeat = st.lists(st.integers(0, len(chromosomes) - 1), max_size=3)
            chromosomes += [chromosomes[i] for i in data.draw(repeat, label="duplicates")]
        order = data.draw(st.permutations(range(len(chromosomes))), label="order")
        batch = np.array([chromosomes[i] for i in order], dtype=bool).reshape(-1, n)
        rows = data.draw(st.sampled_from([5, 50, 107, 250, 10_000]), label="rows per call")
        elems = data.draw(st.sampled_from([0, 5000, 1 << 20]), label="elements per slice")

        with mock.patch.multiple(
            evaluator_module, _ROW_BYTES=0, _MIN_ROWS=rows, _SLICE_ELEMS=elems
        ):
            scores = evaluator.evaluate(batch)
        assert isinstance(scores, RawScores)
        columns = list(vars(scores).values())
        assert all(c.shape == (len(batch),) for c in columns)
        assert all(c.dtype == np.float64 for c in columns[:6])
        assert columns[6].dtype.kind == "i"
        for i, genes in enumerate(batch):
            raw = scores.row(i)
            assert raw == evaluator.evaluate(genes)
            assert raw == score_one(small_problem, genes, cap)
            assert all(type(v) is float for v in astuple(raw)[:6])
            of1, of2, *_ = masked_sort_of1_of2(small_problem, genes, cap)
            assert (raw.of1, raw.of2) == (of1, of2)

    @pytest.mark.parametrize("cap", [4, 6, 12])
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_forced_batch_matches_single_and_references(self, small_problem, cap, data):
        """With a drawn forced mask, every batch row equals the 1-D call
        bit for bit, and all but OF1 equal the per-chromosome scorer.
        Rows whose usable sensors are all forced, or hold fewer than 4
        forced ones, give the rank-order GDOP bit for bit; mixed rows put
        their forced sensors first, so their GDOP and OF1 may move in the
        last bits only."""
        n = small_problem.n_candidates
        forced = np.zeros(n, dtype=bool)
        count = data.draw(st.integers(0, n), label="forced count")
        forced[data.draw(st.permutations(range(n)), label="forced sites")[:count]] = True
        problem = dataclasses.replace(small_problem, forced_mask=forced)
        evaluator = PlacementEvaluator(problem, gdop_subset_cap=cap)
        assert (evaluator.best_forced is None) == (count < 4)
        chromosomes = []
        for _ in range(data.draw(st.integers(1, 8), label="chromosomes")):
            size = data.draw(st.integers(0, n), label="size")
            genes = np.zeros(n, dtype=bool)
            genes[data.draw(st.permutations(range(n)), label="sites")[:size]] = True
            # Mostly complete chromosomes, as the optimizer makes them.
            if data.draw(st.integers(0, 3), label="lacks forced") > 0:
                genes |= forced
            chromosomes.append(genes)
        batch = np.array(chromosomes)
        rows = data.draw(st.sampled_from([5, 50, 107, 250, 10_000]), label="rows per call")
        elems = data.draw(st.sampled_from([0, 5000, 1 << 20]), label="elements per slice")

        with mock.patch.multiple(
            evaluator_module, _ROW_BYTES=0, _MIN_ROWS=rows, _SLICE_ELEMS=elems
        ):
            scores = evaluator.evaluate(batch)
        for i, genes in enumerate(batch):
            raw = scores.row(i)
            assert raw == evaluator.evaluate(genes)
            expected = score_one(problem, genes, cap)
            assert raw.of1 == pytest.approx(expected.of1, rel=1e-9)
            assert astuple(raw)[1:] == astuple(expected)[1:]

            _, diag = evaluator.evaluate(genes, diagnostics=True)
            _, _, best, _, k_visible = masked_sort_of1_of2(problem, genes, cap)
            sel = np.flatnonzero(genes)
            los = problem.los_point_cand[:, sel]
            masked = np.where(los, problem.dist_point_cand[:, sel], np.inf)
            near = sel[np.argsort(masked, axis=1, kind="stable")]
            valid = np.minimum(k_visible, cap)
            fprime = (forced[near] & (np.arange(sel.size) < valid[:, None])).sum(axis=1)
            if count < 4 or not genes[forced].all():
                fprime[:] = 0
            same = (fprime < 4) | (fprime == valid)
            assert diag.best_gdop[same].tobytes() == best[same].tobytes()
            assert np.array_equal(np.isinf(diag.best_gdop), np.isinf(best))
            finite = np.isfinite(best)
            assert np.allclose(diag.best_gdop[finite], best[finite], rtol=1e-12, atol=0.0)

    def test_penalty_column_is_scalar_formula(self):
        """The penalty column holds knapsack_penalty(n, N) bit for bit.
        At N = 421 (400 candidates and 21 deployed sensors), numpy's
        0.5 * (n / N) ** 2 differs from it in the last bit at n = 69
        and 138."""
        problem = build_problem(
            bounds=AreaBounds(47.4, 51.4, 5.71, 9.71, altitude_levels_m=(3000.0,)),
            lat_count=2, lon_count=2, candidate_count=421,
            requirements=ObjectiveRequirements(),
        )
        n = problem.n_candidates
        batch = np.arange(n)[None, :] < np.arange(n + 1)[:, None]
        scores = PlacementEvaluator(problem, gdop_subset_cap=4).evaluate(batch)
        expected = [knapsack_penalty(count, n) for count in range(n + 1)]
        assert scores.n_selected.tolist() == list(range(n + 1))
        assert scores.penalty.tolist() == expected

    def test_batch_diagnostics_rejected(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        genes = np.ones((1, small_problem.n_candidates), dtype=bool)
        with pytest.raises(ValueError, match="one chromosome"):
            evaluator.evaluate(genes, diagnostics=True)


class TestForcedTable:
    @pytest.mark.parametrize("cap", [4, 6, 12])
    def test_all_forced_rows_read_the_table(self, area_bounds, small_problem, cap):
        """A free-standing deployment forces every site, so each row's
        usable sensors are all forced: its GDOP comes from the table, with
        no kernel call, and equals the rank-order GDOP bit for bit."""
        problem = build_problem(
            bounds=area_bounds, lat_count=6, lon_count=6, candidate_count=0,
            requirements=small_problem.requirements, jammers=small_problem.jammers,
            deployed=load_deployed_csv(clustered21_path())[0],
        )
        evaluator = PlacementEvaluator(problem, gdop_subset_cap=cap)
        genes = problem.forced_mask.copy()
        with mock.patch.object(evaluator_module, "gdop_min_batched", side_effect=AssertionError):
            raw, diag = evaluator.evaluate(genes, diagnostics=True)
        of1, _, best, _, k_visible = masked_sort_of1_of2(problem, genes, cap)
        assert (k_visible >= 4).any() and np.isfinite(best).any()
        assert diag.best_gdop.tobytes() == best.tobytes()
        assert raw.of1 == of1

    def test_no_forced_sites_no_table(self, small_problem):
        assert not small_problem.forced_mask.any()
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=12)
        assert evaluator.best_forced is None and evaluator.forced_values is None


class TestKernelPool:
    """Kernel calls dealt out to a pool give the inline run's scores bit
    for bit: every call writes exactly its own rows of the result."""

    @pytest.fixture(scope="class")
    def augment_problem(self, area_bounds, small_problem):
        """The small problem's 25 candidates plus clustered21, forced."""
        return build_problem(
            bounds=area_bounds, lat_count=6, lon_count=6, candidate_count=25,
            requirements=small_problem.requirements, jammers=small_problem.jammers,
            deployed=load_deployed_csv(clustered21_path())[0],
        )

    @pytest.mark.parametrize("cap", [6, 12])
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("forced", [True, False])
    def test_pool_matches_inline_and_single(self, small_problem, augment_problem, forced,
                                            threads, cap):
        """With forced sites every job takes rows by index, in groups of
        equal f'; without, by slice."""
        problem = augment_problem if forced else small_problem
        n = problem.n_candidates
        rng = np.random.default_rng(10 * threads + cap)
        batch = rng.random((30, n)) < rng.uniform(0.0, 0.6, (30, 1))
        batch[:26] |= problem.forced_mask  # the rest lack a forced site
        inline = PlacementEvaluator(problem, gdop_subset_cap=cap)
        pooled = PlacementEvaluator(problem, gdop_subset_cap=cap, threads=threads)
        real = evaluator_module.gdop_min_batched
        calls = {}

        def spy(dc, valid, subsets, *rest):
            # known: 0 for rank-order rows, C(f', 3) for a mixed f' group.
            calls.setdefault(threading.get_ident(), []).append((len(valid), rest[-1]))
            return real(dc, valid, subsets, *rest)

        # Workers switching often interleave their jobs' writes into the
        # shared result.
        switch = sys.getswitchinterval()
        try:
            with mock.patch.multiple(evaluator_module, _ROW_BYTES=0, _MIN_ROWS=37,
                                     gdop_min_batched=spy):
                want = inline.evaluate(batch)
                serial, calls = calls, {}
                sys.setswitchinterval(1e-5)
                got = pooled.evaluate(batch)
        finally:
            sys.setswitchinterval(switch)
            pooled.close()
        main = threading.get_ident()
        assert list(serial) == [main]
        assert main not in calls and 1 <= len(calls) <= threads
        # The same calls, dealt out: several jobs per worker and, with
        # forced sites, more than one mixed f' group.
        assert sorted(sum(calls.values(), [])) == sorted(serial[main])
        assert len(serial[main]) > 2 * threads
        assert (len({known for _, known in serial[main]} - {0}) >= 2) == forced
        for name, column in vars(got).items():
            assert column.dtype == getattr(want, name).dtype
            assert column.tobytes() == getattr(want, name).tobytes(), name
            assert np.array_equal(column, getattr(want, name))
        for i, genes in enumerate(batch):
            raw = got.row(i)
            assert raw == inline.evaluate(genes)
            expected = score_one(problem, genes, cap)
            assert raw.of1 == pytest.approx(expected.of1, rel=1e-9)
            assert astuple(raw)[1:] == astuple(expected)[1:]


def test_batch_peak_memory():
    """A fixed batch of 100 section-8 chromosomes with 0 to 30 sensors, at
    cap 6, allocates at most 7.5 MiB while it is scored: its kernel rows are
    stored as int16 candidates, and OF1 is formed in place. Rows stored as
    intp flat indices, with OF1 in a second (B, m) array, take 8.8 MiB.
    tracemalloc sees numpy's buffers."""
    problem = parse_config(section8_preset(1)).build_problem()
    evaluator = PlacementEvaluator(problem, gdop_subset_cap=6)
    rng = np.random.default_rng(0)
    batch = np.zeros((100, problem.n_candidates), dtype=bool)
    for i, row in enumerate(batch):
        row[rng.choice(problem.n_candidates, i % 31, replace=False)] = True
    evaluator.evaluate(batch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluator.evaluate(batch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * (1 << 20)


_REPEAT_BATCH = """
import resource, sys
import numpy as np
from adsbplace import evaluator
from adsbplace.config import parse_config, section8_preset
doc = section8_preset(1)
doc["grid"] = {"lat_count": 4, "lon_count": 4}
problem = parse_config(doc).build_problem()
ev = evaluator.PlacementEvaluator(problem, 6)
batch = np.random.default_rng(0).random((400, problem.n_candidates)) < 0.05
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ev.evaluate(batch)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_repeated_batch_reuses_the_heap():
    """A batch of 400 on a 48-point grid, scored again in a fresh process,
    pages in almost nothing: its ~7 MiB of temporaries stay in the heap.
    With glibc's default thresholds it took about 7600 minor faults."""
    src = os.path.dirname(os.path.dirname(evaluator_module.__file__))
    run = subprocess.run([sys.executable, "-c", _REPEAT_BATCH], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert int(run.stdout) < 200
