"""Objective scores, penalty, fitness combination and normalization."""

import math

import numpy as np
import pytest

from adsbplace.evaluator import PlacementEvaluator, RawScores
from adsbplace.objectives import (
    InvalidConfigError,
    JammerModel,
    ObjectiveRequirements,
    Normalization,
    knapsack_penalty,
    saturation_normalization,
    weighted_fitness,
)
from oracles import (
    GeodeticPosition,
    ecef_line_km,
    euclidean_distance,
    geodetic_to_ecef,
    jsr,
    of1_gdop_msd,
    of2_range_msd,
    of3_direction1_spacing,
    of3_direction2_jammer_distance,
    of3_direction3_sensors_in_range,
    sensor_affected,
    sensors_at,
    single_point_grid,
)


class TestOf1:
    def test_single_point_deviation(self):
        """One point with achieved GDOP saturated: (10 - 100)^2."""
        grid = single_point_grid()
        req = ObjectiveRequirements()
        score = of1_gdop_msd(grid, [], [], req)
        assert score == (10.0 - 100.0) ** 2

    def test_saturation_uses_cap(self):
        grid = single_point_grid()
        req = ObjectiveRequirements(gdop_cap=50.0)
        assert of1_gdop_msd(grid, [], [], req) == (10.0 - 50.0) ** 2

    def test_permutation_invariant(self, rng):
        grid = single_point_grid()
        req = ObjectiveRequirements()
        coords = [
            (48.0 + dla, 7.0 + dlo, 0.0)
            for dla, dlo in rng.uniform(-1.0, 1.0, (5, 2))
        ]
        geos, ecefs = sensors_at(coords)
        base = of1_gdop_msd(grid, geos, ecefs, req, None)
        perm = rng.permutation(5)
        shuffled = of1_gdop_msd(
            grid, [geos[i] for i in perm], [ecefs[i] for i in perm], req, None
        )
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_empty_grid_rejected(self):
        grid = np.empty((3, 0))
        with pytest.raises(ValueError):
            of1_gdop_msd(grid, [], [], ObjectiveRequirements())


class TestOf2:
    def test_fewer_than_two_visible_saturates(self):
        grid = single_point_grid()
        req = ObjectiveRequirements()
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0)])
        score = of2_range_msd(grid, geos, ecefs, req, range_cap_km=600.0)
        assert score == (150.0 - 600.0) ** 2

    def test_second_nearest_visible_defines_range(self):
        grid = single_point_grid()
        req = ObjectiveRequirements()
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0), (48.0, 7.5, 0.0), (48.0, 9.0, 0.0)])
        point = GeodeticPosition(48.0, 7.0, 10000.0)
        p_ecef = geodetic_to_ecef(point)
        dists = sorted(euclidean_distance(p_ecef, s) / 1000.0 for s in ecefs)
        expected = (150.0 - dists[1]) ** 2
        assert of2_range_msd(grid, geos, ecefs, req, 600.0) == pytest.approx(expected, rel=1e-12)

    def test_adding_sensor_never_increases(self, rng):
        # Required range far below any achievable one, so a closer
        # second-nearest sensor always shrinks the deviation.
        grid = single_point_grid()
        req = ObjectiveRequirements(required_range_km=1.0)
        coords = [(48.0 + d, 7.0, 0.0) for d in rng.uniform(-0.8, 0.8, 4)]
        geos, ecefs = sensors_at(coords)
        scores = [
            of2_range_msd(grid, geos[:k], ecefs[:k], req, 600.0) for k in (2, 3, 4)
        ]
        assert scores[0] >= scores[1] >= scores[2]


class TestOf3Direction1:
    def test_all_spacings_met(self):
        req = ObjectiveRequirements(min_sensor_spacing_km=50.0)
        sensors = ecef_line_km([0.0, 60.0, 130.0])
        assert of3_direction1_spacing(sensors, req) == 0.0

    def test_coincident_pair_full_shortfall(self):
        req = ObjectiveRequirements(min_sensor_spacing_km=50.0)
        sensors = ecef_line_km([10.0, 10.0])
        assert of3_direction1_spacing(sensors, req) == 2500.0

    def test_line_of_three(self):
        # 0/30/60 km with target 50: every nearest-neighbor gap is 30 km.
        req = ObjectiveRequirements(min_sensor_spacing_km=50.0)
        sensors = ecef_line_km([0.0, 30.0, 60.0])
        assert of3_direction1_spacing(sensors, req) == pytest.approx(400.0, rel=1e-12)

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError):
            of3_direction1_spacing(ecef_line_km([0.0]), ObjectiveRequirements())


class TestOf3Direction2:
    def test_all_jammers_beyond_target(self):
        req = ObjectiveRequirements(min_jammer_distance_km=50.0)
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0)])
        jammers = [GeodeticPosition(48.0, 9.0, 6000.0)]
        assert of3_direction2_jammer_distance(geos, ecefs, jammers, req) == 0.0

    def test_no_los_contributes_zero(self):
        # A ground-level jammer far away cannot see any sensor.
        req = ObjectiveRequirements(min_jammer_distance_km=500.0)
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0)])
        jammers = [GeodeticPosition(50.0, 9.0, 0.0)]
        assert of3_direction2_jammer_distance(geos, ecefs, jammers, req) == 0.0

    def test_shortfall_squared(self):
        req = ObjectiveRequirements(min_jammer_distance_km=40.0)
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0)])
        jam_pos = GeodeticPosition(48.09, 7.0, 3000.0)
        jammers = [jam_pos]
        nearest = euclidean_distance(geodetic_to_ecef(jam_pos), ecefs[0]) / 1000.0
        expected = (40.0 - nearest) ** 2
        got = of3_direction2_jammer_distance(geos, ecefs, jammers, req)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_inputs_rejected(self):
        req = ObjectiveRequirements()
        with pytest.raises(ValueError):
            of3_direction2_jammer_distance([], [], [], req)


class TestOf3Direction3:
    def test_no_sensor_in_range(self):
        req = ObjectiveRequirements(max_sensors_in_jammer_los=0)
        geos, ecefs = sensors_at([(48.0, 7.0, 0.0)])
        jammers = [GeodeticPosition(51.0, 9.5, 0.0)]
        assert of3_direction3_sensors_in_range(geos, ecefs, jammers, req) == 0.0

    def test_five_sensors_target_zero(self):
        req = ObjectiveRequirements(max_sensors_in_jammer_los=0)
        geos, ecefs = sensors_at([(48.0, 7.0 + 0.05 * i, 0.0) for i in range(5)])
        jammers = [GeodeticPosition(48.0, 7.1, 6000.0)]
        assert of3_direction3_sensors_in_range(geos, ecefs, jammers, req) == 25.0

    def test_excess_only_rule(self):
        # Jammers covering 3 and 1 sensors with target 1: (2^2 + 0)/2 = 2.
        req = ObjectiveRequirements(max_sensors_in_jammer_los=1)
        geos, ecefs = sensors_at(
            [(48.0, 7.0, 0.0), (48.0, 7.1, 0.0), (48.0, 7.2, 0.0), (40.0, 0.0, 0.0)]
        )
        jammers = [
            GeodeticPosition(48.0, 7.1, 6000.0),
            GeodeticPosition(40.0, 0.05, 500.0),
        ]
        got = of3_direction3_sensors_in_range(geos, ecefs, jammers, req)
        assert got == 2.0


class TestAffectRuleAndJsr:
    def test_equal_link_budget_is_one(self):
        model = JammerModel(power_w=2.0, antenna_gain=3.0,
                            transmitter_power_w=2.0, transmitter_antenna_gain=3.0)
        assert jsr(model, 50.0, 50.0) == 1.0

    def test_inverse_square_in_jammer_distance(self):
        model = JammerModel()
        assert jsr(model, 20.0, 80.0) == pytest.approx(jsr(model, 10.0, 80.0) / 4.0, rel=1e-12)

    def test_power_product_linear(self):
        strong = JammerModel(power_w=400.0, antenna_gain=1.0)
        assert jsr(strong, 60.0, 60.0) == pytest.approx(4.0, rel=1e-12)

    def test_coincident_jammer_infinite(self):
        assert math.isinf(jsr(JammerModel(), 0.0, 100.0))

    def test_los_rule_ignores_power(self):
        weak = JammerModel(power_w=1e-9, affect_rule="los")
        jammer = GeodeticPosition(48.0, 7.0, 6000.0)
        sensor = GeodeticPosition(48.0, 7.3, 0.0)
        assert sensor_affected(weak, jammer, sensor, geodetic_to_ecef(sensor))

    def test_jsr_rule_thresholds(self):
        jammer = GeodeticPosition(48.0, 7.0, 6000.0)
        sensor = GeodeticPosition(48.0, 7.3, 0.0)
        # 1 W jammer at ~23 km vs 100 W transmitter at 150 km:
        # JSR = 150^2 / (100 * 23^2) = 0.43.
        near = JammerModel(affect_rule="jsr", jsr_threshold=0.2, nominal_signal_distance_km=150.0)
        assert sensor_affected(near, jammer, sensor, geodetic_to_ecef(sensor))
        picky = JammerModel(affect_rule="jsr", jsr_threshold=1.0, nominal_signal_distance_km=150.0)
        assert not sensor_affected(picky, jammer, sensor, geodetic_to_ecef(sensor))

    def test_invalid_rule_rejected(self):
        with pytest.raises(InvalidConfigError):
            JammerModel(affect_rule="nope")

    @pytest.mark.parametrize("field, value", [
        ("jsr_threshold", -1.0), ("jsr_threshold", math.nan), ("jsr_threshold", math.inf),
        ("nominal_signal_distance_km", -5.0), ("nominal_signal_distance_km", math.inf),
        ("power_w", math.nan), ("antenna_gain", math.inf),
        ("transmitter_power_w", math.nan), ("transmitter_antenna_gain", math.inf),
    ])
    def test_nonsense_link_budget_rejected(self, field, value):
        """``nan <= 0`` is false, so each value is checked for finiteness
        too; a negative threshold would count every jammer in LOS."""
        with pytest.raises(InvalidConfigError, match=field):
            JammerModel(affect_rule="jsr", **{field: value})


def raw_of(d1=0.0, d2=0.0, d3=0.0, of1=0.0, of2=0.0, penalty=0.0, n_selected=0):
    return RawScores(of1, of2, d1, d2, d3, penalty, n_selected)


# Saturation 1 everywhere: every value in [0, 1] is its own normalized value.
UNIT = Normalization(dict.fromkeys(("of1", "of2", "d1", "d2", "d3", "of3"), 1.0))


class TestCombination:
    def test_weighted_sum(self):
        assert UNIT.scores(raw_of(1.0, 2.0, 3.0), (1.0, 0.0, 0.0)).of3 == 1.0
        assert UNIT.scores(raw_of(0.4, 0.4, 0.4), (0.2, 0.3, 0.5)).of3 == pytest.approx(0.4)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidConfigError):
            UNIT.scores(raw_of(1.0, 1.0, 1.0), (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("w", [(math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0)])
    def test_non_finite_weights_rejected(self, w):
        with pytest.raises(InvalidConfigError):
            UNIT.scores(raw_of(1.0, 1.0, 1.0), w)

    def test_monotone_in_components(self):
        w = (1 / 3, 1 / 3, 1 / 3)
        assert UNIT.scores(raw_of(0.2, 0.2, 0.2), w).of3 < UNIT.scores(raw_of(0.2, 0.2, 0.3), w).of3

    def test_penalty_endpoints(self):
        assert knapsack_penalty(0, 400) == 0.0
        assert knapsack_penalty(400, 400) == 0.5

    def test_penalty_reference_value(self):
        assert knapsack_penalty(30, 400) == 0.0028125

    def test_penalty_strictly_increasing(self):
        values = [knapsack_penalty(k, 50) for k in range(51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_penalty_out_of_range(self):
        with pytest.raises(ValueError):
            knapsack_penalty(51, 50)
        with pytest.raises(InvalidConfigError):
            knapsack_penalty(0, 0)

    def test_weighted_fitness_endpoints(self):
        assert weighted_fitness(0.2, 0.1, 0.0) == 0.2
        assert weighted_fitness(0.2, 0.1, 1.0) == 0.1
        assert weighted_fitness(0.2, 0.1, 0.5) == pytest.approx(0.15)

    def test_normalize_endpoints_and_midpoint(self):
        norm = Normalization({"x": 10.0})
        assert norm.normalize("x", 0.0) == 0.0
        assert norm.normalize("x", 10.0) == 1.0
        assert norm.normalize("x", 5.0) == 0.5

    def test_normalize_degenerate_and_clamped(self):
        norm = Normalization({"x": 10.0})
        assert norm.normalize("x", 99.0) == 1.0
        assert norm.normalize("x", -5.0) == 0.0
        assert norm.normalize("x", math.nan) == 0.0


class TestSaturationNormalization:
    def test_saturation_values(self):
        req = ObjectiveRequirements(required_gdop=10.0, gdop_cap=100.0, required_range_km=150.0,
                                    min_sensor_spacing_km=80.0, min_jammer_distance_km=70.0,
                                    max_sensors_in_jammer_los=2)
        assert saturation_normalization(req, 500.0, 30).saturation == {
            "of1": 90.0**2, "of2": 350.0**2, "d1": 80.0**2, "d2": 70.0**2, "d3": 28.0**2, "of3": 1.0,
        }

    def test_requirement_side_and_cap_floor(self):
        # Caps close to the requirement: the deviation down to zero is larger.
        req = ObjectiveRequirements(required_gdop=10.0, gdop_cap=15.0, required_range_km=150.0,
                                    max_sensors_in_jammer_los=5)
        sat = saturation_normalization(req, 200.0, 3).saturation
        assert (sat["of1"], sat["of2"], sat["d3"]) == (100.0, 150.0**2, 1.0)

    def test_values_in_unit_interval(self, rng):
        norm = saturation_normalization(ObjectiveRequirements(), 600.0, 30)
        for key, sat in norm.saturation.items():
            assert norm.normalize(key, 0.0) == 0.0
            assert norm.normalize(key, sat / 2) == 0.5
            assert norm.normalize(key, sat) == 1.0
            assert norm.normalize(key, 3 * sat) == 1.0
            values = [norm.normalize(key, v) for v in rng.uniform(0.0, 2 * sat, 50)]
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_of3_weights_normalized_directions(self):
        norm = saturation_normalization(ObjectiveRequirements(), 600.0, 30)
        sat = norm.saturation
        d = (0.5 * sat["d1"], 0.25 * sat["d2"], 0.1 * sat["d3"])
        of3 = norm.scores(raw_of(*d), (0.2, 0.3, 0.5)).of3
        assert of3 == pytest.approx(0.2 * 0.5 + 0.3 * 0.25 + 0.5 * 0.1)

    def test_scores_elementwise_equals_scalar(self, rng):
        """On (B,) columns, the objective map and its vectors give what the
        calls on each row's floats give, bit for bit: clamping, values
        beyond saturation, -0.0, NaN and inf included."""
        norm = saturation_normalization(ObjectiveRequirements(), 600.0, 30)
        edges = np.array([-1.0, -0.0, 0.0, 1e-300, math.nan, math.inf, -math.inf])
        keys = ("of1", "of2", "d1", "d2", "d3")
        cols = {
            key: np.concatenate([rng.permutation(edges), rng.uniform(0.0, 2 * norm.saturation[key], 20)])
            for key in keys
        }
        penalty = np.concatenate([[0.0, -0.0, 0.5, 1.0, math.nan, 0.25, 0.125],
                                  rng.uniform(0.0, 0.5, 20)])
        n = np.arange(penalty.size)
        w, a = (0.2, 0.3, 0.5), 0.3
        batch = norm.scores(RawScores(**cols, penalty=penalty, n_selected=n), w)
        rows = [norm.scores(RawScores(**{k: float(cols[k][i]) for k in keys},
                                      penalty=float(penalty[i]), n_selected=int(n[i])), w)
                for i in range(n.size)]
        assert type(rows[0].normalized["of1"]) is float
        assert isinstance(batch.of3, np.ndarray) and batch.vectors(a).shape == (n.size, 3)

        def bits(values):
            return np.asarray(values, dtype=float).tobytes()

        assert bits(batch.of3) == bits([r.of3 for r in rows])
        for key in ("of1", "of2", "of3"):
            assert bits(batch.normalized[key]) == bits([r.normalized[key] for r in rows])
        assert bits(batch.vectors(a)) == bits([r.vectors(a) for r in rows])

    def test_directions_never_exceed_saturation(self, small_problem, rng):
        n_max = 8
        norm = saturation_normalization(small_problem.requirements, small_problem.range_cap_km, n_max)
        evaluator = PlacementEvaluator(small_problem, gdop_subset_cap=6)
        for _ in range(30):
            genes = np.zeros(small_problem.n_candidates, dtype=bool)
            genes[rng.choice(small_problem.n_candidates, size=rng.integers(0, n_max + 1),
                             replace=False)] = True
            raw = evaluator.evaluate(genes)
            for key in ("d1", "d2", "d3"):
                assert getattr(raw, key) <= norm.saturation[key]
