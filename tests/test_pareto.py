"""Vector objectives and Pareto fronts (repro.core.metrics / repro.analysis.pareto).

Covers the three invariants of the vector-objective redesign:

* the non-dominated filter is correct on hand-built fronts;
* a weight-sweep front is a subset of the exhaustive front on the paper's
  worked example (supported points are non-dominated);
* the scalarised view and the legacy-objective compatibility shims are
  bit-identical to the seed single-expression objectives, and sweeping many
  weight vectors over a priced population performs at most one full pricing
  pass per unique candidate.
"""

from itertools import permutations

import pytest

from repro.analysis.pareto import (
    ParetoPoint,
    dominates,
    front_to_rows,
    hypervolume,
    metric_points,
    non_dominated,
    pareto_front,
    weight_grid,
    weight_sweep_front,
)
from repro.core.cdcm import CdcmEvaluator
from repro.core.cwm import CwmEvaluator
from repro.core.framework import FRWFramework
from repro.core.mapping import Mapping
from repro.core.metrics import (
    CDCM_METRIC_NAMES,
    MetricVector,
    scalarisation_weights,
    validate_weights,
)
from repro.core.objective import (
    ScalarisedObjective,
    cdcm_objective,
    cwm_objective,
)
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.graphs.convert import cdcg_to_cwg
from repro.search.base import as_objective, objective_metrics
from repro.search.genetic import GeneticParameters, GeneticSearch
from repro.search.random_search import RandomSearch
from repro.utils.errors import ConfigurationError


def _point(index: int, energy: float, time: float) -> ParetoPoint:
    """A ParetoPoint with a throwaway distinct mapping."""
    mapping = Mapping({"a": index}, num_tiles=64)
    return ParetoPoint(
        mapping=mapping,
        metrics=MetricVector(("energy", "time"), (energy, time)),
    )


def _all_mappings(cores, num_tiles):
    return [
        Mapping(dict(zip(cores, assignment)), num_tiles=num_tiles)
        for assignment in permutations(range(num_tiles), len(cores))
    ]


class TestMetricVector:
    def test_mapping_like_access(self):
        vector = MetricVector(("energy", "time"), (400.0, 100.0))
        assert vector["energy"] == 400.0
        assert vector[1] == 100.0
        assert vector.get("time") == 100.0
        assert vector.get("missing") is None
        assert "time" in vector and "missing" not in vector
        assert len(vector) == 2
        assert list(vector) == ["energy", "time"]
        assert vector.as_dict() == {"energy": 400.0, "time": 100.0}
        assert dict(vector.items()) == vector.as_dict()
        with pytest.raises(KeyError):
            vector["missing"]

    def test_equality_and_hash(self):
        a = MetricVector(("energy",), (1.0,))
        b = MetricVector(("energy",), (1.0,))
        c = MetricVector(("energy",), (2.0,))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            MetricVector(("energy",), (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            MetricVector(("energy", "energy"), (1.0, 2.0))

    def test_weighted_sum_unit_weight_is_exact(self):
        # 1.0 * v must be v bit-for-bit — the shim bit-identity property.
        value = 123.456789e-7
        vector = MetricVector(("energy", "time"), (value, 99.0))
        assert vector.weighted_sum({"energy": 1.0}) == value

    def test_weighted_sum_two_terms_matches_expression(self):
        vector = MetricVector(("energy", "time"), (400.0, 90.0))
        assert vector.weighted_sum({"energy": 0.7, "time": 0.3}) == (
            0.7 * 400.0 + 0.3 * 90.0
        )

    def test_weighted_sum_strictness(self):
        vector = MetricVector(("energy",), (1.0,))
        with pytest.raises(ConfigurationError):
            vector.weighted_sum({"nope": 1.0})
        assert vector.weighted_sum({"nope": 1.0}, strict=False) == 0.0

    def test_dominates(self):
        a = MetricVector(("energy", "time"), (1.0, 2.0))
        b = MetricVector(("energy", "time"), (1.0, 3.0))
        c = MetricVector(("energy", "time"), (0.5, 9.0))
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(c) and not c.dominates(a)
        assert not a.dominates(a)
        assert c.dominates(a, keys=("energy",))

    def test_validate_weights(self):
        assert validate_weights({"energy": 2}, ("energy", "time")) == {
            "energy": 2.0
        }
        with pytest.raises(ConfigurationError):
            validate_weights({}, ("energy",))
        with pytest.raises(ConfigurationError):
            validate_weights({"bogus": 1.0}, ("energy",))
        with pytest.raises(ConfigurationError):
            validate_weights({"energy": 0.0}, ("energy",))
        with pytest.raises(ConfigurationError):
            validate_weights({"energy": float("nan")}, ("energy",))

    def test_scalarisation_weights_legacy_mapping(self):
        assert scalarisation_weights("energy") == {"energy": 1.0}
        assert scalarisation_weights("time") == {"time": 1.0}
        assert scalarisation_weights("weighted", 0.7, 0.3) == {
            "energy": 0.7,
            "time": 0.3,
        }
        with pytest.raises(ConfigurationError):
            scalarisation_weights("bogus")


class TestNonDominated:
    def test_hand_built_front(self):
        points = [
            _point(0, 1.0, 9.0),
            _point(1, 2.0, 8.0),
            _point(2, 5.0, 5.0),
            _point(3, 2.0, 9.0),  # dominated by (2, 8)
            _point(4, 6.0, 5.0),  # dominated by (5, 5)
            _point(5, 9.0, 1.0),
        ]
        front = non_dominated(points)
        assert [(p.metrics["energy"], p.metrics["time"]) for p in front] == [
            (1.0, 9.0),
            (2.0, 8.0),
            (5.0, 5.0),
            (9.0, 1.0),
        ]

    def test_duplicate_positions_keep_first(self):
        points = [_point(0, 3.0, 3.0), _point(1, 3.0, 3.0)]
        front = non_dominated(points)
        assert len(front) == 1
        assert front[0].mapping is points[0].mapping

    def test_weak_domination_is_strict_domination(self):
        points = [_point(0, 3.0, 3.0), _point(1, 3.0, 4.0)]
        assert dominates(points[0].metrics, points[1].metrics)
        assert [p.mapping for p in non_dominated(points)] == [points[0].mapping]

    def test_single_point_survives(self):
        points = [_point(0, 1.0, 1.0)]
        assert non_dominated(points) == points

    def test_requires_keys(self):
        with pytest.raises(ConfigurationError):
            non_dominated([_point(0, 1.0, 1.0)], keys=())


class TestScalarisedBitIdentity:
    """Scalarised views and shims reproduce the seed objectives exactly."""

    def _mappings(self, cdcg, count=10):
        return [Mapping.random(cdcg.cores(), 4, rng=seed) for seed in range(count)]

    def test_cwm_shim_matches_evaluator(self, example_cdcg, example_platform):
        cwg = cdcg_to_cwg(example_cdcg)
        objective = cwm_objective(cwg, example_platform)
        evaluator = CwmEvaluator(example_platform)
        for mapping in self._mappings(example_cdcg):
            assert objective(mapping) == evaluator.cost(cwg, mapping)

    @pytest.mark.parametrize(
        "metric,energy_weight,time_weight",
        [("energy", 1.0, 0.0), ("time", 1.0, 0.0), ("weighted", 0.7, 0.3)],
    )
    def test_cdcm_shim_matches_seed_expression(
        self, example_cdcg, example_platform, metric, energy_weight, time_weight
    ):
        objective = cdcm_objective(
            example_cdcg,
            example_platform,
            metric=metric,
            energy_weight=energy_weight,
            time_weight=time_weight,
        )
        evaluator = CdcmEvaluator(example_platform)
        for mapping in self._mappings(example_cdcg, count=5):
            report = evaluator.evaluate(example_cdcg, mapping)
            if metric == "energy":
                seed_cost = report.total_energy
            elif metric == "time":
                seed_cost = report.execution_time
            else:
                seed_cost = (
                    energy_weight * report.total_energy
                    + time_weight * report.execution_time
                )
            assert objective(mapping) == seed_cost

    def test_scalarised_view_matches_context_cost(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        view = ScalarisedObjective(context, {"energy": 1.0})
        for mapping in self._mappings(example_cdcg, count=5):
            assert view(mapping) == context.cost(mapping)

    def test_scalarised_cwm_delta_is_weighted_component_delta(
        self, example_cdcg, example_platform
    ):
        cwg = cdcg_to_cwg(example_cdcg)
        context = CwmEvaluationContext(cwg, example_platform)
        view = ScalarisedObjective(context, {"dynamic_energy": 2.5})
        assert view.supports_delta
        mapping = Mapping.random(example_cdcg.cores(), 4, rng=7)
        raw = context.delta(mapping, 0, 3)
        assert view.delta(mapping, 0, 3) == 2.5 * raw
        assert view.delta_evaluations == 1

    def test_comparison_rows_stable_under_redesign(
        self, example_cdcg, example_platform
    ):
        # The ComparisonConfig path must keep producing the exact numbers the
        # pre-vector engine produced for the paper example (pinned by
        # tests/test_analysis.py too); two runs here guard determinism of the
        # shim route itself.
        from repro.analysis.comparison import ComparisonConfig, compare_models

        first = compare_models(
            example_cdcg, example_platform, ComparisonConfig(method="exhaustive"),
            seed=3,
        )
        second = compare_models(
            example_cdcg, example_platform, ComparisonConfig(method="exhaustive"),
            seed=3,
        )
        assert first.cwm_outcome.cost == second.cwm_outcome.cost
        assert first.cdcm_outcome.cost == second.cdcm_outcome.cost
        assert first.cwm_mapping == second.cwm_mapping
        assert first.cdcm_mapping == second.cdcm_mapping
        assert [r.energy_saving for r in first.technology_results] == [
            r.energy_saving for r in second.technology_results
        ]


class TestWeightSweep:
    def test_sweep_front_is_subset_of_exhaustive_front(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        candidates = _all_mappings(example_cdcg.cores(), 4)
        exhaustive = pareto_front(context, candidates)
        sweep = weight_sweep_front(context, candidates, weights=8)
        exhaustive_positions = {
            (p.metrics["energy"], p.metrics["time"]) for p in exhaustive
        }
        assert sweep.front  # the sweep found at least one supported point
        for point in sweep.front:
            assert (
                point.metrics["energy"],
                point.metrics["time"],
            ) in exhaustive_positions

    def test_sweep_prices_each_unique_candidate_once(
        self, example_cdcg, example_platform
    ):
        # The acceptance property: sweeping 16 weight vectors over a priced
        # GA population performs <= 1 full pricing pass per unique candidate.
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        objective = ScalarisedObjective(context)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=1)
        GeneticSearch(
            GeneticParameters(population_size=8, generations=3)
        ).search(objective, initial, rng=5)
        population = [
            Mapping.random(example_cdcg.cores(), 4, rng=seed)
            for seed in range(12)
        ]
        objective.evaluate_batch(population)  # the "priced GA population"

        priced = context.cache_info().misses
        full_evaluations = objective.evaluations
        sweep = weight_sweep_front(objective, population, weights=16)
        # 16 weight vectors later: zero additional pricing passes, zero
        # additional full evaluations charged to the objective.
        assert context.cache_info().misses == priced
        assert objective.evaluations == full_evaluations
        assert len(sweep.selections) == 16

        # On a cold context the same sweep costs exactly one pricing pass per
        # unique candidate, and a repeat sweep costs none.
        cold = CdcmEvaluationContext(example_cdcg, example_platform)
        unique = len(set(population))
        weight_sweep_front(cold, population, weights=16)
        assert cold.cache_info().misses == unique
        weight_sweep_front(cold, population, weights=16)
        assert cold.cache_info().misses == unique

    def test_sweep_endpoints_hit_single_metric_optima(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        candidates = _all_mappings(example_cdcg.cores(), 4)
        sweep = weight_sweep_front(context, candidates, weights=5)
        energies = [p.metrics["energy"] for p in sweep.points]
        times = [p.metrics["time"] for p in sweep.points]
        # First weight vector is all-energy, last is all-time.
        assert sweep.selections[0].metrics["energy"] == min(energies)
        assert sweep.selections[-1].metrics["time"] == min(times)

    def test_weight_grid_shape(self):
        grid = weight_grid(3)
        assert grid == [
            {"energy": 1.0, "time": 0.0},
            {"energy": 0.5, "time": 0.5},
            {"energy": 0.0, "time": 1.0},
        ]
        with pytest.raises(ConfigurationError):
            weight_grid(1)
        with pytest.raises(ConfigurationError):
            weight_grid(4, keys=("a",))

    def test_sweep_rejects_weights_outside_keys(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        candidates = _all_mappings(example_cdcg.cores(), 4)[:4]
        with pytest.raises(ConfigurationError):
            weight_sweep_front(
                context, candidates, weights=[{"static_energy": 1.0}]
            )

    def test_front_to_rows_exports_metrics_and_weights(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        candidates = _all_mappings(example_cdcg.cores(), 4)[:6]
        sweep = weight_sweep_front(context, candidates, weights=4)
        rows = front_to_rows(sweep.front, keys=("energy", "time"))
        assert rows
        for row in rows:
            assert set(row) == {"mapping", "energy", "time", "weights"}
            assert sorted(row["mapping"]) == sorted(example_cdcg.cores())

    def test_metric_points_accepts_counting_objective(
        self, example_cdcg, example_platform, example_mappings
    ):
        objective = cdcm_objective(example_cdcg, example_platform)
        points = metric_points(objective, list(example_mappings.values()))
        assert len(points) == 2
        assert {p.metrics.names for p in points} == {CDCM_METRIC_NAMES}

    def test_metric_points_rejects_plain_callables(self, example_mappings):
        with pytest.raises(ConfigurationError):
            metric_points(lambda m: 0.0, list(example_mappings.values()))


class TestSearchIntegration:
    def test_search_results_carry_metric_breakdown(
        self, example_cdcg, example_platform
    ):
        framework = FRWFramework(example_cdcg, example_platform)
        outcome = framework.map(model="cdcm", method="exhaustive", seed=1)
        breakdown = outcome.search.best_metrics
        assert breakdown is not None
        assert breakdown.names == CDCM_METRIC_NAMES
        assert breakdown["energy"] == outcome.cost
        assert outcome.search.metric("time") == breakdown["time"]
        assert outcome.search.metric_breakdown == breakdown.as_dict()

    def test_plain_callable_results_have_no_breakdown(self, example_mappings):
        result = RandomSearch(samples=3).search(
            lambda mapping: 0.0, example_mappings["c"], rng=0
        )
        assert result.best_metrics is None
        assert result.metric_breakdown is None
        with pytest.raises(ConfigurationError):
            result.metric("energy")

    def test_engines_accept_context_spec(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=2)
        result = RandomSearch(samples=5).search(context, initial, rng=3)
        assert result.best_cost == context.cost(result.best_mapping)
        assert result.best_metrics is not None

    def test_engines_accept_weighted_spec(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=2)
        result = RandomSearch(samples=5).search(
            (context, {"time": 1.0}), initial, rng=3
        )
        # Minimising the time view: the best cost is the best texec seen.
        assert result.best_cost == result.best_metrics["time"]

    def test_as_objective_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            as_objective(object())

    def test_objective_metrics_prefers_uncounted_context_path(
        self, example_cdcg, example_platform, example_mappings
    ):
        objective = cdcm_objective(example_cdcg, example_platform)
        vector = objective_metrics(objective, example_mappings["d"])
        assert vector is not None
        assert vector["energy"] == pytest.approx(399.0)
        assert objective.evaluations == 0  # breakdown never perturbs counters

    def test_framework_weighted_objective_and_metrics(
        self, example_cdcg, example_platform, example_mappings
    ):
        framework = FRWFramework(example_cdcg, example_platform)
        view = framework.objective("cdcm", weights={"energy": 0.5, "time": 0.5})
        assert isinstance(view, ScalarisedObjective)
        mapping = example_mappings["d"]
        vector = framework.metrics(mapping, model="cdcm")
        assert view.with_weights({"time": 1.0})(mapping) == vector["time"]
        batch = framework.evaluate_metrics_batch([mapping], model="cdcm")
        assert batch == [vector]


def _nd_point(index: int, names, values) -> ParetoPoint:
    """A ParetoPoint with an arbitrary-dimension metric vector."""
    return ParetoPoint(
        mapping=Mapping({"a": index}, num_tiles=256),
        metrics=MetricVector(tuple(names), tuple(values)),
    )


class TestHypervolume:
    """The dominated-hypervolume indicator, two-key base and n-key recursion."""

    KEYS3 = ("energy", "time", "load")

    def test_two_key_rectangle(self):
        point = _point(0, 1.0, 1.0)
        assert hypervolume([point], reference={"energy": 3.0, "time": 2.0}) == 2.0

    def test_two_key_staircase(self):
        points = [_point(0, 1.0, 3.0), _point(1, 2.0, 1.0)]
        reference = {"energy": 4.0, "time": 4.0}
        # (4-1)*(4-3) + (4-2)*(3-1) = 3 + 4
        assert hypervolume(points, reference=reference) == 7.0

    def test_empty_set_and_default_reference(self):
        assert hypervolume([]) == 0.0
        # Componentwise max over the set: each boundary point touches the
        # reference in one coordinate, so only interior points gain area.
        points = [_point(0, 1.0, 3.0), _point(1, 2.0, 2.0), _point(2, 3.0, 1.0)]
        assert hypervolume(points) == (3.0 - 2.0) * (3.0 - 2.0)

    def test_single_key_rejected(self):
        with pytest.raises(ConfigurationError):
            hypervolume([_point(0, 1.0, 1.0)], keys=("energy",))

    def test_three_key_unit_cube(self):
        point = _nd_point(0, self.KEYS3, (0.0, 0.0, 0.0))
        assert (
            hypervolume([point], reference=(1.0, 1.0, 1.0), keys=self.KEYS3) == 1.0
        )

    def test_three_key_union_of_boxes(self):
        points = [
            _nd_point(0, self.KEYS3, (0.0, 1.0, 1.0)),
            _nd_point(1, self.KEYS3, (1.0, 0.0, 0.0)),
        ]
        # Boxes to (2,2,2): 2*1*1 + 1*2*2 - overlap 1*1*1 = 5.
        assert (
            hypervolume(points, reference=(2.0, 2.0, 2.0), keys=self.KEYS3) == 5.0
        )

    def test_three_key_dominated_point_adds_nothing(self):
        clean = [
            _nd_point(0, self.KEYS3, (0.0, 1.0, 1.0)),
            _nd_point(1, self.KEYS3, (1.0, 0.0, 0.0)),
        ]
        noisy = clean + [_nd_point(2, self.KEYS3, (1.5, 1.5, 1.5))]
        reference = (2.0, 2.0, 2.0)
        assert hypervolume(noisy, reference=reference, keys=self.KEYS3) == (
            hypervolume(clean, reference=reference, keys=self.KEYS3)
        )

    def test_three_key_degenerate_axis_matches_two_key(self):
        # A constant third key slices to (reference - constant) times the
        # two-key area — the recursion's base case contract.
        pairs = [(1.0, 3.0), (2.0, 1.0)]
        flat = [
            _nd_point(i, self.KEYS3, (e, t, 1.0)) for i, (e, t) in enumerate(pairs)
        ]
        planar = [_point(i, e, t) for i, (e, t) in enumerate(pairs)]
        reference2 = {"energy": 4.0, "time": 4.0}
        area = hypervolume(planar, reference=reference2)
        volume = hypervolume(flat, reference=(4.0, 4.0, 3.0), keys=self.KEYS3)
        assert volume == pytest.approx(area * (3.0 - 1.0))

    def test_four_key_hypercube(self):
        names = ("a", "b", "c", "d")
        point = _nd_point(0, names, (0.0, 0.0, 0.0, 0.0))
        assert (
            hypervolume([point], reference=(2.0, 2.0, 2.0, 2.0), keys=names)
            == 16.0
        )

    def test_mismatched_reference_length_rejected(self):
        with pytest.raises(ConfigurationError):
            hypervolume(
                [_nd_point(0, self.KEYS3, (0.0, 0.0, 0.0))],
                reference=(1.0, 1.0),
                keys=self.KEYS3,
            )

    def test_dict_reference_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            hypervolume(
                [_nd_point(0, self.KEYS3, (0.0, 0.0, 0.0))],
                reference={"energy": 1.0, "time": 1.0},
                keys=self.KEYS3,
            )
