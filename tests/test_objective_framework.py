"""Objective adapters and the FRW framework (repro.core.objective / framework)."""

import pytest

from repro.core.framework import FRWFramework
from repro.core.mapping import Mapping
from repro.core.objective import ScalarisedObjective, cdcm_objective, cwm_objective
from repro.energy.technology import TECH_0_35UM
from repro.eval.context import CdcmEvaluationContext
from repro.graphs.cdcg import CDCG
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.annealing import FAST_SCHEDULE, SimulatedAnnealing
from repro.search.base import as_objective
from repro.utils.errors import ConfigurationError, MappingError


class TestCountingObjective:
    """The Section 5 effort counters every objective view carries."""

    def test_counts_calls_and_time(self, example_cdcg, example_platform, example_mappings):
        objective = cdcm_objective(example_cdcg, example_platform)
        assert objective.evaluations == 0
        objective(example_mappings["c"])
        objective(example_mappings["d"])
        assert objective.evaluations == 2
        assert objective.elapsed > 0.0
        objective.reset()
        assert objective.evaluations == 0
        assert objective.elapsed == 0.0

    def test_repr_mentions_name(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        objective = ScalarisedObjective(context, name="demo")
        assert "demo" in repr(objective)

    def test_cwm_objective_value(self, example_cdcg, example_platform, example_mappings):
        from repro.graphs.convert import cdcg_to_cwg

        objective = cwm_objective(cdcg_to_cwg(example_cdcg), example_platform)
        assert objective(example_mappings["c"]) == pytest.approx(390.0)

    def test_cdcm_objective_value(self, example_cdcg, example_platform, example_mappings):
        objective = cdcm_objective(example_cdcg, example_platform)
        assert objective(example_mappings["d"]) == pytest.approx(399.0)


#: Every way of obtaining an objective, with the name, swap-delta support and
#: costs of the two Figure 1 mappings (c, d) each had before views became
#: the only adapter.
_ADAPTERS = {
    "cwm_objective": (
        lambda cdcg, cwg, platform: cwm_objective(cwg, platform),
        "cwm(paper-example)", True, (390.0, 390.0),
    ),
    "cdcm_objective": (
        lambda cdcg, cwg, platform: cdcm_objective(cdcg, platform),
        "cdcm(paper-example,energy)", False, (400.0, 399.0),
    ),
    "as_objective-context": (
        lambda cdcg, cwg, platform: as_objective(
            CdcmEvaluationContext(cdcg, platform)
        ),
        "cdcm(paper-example,energy)", False, (400.0, 399.0),
    ),
    "as_objective-weighted-spec": (
        lambda cdcg, cwg, platform: as_objective(
            (CdcmEvaluationContext(cdcg, platform), {"energy": 0.5, "time": 0.5})
        ),
        "cdcm(paper-example,energy)[energy=0.5,time=0.5]", False, (250.0, 244.5),
    ),
    "framework-cwm": (
        lambda cdcg, cwg, platform: FRWFramework(cdcg, platform).objective("cwm"),
        "cwm(paper-example)", True, (390.0, 390.0),
    ),
    "framework-cdcm-weighted": (
        lambda cdcg, cwg, platform: FRWFramework(cdcg, platform).objective(
            "cdcm", {"time": 1.0}
        ),
        "cdcm(paper-example,energy)[time=1]", False, (100.0, 90.0),
    ),
}


class TestOneAdapter:
    @pytest.mark.parametrize("adapter", list(_ADAPTERS))
    def test_every_factory_returns_a_counting_view(
        self, adapter, example_cdcg, example_cwg, example_platform, example_mappings
    ):
        build, name, supports_delta, costs = _ADAPTERS[adapter]
        objective = build(example_cdcg, example_cwg, example_platform)
        assert isinstance(objective, ScalarisedObjective)
        assert objective.name == name
        assert objective.supports_delta is supports_delta
        mappings = [example_mappings["c"], example_mappings["d"]]
        assert tuple(objective(mapping) for mapping in mappings) == costs
        assert tuple(objective.evaluate_batch(mappings + mappings[:1])) == costs + costs[:1]
        assert objective.evaluations == 5
        if supports_delta:
            objective.delta(mappings[0], 0, 1)
        assert objective.delta_evaluations == int(supports_delta)
        assert objective.elapsed > 0.0
        assert objective.cache_info().misses == 2


class TestFrameworkConstruction:
    def test_validates_application(self, example_platform):
        bad = CDCG("cyclic")
        bad.add_packet("x", "a", "b", 1.0, 1)
        bad.add_packet("y", "b", "a", 1.0, 1)
        bad.add_dependence("x", "y")
        bad.add_dependence("y", "x")
        with pytest.raises(Exception):
            FRWFramework(bad, example_platform)

    def test_rejects_too_many_cores(self, example_cdcg):
        tiny = Platform(mesh=Mesh(1, 2))
        with pytest.raises(MappingError):
            FRWFramework(example_cdcg, tiny)

    def test_derives_cwg(self, example_cdcg, example_platform):
        framework = FRWFramework(example_cdcg, example_platform)
        assert framework.cwg.weight("E", "A") == 35


class TestFrameworkMapping:
    @pytest.fixture
    def framework(self, example_cdcg, example_platform):
        return FRWFramework(example_cdcg, example_platform)

    def test_initial_mapping_is_seeded(self, framework):
        assert framework.initial_mapping(5) == framework.initial_mapping(5)

    def test_greedy_mapping_places_all_cores(self, framework):
        mapping = framework.greedy_mapping()
        assert sorted(mapping.cores) == ["A", "B", "E", "F"]

    def test_map_with_exhaustive_finds_optimum(self, framework, example_mappings):
        outcome = framework.map(model="cdcm", method="exhaustive", seed=1)
        # 4 cores on 4 tiles: the optimum must be at least as good as both
        # reference mappings.
        assert outcome.cost <= 399.0 + 1e-9
        assert outcome.method == "exhaustive"
        assert outcome.evaluations >= 24

    def test_map_with_annealing(self, framework):
        outcome = framework.map(
            model="cwm",
            searcher=SimulatedAnnealing(FAST_SCHEDULE),
            seed=2,
        )
        assert outcome.model == "cwm"
        assert outcome.cost == pytest.approx(390.0)  # CWM optimum of this app
        assert outcome.cpu_time >= 0.0

    def test_map_unknown_model(self, framework):
        with pytest.raises(ConfigurationError):
            framework.map(model="hybrid")

    def test_objective_factory(self, framework):
        assert "cwm" in framework.objective("cwm").name
        assert "cdcm" in framework.objective("cdcm").name
        with pytest.raises(ConfigurationError):
            framework.objective("nope")

    def test_evaluate_reports_cdcm_quantities(self, framework, example_mappings):
        report = framework.evaluate(example_mappings["c"])
        assert report.execution_time == pytest.approx(100.0)
        report35 = framework.evaluate(example_mappings["c"], TECH_0_35UM)
        assert report35.energy.technology_name == "0.35um"

    def test_evaluate_cwm_cost(self, framework, example_mappings):
        assert framework.evaluate_cwm_cost(example_mappings["d"]) == pytest.approx(390.0)

    def test_evaluate_many(self, framework, example_mappings):
        reports = framework.evaluate_many(example_mappings)
        assert set(reports) == {"c", "d"}
        assert reports["d"].execution_time < reports["c"].execution_time

    def test_explicit_initial_mapping_is_used(self, framework, example_mappings):
        outcome = framework.map(
            model="cdcm",
            method="random",
            seed=0,
            initial=example_mappings["d"],
            samples=5,
        )
        # random search keeps the initial mapping when nothing better is found
        assert outcome.cost <= 399.0 + 1e-9
