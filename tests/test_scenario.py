"""Dynamic scenarios: events, degraded fabrics, incremental remapping.

Pins the scenario engine (:mod:`repro.scenario`) end to end:

* the event vocabulary and script serialisation (stable content hashes,
  JSON round-trips, seeded fuzz-script generation);
* :class:`~repro.scenario.fabric.FabricManager` — faults rebuild the fabric
  through ``IrregularTopology.from_crg``, re-derive table routing and
  re-certify deadlock freedom before anything is priced; failed
  certification and disconnection are rejected outcomes, never crashes;
* :mod:`~repro.scenario.remap` — region remapping re-searches only the
  cores an event touched, through any registry engine;
* the :class:`~repro.scenario.runner.ScenarioRunner` lifecycle, replayed
  through the conformance harness (``tests/scenario_harness.py``): ≥100
  seeded fuzz scripts across mesh, torus and irregular fabrics, serial and
  pooled backends, incremental vs full remap modes;
* the engine matrix over the :func:`~repro.workloads.suite.scenario_suite`
  families;
* the reproduction pin: :class:`~repro.analysis.comparison.ComparisonConfig`
  runs never construct a :class:`ScenarioRunner`.
"""

import json

import pytest

from repro.analysis.comparison import ComparisonConfig, compare_models
from repro.analysis.tables import generate_table1
from repro.eval.parallel import ProcessPoolBackend
from repro.graphs.crg import CRG
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.scenario import (
    ApplicationArrival,
    ApplicationDeparture,
    FabricManager,
    LinkFailure,
    LinkRepair,
    RegionObjective,
    RouterFailure,
    ScenarioRunner,
    ScenarioScript,
    affected_cores,
    event_from_dict,
    random_script,
)
from repro.scenario import fabric as fabric_module
from repro.search.annealing import FAST_SCHEDULE
from repro.utils.errors import ConfigurationError
from repro.workloads.suite import _notched_mesh, scenario_suite, table1_suite
from scenario_harness import check_scenario_conformance

FUZZ_SEEDS = range(34)
FUZZ_FABRICS = ("mesh:3x3", "torus:3x3", "notched")
QUICK_ENGINE = dict(engine="random", engine_kwargs={"samples": 4})


def _fabric(spec):
    return _notched_mesh() if spec == "notched" else spec


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.close()


# ---------------------------------------------------------------------------
# Events and scripts
# ---------------------------------------------------------------------------
class TestEvents:
    def test_event_round_trip(self):
        events = [
            ApplicationArrival("app", 3, 8, 2_000, seed=5),
            ApplicationDeparture("app"),
            LinkFailure(3, 4),
            LinkRepair(3, 4),
            RouterFailure(7),
        ]
        for event in events:
            clone = event_from_dict(event.to_dict())
            assert clone == event
            assert clone.token() == event.token()

    def test_link_identity_is_undirected(self):
        assert LinkFailure(4, 3).link == LinkFailure(3, 4).link == (3, 4)

    def test_script_hash_is_stable_and_sensitive(self):
        script = scenario_suite()[0]
        again = ScenarioScript(
            name=script.name,
            topology=script.topology,
            events=script.events,
            seed=script.seed,
        )
        assert script.content_hash() == again.content_hash()
        reseeded = ScenarioScript(
            name=script.name,
            topology=script.topology,
            events=script.events,
            seed=script.seed + 1,
        )
        assert reseeded.content_hash() != script.content_hash()

    @pytest.mark.parametrize("fabric", FUZZ_FABRICS)
    def test_script_json_round_trip(self, fabric):
        script = random_script(_fabric(fabric), seed=9, num_events=6)
        payload = json.loads(json.dumps(script.to_dict()))
        clone = ScenarioScript.from_dict(payload)
        assert clone.content_hash() == script.content_hash()

    def test_random_script_is_seed_deterministic(self):
        a = random_script("mesh:3x3", seed=4, num_events=8)
        b = random_script("mesh:3x3", seed=4, num_events=8)
        c = random_script("mesh:3x3", seed=5, num_events=8)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_spec_strings_resolve(self):
        script = ScenarioScript(name="s", topology="mesh:2x2", events=())
        assert script.topology.num_tiles == 4


# ---------------------------------------------------------------------------
# Degraded fabrics
# ---------------------------------------------------------------------------
class TestFabricManager:
    def test_healthy_view_is_identity(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        view = mgr.current_view()
        assert not view.degraded
        assert view.alive_tiles == list(range(9))
        assert view.to_local == {t: t for t in range(9)}

    def test_link_failure_rebuilds_through_from_crg(self, monkeypatch):
        calls = []
        original = fabric_module.degraded_topology_from_crg

        def spy(crg):
            calls.append(crg.name)
            return original(crg)

        monkeypatch.setattr(fabric_module, "degraded_topology_from_crg", spy)
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        view, outcome = mgr.preview(LinkFailure(0, 1))
        assert outcome.applied and outcome.deadlock_free
        assert calls, "degraded fabric did not travel through from_crg"
        assert view.platform.validate_deadlock_free(raise_on_cycle=False)

    def test_router_failure_compacts_tiles(self):
        mgr = FabricManager(Platform(mesh="mesh:4x4", routing="table"))
        view, outcome = mgr.preview(RouterFailure(0))
        assert outcome.applied
        assert view.alive_tiles == list(range(1, 16))
        assert view.platform.num_tiles == 15
        assert view.to_local[1] == 0 and view.to_base[0] == 1

    def test_interior_fault_rejected_with_witness_cycle(self):
        mgr = FabricManager(Platform(mesh="mesh:4x4", routing="table"))
        view, outcome = mgr.preview(LinkFailure(5, 6))
        assert view is None
        assert not outcome.applied and outcome.reason == "deadlock"
        assert not outcome.deadlock_free
        assert len(outcome.cycle) >= 2
        for (a, b) in outcome.cycle:
            # Witness channels are real base-fabric links.
            assert (min(a, b), max(a, b)) in mgr._undirected

    def test_disconnecting_fault_rejected(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        for event in (LinkFailure(0, 1), LinkFailure(0, 3)):
            view, outcome = mgr.preview(event)
            if view is not None:
                mgr.commit(view)
        # Tile 0 now has no links left: the second preview must have been
        # rejected (either as deadlock or disconnection), never a crash.
        assert mgr.current_view().platform.validate_deadlock_free(
            raise_on_cycle=False
        )

    def test_noop_faults_rejected_with_reasons(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        cases = [
            (LinkFailure(0, 8), "unknown-link"),
            (LinkRepair(0, 1), "link-not-failed"),
            (RouterFailure(99), "unknown-router"),
        ]
        for event, reason in cases:
            view, outcome = mgr.preview(event)
            assert view is None and outcome.reason == reason

    def test_views_memoised_by_fault_state(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        view1, _ = mgr.preview(LinkFailure(0, 1))
        view2, _ = mgr.preview(LinkFailure(0, 1))
        assert view1 is view2

    def test_repair_restores_base_platform(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        view, _ = mgr.preview(LinkFailure(0, 1))
        mgr.commit(view)
        repaired, outcome = mgr.preview(LinkRepair(0, 1))
        assert outcome.applied
        assert repaired.platform is mgr.base_platform

    def test_non_fault_event_raises(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        with pytest.raises(ConfigurationError):
            mgr.preview(ApplicationDeparture("app"))


# ---------------------------------------------------------------------------
# Region remapping
# ---------------------------------------------------------------------------
class TestRegionRemap:
    def _views(self):
        mgr = FabricManager(Platform(mesh="mesh:3x3", routing="table"))
        old = mgr.current_view()
        new, outcome = mgr.preview(LinkFailure(0, 1))
        assert outcome.applied
        return old, new

    def test_affected_cores_cover_rerouted_flows(self):
        old, new = self._views()
        placement = {"a": 0, "b": 1, "c": 8}
        affected = affected_cores([("a", "b"), ("b", "c")], placement, old, new)
        # The 0->1 route changes (the direct link died); 1->8 is unaffected.
        assert "a" in affected and "b" in affected
        assert "c" not in affected

    def test_dead_tile_cores_always_affected(self):
        mgr = FabricManager(Platform(mesh="mesh:4x4", routing="table"))
        old = mgr.current_view()
        new, outcome = mgr.preview(RouterFailure(0))
        assert outcome.applied
        affected = affected_cores([], {"a": 0, "b": 5}, old, new)
        assert affected == {"a"}

    def test_region_objective_validation(self):
        from repro.eval.context import CwmEvaluationContext
        from repro.graphs.convert import cdcg_to_cwg
        from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

        cdcg = TgffLikeGenerator(3).generate(
            TgffSpec(name="t", num_cores=3, num_packets=6, total_bits=900)
        )
        context = CwmEvaluationContext(
            cdcg_to_cwg(cdcg), Platform(mesh="mesh:3x3", routing="table")
        )
        cores = sorted(cdcg.cores())
        with pytest.raises(ConfigurationError):
            RegionObjective(context, {}, cores, allowed_tiles=[0, 0, 1])
        with pytest.raises(ConfigurationError):
            RegionObjective(context, {}, cores, allowed_tiles=[0, 1])
        with pytest.raises(ConfigurationError):
            RegionObjective(context, {cores[0]: 2}, cores[1:], [2, 3])

    def test_initial_mapping_keeps_surviving_tiles(self):
        from repro.eval.context import CwmEvaluationContext
        from repro.graphs.convert import cdcg_to_cwg
        from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

        cdcg = TgffLikeGenerator(3).generate(
            TgffSpec(name="t", num_cores=3, num_packets=6, total_bits=900)
        )
        context = CwmEvaluationContext(
            cdcg_to_cwg(cdcg), Platform(mesh="mesh:3x3", routing="table")
        )
        a, b, c = sorted(cdcg.cores())
        objective = RegionObjective(context, {}, (a, b, c), (2, 4, 6, 8))
        virtual = objective.initial_mapping({a: 4, b: 0, c: 8})
        placed = objective.placement(virtual)
        assert placed[a] == 4 and placed[c] == 8
        assert placed[b] in (2, 6)

    def test_weighted_region_spec_prices_through_the_region(self):
        from repro.eval.context import CwmEvaluationContext
        from repro.graphs.convert import cdcg_to_cwg
        from repro.search.base import as_objective
        from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

        cdcg = TgffLikeGenerator(3).generate(
            TgffSpec(name="t", num_cores=3, num_packets=6, total_bits=900)
        )
        context = CwmEvaluationContext(
            cdcg_to_cwg(cdcg), Platform(mesh="mesh:3x3", routing="table")
        )
        a, b, c = sorted(cdcg.cores())
        region = RegionObjective(context, {a: 0}, (b, c), (2, 4, 6))
        view = as_objective((region, {"dynamic_energy": 2.0}))
        virtual = region.initial_mapping()
        # A view over a region scalarises full-mapping vectors, never the
        # virtual ones, and a region has no swap delta to offer.
        assert view(virtual) == 2.0 * context.cost(region.translate(virtual))
        assert not view.supports_delta


# ---------------------------------------------------------------------------
# Runner lifecycle
# ---------------------------------------------------------------------------
class TestRunnerLifecycle:
    def test_duplicate_arrival_rejected(self):
        script = ScenarioScript(
            name="dup",
            topology="mesh:3x3",
            events=(
                ApplicationArrival("app", 2, 6, 800, seed=1),
                ApplicationArrival("app", 2, 6, 800, seed=2),
            ),
        )
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        assert trace.records[0].outcome.applied
        assert trace.records[1].outcome.reason == "duplicate-application"

    def test_unknown_departure_rejected(self):
        script = ScenarioScript(
            name="ghost",
            topology="mesh:3x3",
            events=(ApplicationDeparture("nobody"),),
        )
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        assert trace.records[0].outcome.reason == "unknown-application"

    def test_arrival_without_capacity_rejected(self):
        script = ScenarioScript(
            name="full-house",
            topology="mesh:2x2",
            events=(
                ApplicationArrival("big", 4, 8, 1_000, seed=1),
                ApplicationArrival("late", 1, 4, 400, seed=2),
            ),
        )
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        assert trace.records[0].outcome.applied
        assert trace.records[1].outcome.reason == "no-capacity"

    def test_fault_without_capacity_rejected(self):
        # 4 cores on 4 tiles: any router failure would leave 3 tiles.
        script = ScenarioScript(
            name="squeeze",
            topology="mesh:2x2",
            events=(
                ApplicationArrival("app", 4, 8, 1_000, seed=1),
                RouterFailure(0),
            ),
        )
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        assert trace.records[1].outcome.reason == "no-capacity"
        assert trace.records[1].alive_tiles == 4

    def test_departure_frees_tiles_for_later_arrivals(self):
        script = ScenarioScript(
            name="turnover",
            topology="mesh:2x2",
            events=(
                ApplicationArrival("first", 4, 8, 1_000, seed=1),
                ApplicationDeparture("first"),
                ApplicationArrival("second", 4, 8, 1_000, seed=2),
            ),
        )
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        assert [r.outcome.applied for r in trace.records] == [True, True, True]
        assert trace.records[2].apps == ("second",)

    def test_invalid_runner_configuration(self):
        script = ScenarioScript(name="cfg", topology="mesh:2x2", events=())
        with pytest.raises(ConfigurationError):
            ScenarioRunner(script, model="bogus")
        with pytest.raises(ConfigurationError):
            ScenarioRunner(script, remap="bogus")

    def test_cdcm_model_runs(self):
        script = ScenarioScript(
            name="cdcm",
            topology="mesh:3x3",
            events=(
                ApplicationArrival("app", 3, 8, 2_000, seed=1),
                LinkFailure(0, 1),
            ),
        )
        trace = ScenarioRunner(script, model="cdcm", **QUICK_ENGINE).run()
        assert all(r.outcome.applied for r in trace.records)
        names = dict(trace.records[-1].metrics)["app"]
        assert "energy" in dict(names)

    def test_trace_round_trips_to_dict(self):
        script = scenario_suite()[1]
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["script_hash"] == script.content_hash()
        assert len(payload["records"]) == len(script.events)


# ---------------------------------------------------------------------------
# Conformance: the scenario families of the workload suite
# ---------------------------------------------------------------------------
class TestSuiteFamilies:
    @pytest.mark.parametrize(
        "script", scenario_suite(), ids=lambda s: s.name
    )
    def test_family_conforms(self, script, pool):
        report = check_scenario_conformance(
            script,
            lambda: ScenarioRunner(script, **QUICK_ENGINE),
            compare_factories=[
                lambda: ScenarioRunner(script, backend=pool, **QUICK_ENGINE)
            ],
            full_factory=lambda: ScenarioRunner(
                script, remap="full", **QUICK_ENGINE
            ),
            label="suite",
        )
        assert report.compared == 1

    def test_torus_family_pins_the_rejection_path(self):
        script = next(s for s in scenario_suite() if s.name == "torus-fault")
        trace = ScenarioRunner(script, **QUICK_ENGINE).run()
        rejected = [r for r in trace.records if not r.outcome.applied]
        assert rejected, "torus family no longer exercises rejection"
        assert all(r.outcome.reason == "deadlock" for r in rejected)

    def test_families_exercise_applied_faults(self):
        # The storm/outage/irregular families must keep exercising the
        # degraded-fabric path for the engine matrix to mean anything.
        for name in ("mesh-link-storm", "router-outage", "irregular-fault"):
            script = next(s for s in scenario_suite() if s.name == name)
            trace = ScenarioRunner(script, **QUICK_ENGINE).run()
            applied_faults = [
                r
                for r in trace.records
                if r.outcome.applied and r.kind.endswith("failure")
            ]
            assert applied_faults, f"{name} applies no faults"


# ---------------------------------------------------------------------------
# Engine matrix over the suite families
# ---------------------------------------------------------------------------
ENGINE_MATRIX = [
    ("annealing", {"schedule": FAST_SCHEDULE}),
    ("random", {"samples": 4}),
    ("genetic", {}),
    ("nsga2", {}),
]


class TestEngineMatrix:
    @pytest.mark.parametrize(
        "engine,kwargs", ENGINE_MATRIX, ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize(
        "script", scenario_suite(), ids=lambda s: s.name
    )
    def test_every_engine_replays_deterministically(self, script, engine, kwargs):
        check_scenario_conformance(
            script,
            lambda: ScenarioRunner(script, engine=engine, engine_kwargs=kwargs),
            label=f"matrix:{engine}",
        )

    def test_exhaustive_engine_on_small_families(self):
        # Exhaustive search enumerates permutations, so it only fits the
        # 3x3 families with ≤3 movable cores.
        for name in ("mesh-churn", "irregular-fault"):
            script = next(s for s in scenario_suite() if s.name == name)
            check_scenario_conformance(
                script,
                lambda: ScenarioRunner(script, engine="exhaustive"),
                label="matrix:exhaustive",
            )


# ---------------------------------------------------------------------------
# Fuzz: ≥100 random scripts through the conformance harness
# ---------------------------------------------------------------------------
class TestFuzzConformance:
    @pytest.mark.parametrize("fabric", FUZZ_FABRICS)
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_random_script_conforms(self, fabric, seed, pool):
        script = random_script(_fabric(fabric), seed=seed, num_events=6)
        check_scenario_conformance(
            script,
            lambda: ScenarioRunner(script, **QUICK_ENGINE),
            compare_factories=[
                lambda: ScenarioRunner(script, backend=pool, **QUICK_ENGINE)
            ],
            full_factory=lambda: ScenarioRunner(
                script, remap="full", **QUICK_ENGINE
            ),
            label=f"fuzz:{fabric}",
        )

    def test_fuzz_corpus_is_at_least_100_scripts(self):
        assert len(FUZZ_SEEDS) * len(FUZZ_FABRICS) >= 100

    def test_counterexamples_replay_from_json(self):
        # The harness prints failing scripts as to_dict JSON; prove the
        # replay loop works for every fuzz fabric.
        for fabric in FUZZ_FABRICS:
            script = random_script(_fabric(fabric), seed=7, num_events=6)
            clone = ScenarioScript.from_dict(
                json.loads(json.dumps(script.to_dict()))
            )
            a = ScenarioRunner(clone, **QUICK_ENGINE).run()
            b = ScenarioRunner(script, **QUICK_ENGINE).run()
            assert a.content_hash() == b.content_hash()


# ---------------------------------------------------------------------------
# Reproduction pin: ComparisonConfig is scenario-free
# ---------------------------------------------------------------------------
class TestComparisonScenarioPin:
    def test_reproduction_never_builds_a_scenario_runner(self, monkeypatch):
        def explode(*args, **kwargs):  # pragma: no cover - would be the bug
            raise AssertionError(
                "a reproduced table constructed a ScenarioRunner"
            )

        monkeypatch.setattr(ScenarioRunner, "__init__", explode)

        from repro.workloads.paper_example import (
            paper_example_cdcg,
            paper_example_platform,
        )

        comparison = compare_models(
            paper_example_cdcg(),
            paper_example_platform(),
            ComparisonConfig(annealing_schedule=FAST_SCHEDULE),
            seed=3,
        )
        assert comparison.cwm_outcome.mapping is not None

        rows = generate_table1(table1_suite(max_noc_tiles=8))
        assert rows, "Table 1 subset came back empty"
