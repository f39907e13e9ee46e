"""The pluggable topology & routing API (repro.noc.topology / routing / deadlock).

Pins the contracts of the redesign:

* capability flags — the dimension-ordered routings wrap exactly when the
  topology declares ``wraps_x`` / ``wraps_y`` (no ``isinstance`` checks), so
  a ``Mesh`` subclass that wraps routes like a torus;
* ``TableRouting`` reproduces ``XYRouting`` routes **exactly** on every mesh
  up to 5x5 (the tie-break contract of the mesh neighbour order);
* ``validate_deadlock_free`` accepts XY-on-mesh and the turn-model routings
  and rejects a deliberately cyclic turn set (and XY-on-torus);
* an ``IrregularTopology`` travels through context pickling with
  bit-identical pooled pricing, and every registered engine runs end-to-end
  on it;
* route tables key on the topology's ``cache_token``, so behaviourally
  different topologies can never alias one another's tables.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import ClassVar, List

import pytest

from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend
from repro.eval.route_table import (
    clear_route_table_cache,
    get_route_table,
)
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.deadlock import (
    DeadlockReport,
    channel_dependency_graph,
    validate_deadlock_free,
)
from repro.noc.platform import Platform
from repro.noc.routing import (
    NegativeFirstRouting,
    RoutingAlgorithm,
    TableRouting,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    available_routings,
    get_routing,
    register_routing,
)
from repro.noc.topology import (
    IrregularTopology,
    Mesh,
    Torus,
    available_topologies,
    get_topology,
    register_topology,
    topology_cache_token,
)
from repro.search.greedy import GreedyConstructive
from repro.search.nsga2 import Nsga2Parameters
from repro.search.nsga3 import Nsga3Parameters
from repro.search.registry import available_searchers, get_searcher
from repro.utils.errors import ConfigurationError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))


@dataclass(frozen=True)
class WrappingMesh(Mesh):
    """A Mesh subclass that declares wrap-around without subclassing Torus.

    The regression target of the capability-flag redesign: the seed code
    checked ``isinstance(mesh, Torus)``, which silently routed subclasses
    like this one as a non-wrapping mesh.
    """

    wraps_x: ClassVar[bool] = True
    wraps_y: ClassVar[bool] = True

    # The wrap links the wrapping routes cross: a route table rejects a
    # route over a tile pair that is not a link of its topology.
    neighbours = Torus.neighbours


class ClockwiseRingRouting(RoutingAlgorithm):
    """Deliberately cyclic turn set: always route clockwise on a 2x2 mesh.

    The ring 0 -> 1 -> 3 -> 2 -> 0 induces a cyclic channel dependency
    graph — the canonical wormhole-deadlock counter-example.
    """

    name = "clockwise-ring"
    _RING = (0, 1, 3, 2)

    def route(self, topology, source: int, target: int) -> List[int]:
        """Walk the fixed clockwise ring from *source* until *target*."""
        path = [source]
        position = self._RING.index(source)
        while path[-1] != target:
            position = (position + 1) % len(self._RING)
            path.append(self._RING[position])
        return path


def _irregular_fabric() -> IrregularTopology:
    """An 8-tile irregular fabric: a 4-ring with a 4-tile spur mesh."""
    return IrregularTopology(
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (4, 6), (6, 7), (7, 5)],
        name="fabric8",
    )


def _workload(num_cores: int = 6, seed: int = 7):
    spec = TgffSpec(
        name="irr", num_cores=num_cores, num_packets=18, total_bits=9_000
    )
    return TgffLikeGenerator(seed).generate(spec)


# ---------------------------------------------------------------------------
# Topology protocol & registry
# ---------------------------------------------------------------------------
class TestTopologyProtocol:
    def test_mesh_declares_no_wrap(self):
        assert Mesh(3, 3).wraps_x is False
        assert Mesh(3, 3).wraps_y is False

    def test_torus_declares_wrap(self):
        assert Torus(3, 3).wraps_x is True
        assert Torus(3, 3).wraps_y is True

    def test_cache_tokens_distinguish_topologies(self):
        tokens = {
            Mesh(3, 3).cache_token,
            Torus(3, 3).cache_token,
            WrappingMesh(3, 3).cache_token,
            Mesh(3, 4).cache_token,
        }
        assert len(tokens) == 4

    def test_cache_token_stable_across_equal_instances(self):
        assert Mesh(4, 2).cache_token == Mesh(4, 2).cache_token

    def test_links_enumerates_directed_adjacency(self):
        links = Mesh(2, 2).links()
        assert (0, 1) in links and (1, 0) in links
        assert len(links) == 8  # 4 undirected adjacencies, both directions

    def test_duck_typed_token_fallback(self):
        class Minimal:
            num_tiles = 4

            def neighbours(self, index):
                return []

        token = topology_cache_token(Minimal())
        assert token[-1] == 4

    def test_get_topology_specs(self):
        mesh = get_topology("mesh:4x3")
        assert isinstance(mesh, Mesh) and (mesh.width, mesh.height) == (4, 3)
        torus = get_topology("torus:2x5")
        assert isinstance(torus, Torus) and torus.num_tiles == 10

    def test_get_topology_errors(self):
        with pytest.raises(ConfigurationError):
            get_topology("hypercube:3")
        with pytest.raises(ConfigurationError):
            get_topology("mesh:banana")

    def test_register_topology(self):
        register_topology(
            "ring-test", lambda arg: IrregularTopology(
                [(i, (i + 1) % int(arg)) for i in range(int(arg))], name="ring"
            ),
            overwrite=True,
        )
        ring = get_topology("ring-test:5")
        assert ring.num_tiles == 5
        assert "ring-test" in available_topologies()
        with pytest.raises(ConfigurationError):
            register_topology("ring-test", lambda arg: ring)


class TestIrregularTopology:
    def test_bidirectional_edges_by_default(self):
        topology = IrregularTopology([(0, 1), (1, 2)])
        assert topology.neighbours(1) == [0, 2]
        assert topology.neighbours(2) == [1]

    def test_rejects_self_loops_and_disconnection(self):
        with pytest.raises(ConfigurationError):
            IrregularTopology([(0, 0)])
        with pytest.raises(ConfigurationError):
            IrregularTopology([(0, 1)], num_tiles=4)

    def test_rejects_directed_graphs_without_return_routes(self):
        # Weakly connected but not strongly: 1 and 2 cannot reach tile 0,
        # so routes back do not exist — rejected at construction, not deep
        # inside routing or pricing.
        with pytest.raises(ConfigurationError):
            IrregularTopology([(0, 1), (0, 2)], bidirectional=False)
        # A directed cycle is strongly connected and accepted.
        ring = IrregularTopology([(0, 1), (1, 2), (2, 0)], bidirectional=False)
        assert ring.neighbours(2) == [0]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            IrregularTopology([])

    def test_crg_round_trip_preserves_identity(self):
        fabric = _irregular_fabric()
        clone = IrregularTopology.from_crg(fabric.to_crg())
        assert clone == fabric
        assert hash(clone) == hash(fabric)
        assert clone.cache_token == fabric.cache_token

    def test_to_crg_is_valid(self):
        _irregular_fabric().to_crg().validate()

    def test_pickle_round_trip(self):
        fabric = _irregular_fabric()
        clone = pickle.loads(pickle.dumps(fabric))
        assert clone == fabric
        assert clone.neighbours(1) == fabric.neighbours(1)

    def test_str_and_repr(self):
        fabric = _irregular_fabric()
        assert "fabric8" in str(fabric)
        assert "IrregularTopology" in repr(fabric)


# ---------------------------------------------------------------------------
# Capability flags (satellite: the isinstance(mesh, Torus) regression)
# ---------------------------------------------------------------------------
class TestWrapCapabilityFlags:
    def test_wrapping_mesh_subclass_wraps_xy(self):
        # The seed code's isinstance(mesh, Torus) check silently routed this
        # subclass as a plain mesh (0 -> 1 -> 2 -> 3); the capability flag
        # takes the one-hop wrap instead.
        assert XYRouting().route(WrappingMesh(4, 4), 0, 3) == [0, 3]

    def test_wrapping_mesh_subclass_wraps_yx(self):
        assert YXRouting().route(WrappingMesh(4, 4), 0, 12) == [0, 12]

    def test_wrapping_mesh_matches_torus_routes(self):
        wrapping, torus = WrappingMesh(4, 3), Torus(4, 3)
        routing = XYRouting()
        for source in torus.tiles():
            for target in torus.tiles():
                assert routing.route(wrapping, source, target) == routing.route(
                    torus, source, target
                )

    def test_wrapping_mesh_has_distinct_route_table(self):
        clear_route_table_cache()
        try:
            plain = get_route_table(Platform(mesh=Mesh(3, 3)))
            wrapped = get_route_table(Platform(mesh=WrappingMesh(3, 3)))
            assert plain is not wrapped
            assert plain.hop_count(0, 2) == 3
            assert wrapped.hop_count(0, 2) == 2  # one wrap hop
        finally:
            clear_route_table_cache()


# ---------------------------------------------------------------------------
# Table-backed routing
# ---------------------------------------------------------------------------
class TestTableRouting:
    def test_reproduces_xy_on_every_mesh_up_to_5x5(self):
        xy, table = XYRouting(), TableRouting()
        for width in range(1, 6):
            for height in range(1, 6):
                mesh = Mesh(width, height)
                for source in mesh.tiles():
                    for target in mesh.tiles():
                        assert table.route(mesh, source, target) == xy.route(
                            mesh, source, target
                        ), (width, height, source, target)

    def test_same_tile_route(self):
        assert TableRouting().route(Mesh(3, 3), 4, 4) == [4]

    def test_routes_are_adjacent_and_minimal_on_torus(self):
        torus = Torus(4, 3)
        table = TableRouting()
        for source in torus.tiles():
            for target in torus.tiles():
                path = table.route(torus, source, target)
                assert path[0] == source and path[-1] == target
                for a, b in zip(path, path[1:]):
                    assert b in torus.neighbours(a)
                assert len(path) == torus.manhattan_distance(source, target) + 1

    def test_deterministic_across_instances(self):
        fabric = _irregular_fabric()
        first, second = TableRouting(), TableRouting()
        for source in fabric.tiles():
            for target in fabric.tiles():
                assert first.route(fabric, source, target) == second.route(
                    fabric, source, target
                )

    def test_irregular_routes_are_valid(self):
        fabric = _irregular_fabric()
        table = TableRouting()
        for source in fabric.tiles():
            for target in fabric.tiles():
                path = table.route(fabric, source, target)
                assert path[0] == source and path[-1] == target
                for a, b in zip(path, path[1:]):
                    assert b in fabric.neighbours(a)

    def test_unreachable_target_raises(self):
        # IrregularTopology rejects one-way fabrics at construction, so the
        # route-time guard needs a duck-typed minimal topology to trigger:
        # 1 can reach 0 but not vice versa.
        class OneWay:
            num_tiles = 2

            def tiles(self):
                return iter(range(2))

            def contains(self, index):
                return 0 <= index < 2

            def neighbours(self, index):
                return [0] if index == 1 else []

        with pytest.raises(ConfigurationError):
            TableRouting().route(OneWay(), 0, 1)

    def test_pickle_drops_memo(self):
        table = TableRouting()
        table.route(Mesh(3, 3), 0, 8)  # populate the memo
        clone = pickle.loads(pickle.dumps(table))
        assert clone._memo == {}
        assert clone.route(Mesh(3, 3), 0, 8) == table.route(Mesh(3, 3), 0, 8)

    def test_endpoint_validation(self):
        with pytest.raises(ConfigurationError):
            TableRouting().route(Mesh(2, 2), 0, 9)


# ---------------------------------------------------------------------------
# Turn-model routings
# ---------------------------------------------------------------------------
class TestTurnModelRoutings:
    @pytest.mark.parametrize("routing_cls", [WestFirstRouting, NegativeFirstRouting])
    def test_minimal_and_adjacent(self, routing_cls):
        mesh = Mesh(4, 4)
        routing = routing_cls()
        for source in mesh.tiles():
            for target in mesh.tiles():
                path = routing.route(mesh, source, target)
                assert path[0] == source and path[-1] == target
                assert len(path) == mesh.manhattan_distance(source, target) + 1
                for a, b in zip(path, path[1:]):
                    assert b in mesh.neighbours(a)

    def test_west_first_goes_west_before_y(self):
        # (2,2) -> (0,0) on a 3x3: west hops first, then north.
        assert WestFirstRouting().route(Mesh(3, 3), 8, 0) == [8, 7, 6, 3, 0]

    def test_west_first_goes_y_before_east(self):
        # (0,0) -> (2,2): no west component, so Y first then east.
        assert WestFirstRouting().route(Mesh(3, 3), 0, 8) == [0, 3, 6, 7, 8]

    def test_negative_first_orders_west_north_east_south(self):
        # (1,2) -> (2,0) on a 3x3: north (negative) before east (positive).
        assert NegativeFirstRouting().route(Mesh(3, 3), 7, 2) == [7, 4, 1, 2]

    @pytest.mark.parametrize("routing_cls", [WestFirstRouting, NegativeFirstRouting])
    def test_rejects_wrapping_topologies(self, routing_cls):
        with pytest.raises(ConfigurationError):
            routing_cls().route(Torus(3, 3), 0, 1)


# ---------------------------------------------------------------------------
# Deadlock validation
# ---------------------------------------------------------------------------
class TestDeadlockValidation:
    def test_xy_on_mesh_is_deadlock_free(self):
        report = validate_deadlock_free(Mesh(4, 4), XYRouting())
        assert report.deadlock_free and bool(report)
        assert report.cycle == ()
        assert "deadlock-free" in report.describe()

    @pytest.mark.parametrize(
        "routing_cls",
        [YXRouting, TableRouting, WestFirstRouting, NegativeFirstRouting],
    )
    def test_shipped_mesh_routings_are_deadlock_free(self, routing_cls):
        assert validate_deadlock_free(Mesh(3, 4), routing_cls())

    def test_cyclic_turn_set_is_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            validate_deadlock_free(Mesh(2, 2), ClockwiseRingRouting())
        assert "not deadlock-free" in str(excinfo.value)

    def test_cyclic_turn_set_report(self):
        report = validate_deadlock_free(
            Mesh(2, 2), ClockwiseRingRouting(), raise_on_cycle=False
        )
        assert isinstance(report, DeadlockReport)
        assert not report.deadlock_free and not bool(report)
        # The witness must be a closed chain of link-to-link dependencies.
        cycle = report.cycle
        assert len(cycle) >= 2
        for held, wanted in zip(cycle, cycle[1:] + cycle[:1]):
            assert held[1] == wanted[0]
        assert "DEADLOCK" in report.describe()

    def test_xy_on_torus_has_wrap_cycles(self):
        report = validate_deadlock_free(
            Torus(4, 4), XYRouting(), raise_on_cycle=False
        )
        assert not report.deadlock_free

    def test_cdg_shape_on_paper_mesh(self):
        graph = channel_dependency_graph(Mesh(2, 2), XYRouting())
        # All 8 directed links of the 2x2 mesh are used by some XY route.
        assert len(graph) == 8

    def test_platform_gate_method(self):
        platform = Platform(mesh=_irregular_fabric(), routing="table")
        assert platform.validate_deadlock_free()
        cyclic = Platform(mesh=Mesh(2, 2), routing=ClockwiseRingRouting())
        with pytest.raises(ConfigurationError):
            cyclic.validate_deadlock_free()


# ---------------------------------------------------------------------------
# Registries & platform specs
# ---------------------------------------------------------------------------
class TestRoutingRegistry:
    def test_shipped_specs(self):
        assert isinstance(get_routing("table"), TableRouting)
        assert isinstance(get_routing("west-first"), WestFirstRouting)
        assert isinstance(get_routing("negative-first"), NegativeFirstRouting)
        assert {"xy", "yx", "table", "west-first", "negative-first"} <= set(
            available_routings()
        )

    def test_register_routing_no_silent_overwrite(self):
        register_routing("ring-2x2-test", ClockwiseRingRouting, overwrite=True)
        assert isinstance(get_routing("ring-2x2-test"), ClockwiseRingRouting)
        with pytest.raises(ConfigurationError):
            register_routing("ring-2x2-test", ClockwiseRingRouting)

    def test_unknown_spec(self):
        with pytest.raises(ConfigurationError):
            get_routing("adaptive-odd-even")


class TestPlatformSpecs:
    def test_topology_and_routing_spec_strings(self):
        platform = Platform(mesh="torus:3x3", routing="table")
        assert isinstance(platform.mesh, Torus)
        assert isinstance(platform.routing, TableRouting)
        assert platform.topology is platform.mesh

    def test_with_topology(self):
        platform = Platform(mesh=Mesh(2, 2))
        moved = platform.with_topology(_irregular_fabric()).with_routing("table")
        assert moved.num_tiles == 8
        assert isinstance(moved.routing, TableRouting)

    def test_route_table_keyed_by_token_not_object(self):
        clear_route_table_cache()
        try:
            first = get_route_table(Platform(mesh=Mesh(3, 3)))
            second = get_route_table(Platform(mesh=Mesh(3, 3)))
            assert first is second
        finally:
            clear_route_table_cache()

    def test_irregular_route_table_shares_by_structure(self):
        clear_route_table_cache()
        try:
            fabric = _irregular_fabric()
            twin = _irregular_fabric()
            first = get_route_table(Platform(mesh=fabric, routing="table"))
            second = get_route_table(Platform(mesh=twin, routing="table"))
            assert first is second
        finally:
            clear_route_table_cache()


# ---------------------------------------------------------------------------
# End-to-end on an irregular fabric
# ---------------------------------------------------------------------------
class TestIrregularEndToEnd:
    @pytest.fixture(scope="class")
    def setup(self):
        fabric = _irregular_fabric()
        platform = Platform(mesh=fabric, routing=TableRouting())
        platform.validate_deadlock_free()
        cdcg = _workload()
        return cdcg, cdcg_to_cwg(cdcg), platform

    def test_context_pickle_bit_identical_pooled_pricing(self, setup):
        cdcg, _, platform = setup
        context = CdcmEvaluationContext(cdcg, platform)
        candidates = [
            Mapping.random(cdcg.cores(), platform.num_tiles, rng=index)
            for index in range(24)
        ]
        serial = [context.cost(mapping) for mapping in candidates]
        clone = pickle.loads(pickle.dumps(context))
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=1) as pool:
            pooled = clone.evaluate_batch(candidates, backend=pool)
        assert pooled == serial

    def test_cwm_pickle_round_trip(self, setup):
        _, cwg, platform = setup
        context = CwmEvaluationContext(cwg, platform)
        mapping = Mapping.random(cwg.cores, platform.num_tiles, rng=5)
        clone = pickle.loads(pickle.dumps(context))
        assert clone.cost(mapping) == context.cost(mapping)

    def test_all_registered_engines_run(self, setup):
        cdcg, _, platform = setup
        initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=3)
        seen = set()
        for name in available_searchers():
            kwargs = {}
            if name in ("nsga2", "nsga-ii"):
                kwargs = dict(
                    parameters=Nsga2Parameters(population_size=8, generations=2),
                    keys=("energy", "time"),
                )
            elif name in ("nsga3", "nsga-iii"):
                kwargs = dict(
                    parameters=Nsga3Parameters(population_size=8, generations=2),
                    keys=("energy", "time"),
                )
            engine = get_searcher(name, **kwargs)
            if type(engine) in seen:
                continue  # registry aliases resolve to the same class
            seen.add(type(engine))
            result = engine.search(
                CdcmEvaluationContext(cdcg, platform), initial, rng=11
            )
            assert result.best_cost > 0
            assert result.best_mapping.num_tiles == platform.num_tiles
        assert len(seen) == 6

    def test_greedy_constructs_deterministically(self, setup):
        _, cwg, platform = setup
        initial = Mapping.random(cwg.cores, platform.num_tiles, rng=3)
        objective = CwmEvaluationContext(cwg, platform)
        first = GreedyConstructive(cwg, platform).search(objective, initial)
        second = GreedyConstructive(cwg, platform).search(objective, initial)
        assert first.best_mapping == second.best_mapping
        assert first.best_cost == second.best_cost
