"""The array pricing kernel (repro.eval.vector) and its wiring.

The contract under test is **bit-identity**: the vectorised batch path must
return the exact floats the per-candidate scalar accumulator
(``CwmEvaluationContext._compute_metrics``) returns — same gathers, same
left-to-right edge-order reduction — across topologies, table modes (eager
and lazy), duplicate candidates and empty populations.  This mirrors how the
serial==pooled contract is pinned in ``tests/test_parallel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mapping import Mapping
from repro.core.objective import cwm_objective
from repro.eval.context import CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend, SerialBackend
from repro.eval.route_table import RouteTable
from repro.eval.vector import (
    VectorizedCwmKernel,
    array_to_mappings,
    population_to_array,
)
from repro.graphs.cwg import CWG, cwg_from_edges
from repro.noc.platform import Platform
from repro.noc.routing import TableRouting, XYRouting
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.search.genetic import GeneticParameters, GeneticSearch
from repro.utils.errors import ConfigurationError, MappingError
from repro.workloads.paper_example import paper_example_cdcg


def _random_cwg(rng: np.random.Generator, num_cores: int) -> CWG:
    """A random CWG over ``c0..c{n-1}`` with integer volumes."""
    cores = [f"c{i}" for i in range(num_cores)]
    edges = []
    for source in range(num_cores):
        for target in range(num_cores):
            if source != target and rng.random() < 0.4:
                edges.append(
                    (cores[source], cores[target], int(rng.integers(1, 5000)))
                )
    if not edges:
        edges.append((cores[0], cores[-1], int(rng.integers(1, 5000))))
    return cwg_from_edges("random", edges, cores=cores)


def _irregular_platform() -> Platform:
    topology = IrregularTopology(
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (4, 6),
         (6, 7), (7, 5), (7, 8)],
        name="fabric9",
    )
    return Platform(mesh=topology, routing=TableRouting())


_PLATFORMS = [
    Platform(mesh=Mesh(3, 3)),
    Platform(mesh=Torus(3, 3)),
    _irregular_platform(),
]


def _population(cwg: CWG, num_tiles: int, seed: int, size: int):
    rng = np.random.default_rng(seed)
    return [Mapping.random(cwg.cores, num_tiles, rng=rng) for _ in range(size)]


class TestMappingArrayRoundTrip:
    def test_default_order_is_sorted_cores(self):
        mapping = Mapping({"b": 2, "a": 0, "c": 1}, num_tiles=4)
        row = mapping.to_index_array()
        assert row.dtype == np.int64
        assert row.tolist() == [0, 2, 1]  # a, b, c — sorted core names

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        cwg = _random_cwg(rng, 7)
        for mapping in _population(cwg, 9, 5, 20):
            rebuilt = Mapping.from_index_array(
                mapping.cores, mapping.to_index_array(), mapping.num_tiles
            )
            assert rebuilt == mapping
            assert rebuilt.num_tiles == mapping.num_tiles

    def test_explicit_order(self):
        mapping = Mapping({"x": 3, "y": 1})
        assert mapping.to_index_array(["y", "x"]).tolist() == [1, 3]

    def test_missing_core_raises(self):
        with pytest.raises(MappingError):
            Mapping({"a": 0}).to_index_array(["a", "b"])

    def test_from_index_array_validates(self):
        with pytest.raises(MappingError):
            Mapping.from_index_array(["a", "b"], [1, 1])  # not injective
        with pytest.raises(MappingError):
            Mapping.from_index_array(["a", "b"], [0, 9], num_tiles=4)
        with pytest.raises(MappingError):
            Mapping.from_index_array(["a", "b"], [0])  # length mismatch

    def test_population_helpers_round_trip(self):
        rng = np.random.default_rng(3)
        cwg = _random_cwg(rng, 6)
        mappings = _population(cwg, 9, 8, 12)
        order = sorted(cwg.cores)
        array = population_to_array(mappings, order, num_tiles=9)
        assert array.shape == (12, 6)
        assert array_to_mappings(array, order, num_tiles=9) == mappings
        # Dict candidates stack too.
        dicts = [m.assignments() for m in mappings]
        assert np.array_equal(population_to_array(dicts, order), array)

    def test_population_helpers_validate(self):
        with pytest.raises(MappingError):
            population_to_array([{"a": 0}], ["a", "b"])
        with pytest.raises(MappingError):
            population_to_array([{"a": 7}], ["a"], num_tiles=4)
        with pytest.raises(MappingError):
            array_to_mappings(np.zeros((2, 3), dtype=np.int64), ["a", "b"])


class TestRouteTableDense:
    def test_eager_arrays_match_scalar_lookups(self):
        for platform in _PLATFORMS:
            table = RouteTable.for_platform(platform, precompute=True)
            energy, hops = table.as_arrays()
            n = table.num_tiles
            assert energy.shape == hops.shape == (n, n)
            for source in range(n):
                for target in range(n):
                    assert energy[source, target] == table.bit_energy(
                        source, target
                    )
                    assert hops[source, target] == table.hop_count(
                        source, target
                    )

    def test_flat_energy_shares_dense_allocation(self):
        table = RouteTable.for_platform(Platform(mesh=Mesh(3, 3)))
        energy, _ = table.as_arrays()
        assert energy.base is table.flat_bit_energy()

    def test_dense_views_are_read_only(self):
        table = RouteTable.for_platform(Platform(mesh=Mesh(2, 2)))
        energy, hops = table.as_arrays()
        with pytest.raises(ValueError):
            energy[0, 0] = 1.0
        with pytest.raises(ValueError):
            hops[0, 0] = 1

    def test_cold_lazy_table_raises_until_warmed(self):
        table = RouteTable.for_platform(
            Platform(mesh=Mesh(3, 3)), precompute=False
        )
        assert not table.is_dense
        with pytest.raises(ConfigurationError):
            table.as_arrays()
        table.warm_dense()
        assert table.is_dense
        assert table.flat_bit_energy() is not None

    def test_warm_dense_matches_eager(self):
        for platform in _PLATFORMS:
            eager = RouteTable.for_platform(platform, precompute=True)
            lazy = RouteTable.for_platform(platform, precompute=False)
            lazy_energy, lazy_hops = lazy.warm_dense()
            eager_energy, eager_hops = eager.as_arrays()
            assert np.array_equal(lazy_energy, eager_energy)
            assert np.array_equal(lazy_hops, eager_hops)
            # Scalar lookups answer from the dense matrices afterwards.
            assert lazy.bit_energy(1, 2) == eager.bit_energy(1, 2)
            assert lazy.hop_count(2, 1) == eager.hop_count(2, 1)

    def test_warm_dense_reuses_memoised_pairs(self, monkeypatch):
        platform = Platform(mesh=Mesh(3, 3))
        table = RouteTable.for_platform(platform, precompute=False)
        # Memoise a handful of pairs, then count the routing calls the
        # densify pass makes: exactly one per *missing* pair.
        warmed = [(0, 5), (7, 2), (4, 4)]
        for source, target in warmed:
            table.bit_energy(source, target)
        calls = []
        original = type(table.routing).route

        def counting_route(self, topology, source, target):
            calls.append((source, target))
            return original(self, topology, source, target)

        monkeypatch.setattr(type(table.routing), "route", counting_route)
        table.warm_dense()
        assert len(calls) == table.num_tiles**2 - len(warmed)
        assert not (set(warmed) & set(calls))
        # Idempotent: a second call routes nothing.
        calls.clear()
        table.warm_dense()
        assert calls == []

    def test_warm_dense_is_noop_on_eager(self):
        table = RouteTable.for_platform(Platform(mesh=Mesh(2, 2)))
        energy, hops = table.warm_dense()
        assert energy.base is table.flat_bit_energy()


class TestVectorScalarBitIdentity:
    @pytest.mark.parametrize("platform", _PLATFORMS, ids=lambda p: str(p.mesh))
    @pytest.mark.parametrize("precompute", [True, False], ids=["eager", "lazy"])
    def test_exact_equality_across_topologies_and_tables(
        self, platform, precompute
    ):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cwg = _random_cwg(rng, 6)
            table = RouteTable.for_platform(platform, precompute=precompute)
            vector = CwmEvaluationContext(cwg, platform, route_table=table)
            population = _population(cwg, platform.num_tiles, 100 + seed, 24)
            expected = [vector._compute_metrics(m) for m in population]
            got = vector.evaluate_metrics_batch(population)
            assert got == expected  # bit-identical MetricVectors

    def test_duplicates_and_dict_candidates(self):
        platform = Platform(mesh=Mesh(3, 3))
        rng = np.random.default_rng(2)
        cwg = _random_cwg(rng, 5)
        base = _population(cwg, 9, 17, 6)
        population = base + [base[0], base[3]] + [base[1].assignments()]
        vector = CwmEvaluationContext(cwg, platform)
        assert vector.evaluate_metrics_batch(population) == [
            vector._compute_metrics(m) for m in population
        ]
        # Duplicates collapse to one kernel row each (same-batch duplicates
        # share the unique slot without counting as memo hits, exactly like
        # the pooled dedup path) and unique Mappings fill the memo.
        assert vector.cache_info().misses == len(base) + 1  # + the dict
        assert vector.cache_info().currsize == len(base)
        # A second batch is answered entirely from the memo.
        vector.evaluate_metrics_batch(base)
        assert vector.cache_info().hits == len(base)

    def test_empty_population(self):
        platform = Platform(mesh=Mesh(2, 2))
        cwg = _random_cwg(np.random.default_rng(1), 3)
        vector = CwmEvaluationContext(cwg, platform)
        assert vector.evaluate_metrics_batch([]) == []
        assert vector.evaluate_batch([]) == []

    def test_vector_batch_matches_per_candidate_cost(self):
        platform = Platform(mesh=Torus(3, 3))
        cwg = _random_cwg(np.random.default_rng(9), 7)
        vector = CwmEvaluationContext(cwg, platform)
        reference = CwmEvaluationContext(cwg, platform, cache_size=0)
        population = _population(cwg, 9, 23, 16)
        costs = vector.evaluate_batch(population)
        assert costs == [reference.cost(m) for m in population]

    def test_unplaced_edge_core_raises_like_scalar(self):
        platform = Platform(mesh=Mesh(2, 2))
        cwg = cwg_from_edges("pair", [("a", "b", 100)])
        vector = CwmEvaluationContext(cwg, platform)
        with pytest.raises(MappingError, match="does not place core"):
            vector.evaluate_metrics_batch([{"a": 0}])
        with pytest.raises(MappingError, match="does not place core"):
            vector._compute_metrics({"a": 0})

    def test_isolated_core_may_stay_unplaced(self):
        platform = Platform(mesh=Mesh(2, 2))
        cwg = cwg_from_edges("iso", [("a", "b", 100)], cores=["a", "b", "z"])
        vector = CwmEvaluationContext(cwg, platform)
        candidate = {"a": 0, "b": 3}  # "z" unplaced — never gathered
        assert vector.evaluate_metrics_batch([candidate]) == [
            vector._compute_metrics(candidate)
        ]

    def test_serial_and_pooled_vector_paths_agree(self):
        platform = Platform(mesh=Mesh(3, 3))
        cwg = _random_cwg(np.random.default_rng(21), 8)
        population = _population(cwg, 9, 31, 24)
        vector = CwmEvaluationContext(cwg, platform)
        expected = vector.evaluate_metrics_batch(
            population, backend=SerialBackend()
        )
        with ProcessPoolBackend(n_workers=2, min_batch_size=2) as pool:
            fresh = CwmEvaluationContext(cwg, platform)
            assert fresh.evaluate_metrics_batch(population, backend=pool) == expected

    def test_seeded_ga_identical_across_gate(self):
        """Kernel batch pricing vs per-candidate scalar pricing: same walk."""
        platform = Platform(mesh=Mesh(3, 3))
        cwg = _random_cwg(np.random.default_rng(5), 7)
        params = GeneticParameters(population_size=10, generations=4)
        initial = Mapping.random(sorted(cwg.cores), 9, rng=1)
        batched = cwm_objective(
            cwg, platform, context=CwmEvaluationContext(cwg, platform)
        )
        # A plain callable has no batch capability: the GA prices it one
        # candidate at a time through the scalar accumulator.
        reference = CwmEvaluationContext(cwg, platform, cache_size=0)
        on = GeneticSearch(params).search(batched, initial, rng=42)
        off = GeneticSearch(params).search(reference.cost, initial, rng=42)
        assert on.best_cost == off.best_cost
        assert on.best_mapping == off.best_mapping
        assert on.history == off.history


class TestKernel:
    def test_kernel_matches_scalar_loop(self):
        platform = Platform(mesh=Mesh(3, 3))
        cwg = _random_cwg(np.random.default_rng(7), 6)
        table = RouteTable.for_platform(platform)
        kernel = VectorizedCwmKernel.from_cwg(cwg, table)
        assert kernel.num_edges == cwg.num_communications
        population = _population(cwg, 9, 13, 10)
        tiles = population_to_array(population, kernel.core_order)
        priced = kernel.price(tiles)
        scalar = CwmEvaluationContext(cwg, platform)
        assert priced.tolist() == [
            scalar.metrics(m)["dynamic_energy"] for m in population
        ]
        assert np.array_equal(kernel.price_mappings(population), priced)

    def test_hop_volume_matches_manual_sum(self):
        platform = Platform(mesh=Torus(3, 3))
        cwg = _random_cwg(np.random.default_rng(4), 5)
        table = RouteTable.for_platform(platform)
        kernel = VectorizedCwmKernel.from_cwg(cwg, table)
        population = _population(cwg, 9, 19, 6)
        tiles = population_to_array(population, kernel.core_order)
        volumes = kernel.hop_volume(tiles)
        for row, mapping in enumerate(population):
            expected = sum(
                comm.bits * table.hop_count(
                    mapping.tile_of(comm.source), mapping.tile_of(comm.target)
                )
                for comm in cwg.communications()
            )
            assert volumes[row] == expected

    def test_from_cdcg_prices_equation_4_components(self):
        cdcg = paper_example_cdcg()
        from repro.workloads.paper_example import paper_example_platform

        platform = paper_example_platform()
        table = RouteTable.for_platform(platform)
        kernel = VectorizedCwmKernel.from_cdcg(cdcg, table)
        assert kernel.num_edges == len(cdcg.packets)
        mapping = Mapping({"A": 0, "B": 1, "E": 2, "F": 3}, num_tiles=4)
        tiles = population_to_array([mapping], kernel.core_order)
        expected = sum(
            packet.bits * table.bit_energy(
                mapping.tile_of(packet.source), mapping.tile_of(packet.target)
            )
            for packet in cdcg.packets
        )
        assert kernel.price(tiles)[0] == pytest.approx(expected, rel=1e-12)
        expected_hops = sum(
            packet.bits * table.hop_count(
                mapping.tile_of(packet.source), mapping.tile_of(packet.target)
            )
            for packet in cdcg.packets
        )
        assert kernel.hop_volume(tiles)[0] == expected_hops

    def test_kernel_validates_input(self):
        platform = Platform(mesh=Mesh(2, 2))
        cwg = cwg_from_edges("pair", [("a", "b", 10)])
        kernel = VectorizedCwmKernel.from_cwg(
            cwg, RouteTable.for_platform(platform)
        )
        with pytest.raises(MappingError):
            kernel.price(np.zeros((3, 5), dtype=np.int64))  # wrong width
        with pytest.raises(MappingError):
            kernel.price(np.array([[0, 9]]))  # tile out of range
        empty = kernel.price(np.empty((0, 2), dtype=np.int64))
        assert empty.shape == (0,)

    def test_edgeless_application_prices_zero(self):
        platform = Platform(mesh=Mesh(2, 2))
        cwg = CWG("silent")
        for core in ("a", "b"):
            cwg.add_core(core)
        kernel = VectorizedCwmKernel.from_cwg(
            cwg, RouteTable.for_platform(platform)
        )
        assert kernel.price(np.array([[0, 1], [2, 3]])).tolist() == [0.0, 0.0]
