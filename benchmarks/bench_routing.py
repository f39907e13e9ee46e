"""Benchmark: route-table builds and pricing throughput across topologies.

The pluggable-topology redesign must not tax the hot path: table-backed
routing on a mesh resolves the *same* routes as XY (pinned here and by
``tests/test_topology_api.py``), and pricing off a built table costs the
same O(1) lookups whatever the topology.  This bench pins that to numbers on
three 64-tile platforms:

* **mesh/xy** — the paper-style 8x8 mesh with dimension-ordered routing;
* **torus/table** — the 8x8 torus routed by BFS next-hop tables;
* **irregular/table** — an 8x8 mesh augmented with deterministic express
  links (an `IrregularTopology`), the fabric only table routing can serve.

For each platform it measures the route-table build time and the CWM
pricing rate (evaluations/second over the Table 1 ``8x8`` workload), and —
with ``REPRO_BENCH_RECORD=1`` — appends one sample per platform to
``BENCH_routing.json`` so the CI trajectory tracks the topology seam.

A second bench times the build on the 16x16 mesh/XY fabric of the
``service_mixed`` perfbench workload against a reference that walks
``route()`` once per pair.  It asserts identical tables and a build at least
10x faster, and records both times in ``BENCH_routing.json``.

Deterministic: the candidate mappings are seeded with ``BENCH_SEED``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.core.mapping import Mapping
from repro.energy.bit_energy import bit_energy_route
from repro.eval.context import CwmEvaluationContext
from repro.eval.route_table import RouteTable, clear_route_table_cache
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.deadlock import validate_deadlock_free
from repro.noc.platform import Platform
from repro.noc.routing import TableRouting, XYRouting
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.workloads.suite import suite_entry_by_name

#: Candidate mappings priced per platform for the evals/s figure.
NUM_CANDIDATES = 600

#: How much faster the next-hop build must be than the per-pair route() walk.
MIN_BUILD_SPEEDUP = 10.0


def _express_mesh_fabric(width: int, height: int) -> IrregularTopology:
    """A width x height mesh plus deterministic express links.

    Every third tile of a row gains a two-hop express link eastwards, and
    every third row gains one southwards — the kind of long-range link an
    irregular fabric adds to cut hub congestion, and exactly what the mesh
    spec cannot express.
    """
    mesh = Mesh(width, height)
    edges = [
        (index, neighbour)
        for index in mesh.tiles()
        for neighbour in mesh.neighbours(index)
    ]
    for y in range(height):
        for x in range(0, width - 2, 3):
            edges.append((mesh.index_of(x, y), mesh.index_of(x + 2, y)))
    for y in range(0, height - 2, 3):
        for x in range(width):
            edges.append((mesh.index_of(x, y), mesh.index_of(x, y + 2)))
    return IrregularTopology(edges, name=f"express{width}x{height}")


@pytest.mark.benchmark(group="routing-tables")
def test_route_table_builds_and_pricing_across_topologies(benchmark):
    entry = suite_entry_by_name("8x8")
    cwg = cdcg_to_cwg(entry.build())
    platforms = {
        "mesh/xy": Platform(mesh=Mesh(8, 8), routing=XYRouting()),
        "torus/table": Platform(mesh=Torus(8, 8), routing=TableRouting()),
        "irregular/table": Platform(
            mesh=_express_mesh_fabric(8, 8), routing=TableRouting()
        ),
    }

    # Identity gates first: the seam must not move mesh routes, and every
    # benched pair must pass the deadlock validator or be a known wrap case.
    mesh, xy, table = Mesh(8, 8), XYRouting(), TableRouting()
    for source in mesh.tiles():
        for target in mesh.tiles():
            assert table.route(mesh, source, target) == xy.route(
                mesh, source, target
            )
    assert validate_deadlock_free(mesh, xy)
    assert validate_deadlock_free(
        platforms["irregular/table"].mesh, table, raise_on_cycle=False
    ).num_channels > 0

    def run():
        results = {}
        for label, platform in platforms.items():
            clear_route_table_cache()
            start = time.perf_counter()
            table_obj = RouteTable.for_platform(platform)
            build_seconds = time.perf_counter() - start

            context = CwmEvaluationContext(
                cwg, platform, route_table=table_obj, cache_size=0
            )
            candidates = [
                Mapping.random(cwg.cores, platform.num_tiles, rng=BENCH_SEED + i)
                for i in range(NUM_CANDIDATES)
            ]
            start = time.perf_counter()
            costs = [context.cost(mapping) for mapping in candidates]
            price_seconds = time.perf_counter() - start
            results[label] = {
                "build_ms": build_seconds * 1e3,
                "evals_per_s": NUM_CANDIDATES / price_seconds,
                "mean_cost": sum(costs) / len(costs),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    clear_route_table_cache()

    emit(
        "Routing - table build + CWM pricing across topologies (64 tiles, 8x8 workload)",
        "\n".join(
            f"{label:<16} build {stats['build_ms']:>7.1f} ms   "
            f"{stats['evals_per_s']:>10,.0f} evals/s   "
            f"mean cost {stats['mean_cost']:,.0f} pJ"
            for label, stats in results.items()
        ),
    )
    record_sample(
        "BENCH_routing.json",
        {
            "bench": "routing_tables",
            "candidates": NUM_CANDIDATES,
            **{
                f"{label.replace('/', '_')}_{key}": stats[key]
                for label, stats in results.items()
                for key in ("build_ms", "evals_per_s")
            },
        },
    )

    # Acceptance bars: every topology builds its table and prices through the
    # same O(1) lookups — table-backed pricing must stay within 2x of the
    # mesh/xy rate (generous: shared-runner noise, identical inner loop).
    mesh_rate = results["mesh/xy"]["evals_per_s"]
    for label, stats in results.items():
        assert stats["evals_per_s"] > mesh_rate / 2.0, (label, stats)


def _route_walk_table(platform: Platform):
    """The reference build: ``route()`` once per pair, in Python.

    Returns the row-major hops, the ``repr`` of every bit energy, the CSR
    ``(ptr, link ids)`` over ``topology.links()`` and every path.
    """
    mesh, routing, technology = platform.mesh, platform.routing, platform.technology
    number = {link: index for index, link in enumerate(mesh.links())}
    hops, energy, ptr, ids, paths = [], [], [0], [], []
    for source in mesh.tiles():
        for target in mesh.tiles():
            path = tuple(routing.route(mesh, source, target))
            paths.append(path)
            hops.append(len(path))
            energy.append(repr(bit_energy_route(technology, len(path), True)))
            ids.extend(number[link] for link in zip(path, path[1:]))
            ptr.append(len(ids))
    return hops, energy, ptr, ids, paths


@pytest.mark.benchmark(group="routing-tables")
def test_16x16_build_beats_route_walk(benchmark):
    platform = Platform(mesh=Mesh(16, 16), routing=XYRouting())

    def run():
        start = time.perf_counter()
        reference = _route_walk_table(platform)
        walk_seconds = time.perf_counter() - start
        start = time.perf_counter()
        table = RouteTable.for_platform(platform)
        build_seconds = time.perf_counter() - start
        return reference, walk_seconds, table, build_seconds

    reference, walk_seconds, table, build_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    hops, energy, ptr, ids, paths = reference
    flat_energy, flat_hops = (array.ravel() for array in table.as_arrays())
    table_ptr, table_ids, _ = table.link_incidence()
    n = platform.num_tiles
    assert flat_hops.tolist() == hops
    assert [repr(value) for value in flat_energy.tolist()] == energy
    assert np.array_equal(table_ptr, ptr) and np.array_equal(table_ids, ids)
    assert [table.path(s, t) for s in range(n) for t in range(n)] == paths

    speedup = walk_seconds / build_seconds
    emit(
        "Routing - 16x16 mesh/xy table build (service_mixed fabric)",
        f"route() walk {walk_seconds * 1e3:>7.1f} ms   next-hop build "
        f"{build_seconds * 1e3:>6.1f} ms   speedup {speedup:.1f}x",
    )
    record_sample(
        "BENCH_routing.json",
        {
            "bench": "routing_build_16x16",
            "mesh16_xy_build_ms": build_seconds * 1e3,
            "mesh16_xy_route_walk_ms": walk_seconds * 1e3,
        },
    )
    assert speedup >= MIN_BUILD_SPEEDUP, speedup
