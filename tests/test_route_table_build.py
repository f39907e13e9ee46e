"""Route tables built from a next-hop matrix, pinned to a walk of ``route()``.

:class:`~repro.eval.route_table.RouteTable` never calls ``route()``: it
chases the routing's ``(n, n)`` next-hop matrix for all pairs at once.  Every
answer it gives — ``path``, ``links``, ``link_ids``, ``hop_count``,
``repr(bit_energy)`` and the link-incidence CSR — must equal what a walk of
``route()`` gives, pair by pair, on:

* meshes and tori with odd and even sides (a torus with an even side has
  equal-length wrap and straight routes: ties go forward), including 1xN
  and 1x1 meshes, under XY, YX, west-first and negative-first routing;
* a faulted :class:`~repro.noc.topology.IrregularTopology` under
  :class:`~repro.noc.routing.TableRouting`;
* a synthesized co-design table;
* a user-defined routing (``ClockwiseRingRouting`` of
  ``tests/test_topology_api.py``), whose matrix comes from the base-class
  default.

It also pins the destination-based contract: a routing whose route depends
on the source raises at build, and so do unreachable, looping and off-link
routes.  The ``slow``-marked sweep repeats the identity at 16x16
(``pytest -m slow tests/test_route_table_build.py``).
"""

from __future__ import annotations

from typing import List

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.codesign import SynthesizedRouting, TableSynthesizer
from repro.energy.bit_energy import bit_energy_route
from repro.eval.route_table import RouteTable
from repro.noc.platform import Platform
from repro.noc.routing import (
    NegativeFirstRouting,
    RoutingAlgorithm,
    TableRouting,
    WestFirstRouting,
    XYRouting,
    YXRouting,
)
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.utils.errors import ConfigurationError
from test_topology_api import ClockwiseRingRouting

GRID_ROUTINGS = {
    "xy": XYRouting,
    "yx": YXRouting,
    "west-first": WestFirstRouting,
    "negative-first": NegativeFirstRouting,
}


def assert_table_matches_route_walk(platform: Platform, include_local: bool = True):
    """Every lookup of a built table equals a walk of ``route()``."""
    mesh, routing = platform.mesh, platform.routing
    table = RouteTable.for_platform(platform, include_local=include_local)
    ptr, link_ids, num_links = table.link_incidence()
    links = mesh.links()
    number = {link: index for index, link in enumerate(links)}
    assert num_links == len(links)
    n = mesh.num_tiles
    for source in range(n):
        for target in range(n):
            path = tuple(routing.route(mesh, source, target))
            hops = tuple(zip(path, path[1:]))
            index = source * n + target
            csr = tuple(links[i] for i in link_ids[ptr[index] : ptr[index + 1]])
            assert table.path(source, target) == path, (source, target)
            assert table.links(source, target) == hops
            assert csr == hops
            assert table.link_ids(source, target) == tuple(number[hop] for hop in hops)
            assert table.hop_count(source, target) == len(path)
            assert repr(table.bit_energy(source, target)) == repr(
                bit_energy_route(platform.technology, len(path), include_local)
            )


def _faulted(width: int, height: int, failed: List[int]) -> IrregularTopology:
    """A mesh with the undirected links at positions *failed* removed."""
    edges = [(a, b) for a, b in Mesh(width, height).links() if a < b]
    kept = [edge for index, edge in enumerate(edges) if index not in failed]
    return IrregularTopology(kept, num_tiles=width * height, name="faulted")


@given(
    kind=st.sampled_from(["mesh", "torus"]),
    routing=st.sampled_from(sorted(GRID_ROUTINGS)),
    width=st.integers(1, 7),
    height=st.integers(1, 7),
    include_local=st.booleans(),
)
@example(kind="mesh", routing="xy", width=1, height=1, include_local=True)
@example(kind="mesh", routing="xy", width=1, height=6, include_local=True)
@example(kind="torus", routing="xy", width=4, height=6, include_local=True)
@example(kind="torus", routing="yx", width=5, height=4, include_local=False)
@settings(max_examples=40, deadline=None)
def test_grid_tables_match_route_walk(kind, routing, width, height, include_local):
    if kind == "torus" and routing in ("west-first", "negative-first"):
        routing = "xy"  # the turn models reject wrap-around fabrics
    topology = (Mesh if kind == "mesh" else Torus)(width, height)
    platform = Platform(mesh=topology, routing=GRID_ROUTINGS[routing]())
    assert_table_matches_route_walk(platform, include_local)


@given(
    width=st.integers(2, 6),
    height=st.integers(2, 6),
    failed=st.lists(st.integers(0, 60), max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_faulted_table_routing_matches_route_walk(width, height, failed):
    try:
        fabric = _faulted(width, height, failed)
    except ConfigurationError:  # the failures disconnected the fabric
        fabric = _faulted(width, height, [])
    assert_table_matches_route_walk(Platform(mesh=fabric, routing=TableRouting()))


@given(width=st.integers(1, 6), height=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_synthesized_table_matches_route_walk(width, height, seed):
    mesh = Mesh(width, height)
    routing = SynthesizedRouting(TableSynthesizer(mesh).random_table(rng=seed))
    assert_table_matches_route_walk(Platform(mesh=mesh, routing=routing))


def test_user_routing_uses_the_default_matrix():
    routing = ClockwiseRingRouting()
    assert type(routing).next_hop_matrix is RoutingAlgorithm.next_hop_matrix
    assert_table_matches_route_walk(Platform(mesh=Mesh(2, 2), routing=routing))


def test_default_matrix_equals_the_closed_forms():
    for topology in (Mesh(5, 4), Torus(4, 5)):
        for routing in (XYRouting(), YXRouting(), TableRouting()):
            derived = RoutingAlgorithm.next_hop_matrix(routing, topology)
            assert (routing.next_hop_matrix(topology) == derived).all()


def test_build_walks_route_only_without_a_closed_form(monkeypatch):
    calls = []

    def counting(cls):
        original = cls.route

        def route(self, topology, source, target):
            calls.append((source, target))
            return original(self, topology, source, target)

        monkeypatch.setattr(cls, "route", route)

    for cls in (XYRouting, WestFirstRouting):
        counting(cls)
    mesh = Mesh(5, 4)
    RouteTable.for_platform(Platform(mesh=mesh, routing=XYRouting()))
    assert calls == []  # the closed form never routes a pair
    RouteTable.for_platform(Platform(mesh=mesh, routing=WestFirstRouting()))
    # The default walks each route once, skipping sources already on a
    # known route to the same target.
    n = mesh.num_tiles
    assert len(set(calls)) == len(calls) < n * (n - 1)


class YXUnlessEastmost(RoutingAlgorithm):
    """Source-dependent on purpose: YX, except XY out of the east column."""

    name = "yx-unless-eastmost"

    def route(self, topology, source: int, target: int) -> List[int]:
        x, _ = topology.position_of(source)
        chosen = XYRouting() if x == topology.width - 1 else YXRouting()
        return chosen.route(topology, source, target)


def test_source_dependent_routing_raises_at_build():
    # Towards tile 0, tile 4 leaves for 1 on the YX route from 4, but for 3
    # on the XY route from 5, the east-column tile after it.
    platform = Platform(mesh=Mesh(3, 3), routing=YXUnlessEastmost())
    with pytest.raises(ConfigurationError, match="not destination-based.*5 -> 0"):
        RouteTable.for_platform(platform)


class _FixedNextHops(RoutingAlgorithm):
    """A routing given directly by its ``[tile, target]`` next-hop matrix."""

    name = "fixed"

    def __init__(self, matrix):
        self.matrix = matrix

    def next_hop_matrix(self, topology):
        return self.matrix

    def route(self, topology, source, target):  # pragma: no cover - unused
        raise NotImplementedError


@pytest.mark.parametrize(
    "hop_0_to_2, message",
    [(-1, "no route from tile 0 to tile 2"), (2, r"crosses \(0, 2\)")],
    ids=["unreachable", "off-link"],
)
def test_bad_next_hops_raise_at_build(hop_0_to_2, message):
    matrix = XYRouting().next_hop_matrix(Mesh(3, 1)).copy()
    matrix[0, 2] = hop_0_to_2
    platform = Platform(mesh=Mesh(3, 1), routing=_FixedNextHops(matrix))
    with pytest.raises(ConfigurationError, match=message):
        RouteTable.for_platform(platform)


def test_routing_loop_raises_at_build():
    matrix = XYRouting().next_hop_matrix(Mesh(3, 1)).copy()
    matrix[1, 2] = 0  # 0 -> 1 -> 0 -> ... never reaches 2
    platform = Platform(mesh=Mesh(3, 1), routing=_FixedNextHops(matrix))
    with pytest.raises(ConfigurationError, match="routing loop from tile 0 to tile 2"):
        RouteTable.for_platform(platform)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["mesh/xy", "torus/xy", "mesh/yx", "mesh/west-first", "faulted/table", "codesign"]
)
def test_tables_match_route_walk_16x16(name):
    mesh = Mesh(16, 16)
    if name == "faulted/table":
        platform = Platform(mesh=_faulted(16, 16, [3, 40, 77, 200]), routing=TableRouting())
    elif name == "codesign":
        table = TableSynthesizer(mesh).random_table(rng=5)
        platform = Platform(mesh=mesh, routing=SynthesizedRouting(table))
    else:
        kind, routing = name.split("/")
        topology = mesh if kind == "mesh" else Torus(16, 16)
        platform = Platform(mesh=topology, routing=GRID_ROUTINGS[routing]())
    assert_table_matches_route_walk(platform)
