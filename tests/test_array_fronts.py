"""Array-native population paths, pinned against the Python code they replaced.

Three hot layers of the population-front loop run on NumPy arrays.  Each is
checked here against its former pure-Python implementation, which this module
keeps as the oracle:

* :func:`~repro.search.population.fast_non_dominated_sort` against Deb's
  pairwise loop over :meth:`~repro.core.metrics.MetricVector.dominates`: the
  same ranks *and* the same order inside every front, with ties, duplicates,
  NaN components, 1 to 3 keys, populations of 0, 1 and 2, and the same
  ``KeyError`` for a key the vectors lack;
* the link-load kernel of :class:`~repro.codesign.load.LoadAwareCwmContext`
  against vectors built from :func:`~repro.codesign.load.link_loads`,
  :func:`~repro.codesign.load.max_link_load` and
  :func:`~repro.codesign.load.link_load_spread`, ``repr`` for ``repr``, on
  meshes, tori, a faulted irregular fabric, a synthesized co-design routing
  table and a west-first routing (whose next-hop matrix is derived from
  ``route()``);
* :func:`~repro.search.genetic.uniform_assignment_crossover` against the
  scalar-coin loop: equal children and an equal generator state after every
  call.

The ``slow``-marked variants repeat the sort and link-load sweeps at 16x16
scale (``pytest -m slow tests/test_array_fronts.py``).
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Sequence

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.codesign import (
    LOAD_METRIC_NAMES,
    LoadAwareCwmContext,
    SynthesizedRouting,
    TableSynthesizer,
    link_load_spread,
    link_loads,
    max_link_load,
)
from repro.codesign import load as load_module
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend
from repro.eval.route_table import RouteTable
from repro.graphs.cwg import CWG, cwg_from_edges
from repro.noc.platform import Platform
from repro.noc.routing import TableRouting, WestFirstRouting
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.search.genetic import uniform_assignment_crossover
from repro.search.population import fast_non_dominated_sort
from repro.utils.errors import MappingError

N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))


# ---------------------------------------------------------------------------
# Dominance sort
# ---------------------------------------------------------------------------


def _deb_sort(vectors: Sequence[MetricVector], keys: Sequence[str]) -> List[List[int]]:
    """Deb's fast non-dominated sort as a pairwise ``dominates`` loop (oracle)."""
    keys = tuple(keys)
    n = len(vectors)
    dominated: List[List[int]] = [[] for _ in range(n)]
    counts = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if vectors[p].dominates(vectors[q], keys):
                dominated[p].append(q)
                counts[q] += 1
            elif vectors[q].dominates(vectors[p], keys):
                dominated[q].append(p)
                counts[p] += 1
    fronts: List[List[int]] = [[p for p in range(n) if counts[p] == 0]]
    while fronts[-1]:
        next_front: List[int] = []
        for p in fronts[-1]:
            for q in dominated[p]:
                counts[q] -= 1
                if counts[q] == 0:
                    next_front.append(q)
        fronts.append(next_front)
    fronts.pop()
    return fronts


NAMES = ("a", "b", "c")

#: A small value pool, so ties, duplicate vectors and NaN are common.
VALUES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan])


@st.composite
def populations(draw, max_size: int = 24):
    keys = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=max_size))
    return [MetricVector(NAMES, row) for row in rows], tuple(keys)


@given(populations())
@settings(max_examples=300, deadline=None)
def test_sort_matches_deb_loop(case):
    vectors, keys = case
    assert fast_non_dominated_sort(vectors, keys) == _deb_sort(vectors, keys)


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize("keys", [("a",), ("b", "a"), ("a", "b", "c")])
def test_sort_tiny_populations(size, keys):
    vectors = [MetricVector(NAMES, (1.0, float(-i), 0.0)) for i in range(size)]
    assert fast_non_dominated_sort(vectors, keys) == _deb_sort(vectors, keys)


def test_sort_duplicates_share_a_front_in_index_order():
    vectors = [MetricVector(NAMES, (1.0, 1.0, 1.0))] * 3 + [
        MetricVector(NAMES, (0.0, 0.0, 0.0))
    ]
    assert fast_non_dominated_sort(vectors, NAMES) == [[3], [0, 1, 2]]


def test_sort_later_fronts_follow_last_dominator_order():
    # Front 0 is [0, 1]; index 2 is dominated by 1 only and index 3 by 0 and
    # 1, so both are released by 1 and keep index order; index 4 is
    # released by 0 alone and therefore comes first.
    vectors = [
        MetricVector(("x", "y"), values)
        for values in [(0.0, 3.0), (3.0, 0.0), (4.0, 1.0), (3.5, 3.5), (1.0, 4.0)]
    ]
    fronts = fast_non_dominated_sort(vectors, ("x", "y"))
    assert fronts == _deb_sort(vectors, ("x", "y")) == [[0, 1], [4, 2, 3]]


def test_sort_mixed_component_layouts():
    rng = np.random.default_rng(4)
    vectors = []
    for index in range(20):
        values = dict(zip(NAMES, rng.integers(0, 4, size=3).astype(float)))
        order = NAMES if index % 2 else tuple(reversed(NAMES))
        vectors.append(MetricVector(order, [values[name] for name in order]))
    assert fast_non_dominated_sort(vectors, ("c", "a")) == _deb_sort(vectors, ("c", "a"))


@pytest.mark.parametrize("keys", [("z",), ("z", "a"), ("a", "z")])
def test_sort_missing_key_raises_like_dominates(keys):
    vectors = [MetricVector(NAMES, (float(i), 1.0, 0.0)) for i in range(3)]
    with pytest.raises(KeyError) as old:
        _deb_sort(vectors, keys)
    with pytest.raises(KeyError) as new:
        fast_non_dominated_sort(vectors, keys)
    assert new.value.args == old.value.args


@pytest.mark.slow
@given(populations(max_size=300))
@settings(max_examples=200, deadline=None)
def test_sort_matches_deb_loop_long_haul(case):
    vectors, keys = case
    assert fast_non_dominated_sort(vectors, keys) == _deb_sort(vectors, keys)


# ---------------------------------------------------------------------------
# Link-load kernel
# ---------------------------------------------------------------------------


def _random_cwg(rng: np.random.Generator, num_cores: int, density: float) -> CWG:
    """A random CWG over ``c0..`` plus one isolated core ``iso``."""
    cores = [f"c{i}" for i in range(num_cores)]
    edges = [
        (cores[source], cores[target], int(rng.integers(1, 1 << 20)))
        for source in range(num_cores)
        for target in range(num_cores)
        if source != target and rng.random() < density
    ]
    edges.append((cores[0], cores[-1], int(rng.integers(1, 1 << 20))))
    return cwg_from_edges("loads", edges, cores=cores + ["iso"])


def _faulted_mesh(width: int, height: int) -> IrregularTopology:
    """A mesh with three interior links failed, as an irregular fabric."""
    failed = {(5, 6), (1, 5), (9, 10)}
    edges = [
        (a, b)
        for a, b in Mesh(width, height).links()
        if a < b and (a, b) not in failed
    ]
    return IrregularTopology(edges, name=f"faulted{width}x{height}")


def _fabric(name: str, width: int, height: int):
    """``(platform, route table)`` of one fabric of the sweep."""
    mesh = Mesh(width, height)
    if name == "mesh":
        platform = Platform(mesh=mesh)
    elif name == "torus":
        platform = Platform(mesh=Torus(width, height))
    elif name == "faulted":
        platform = Platform(mesh=_faulted_mesh(width, height), routing=TableRouting())
    elif name == "codesign":
        table = TableSynthesizer(mesh).random_table(rng=3)
        platform = Platform(mesh=mesh, routing=SynthesizedRouting(table))
    else:  # "west-first": the default next-hop matrix, derived from route()
        platform = Platform(mesh=mesh, routing=WestFirstRouting())
    return platform, RouteTable.for_platform(platform)


FABRICS = ("mesh", "torus", "faulted", "codesign", "west-first")


def _candidates(cwg: CWG, num_tiles: int, count: int, seed: int) -> List[Dict[str, int]]:
    """Random placements; every other one leaves the isolated core unplaced."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        tiles = Mapping.random(cwg.cores, num_tiles, rng).assignments()
        if index % 2:
            del tiles["iso"]
        out.append(tiles)
    return out


def _reference(cwg: CWG, platform: Platform, table: RouteTable, tiles) -> MetricVector:
    """The vector the public helpers give (the oracle of the kernel)."""
    energy = CwmEvaluationContext(cwg, platform, route_table=table, cache_size=0)
    loads = link_loads(cwg, tiles, table)
    return MetricVector(
        LOAD_METRIC_NAMES,
        (
            energy.metrics(tiles)["dynamic_energy"],
            max_link_load(loads),
            link_load_spread(loads, len(platform.mesh.links())),
        ),
    )


def _check_fabric(name: str, width: int, height: int, num_cores: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    cwg = _random_cwg(rng, num_cores, density=0.3)
    platform, table = _fabric(name, width, height)
    candidates = _candidates(cwg, platform.num_tiles, count, seed)
    expected = [repr(_reference(cwg, platform, table, tiles)) for tiles in candidates]
    batch = LoadAwareCwmContext(cwg, platform, route_table=table)
    single = LoadAwareCwmContext(cwg, platform, route_table=table, cache_size=0)
    assert [repr(v) for v in batch.evaluate_metrics_batch(candidates)] == expected
    assert [repr(single.metrics(tiles)) for tiles in candidates] == expected


@pytest.mark.parametrize("name", FABRICS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_link_load_kernel_matches_helpers(name, seed):
    _check_fabric(name, 4, 4, num_cores=10, count=12, seed=seed)


def test_link_load_kernel_batch_spans_blocks():
    rng = np.random.default_rng(11)
    cwg = _random_cwg(rng, 48, density=0.06)
    platform, table = _fabric("mesh", 8, 8)
    candidates = _candidates(cwg, platform.num_tiles, 160, seed=12)
    context = LoadAwareCwmContext(cwg, platform, route_table=table)
    ptr, _, _ = table.link_incidence()
    rows = context._rows(candidates)
    pairs = context.vector_kernel().pair_indices(rows)
    entries = (ptr[pairs + 1] - ptr[pairs]).sum()
    assert entries > 2 * load_module._BLOCK_ENTRIES  # at least three blocks
    expected = [repr(_reference(cwg, platform, table, tiles)) for tiles in candidates]
    assert [repr(v) for v in context.evaluate_metrics_batch(candidates)] == expected


def test_link_load_kernel_mapping_errors_match_energy_path():
    rng = np.random.default_rng(2)
    cwg = _random_cwg(rng, 6, density=0.5)
    platform = Platform(mesh=Mesh(3, 3))
    missing = {f"c{i}": i for i in range(1, 6)}  # c0 carries edges
    outside = {f"c{i}": i for i in range(5)} | {"c5": 9}
    for bad in (missing, outside):
        load = LoadAwareCwmContext(cwg, platform, cache_size=0)
        plain = CwmEvaluationContext(cwg, platform, cache_size=0)
        with pytest.raises(MappingError) as old:
            plain.metrics(bad)
        with pytest.raises(MappingError) as new:
            load.metrics(bad)
        assert str(new.value) == str(old.value)
        with pytest.raises(MappingError) as old:
            plain.evaluate_metrics_batch([bad, bad])
        with pytest.raises(MappingError) as new:
            load.evaluate_metrics_batch([bad, bad])
        assert str(new.value) == str(old.value)


def test_link_load_kernel_pooled_matches_serial():
    # A synthesized routing table is a custom table: it travels with the
    # pickled context, its link incidence included.
    rng = np.random.default_rng(9)
    cwg = _random_cwg(rng, 10, density=0.3)
    platform, table = _fabric("codesign", 4, 4)
    context = LoadAwareCwmContext(cwg, platform, route_table=table)
    candidates = _candidates(cwg, platform.num_tiles, 24, seed=10)
    serial = [repr(v) for v in context.evaluate_metrics_batch(candidates)]
    fresh = LoadAwareCwmContext(cwg, platform, route_table=table)
    with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
        pooled = fresh.evaluate_metrics_batch(candidates, backend=pool)
    assert [repr(v) for v in pooled] == serial


def test_link_incidence_lives_with_its_table():
    platform, table = _fabric("mesh", 4, 4)
    ptr, link_ids, num_links = table.link_incidence()
    assert table.link_incidence()[0] is ptr  # built once per table
    assert num_links == len(platform.mesh.links())
    assert RouteTable.for_platform(platform).link_incidence()[0] is not ptr
    assert not ptr.flags.writeable and not link_ids.flags.writeable
    links = platform.mesh.links()
    for source in range(platform.num_tiles):
        for target in range(platform.num_tiles):
            index = source * platform.num_tiles + target
            found = tuple(links[i] for i in link_ids[ptr[index] : ptr[index + 1]])
            assert found == (table.links(source, target) if source != target else ())


@pytest.mark.slow
@pytest.mark.parametrize("name", ("mesh", "torus", "codesign", "west-first"))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_link_load_kernel_matches_helpers_long_haul(name, seed):
    _check_fabric(name, 16, 16, num_cores=96, count=40, seed=seed)


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------


def _scalar_coin_crossover(parent_a, parent_b, cores, num_tiles, rng) -> Mapping:
    """The per-core scalar-coin crossover (oracle)."""
    child: Dict[str, int] = {}
    used = set()
    order = list(cores)
    for core in order:
        choices = [parent_a.tile_of(core), parent_b.tile_of(core)]
        if rng.random() < 0.5:
            choices.reverse()
        tile = next((t for t in choices if t not in used), None)
        if tile is None:
            continue
        child[core] = tile
        used.add(tile)
    free = [t for t in range(num_tiles) if t not in used]
    rng.shuffle(free)
    for core in order:
        if core not in child:
            child[core] = free.pop()
    return Mapping(child, num_tiles=num_tiles)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_cores=st.integers(1, 20),
    spare=st.integers(0, 6),
)
@settings(max_examples=100, deadline=None)
def test_crossover_matches_scalar_coins(seed, num_cores, spare):
    cores = [f"c{i}" for i in range(num_cores)]
    num_tiles = num_cores + spare
    setup = np.random.default_rng(seed)
    parents = [Mapping.random(cores, num_tiles, setup) for _ in range(4)]
    old_rng = np.random.default_rng(seed + 1)
    new_rng = np.random.default_rng(seed + 1)
    for call in range(6):
        a, b = parents[call % 4], parents[(call + 1) % 4]
        old = _scalar_coin_crossover(a, b, cores, num_tiles, old_rng)
        new = uniform_assignment_crossover(a, b, cores, num_tiles, new_rng)
        assert list(new.assignments().items()) == list(old.assignments().items())
        assert new._tile_to_core == old._tile_to_core
        assert new.num_tiles == old.num_tiles
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_crossover_parent_missing_a_core_raises():
    cores = ["a", "b", "c"]
    whole = Mapping({"a": 0, "b": 1, "c": 2}, num_tiles=4)
    partial = Mapping({"a": 3, "b": 2}, num_tiles=4)
    for parents in ((whole, partial), (partial, whole)):
        with pytest.raises(MappingError, match="core 'c' is not mapped"):
            uniform_assignment_crossover(*parents, cores, 4, np.random.default_rng(0))
