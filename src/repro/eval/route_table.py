"""Route tables — the static half of the evaluation engine.

Pricing a candidate mapping only ever asks four questions about a pair of
tiles: *which routers does a packet traverse* (the path), *which inter-router
links does it cross*, *how many hops is that* (``K`` of equation 2), and *how
much dynamic energy does one bit pay along the way* (``EBit_ij``).  For a
deterministic routing function over a fixed platform, every one of those
answers is a pure function of the ``(source_tile, target_tile)`` pair.

:class:`RouteTable` answers all four for every pair at construction and
serves them as O(1) lookups.  Every routing is destination-based, so the
routing's ``(n, n)`` next-hop matrix
(:meth:`~repro.noc.routing.RoutingAlgorithm.next_hop_matrix`) fixes every
route: the build moves all ``n**2`` pairs forward one hop per step in NumPy,
and stores

* ``hops`` and ``energy`` as dense row-major arrays, which scalar lookups
  index and the vectorised pricing kernel (:mod:`repro.eval.vector`) gathers
  from as ``(n, n)`` matrices (:meth:`RouteTable.as_arrays`);
* every pair's links as one read-only CSR over link ids
  (:meth:`RouteTable.link_incidence`), which the link-load kernel expands
  whole populations through, and which :meth:`RouteTable.path`,
  :meth:`RouteTable.links` and :meth:`RouteTable.link_ids` decode per pair
  (memoised).

Tables are shared process-wide through :func:`get_route_table`, keyed by the
topology's stable :attr:`~repro.noc.topology.Topology.cache_token`, the
routing algorithm's ``cache_token``, the technology and the local-link flag —
so the CWM evaluator, the CDCM scheduler, the greedy constructor and the
benchmarks all price mappings against the same tables, and meshes, tori and
irregular fabrics (with distinct tokens) can never alias each other's tables.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple, TYPE_CHECKING

import numpy as np

from repro.energy.bit_energy import bit_energy_route
from repro.noc.topology import topology_cache_token
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.energy.technology import Technology
    from repro.noc.platform import Platform
    from repro.noc.routing import RoutingAlgorithm
    from repro.noc.topology import Topology

Link = Tuple[int, int]


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark *array* read-only (the arrays are shared across evaluators)."""
    array.setflags(write=False)
    return array


class RouteTable:
    """Per-platform lookup tables for route paths, links, hops and bit energy.

    Parameters
    ----------
    mesh:
        Topology the routes are computed over (mesh, torus or irregular —
        any :class:`~repro.noc.topology.Topology`; the parameter keeps the
        paper's name, aliased as :attr:`topology`).
    routing:
        Deterministic, destination-based routing algorithm; must be
        stateless, as all routing algorithms in :mod:`repro.noc.routing` are.
    technology:
        Supplies the per-bit energies used to compute ``EBit_ij``.
    include_local:
        Whether the two local core-router links contribute ``2 x ECbit`` to
        the per-bit route energy (mirrors the evaluator flag).

    Raises
    ------
    ConfigurationError
        If a route is unreachable, loops (more than ``n`` steps), or crosses
        a tile pair that is not a link of the topology.
    """

    __slots__ = (
        "mesh",
        "routing",
        "technology",
        "include_local",
        "num_tiles",
        "_hops",
        "_energy",
        "_incidence",
        "_links",
        "_link_id_memo",
        "_route_memo",
    )

    def __init__(
        self,
        mesh: "Topology",
        routing: "RoutingAlgorithm",
        technology: "Technology",
        include_local: bool = True,
    ) -> None:
        self.mesh = mesh
        self.routing = routing
        self.technology = technology
        self.include_local = include_local
        n = self.num_tiles = mesh.num_tiles
        next_hop = np.asarray(routing.next_hop_matrix(mesh), dtype=np.int64)
        if next_hop.shape != (n, n):
            raise ConfigurationError(
                f"{routing.name} routing gave a {next_hop.shape} next-hop "
                f"matrix for the {n}-tile {mesh}, expected ({n}, {n})"
            )
        self._links = mesh.links()
        link_id = np.full(n * n, -1, dtype=np.int64)
        if self._links:
            ends = np.array(self._links, dtype=np.int64)
            link_id[ends[:, 0] * n + ends[:, 1]] = np.arange(len(self._links))

        # Entry [tile, target] is the first hop of the route tile -> target,
        # so checking every off-diagonal entry checks every hop of every route.
        next_hop = next_hop.ravel()
        pair = np.arange(n * n)
        tile, target = pair // n, pair % n
        en_route = tile != target
        first_link = link_id[tile * n + np.maximum(next_hop, 0)]
        bad = np.flatnonzero(en_route & ((next_hop < 0) | (first_link < 0)))
        if bad.size:
            source, end = divmod(int(bad[0]), n)
            hop = int(next_hop[bad[0]])
            if hop < 0:
                raise ConfigurationError(
                    f"no route from tile {source} to tile {end} in {mesh} "
                    f"under {routing.name} routing"
                )
            raise ConfigurationError(
                f"route {source} -> {end} crosses {(source, hop)}, which is "
                f"not a link of {mesh}"
            )

        # Route lengths by pointer doubling: after round k, jump[p] is the
        # pair (tile reached, target) of pair p after 2**k hops and lengths[p]
        # counts the links crossed so far.  A loop-free route arrives within
        # n - 1 hops; one still travelling after that loops.
        jump = np.where(en_route, next_hop * n + target, pair)
        lengths = en_route.astype(np.int64)
        for _ in range(n.bit_length()):
            lengths += lengths[jump]
            jump = jump[jump]
        looping = np.flatnonzero(jump != target * (n + 1))
        if looping.size:
            source, end = divmod(int(looping[0]), n)
            raise ConfigurationError(
                f"routing loop from tile {source} to tile {end} in {mesh} "
                f"under {routing.name} routing"
            )
        ptr = np.zeros(n * n + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])

        # The chase: all pairs move one hop per step, in lockstep, and the
        # k-th link of pair p lands in CSR slot ptr[p] + k.
        ids = np.empty(int(ptr[-1]), dtype=np.int32)
        moving = at = pair[en_route]  # at: the pair (current tile, target)
        target = target[en_route]
        step = 0
        while moving.size:
            ids[ptr[moving] + step] = first_link[at]
            hop = next_hop[at]
            going = hop != target
            moving, target = moving[going], target[going]
            at = hop[going] * n + target
            step += 1

        hops = lengths + 1  # K counts routers: one more than the links
        energy_of_k = np.zeros(int(hops.max()) + 1, dtype=np.float64)
        for k in np.unique(hops).tolist():
            energy_of_k[k] = bit_energy_route(technology, k, include_local)
        self._hops = _freeze(hops)
        self._energy = _freeze(energy_of_k[hops])
        self._incidence = (_freeze(ptr), _freeze(ids), len(self._links))
        self._link_id_memo: Dict[Link, Tuple[int, ...]] = {}
        self._route_memo: Dict[Link, Tuple[Tuple[int, ...], Tuple[Link, ...]]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_platform(
        cls, platform: "Platform", include_local: bool = True
    ) -> "RouteTable":
        """Table for a :class:`~repro.noc.platform.Platform` (uncached)."""
        return cls(
            platform.mesh,
            platform.routing,
            platform.technology,
            include_local=include_local,
        )

    @property
    def topology(self) -> "Topology":
        """The topology the routes are computed over (alias of ``mesh``)."""
        return self.mesh

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _index(self, source: int, target: int) -> int:
        n = self.num_tiles
        if not (0 <= source < n and 0 <= target < n):
            raise ConfigurationError(
                f"tile pair ({source}, {target}) outside the {n}-tile {self.mesh}"
            )
        return source * n + target

    def link_ids(self, source: int, target: int) -> Tuple[int, ...]:
        """Ids (positions in ``topology.links()``) of the route's links, in order.

        Decoded from the CSR on a pair's first lookup and memoised: this is
        the lookup the CDCM pricing replay makes per packet, so it builds
        nothing else.
        """
        link_ids = self._link_id_memo.get((source, target))
        if link_ids is None:
            index = self._index(source, target)
            ptr, ids, _ = self._incidence
            start, stop = ptr[index : index + 2].tolist()
            link_ids = tuple(ids[start:stop].tolist())
            self._link_id_memo[source, target] = link_ids
        return link_ids

    def _route(self, source: int, target: int) -> Tuple[Tuple[int, ...], Tuple[Link, ...]]:
        """``(path, links)`` of one pair, decoded from its link ids once."""
        route = self._route_memo.get((source, target))
        if route is None:
            links = tuple([self._links[i] for i in self.link_ids(source, target)])
            path = (source,) + tuple([hop for _, hop in links])
            route = self._route_memo[source, target] = (path, links)
        return route

    def path(self, source: int, target: int) -> Tuple[int, ...]:
        """Router (tile) indices traversed, both endpoints included."""
        return self._route(source, target)[0]

    def links(self, source: int, target: int) -> Tuple[Link, ...]:
        """Inter-router links of the route, as ``(from, to)`` tile pairs."""
        return self._route(source, target)[1]

    def hop_count(self, source: int, target: int) -> int:
        """``K`` — number of routers traversed."""
        return int(self._hops[self._index(source, target)])

    def bit_energy(self, source: int, target: int) -> float:
        """``EBit_ij`` of equation (2) for this pair, in pJ per bit."""
        return float(self._energy[self._index(source, target)])

    def flat_bit_energy(self) -> np.ndarray:
        """Row-major ``EBit`` array (``source * num_tiles + target``).

        The same allocation :meth:`as_arrays` reshapes; hot loops index it
        directly and skip per-call method dispatch.
        """
        return self._energy

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(n, n)`` matrices ``(energy, hops)`` of the whole table.

        ``energy[i, j]`` is ``bit_energy(i, j)`` (float64) and ``hops[i, j]``
        is ``hop_count(i, j)`` (int64).  The matrices are read-only reshape
        views of the table's own row-major storage — never copied — and are
        what :class:`repro.eval.vector.VectorizedCwmKernel` gathers from.
        """
        n = self.num_tiles
        return self._energy.reshape(n, n), self._hops.reshape(n, n)

    def link_incidence(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Every pair's route links as one CSR array over directed link ids.

        The links of pair ``index = source * num_tiles + target`` are
        ``link_ids[ptr[index]:ptr[index + 1]]``, in route order; a link's id
        is its position in ``topology.links()``, of which there are
        ``num_links``.  A pair whose tiles coincide crosses no link.  This is
        what the link-load kernel of
        :class:`~repro.codesign.load.LoadAwareCwmContext` expands candidate
        routes through.

        Returns
        -------
        (ptr, link_ids, num_links):
            Read-only ``int64`` offsets of length ``num_tiles ** 2 + 1``,
            read-only ``int32`` link ids, and the topology's link count.
        """
        return self._incidence

    # ------------------------------------------------------------------
    # Pickling: the per-pair memos are derived state and stay behind
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_link_id_memo"] = {}
        state["_route_memo"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        for array in (self._hops, self._energy, *self._incidence[:2]):
            _freeze(array)

    def __repr__(self) -> str:
        return (
            f"RouteTable({self.mesh}, {self.routing.name} routing, "
            f"{self.technology.name})"
        )


# ----------------------------------------------------------------------
# Process-wide sharing
# ----------------------------------------------------------------------
_TABLE_CACHE: "OrderedDict[Tuple, RouteTable]" = OrderedDict()

#: Upper bound on distinct cached tables (sweeps over many platforms evict
#: the least recently used entries instead of growing without bound).
_TABLE_CACHE_LIMIT = 32


def _routing_token(routing: "RoutingAlgorithm") -> Tuple:
    token = getattr(routing, "cache_token", None)
    if token is not None:
        return token
    cls = type(routing)
    return (cls.__module__, cls.__qualname__)


def _cache_key(platform: "Platform", include_local: bool) -> Tuple:
    return (
        topology_cache_token(platform.mesh),
        _routing_token(platform.routing),
        platform.technology,
        include_local,
    )


def get_route_table(platform: "Platform", include_local: bool = True) -> RouteTable:
    """Shared :class:`RouteTable` for *platform*.

    Tables are cached by ``(topology cache_token, routing cache_token,
    technology, include_local)``; every evaluator, scheduler and search
    helper bound to the same platform therefore reuses one table, and two
    topology objects share a table exactly when their tokens — which embed
    the concrete class, so wrap-capable subclasses never alias — agree.
    The cache keeps the :data:`_TABLE_CACHE_LIMIT` most recently used
    tables.  It assumes routing algorithms are deterministic and stateless
    (true for all of :mod:`repro.noc.routing`); a stateful custom algorithm
    should build :meth:`RouteTable.for_platform` directly.
    """
    key = _cache_key(platform, include_local)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = RouteTable.for_platform(platform, include_local=include_local)
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.popitem(last=False)
        _TABLE_CACHE[key] = table
    else:
        _TABLE_CACHE.move_to_end(key)
    return table


def is_shared_route_table(
    table: RouteTable, platform: "Platform", include_local: bool = True
) -> bool:
    """Whether *table* is the process-shared table for *platform*.

    Used by the picklable-light contexts to decide what travels across a
    process boundary: the shared table is dropped (workers rebuild an
    identical one via :func:`get_route_table`), while a custom table — e.g.
    one built for a stateful routing algorithm — must ship with the pickle,
    because a worker-side rebuild could resolve different routes and break
    the bit-identity contract of the parallel backend.

    Parameters
    ----------
    table:
        The table a context is bound to.
    platform:
        The context's platform.
    include_local:
        The local-link flag the context was built with.

    Returns
    -------
    bool
        True when *table* is exactly the cached shared instance.
    """
    return _TABLE_CACHE.get(_cache_key(platform, include_local)) is table


def clear_route_table_cache() -> None:
    """Drop all cached tables (used by tests and long-running sweeps)."""
    _TABLE_CACHE.clear()


__all__ = [
    "RouteTable",
    "get_route_table",
    "is_shared_route_table",
    "clear_route_table_cache",
]
