"""Precomputed route tables — the static half of the evaluation engine.

Pricing a candidate mapping only ever asks four questions about a pair of
tiles: *which routers does a packet traverse* (the path), *which inter-router
links does it cross*, *how many hops is that* (``K`` of equation 2), and *how
much dynamic energy does one bit pay along the way* (``EBit_ij``).  For a
deterministic routing function over a fixed platform, every one of those
answers is a pure function of the ``(source_tile, target_tile)`` pair — yet
the seed code re-derived the XY route edge-by-edge on every objective
evaluation, every scheduler replay and every greedy placement probe.

:class:`RouteTable` computes all four answers once per platform and serves
them as O(1) lookups.  Tables are small (``n**2`` entries for an ``n``-tile
NoC; 4 096 entries for an 8x8 mesh) and are shared process-wide through
:func:`get_route_table`, keyed by the topology's stable
:attr:`~repro.noc.topology.Topology.cache_token`, the routing algorithm's
``cache_token``, the technology and the local-link flag — so the CWM
evaluator, the CDCM scheduler, the greedy constructor and the benchmarks all
price mappings against the same precomputed tables, and meshes, tori and
irregular fabrics (with distinct tokens) can never alias each other's
tables.

For very large NoCs (more than ``_EAGER_PAIR_LIMIT`` pairs) the table turns
into a lazy per-pair memo instead of an eager precomputation, so sweeps over
huge meshes never pay an O(n**2) warm-up for pairs they might not touch.

The numeric halves of an eager table (``hops`` and ``energy``) are stored as
dense NumPy arrays rather than Python lists: scalar lookups index the same
allocation the vectorised pricing kernel (:mod:`repro.eval.vector`) gathers
from, exposed as ``(n, n)`` matrices through :meth:`RouteTable.as_arrays`.
Lazy tables can densify those two halves on demand with
:meth:`RouteTable.warm_dense`, which reuses — not re-derives — every pair
already in the per-pair memo.

The link lists of every pair are also available as one CSR array over link
ids (:meth:`RouteTable.link_incidence`), built on first use and kept with the
table, for kernels that push a whole population's traffic onto links at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.energy.bit_energy import bit_energy_route
from repro.noc.topology import topology_cache_token
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.energy.technology import Technology
    from repro.noc.platform import Platform
    from repro.noc.routing import RoutingAlgorithm
    from repro.noc.topology import Topology

#: Above this many (source, target) pairs the table fills lazily on demand.
_EAGER_PAIR_LIMIT = 1 << 16


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark *array* read-only (dense halves are shared across evaluators)."""
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
        Deterministic routing algorithm; must be stateless, as all routing
        algorithms in :mod:`repro.noc.routing` are.
    technology:
        Supplies the per-bit energies used to precompute ``EBit_ij``.
    include_local:
        Whether the two local core-router links contribute ``2 x ECbit`` to
        the per-bit route energy (mirrors the evaluator flag).
    precompute:
        Force eager (True) or lazy (False) table construction; by default the
        table is eager up to ``_EAGER_PAIR_LIMIT`` pairs.
    """

    __slots__ = (
        "mesh",
        "routing",
        "technology",
        "include_local",
        "num_tiles",
        "_eager",
        "_paths",
        "_links",
        "_hops",
        "_energy",
        "_dense_hops",
        "_dense_energy",
        "_incidence",
    )

    def __init__(
        self,
        mesh: "Topology",
        routing: "RoutingAlgorithm",
        technology: "Technology",
        include_local: bool = True,
        precompute: Optional[bool] = None,
    ) -> None:
        self.mesh = mesh
        self.routing = routing
        self.technology = technology
        self.include_local = include_local
        self.num_tiles = mesh.num_tiles
        pairs = self.num_tiles * self.num_tiles
        self._eager = pairs <= _EAGER_PAIR_LIMIT if precompute is None else precompute
        self._dense_hops: Optional[np.ndarray] = None
        self._dense_energy: Optional[np.ndarray] = None
        self._incidence: Optional[Tuple[np.ndarray, np.ndarray, int]] = None
        if self._eager:
            paths: List[Tuple[int, ...]] = []
            links: List[Tuple[Tuple[int, int], ...]] = []
            hops: List[int] = []
            energy: List[float] = []
            for source in range(self.num_tiles):
                for target in range(self.num_tiles):
                    path = tuple(routing.route(mesh, source, target))
                    paths.append(path)
                    links.append(tuple(zip(path, path[1:])))
                    hops.append(len(path))
                    energy.append(
                        bit_energy_route(technology, len(path), include_local)
                    )
            self._paths = paths
            self._links = links
            # Eager numeric halves live in one dense allocation shared by
            # scalar lookups and the vectorised kernel (see as_arrays()).
            self._hops = _freeze(np.array(hops, dtype=np.int64))
            self._energy = _freeze(np.array(energy, dtype=np.float64))
        else:
            self._paths: Dict[int, Tuple[int, ...]] = {}
            self._links: Dict[int, Tuple[Tuple[int, int], ...]] = {}
            self._hops: Dict[int, int] = {}
            self._energy: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_platform(
        cls,
        platform: "Platform",
        include_local: bool = True,
        precompute: Optional[bool] = None,
    ) -> "RouteTable":
        """Table for a :class:`~repro.noc.platform.Platform` (uncached)."""
        return cls(
            platform.mesh,
            platform.routing,
            platform.technology,
            include_local=include_local,
            precompute=precompute,
        )

    @classmethod
    def from_tables(
        cls,
        mesh: "Topology",
        routing: "RoutingAlgorithm",
        technology: "Technology",
        include_local: bool,
        paths: List[Tuple[int, ...]],
        links: List[Tuple[Tuple[int, int], ...]],
        hops: List[int],
        energy: List[float],
    ) -> "RouteTable":
        """Assemble an eager table from already-computed row-major arrays.

        This is the assembly half of the sharded parallel warm-up
        (:func:`repro.eval.parallel.warm_route_table`): workers compute slices
        of the four arrays for disjoint source-tile ranges and the caller
        concatenates them here instead of re-walking every route serially.

        Parameters
        ----------
        mesh, routing, technology, include_local:
            The platform facets the arrays were computed for (same meaning as
            in the constructor).
        paths, links, hops, energy:
            Row-major per-pair arrays (index ``source * num_tiles + target``),
            each of length ``num_tiles ** 2``.

        Returns
        -------
        RouteTable
            An eager table semantically identical to
            ``RouteTable(mesh, routing, technology, include_local)``.
        """
        num_tiles = mesh.num_tiles
        expected = num_tiles * num_tiles
        for label, table in (
            ("paths", paths),
            ("links", links),
            ("hops", hops),
            ("energy", energy),
        ):
            if len(table) != expected:
                raise ConfigurationError(
                    f"{label} table has {len(table)} entries, expected "
                    f"{expected} for the {num_tiles}-tile {mesh}"
                )
        instance = object.__new__(cls)
        instance.mesh = mesh
        instance.routing = routing
        instance.technology = technology
        instance.include_local = include_local
        instance.num_tiles = num_tiles
        instance._eager = True
        instance._paths = list(paths)
        instance._links = list(links)
        instance._hops = _freeze(np.array(hops, dtype=np.int64))
        instance._energy = _freeze(np.array(energy, dtype=np.float64))
        instance._dense_hops = None
        instance._dense_energy = None
        instance._incidence = None
        return instance

    @property
    def is_precomputed(self) -> bool:
        """True when every pair was materialised eagerly at construction."""
        return self._eager

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

    def _materialise(self, index: int, source: int, target: int) -> None:
        path = tuple(self.routing.route(self.mesh, source, target))
        self._paths[index] = path
        self._links[index] = tuple(zip(path, path[1:]))
        self._hops[index] = len(path)
        self._energy[index] = bit_energy_route(
            self.technology, len(path), self.include_local
        )

    def path(self, source: int, target: int) -> Tuple[int, ...]:
        """Router (tile) indices traversed, both endpoints included."""
        index = self._index(source, target)
        if not self._eager and index not in self._paths:
            self._materialise(index, source, target)
        return self._paths[index]

    def links(self, source: int, target: int) -> Tuple[Tuple[int, int], ...]:
        """Inter-router links of the route, as ``(from, to)`` tile pairs."""
        index = self._index(source, target)
        if not self._eager and index not in self._links:
            self._materialise(index, source, target)
        return self._links[index]

    def hop_count(self, source: int, target: int) -> int:
        """``K`` — number of routers traversed."""
        index = self._index(source, target)
        if self._eager:
            return int(self._hops[index])
        if self._dense_hops is not None:
            return int(self._dense_hops[index])
        if index not in self._hops:
            self._materialise(index, source, target)
        return self._hops[index]

    def bit_energy(self, source: int, target: int) -> float:
        """``EBit_ij`` of equation (2) for this pair, in pJ per bit."""
        index = self._index(source, target)
        if self._eager:
            return float(self._energy[index])
        if self._dense_energy is not None:
            return float(self._dense_energy[index])
        if index not in self._energy:
            self._materialise(index, source, target)
        return self._energy[index]

    def flat_bit_energy(self) -> Optional[np.ndarray]:
        """Row-major ``EBit`` array (``source * num_tiles + target``).

        Returns the dense per-pair energy vector — the same allocation
        :meth:`as_arrays` reshapes — for eager tables and for lazy tables
        that have been :meth:`warm_dense`-ed; ``None`` for cold lazy tables.
        Hot loops that get the array can index it directly and skip per-call
        method dispatch.
        """
        if self._eager:
            return self._energy
        return self._dense_energy

    # ------------------------------------------------------------------
    # Dense (vectorised) views
    # ------------------------------------------------------------------
    @property
    def is_dense(self) -> bool:
        """True when :meth:`as_arrays` can answer without densifying first."""
        return self._eager or self._dense_energy is not None

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(n, n)`` matrices ``(energy, hops)`` of the whole table.

        ``energy[i, j]`` is ``bit_energy(i, j)`` (float64) and ``hops[i, j]``
        is ``hop_count(i, j)`` (int64).  The matrices are read-only reshape
        views of the table's own row-major storage — computed once, never
        copied — and are what :class:`repro.eval.vector.VectorizedCwmKernel`
        gathers from.  A cold lazy table raises
        :class:`~repro.utils.errors.ConfigurationError`; call
        :meth:`warm_dense` (which returns the same views) to densify it.
        """
        if self._eager:
            energy, hops = self._energy, self._hops
        elif self._dense_energy is not None:
            energy, hops = self._dense_energy, self._dense_hops
        else:
            raise ConfigurationError(
                f"{self!r} is lazy and has no dense matrices yet; call "
                f"warm_dense() to materialise them"
            )
        n = self.num_tiles
        return energy.reshape(n, n), hops.reshape(n, n)

    def warm_dense(self) -> Tuple[np.ndarray, np.ndarray]:
        """Densify the numeric halves of a lazy table in one pass.

        Pairs already in the per-pair memo are *reused*, not re-routed; only
        the missing pairs walk the routing algorithm.  Paths and links stay
        lazy (densifying them would cost the O(n^2) tuple storage the lazy
        mode exists to avoid) — after warming, ``hop_count``/``bit_energy``
        answer from the dense matrices while ``path``/``links`` keep
        memoising per pair.  Idempotent; eager tables are already dense.

        Returns
        -------
        (energy, hops):
            The same read-only ``(n, n)`` views :meth:`as_arrays` returns.
        """
        if not self._eager and self._dense_energy is None:
            n = self.num_tiles
            energy = np.empty(n * n, dtype=np.float64)
            hops = np.empty(n * n, dtype=np.int64)
            memo_energy = self._energy
            memo_hops = self._hops
            mesh, routing = self.mesh, self.routing
            technology, include_local = self.technology, self.include_local
            index = 0
            for source in range(n):
                for target in range(n):
                    cached = memo_energy.get(index)
                    if cached is not None:
                        energy[index] = cached
                        hops[index] = memo_hops[index]
                    else:
                        count = len(routing.route(mesh, source, target))
                        hops[index] = count
                        energy[index] = bit_energy_route(
                            technology, count, include_local
                        )
                    index += 1
            self._dense_energy = _freeze(energy)
            self._dense_hops = _freeze(hops)
        return self.as_arrays()

    def link_incidence(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Every pair's route links as one CSR array over directed link ids.

        The links of pair ``index = source * num_tiles + target`` are
        ``link_ids[ptr[index]:ptr[index + 1]]``, in route order; a link's id
        is its position in ``topology.links()``, of which there are
        ``num_links``.  A pair whose tiles coincide crosses no link.  This is
        what the link-load kernel of
        :class:`~repro.codesign.load.LoadAwareCwmContext` expands candidate
        routes through.

        Built on the first call and kept for the table's lifetime.  A lazy
        table builds it over all pairs too (as :meth:`warm_dense` does),
        reusing memoised routes but memoising none, so it costs about
        ``8 * n**2`` bytes of offsets plus 4 bytes per route link.

        Returns
        -------
        (ptr, link_ids, num_links):
            Read-only ``int64`` offsets of length ``num_tiles ** 2 + 1``,
            read-only ``int32`` link ids, and the topology's link count.
        """
        if self._incidence is None:
            n = self.num_tiles
            number = {link: index for index, link in enumerate(self.mesh.links())}
            lengths = np.zeros(n * n, dtype=np.int64)
            ids: List[int] = []
            index = 0
            for source in range(n):
                for target in range(n):
                    if source != target:
                        links = self._route_links(index, source, target)
                        try:
                            ids.extend(number[link] for link in links)
                        except KeyError as exc:
                            raise ConfigurationError(
                                f"route {source} -> {target} crosses {exc.args[0]}, "
                                f"which is not a link of {self.mesh}"
                            ) from None
                        lengths[index] = len(links)
                    index += 1
            ptr = np.zeros(n * n + 1, dtype=np.int64)
            np.cumsum(lengths, out=ptr[1:])
            self._incidence = (
                _freeze(ptr),
                _freeze(np.array(ids, dtype=np.int32)),
                len(number),
            )
        return self._incidence

    def _route_links(
        self, index: int, source: int, target: int
    ) -> Tuple[Tuple[int, int], ...]:
        """Links of one pair, from the table when present, else routed afresh."""
        links = self._links[index] if self._eager else self._links.get(index)
        if links is None:
            path = tuple(self.routing.route(self.mesh, source, target))
            links = tuple(zip(path, path[1:]))
        return links

    def __repr__(self) -> str:
        mode = "precomputed" if self._eager else "lazy"
        return (
            f"RouteTable({self.mesh}, {self.routing.name} routing, "
            f"{self.technology.name}, {mode})"
        )


# ----------------------------------------------------------------------
# Process-wide sharing
# ----------------------------------------------------------------------
_TABLE_CACHE: Dict[Tuple, RouteTable] = {}

#: Upper bound on distinct cached tables (sweeps over many platforms evict
#: the oldest entries instead of growing without bound).
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
    The cache assumes routing algorithms are deterministic and stateless
    (true for all of :mod:`repro.noc.routing`); a stateful custom algorithm
    should build :meth:`RouteTable.for_platform` directly.
    """
    key = _cache_key(platform, include_local)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = RouteTable.for_platform(platform, include_local=include_local)
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        _TABLE_CACHE[key] = table
    return table


def register_route_table(
    platform: "Platform", table: RouteTable, include_local: bool = True
) -> None:
    """Install *table* as the process-wide shared table for *platform*.

    Used by the parallel warm-up (:func:`repro.eval.parallel.warm_route_table`)
    so that a table assembled from sharded worker results is the one every
    subsequent :func:`get_route_table` call returns — large-NoC sweeps warm up
    once, in parallel, and then price serially (or in a pool) off the shared
    result.

    Parameters
    ----------
    platform:
        Platform the table was built for.
    table:
        The table to share; must match the platform's tile count.
    include_local:
        The local-link flag the table was built with (part of the cache key).
    """
    if table.num_tiles != platform.num_tiles:
        raise ConfigurationError(
            f"table covers {table.num_tiles} tiles but the platform has "
            f"{platform.num_tiles}"
        )
    key = _cache_key(platform, include_local)
    if key not in _TABLE_CACHE:  # overwriting an entry must not evict others
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table


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
    "register_route_table",
    "is_shared_route_table",
    "clear_route_table_cache",
]
