"""Deterministic routing algorithms over pluggable topologies.

The paper fixes deterministic XY routing (route along the X axis first, then
along the Y axis).  :class:`XYRouting` implements it; :class:`YXRouting` is
the symmetric variant, kept for ablation benches.  Both consult the
topology's :attr:`~repro.noc.topology.Topology.wraps_x` /
:attr:`~repro.noc.topology.Topology.wraps_y` capability flags to decide
whether an axis wraps around — any torus-like topology routes correctly
without ``isinstance`` checks.

Beyond the dimension-ordered pair, the module provides:

* :class:`TableRouting` — deterministic BFS shortest-path next-hop tables
  that work on **any** topology (the route for irregular fabrics), with a
  tie-break rule (first match in the topology's ``neighbours()`` order) that
  reproduces XY routes *exactly* on a mesh;
* :class:`WestFirstRouting` / :class:`NegativeFirstRouting` — deterministic
  minimal turn-model routings, the classic deadlock-free alternatives the
  :mod:`repro.noc.deadlock` validator certifies;
* a routing **registry** (:func:`register_routing` / :func:`get_routing`)
  resolving spec strings — ``"xy"``, ``"yx"``, ``"table"``,
  ``"west-first"``, ``"negative-first"`` — so platforms are configurable by
  name end to end.

A routing algorithm maps a ``(source tile, target tile)`` pair to the ordered
list of routers the packet header traverses, source router and target router
included (the quantity ``K`` of equations 2 and 6–8 is the length of that
list).  Every routing here is *destination-based*: the next hop depends only
on the current tile and the target, so one ``(n, n)`` next-hop matrix
(:meth:`RoutingAlgorithm.next_hop_matrix`) fixes every route, and route
tables are built by chasing it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.noc.topology import Topology, topology_cache_token
from repro.utils.errors import ConfigurationError

#: How many per-topology next-hop tables a TableRouting instance memoises.
_TABLE_MEMO_LIMIT = 8


class RoutingAlgorithm(ABC):
    """Deterministic routing function over a :class:`~repro.noc.topology.Topology`.

    Implementations must be stateless with respect to routing decisions
    (internal memoisation of derived tables is fine): the same
    ``(topology, source, target)`` triple must always yield the same route,
    which is what lets route tables be shared process-wide and parallel
    pricing stay bit-identical to serial.

    Routings must also be **destination-based**: the hop a packet takes out
    of a tile depends only on that tile and the target, never on where the
    packet came from, so the route from any intermediate tile is the rest of
    the original route.  :meth:`next_hop_matrix` relies on it, and
    :class:`~repro.eval.route_table.RouteTable` builds every route from that
    matrix.  A routing whose route depends on the source raises
    :class:`~repro.utils.errors.ConfigurationError` when its matrix is
    derived and a walked route contradicts an earlier one.
    """

    #: Short identifier used in configuration files and reports.
    name: str = "abstract"

    @abstractmethod
    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """Return the ordered list of router (tile) indices from *source* to
        *target*, both endpoints included.

        ``route(m, t, t) == [t]`` — a core talking to a core on the same tile
        traverses exactly one router.
        """

    def hop_count(self, topology: Topology, source: int, target: int) -> int:
        """Number of routers traversed (``K`` in the paper's equations)."""
        return len(self.route(topology, source, target))

    def links(
        self, topology: Topology, source: int, target: int
    ) -> List[Tuple[int, int]]:
        """The inter-router links of the route, as ``(from_tile, to_tile)`` pairs."""
        path = self.route(topology, source, target)
        return list(zip(path, path[1:]))

    def next_hop_matrix(self, topology: Topology) -> np.ndarray:
        """The ``(n, n)`` next-hop matrix: ``[tile, target]`` is the tile a
        packet at *tile* bound for *target* moves to next (``-1`` on the
        diagonal and where a route never passes).

        The default derives the matrix from :meth:`route`, target by target.
        It walks a route only from sources not already on a known route to
        that target, and checks every step it walks against the hops already
        known; a contradiction means the routing is not destination-based
        and raises :class:`~repro.utils.errors.ConfigurationError` naming
        the pair.  Subclasses with a closed form override it.
        """
        n = topology.num_tiles
        matrix = np.full((n, n), -1, dtype=np.int64)
        for target in range(n):
            known = [-1] * n
            for source in range(n):
                if source == target or known[source] >= 0:
                    continue
                path = self.route(topology, source, target)
                for tile, hop in zip(path, path[1:]):
                    if known[tile] < 0:
                        known[tile] = hop
                    elif known[tile] != hop:
                        raise ConfigurationError(
                            f"{self.name} routing is not destination-based: the "
                            f"route {source} -> {target} leaves tile {tile} for "
                            f"{hop}, but an earlier route to {target} left it "
                            f"for {known[tile]}"
                        )
            matrix[:, target] = known
        return matrix

    @property
    def cache_token(self) -> Tuple:
        """Stable identity used (with the topology's token) to key shared tables.

        The default — concrete class identity — is correct for the stateless
        parameterless routings shipped here; a parameterised custom routing
        should extend the token with its parameters.
        """
        cls = type(self)
        return (cls.__module__, cls.__qualname__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _axis_steps(start: int, end: int, size: int, wrap: bool) -> List[int]:
    """Coordinates visited moving from *start* to *end* along one axis,
    excluding *start* itself."""
    if start == end:
        return []
    if not wrap:
        step = 1 if end > start else -1
        return list(range(start + step, end + step, step))
    forward = (end - start) % size
    backward = (start - end) % size
    step = 1 if forward <= backward else -1
    coords = []
    current = start
    while current != end:
        current = (current + step) % size
        coords.append(current)
    return coords


def _axis_step(
    current: np.ndarray, end: np.ndarray, size: int, wrap: bool
) -> np.ndarray:
    """The next coordinate towards *end* along one axis, elementwise — the
    first step of :func:`_axis_steps` (meaningless where ``current == end``)."""
    if not wrap:
        return current + np.sign(end - current)
    forward = (end - current) % size
    backward = (current - end) % size
    return (current + np.where(forward <= backward, 1, -1)) % size


def _dimension_ordered_next_hops(topology: Topology, x_first: bool) -> np.ndarray:
    """Next-hop matrix of XY (*x_first*) or YX routing on a grid topology."""
    n = topology.num_tiles
    xs, ys = np.array([topology.position_of(tile) for tile in range(n)]).T
    grid = np.full((topology.height, topology.width), -1, dtype=np.int64)
    grid[ys, xs] = np.arange(n)
    x, target_x = xs[:, None], xs[None, :]
    y, target_y = ys[:, None], ys[None, :]
    step_x = _axis_step(x, target_x, topology.width, _wraps(topology, "wraps_x"))
    step_y = _axis_step(y, target_y, topology.height, _wraps(topology, "wraps_y"))
    move_x = x != target_x if x_first else y == target_y
    matrix = grid[np.where(move_x, y, step_y), np.where(move_x, step_x, x)]
    np.fill_diagonal(matrix, -1)
    return matrix


def _wraps(topology: Topology, axis_flag: str) -> bool:
    """The topology's wrap capability flag (False for duck-typed minimal ones)."""
    return bool(getattr(topology, axis_flag, False))


def _require_grid(topology: Topology, routing_name: str) -> None:
    """Dimension-ordered routings need a grid embedding (width/height/coords)."""
    for attribute in ("width", "height", "position_of", "index_of"):
        if not hasattr(topology, attribute):
            raise ConfigurationError(
                f"{routing_name} routing needs a grid topology exposing "
                f"width/height/position_of/index_of, but {topology} has no "
                f"{attribute!r}; use 'table' routing for irregular fabrics"
            )


class XYRouting(RoutingAlgorithm):
    """Dimension-ordered routing: X axis first, then Y axis.

    Wrap-around is taken per axis when the topology declares ``wraps_x`` /
    ``wraps_y`` (shorter direction wins, forward on ties).
    """

    name = "xy"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The XY route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        for x in _axis_steps(sx, tx, topology.width, _wraps(topology, "wraps_x")):
            path.append(topology.index_of(x, sy))
        for y in _axis_steps(sy, ty, topology.height, _wraps(topology, "wraps_y")):
            path.append(topology.index_of(tx, y))
        return path

    def next_hop_matrix(self, topology: Topology) -> np.ndarray:
        """XY next hops of every ``(tile, target)`` pair, in one NumPy pass."""
        _require_grid(topology, self.name)
        return _dimension_ordered_next_hops(topology, x_first=True)


class YXRouting(RoutingAlgorithm):
    """Dimension-ordered routing: Y axis first, then X axis."""

    name = "yx"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The YX route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        for y in _axis_steps(sy, ty, topology.height, _wraps(topology, "wraps_y")):
            path.append(topology.index_of(sx, y))
        for x in _axis_steps(sx, tx, topology.width, _wraps(topology, "wraps_x")):
            path.append(topology.index_of(x, ty))
        return path

    def next_hop_matrix(self, topology: Topology) -> np.ndarray:
        """YX next hops of every ``(tile, target)`` pair, in one NumPy pass."""
        _require_grid(topology, self.name)
        return _dimension_ordered_next_hops(topology, x_first=False)


class WestFirstRouting(RoutingAlgorithm):
    """Deterministic minimal west-first turn-model routing.

    All westward hops are taken first (X-then-Y when the target lies to the
    west, Y-then-X otherwise), so no packet ever turns *into* the west
    direction — the prohibited turns of the west-first turn model.  Minimal
    and deadlock-free on any non-wrapping grid (certified by
    :func:`repro.noc.deadlock.validate_deadlock_free`).
    """

    name = "west-first"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The west-first route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        _reject_wrapping(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        if tx < sx:  # west component: take it first, then the Y component
            for x in _axis_steps(sx, tx, topology.width, False):
                path.append(topology.index_of(x, sy))
            for y in _axis_steps(sy, ty, topology.height, False):
                path.append(topology.index_of(tx, y))
        else:  # no west component: Y first, then east
            for y in _axis_steps(sy, ty, topology.height, False):
                path.append(topology.index_of(sx, y))
            for x in _axis_steps(sx, tx, topology.width, False):
                path.append(topology.index_of(x, ty))
        return path


class NegativeFirstRouting(RoutingAlgorithm):
    """Deterministic minimal negative-first turn-model routing.

    Both negative components (west, then north — decreasing coordinates) are
    routed before both positive ones (east, then south), so no packet ever
    turns from a positive into a negative direction — the prohibited turns
    of the negative-first turn model.  Minimal and deadlock-free on any
    non-wrapping grid.
    """

    name = "negative-first"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The negative-first route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        _reject_wrapping(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        cx, cy = sx, sy
        if tx < cx:  # west
            for x in _axis_steps(cx, tx, topology.width, False):
                path.append(topology.index_of(x, cy))
            cx = tx
        if ty < cy:  # north
            for y in _axis_steps(cy, ty, topology.height, False):
                path.append(topology.index_of(cx, y))
            cy = ty
        if tx > cx:  # east
            for x in _axis_steps(cx, tx, topology.width, False):
                path.append(topology.index_of(x, cy))
            cx = tx
        if ty > cy:  # south
            for y in _axis_steps(cy, ty, topology.height, False):
                path.append(topology.index_of(cx, y))
        return path


class TableRouting(RoutingAlgorithm):
    """Deterministic shortest-path next-hop tables over any topology.

    For each target tile a reverse BFS over the topology's directed links
    yields every tile's distance to the target; the next hop from a tile is
    the **first** neighbour (in the topology's ``neighbours()`` order) that
    is one step closer.  Two consequences:

    * the tables are a pure function of the topology — builds are
      deterministic, so parallel workers rebuild bit-identical tables;
    * on a :class:`~repro.noc.topology.Mesh`, whose neighbour order lists
      the X-axis tiles first, the tie-break reproduces XY routes *exactly*
      (pinned by ``tests/test_topology_api.py``) — table-backed platforms
      price mappings identically to XY platforms on meshes.

    Next-hop tables are memoised per topology (keyed by ``cache_token``)
    and lazily per target; the memo never travels with a pickle (workers
    rebuild it locally).

    Note that shortest-path tables are not automatically deadlock-free on
    topologies with cycles (a torus, most irregular fabrics): gate them
    with :func:`repro.noc.deadlock.validate_deadlock_free` before trusting
    a contention model on them.
    """

    name = "table"

    def __init__(self) -> None:
        # cache_token -> (out-adjacency, in-adjacency, {target: next_hop row})
        self._memo: Dict[Tuple, Tuple[List[List[int]], List[List[int]], Dict[int, List[int]]]] = {}

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The table route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        if source == target:
            return [source]
        next_hop = self._next_hops(topology, target)
        path = [source]
        current = source
        limit = topology.num_tiles
        while current != target:
            step = next_hop[current]
            if step < 0:
                raise ConfigurationError(
                    f"no route from tile {source} to tile {target} in "
                    f"{topology}; the directed link graph does not reach "
                    f"the target"
                )
            path.append(step)
            current = step
            if len(path) > limit:  # pragma: no cover - BFS tables cannot loop
                raise ConfigurationError(
                    f"routing loop from tile {source} to tile {target} in "
                    f"{topology}"
                )
        return path

    def next_hop_matrix(self, topology: Topology) -> np.ndarray:
        """The BFS next-hop rows of every target, stacked as ``[tile, target]``."""
        rows = [self._next_hops(topology, target) for target in topology.tiles()]
        return np.array(rows, dtype=np.int64).T

    # ------------------------------------------------------------------
    def _adjacency(
        self, topology: Topology
    ) -> Tuple[List[List[int]], List[List[int]], Dict[int, List[int]]]:
        token = topology_cache_token(topology)
        entry = self._memo.get(token)
        if entry is None:
            out = [list(topology.neighbours(index)) for index in topology.tiles()]
            incoming: List[List[int]] = [[] for _ in range(topology.num_tiles)]
            for index, neighbours in enumerate(out):
                for neighbour in neighbours:
                    incoming[neighbour].append(index)
            entry = (out, incoming, {})
            while len(self._memo) >= _TABLE_MEMO_LIMIT:
                self._memo.pop(next(iter(self._memo)))
            self._memo[token] = entry
        return entry

    def _next_hops(self, topology: Topology, target: int) -> List[int]:
        out, incoming, tables = self._adjacency(topology)
        table = tables.get(target)
        if table is None:
            n = len(out)
            distance = [-1] * n
            distance[target] = 0
            frontier = [target]
            while frontier:
                next_frontier: List[int] = []
                for tile in frontier:
                    for predecessor in incoming[tile]:
                        if distance[predecessor] < 0:
                            distance[predecessor] = distance[tile] + 1
                            next_frontier.append(predecessor)
                frontier = next_frontier
            table = [-1] * n
            for tile in range(n):
                if tile == target or distance[tile] < 0:
                    continue
                for neighbour in out[tile]:
                    if distance[neighbour] == distance[tile] - 1:
                        table[tile] = neighbour
                        break
            tables[target] = table
        return table

    # ------------------------------------------------------------------
    # Pickling: the memo is derived state, workers rebuild it locally
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        del state
        self.__init__()  # type: ignore[misc]  # rebuild = fresh empty memo


def _validate_endpoints(topology: Topology, source: int, target: int) -> None:
    if not topology.contains(source):
        raise ConfigurationError(f"source tile {source} outside {topology}")
    if not topology.contains(target):
        raise ConfigurationError(f"target tile {target} outside {topology}")


def _reject_wrapping(topology: Topology, routing_name: str) -> None:
    if _wraps(topology, "wraps_x") or _wraps(topology, "wraps_y"):
        raise ConfigurationError(
            f"{routing_name} routing is a non-wrapping turn model and is not "
            f"deadlock-free on wrap-around topologies like {topology}; use "
            f"'xy' (with virtual channels) or 'table' instead"
        )


# ----------------------------------------------------------------------
# Registry: routing algorithms by spec string
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], RoutingAlgorithm]] = {
    XYRouting.name: XYRouting,
    YXRouting.name: YXRouting,
    TableRouting.name: TableRouting,
    WestFirstRouting.name: WestFirstRouting,
    NegativeFirstRouting.name: NegativeFirstRouting,
}


def available_routings() -> List[str]:
    """Spec names accepted by :func:`get_routing`, sorted."""
    return sorted(_REGISTRY)


def register_routing(
    name: str,
    factory: Callable[[], RoutingAlgorithm],
    overwrite: bool = False,
) -> None:
    """Install a routing factory under a spec name.

    Parameters
    ----------
    name:
        Spec name, matched case-insensitively by :func:`get_routing`.
    factory:
        Zero-argument callable returning a :class:`RoutingAlgorithm`
        (typically the class itself).
    overwrite:
        Allow replacing an existing registration (off by default).
    """
    key = name.lower()
    if not overwrite and key in _REGISTRY:
        raise ConfigurationError(
            f"routing spec {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _REGISTRY[key] = factory


def get_routing(name: str) -> RoutingAlgorithm:
    """Instantiate a routing algorithm by spec name.

    Shipped specs: ``"xy"``, ``"yx"``, ``"table"``, ``"west-first"``,
    ``"negative-first"``; :func:`register_routing` adds new ones.
    """
    try:
        return _REGISTRY[name.lower()]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown routing algorithm {name!r}; available: {available_routings()}"
        ) from exc


__all__ = [
    "RoutingAlgorithm",
    "XYRouting",
    "YXRouting",
    "WestFirstRouting",
    "NegativeFirstRouting",
    "TableRouting",
    "available_routings",
    "register_routing",
    "get_routing",
]
