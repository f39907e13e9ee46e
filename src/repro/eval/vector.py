"""Array pricing kernel — NumPy batch evaluation of whole populations.

The CWM objective (equation 3) is a sum over CWG edges of
``bits x EBit(tile_source, tile_target)`` — a pure gather over the per-pair
energy table of :class:`~repro.eval.route_table.RouteTable`.  This module
prices an entire population with a handful of NumPy gathers and reductions
instead of one Python loop per candidate:

* a population is a ``(pop, cores)`` int64 array of tile indices whose
  column order is the **pinned core-order contract** — the sorted core names
  of the bound CWG (see :meth:`repro.core.mapping.Mapping.to_index_array`);
* :class:`VectorizedCwmKernel` binds one application as flat edge arrays
  (``src_idx``, ``tgt_idx``, ``bits``) plus the dense route-table matrices
  (:meth:`~repro.eval.route_table.RouteTable.as_arrays`) and prices the whole
  array at once;
* :func:`population_to_array` / :func:`array_to_mappings` interconvert
  populations and :class:`~repro.core.mapping.Mapping` objects.

**Bit-identity.**  The kernel is not merely approximately equal to the scalar
path — it is bit-identical, the same way serial and pooled pricing are.  The
scalar accumulator adds per-edge contributions left to right in CWG edge
order; a matmul or ``np.sum`` would use pairwise summation and round
differently, so the kernel reduces each row with ``np.add.accumulate`` (a
strictly sequential cumulative sum) over the same edge order.  This is why
:class:`~repro.eval.context.CwmEvaluationContext` prices every batch miss
through the kernel without perturbing a single accept/reject decision, and
what the property tests in ``tests/test_vector.py`` pin against the
per-candidate scalar loop.

The CDCM volume/hop metric components are route-table gathers too: a kernel
built with :meth:`VectorizedCwmKernel.from_cdcg` prices the per-packet
dynamic energy of equation (4) and the bits-times-hops volume in the same
way.  The contention and timing terms of CDCM stay on the scalar scheduler —
they are global replay quantities, not gathers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.core.mapping import Mapping
from repro.utils.errors import ConfigurationError, MappingError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.eval.route_table import RouteTable
    from repro.graphs.cdcg import CDCG
    from repro.graphs.cwg import CWG

#: Upper bound on the number of gathered elements a single pricing block may
#: materialise; larger populations are priced in row blocks so peak memory
#: stays bounded regardless of population size.
_MAX_GATHER_ELEMENTS = 1 << 22


def population_to_array(
    mappings: Iterable[Union[Mapping, Dict[str, int]]],
    cores: Sequence[str],
    num_tiles: Optional[int] = None,
) -> np.ndarray:
    """Stack candidates into a ``(pop, len(cores))`` int64 tile array.

    Column *c* of every row holds the tile of ``cores[c]`` — pass the pinned
    order (the sorted core names of the bound CWG, i.e.
    :attr:`Mapping.cores` / a kernel's
    :attr:`VectorizedCwmKernel.core_order`) so arrays from different call
    sites agree column-for-column.  Accepts both :class:`Mapping` objects and
    plain assignment dicts.

    Parameters
    ----------
    mappings:
        Candidates to convert.
    cores:
        Column order; every candidate must place each of these cores.
    num_tiles:
        Optional NoC size; when given, tile indices are range-checked.

    Raises
    ------
    MappingError
        If a candidate misses one of *cores*, or a tile is out of range.
    """
    order = list(cores)
    items = list(mappings)
    out = np.empty((len(items), len(order)), dtype=np.int64)
    for row, mapping in enumerate(items):
        if isinstance(mapping, Mapping):
            out[row] = mapping.to_index_array(order)
        else:
            try:
                for column, core in enumerate(order):
                    out[row, column] = mapping[core]
            except KeyError as exc:
                raise MappingError(
                    f"mapping does not place core {exc.args[0]!r}"
                ) from exc
    if num_tiles is not None and out.size:
        low, high = int(out.min()), int(out.max())
        if low < 0 or high >= num_tiles:
            bad = low if low < 0 else high
            raise MappingError(
                f"tile index {bad} outside the {num_tiles}-tile NoC"
            )
    return out


def array_to_mappings(
    tiles: np.ndarray,
    cores: Sequence[str],
    num_tiles: Optional[int] = None,
) -> List[Mapping]:
    """Rebuild :class:`Mapping` objects from a ``(pop, cores)`` tile array.

    The inverse of :func:`population_to_array`:
    ``array_to_mappings(population_to_array(ms, order), order)`` equals
    ``ms`` for any consistent *order*.  Each row goes through the validating
    :meth:`Mapping.from_index_array` constructor (injectivity, range when
    *num_tiles* is given).

    Parameters
    ----------
    tiles:
        ``(pop, len(cores))`` integer array of tile indices.
    cores:
        Column order the array was built with.
    num_tiles:
        Optional NoC size forwarded to each mapping.
    """
    array = np.asarray(tiles)
    if array.ndim != 2 or array.shape[1] != len(cores):
        raise MappingError(
            f"expected a (pop, {len(cores)}) tile array, got shape "
            f"{array.shape}"
        )
    order = list(cores)
    return [
        Mapping.from_index_array(order, row, num_tiles=num_tiles)
        for row in array
    ]


class VectorizedCwmKernel:
    """One application bound as flat edge arrays over a dense route table.

    The kernel snapshots the application's communications as three flat
    arrays — ``src_idx``/``tgt_idx`` (column positions of each edge's
    endpoints in :attr:`core_order`) and ``bits`` — plus the dense
    ``(n, n)`` energy and hops matrices of the route table, and prices a
    whole ``(pop, cores)`` population per call.  Per-edge contributions are
    reduced left to right in the application's edge order with
    ``np.add.accumulate``, so every priced value is bit-identical to the
    scalar accumulator of
    :meth:`~repro.eval.context.CwmEvaluationContext._compute_metrics`.

    Build kernels with :meth:`from_cwg` (CWM, equation 3),
    :meth:`from_cdcg` (the CDCM per-packet volume/energy gathers of
    equation 4) or :meth:`from_edges` (an explicit edge snapshot).

    Parameters
    ----------
    edges:
        ``(source_core, target_core, bits)`` triples, in accumulation order.
    route_table:
        Table supplying the dense matrices; lazy tables are densified via
        :meth:`~repro.eval.route_table.RouteTable.warm_dense` (pairs already
        memoised are reused, not re-routed).
    core_order:
        Column order of the populations this kernel prices.  The pinned
        contract is the sorted core names of the bound application; pass it
        explicitly only to interoperate with arrays built in a custom order.
    name:
        Optional label used in ``repr``.
    """

    __slots__ = (
        "core_order",
        "num_tiles",
        "name",
        "_src_idx",
        "_tgt_idx",
        "_bits",
        "_bits_int",
        "_required",
        "_energy",
        "_hops",
    )

    def __init__(
        self,
        edges: Sequence[Tuple[str, str, int]],
        route_table: "RouteTable",
        core_order: Sequence[str],
        name: str = "cwm-kernel",
    ) -> None:
        self.core_order: Tuple[str, ...] = tuple(core_order)
        self.num_tiles = route_table.num_tiles
        self.name = name
        column = {core: index for index, core in enumerate(self.core_order)}
        if len(column) != len(self.core_order):
            raise ConfigurationError(
                f"core_order contains duplicate names: {self.core_order!r}"
            )
        edge_list = list(edges)
        src = np.empty(len(edge_list), dtype=np.int64)
        tgt = np.empty(len(edge_list), dtype=np.int64)
        bits = np.empty(len(edge_list), dtype=np.float64)
        for index, (source, target, volume) in enumerate(edge_list):
            try:
                src[index] = column[source]
                tgt[index] = column[target]
            except KeyError as exc:
                raise ConfigurationError(
                    f"edge core {exc.args[0]!r} missing from core_order"
                ) from exc
            bits[index] = volume
        self._src_idx = src
        self._tgt_idx = tgt
        self._bits = bits
        self._bits_int = np.array(
            [volume for _, _, volume in edge_list], dtype=np.int64
        )
        self._required = frozenset(
            core for source, target, _ in edge_list for core in (source, target)
        )
        self._energy, self._hops = route_table.warm_dense()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Tuple[str, str, int]],
        route_table: "RouteTable",
        core_order: Sequence[str],
        name: str = "cwm-kernel",
    ) -> "VectorizedCwmKernel":
        """Kernel over an explicit ``(source, target, bits)`` edge snapshot.

        This is what :class:`~repro.eval.context.CwmEvaluationContext` uses:
        the context snapshots its edges at construction, and building the
        kernel from the same snapshot guarantees the two paths accumulate in
        the same order even if the live CWG is mutated afterwards.
        """
        return cls(edges, route_table, core_order, name=name)

    @classmethod
    def from_cwg(
        cls,
        cwg: "CWG",
        route_table: "RouteTable",
        core_order: Optional[Sequence[str]] = None,
    ) -> "VectorizedCwmKernel":
        """Kernel pricing equation (3) for *cwg* over *route_table*.

        Edges bind in ``cwg.communications()`` order (the scalar
        accumulation order); *core_order* defaults to the pinned contract,
        the sorted core names of the CWG.
        """
        order = sorted(cwg.cores) if core_order is None else core_order
        edges = [
            (comm.source, comm.target, comm.bits)
            for comm in cwg.communications()
        ]
        return cls(edges, route_table, order, name=f"cwm-kernel({cwg.name})")

    @classmethod
    def from_cdcg(
        cls,
        cdcg: "CDCG",
        route_table: "RouteTable",
        core_order: Optional[Sequence[str]] = None,
    ) -> "VectorizedCwmKernel":
        """Kernel over the per-packet gathers of a CDCG.

        Each packet becomes one edge (``source, target, bits`` in
        ``cdcg.packets()`` order), so :meth:`price` computes the CDCM dynamic
        energy ``EDyNoC`` of equation (4) and :meth:`hop_volume` the
        bits-times-hops volume — the two CDCM metric components that are pure
        route-table gathers.  Contention and timing (and therefore static
        energy) stay on the scalar scheduler replay.
        """
        order = sorted(cdcg.cores()) if core_order is None else core_order
        edges = [
            (packet.source, packet.target, packet.bits)
            for packet in cdcg.packets
        ]
        return cls(edges, route_table, order, name=f"cdcm-kernel({cdcg.name})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of bound communications (rows of the flat edge arrays)."""
        return int(self._src_idx.size)

    @property
    def required_cores(self) -> frozenset:
        """Cores referenced by at least one edge.

        Only these columns are ever gathered; candidates may leave the other
        (isolated) cores unplaced, exactly as the scalar path allows.
        """
        return self._required

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _validate(self, tiles: np.ndarray) -> np.ndarray:
        array = np.asarray(tiles, dtype=np.int64)
        if array.ndim != 2 or array.shape[1] != len(self.core_order):
            raise MappingError(
                f"expected a (pop, {len(self.core_order)}) tile array for "
                f"{self.name}, got shape {np.shape(tiles)}"
            )
        if array.size:
            low, high = int(array.min()), int(array.max())
            if low < 0 or high >= self.num_tiles:
                bad = low if low < 0 else high
                raise MappingError(
                    f"tile index {bad} outside the {self.num_tiles}-tile NoC"
                )
        return array

    def price(self, tiles: np.ndarray) -> np.ndarray:
        """Dynamic energy of every candidate row, bit-identical to scalar.

        Gathers ``EBit`` for each edge's ``(source_tile, target_tile)`` pair,
        multiplies by the edge's bit volume, and reduces each row with a
        strictly sequential cumulative sum — the float-for-float twin of the
        scalar left-to-right accumulator.  Large populations are priced in
        row blocks to bound peak memory.

        Parameters
        ----------
        tiles:
            ``(pop, cores)`` integer array in :attr:`core_order` column
            order.

        Returns
        -------
        numpy.ndarray
            ``(pop,)`` float64 energies (zeros when the application has no
            communications; empty for an empty population).
        """
        array = self._validate(tiles)
        pop = array.shape[0]
        out = np.empty(pop, dtype=np.float64)
        if pop == 0:
            return out
        if self._src_idx.size == 0:
            out.fill(0.0)
            return out
        block = max(1, _MAX_GATHER_ELEMENTS // self._src_idx.size)
        for start in range(0, pop, block):
            rows = array[start : start + block]
            contrib = self._bits * self._energy[
                rows[:, self._src_idx], rows[:, self._tgt_idx]
            ]
            np.add.accumulate(contrib, axis=1, out=contrib)
            out[start : start + block] = contrib[:, -1]
        return out

    def hop_volume(self, tiles: np.ndarray) -> np.ndarray:
        """Bits-times-hops volume of every candidate row.

        The hop-weighted traffic volume (an exact integer, so summation
        order is irrelevant): for each candidate, the sum over edges of
        ``bits x hop_count(source_tile, target_tile)``.

        Parameters
        ----------
        tiles:
            ``(pop, cores)`` integer array in :attr:`core_order` column
            order.

        Returns
        -------
        numpy.ndarray
            ``(pop,)`` int64 volumes.
        """
        array = self._validate(tiles)
        pop = array.shape[0]
        out = np.empty(pop, dtype=np.int64)
        if pop == 0:
            return out
        if self._src_idx.size == 0:
            out.fill(0)
            return out
        block = max(1, _MAX_GATHER_ELEMENTS // self._src_idx.size)
        for start in range(0, pop, block):
            rows = array[start : start + block]
            gathered = self._hops[rows[:, self._src_idx], rows[:, self._tgt_idx]]
            out[start : start + block] = (self._bits_int * gathered).sum(axis=1)
        return out

    def price_mappings(
        self, mappings: Iterable[Union[Mapping, Dict[str, int]]]
    ) -> np.ndarray:
        """Convenience wrapper: convert candidates and :meth:`price` them.

        Candidates are stacked with :func:`population_to_array` over this
        kernel's :attr:`core_order`; cores not referenced by any edge may be
        left unplaced (their column is filled with tile 0, which no gather
        reads), matching the scalar path's tolerance for isolated cores.
        """
        items = list(mappings)
        order = self.core_order
        required = self._required
        out = np.zeros((len(items), len(order)), dtype=np.int64)
        for row, mapping in enumerate(items):
            lookup = (
                mapping.assignments() if isinstance(mapping, Mapping) else mapping
            )
            try:
                out[row] = [lookup[core] for core in order]
            except KeyError:
                for column, core in enumerate(order):
                    tile = lookup.get(core)
                    if tile is None:
                        if core in required:
                            raise MappingError(
                                f"mapping does not place core {core!r}"
                            )
                        continue
                    out[row, column] = tile
        return self.price(out)

    def __repr__(self) -> str:
        return (
            f"VectorizedCwmKernel({self.name}, {self.num_edges} edges, "
            f"{len(self.core_order)} cores, {self.num_tiles} tiles)"
        )


__all__ = [
    "VectorizedCwmKernel",
    "population_to_array",
    "array_to_mappings",
]
