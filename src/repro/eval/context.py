"""Evaluation contexts — the dynamic half of the evaluation engine.

An :class:`EvaluationContext` binds one application to one platform and is the
single object every search engine prices mappings through.  Since the
vector-objective redesign the memo stores **named component vectors**
(:class:`~repro.core.metrics.MetricVector`) rather than scalars — the scalar
operations are derived views, which is what lets a weight sweep re-scalarise
an already-priced population for free.  The context exposes:

* :meth:`EvaluationContext.metrics` — the component vector of a mapping
  (energy terms, CDCM makespan), memoised in an LRU keyed by the (immutable,
  hashable) mapping assignment so revisited candidates are free;
* :meth:`EvaluationContext.cost` — the scalar objective value, derived by
  applying the context's :attr:`EvaluationContext.weights` to the memoised
  vector (for the default weights this is bit-identical to the pre-vector
  scalar memo);
* :meth:`EvaluationContext.delta` — for contexts that support it, the *exact*
  incremental cost of swapping the contents of two tiles, computed from the
  edges incident to the moved cores only (O(degree) instead of O(edges));
  :meth:`EvaluationContext.metric_delta` is the per-component variant
  scalarisation views price swaps through;
* :meth:`EvaluationContext.evaluate_batch` /
  :meth:`EvaluationContext.evaluate_metrics_batch` — bulk pricing of many
  candidates (population-based engines, sweep drivers), sharing the same
  memo.  Where the uncached candidates of a batch are priced is pluggable:
  pass a :class:`~repro.eval.parallel.BatchBackend` (``backend=...`` at
  construction or per call) to fan them out over a process pool; the default
  prices inline.

Contexts are *picklable-light*: pickling keeps the application graph and the
platform but drops the memo, the backend and the route table — the unpickling
process rebuilds the table through the process-wide
:func:`~repro.eval.route_table.get_route_table` cache.  The platform carries
the full topology identity (mesh, torus or
:class:`~repro.noc.topology.IrregularTopology` — anything with a stable
``cache_token``), so a worker's rebuilt table is bit-identical to the
parent's for any topology, not just meshes.  This is what lets
:class:`~repro.eval.parallel.ProcessPoolBackend` ship contexts to workers
without serialising O(n^2) route arrays.

Two concrete contexts mirror the paper's two models:

* :class:`CwmEvaluationContext` prices mappings under the communication
  weighted model (equation 3) straight off the precomputed
  :class:`~repro.eval.route_table.RouteTable` bit-energy table, and supports
  exact swap deltas — CWM cost is a sum of independent per-edge terms, so a
  tile swap only reprices the edges incident to the two moved cores;
* :class:`CdcmEvaluationContext` prices mappings under the communication
  dependence and computation model.  Contention makes CDCM cost global (a
  swap can reshuffle every packet's serialisation), so full evaluations keep
  the complete replay — but swap deltas are priced by the *bounded repair*
  engine (:mod:`repro.eval.repair`) behind the ``repair`` gate: only the
  packets a swap can plausibly affect are rescheduled against a frozen
  background, with periodic full-replay resyncs bounding the drift.  The
  gate is default-on (:data:`~repro.eval.repair.DEFAULT_REPAIR`) and pinned
  off by :class:`~repro.analysis.comparison.ComparisonConfig`, mirroring
  ``use_delta``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from repro.core.cdcm import CdcmEvaluator, CdcmReport
from repro.core.mapping import Mapping
from repro.core.metrics import (
    CDCM_METRIC_NAMES,
    CWM_METRIC_NAMES,
    MetricVector,
    scalarisation_weights,
)
from repro.energy.technology import Technology
from repro.eval.route_table import (
    RouteTable,
    get_route_table,
    is_shared_route_table,
)
from repro.eval.repair import DEFAULT_REPAIR, CdcmRepairEngine, RepairPolicy
from repro.eval.vector import VectorizedCwmKernel
from repro.graphs.cdcg import CDCG
from repro.graphs.cwg import CWG
from repro.noc.platform import Platform
from repro.utils.errors import ConfigurationError, MappingError

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    from repro.eval.parallel import BatchBackend

#: Default size of the per-context cost memo.
DEFAULT_CACHE_SIZE = 4096


class CacheInfo(NamedTuple):
    """Statistics of a context's cost memo (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    currsize: int
    maxsize: int


class EvaluationContext(ABC):
    """Shared pricing interface for all mapping search engines.

    Subclasses implement :meth:`_compute_metrics` (the full per-mapping
    component vector) and declare :attr:`metric_names` plus a default
    :attr:`weights` view; the base class provides the LRU vector memo, the
    derived scalar operations, batch evaluation (optionally fanned out over
    a :class:`~repro.eval.parallel.BatchBackend`) and the (optional) delta
    protocol.  Engines discover delta support through the ``supports_delta``
    attribute — see :func:`repro.search.base.delta_callable` — and batch
    support through ``supports_batch`` / :func:`repro.search.base.batch_callable`;
    Pareto tooling consumes the vector half of the protocol
    (:meth:`metrics` / :meth:`evaluate_metrics_batch`).

    Parameters
    ----------
    cache_size:
        Size of the metric-vector memo (0 disables memoisation).
    backend:
        Default :class:`~repro.eval.parallel.BatchBackend` used by
        :meth:`evaluate_batch`; ``None`` prices batches inline.
    """

    #: Human-readable identifier used in reports and benchmark tables.
    name: str = "context"

    #: Whether :meth:`delta` returns exact incremental costs.
    supports_delta: bool = False

    #: Whether :meth:`metric_delta` returns exact per-component deltas
    #: (the capability scalarisation views need to re-weight swap pricing).
    supports_metric_delta: bool = False

    #: Whether inline (backend-free) batches should be deduplicated and
    #: priced through :meth:`_compute_metrics_chunk` instead of per-candidate
    #: :meth:`metrics` calls.  Contexts with an array pricing path (see
    #: :mod:`repro.eval.vector`) set this; the base default keeps the
    #: per-candidate inline path.
    _chunked_inline: bool = False

    #: Names of the components :meth:`metrics` produces, in scalarisation
    #: accumulation order.  Set by concrete subclasses.
    metric_names: Tuple[str, ...] = ()

    #: The weight view :meth:`cost` applies to memoised vectors.  Set by
    #: concrete subclasses; treat as read-only.
    weights: Dict[str, float] = {}

    def __init__(
        self,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: Optional["BatchBackend"] = None,
    ) -> None:
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be non-negative, got {cache_size}"
            )
        self._cache_size = cache_size
        self._backend = backend
        self._memo: "OrderedDict[Mapping, MetricVector]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    @property
    def backend(self) -> Optional["BatchBackend"]:
        """The default batch backend (``None`` means inline pricing)."""
        return self._backend

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of *mapping*, memoised.

        This is the primitive every other pricing operation derives from:
        :meth:`cost` scalarises the result with the context's
        :attr:`weights`, and scalarisation views
        (:class:`~repro.core.objective.ScalarisedObjective`) apply their own
        weight vectors to the *same* memoised vectors — so sweeping K weight
        vectors over an already-priced population costs zero additional
        pricing passes.
        """
        if self._cache_size == 0 or not isinstance(mapping, Mapping):
            self._misses += 1
            return self._compute_metrics(mapping)
        memo = self._memo
        vector = memo.get(mapping)
        if vector is None:
            self._misses += 1
            vector = self._compute_metrics(mapping)
            memo[mapping] = vector
            if len(memo) > self._cache_size:
                memo.popitem(last=False)
        else:
            self._hits += 1
            memo.move_to_end(mapping)
        return vector

    def cost(self, mapping: Union[Mapping, Dict[str, int]]) -> float:
        """Scalar objective value of *mapping* (lower is better), memoised.

        Derived: the context's :attr:`weights` applied to
        :meth:`metrics` — bit-identical to the pre-vector scalar memo for
        the default single-metric weight views.
        """
        return self._scalarise(self.metrics(mapping))

    def _scalarise(self, vector: MetricVector) -> float:
        """Apply the context's weight view to a component vector."""
        if not self.weights:
            # An empty view would silently price every mapping at 0.0 — a
            # subclass forgot to set self.weights in its constructor.
            raise ConfigurationError(
                f"{type(self).__name__} defines no scalarisation weights; "
                f"set self.weights (a non-empty {{metric_name: weight}} "
                f"dict over metric_names) in the constructor"
            )
        return vector.weighted_sum(self.weights, strict=False)

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Exact cost change of ``mapping.swap_tiles(tile_a, tile_b)``.

        Only available when ``supports_delta`` is True; the base class always
        raises so engines that ignore the capability flag fail loudly instead
        of silently pricing with a wrong model.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental delta "
            f"evaluation; check supports_delta before calling delta()"
        )

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Exact per-component change of ``mapping.swap_tiles(tile_a, tile_b)``.

        Only available when ``supports_metric_delta`` is True; scalarisation
        views use it to re-weight incremental swap pricing without a full
        re-evaluation.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental metric-delta "
            f"evaluation; check supports_metric_delta before calling "
            f"metric_delta()"
        )

    def scalarised(
        self, weights: Dict[str, float], name: Optional[str] = None
    ):
        """A :class:`~repro.core.objective.ScalarisedObjective` view over this context.

        The view shares this context's memo: sweeping several weight vectors
        re-uses one pricing pass per unique candidate.
        """
        from repro.core.objective import ScalarisedObjective

        return ScalarisedObjective(self, weights, name=name)

    def evaluate_metrics_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend: Optional["BatchBackend"] = None,
    ) -> List[MetricVector]:
        """Component vectors of several candidates in one call (shares the memo).

        Candidates already in the memo are answered from it; the misses are
        deduplicated and priced as one chunk — by the backend when one is
        active, else inline through :meth:`_compute_metrics_chunk` (which the
        vectorised CWM context turns into a single array-kernel call) — then
        written back to the memo.  Vectors are bit-identical to per-candidate
        :meth:`metrics` calls regardless of the backend — only *where* the
        arithmetic runs changes.

        Parameters
        ----------
        mappings:
            Candidates to price (:class:`~repro.core.mapping.Mapping`
            objects or plain assignment dicts).
        backend:
            Override of the context's default backend for this call; with
            both ``None`` the batch is priced inline.

        Returns
        -------
        list of MetricVector
            One component vector per candidate, in input order.
        """
        active = backend if backend is not None else self._backend
        if active is None and not self._chunked_inline:
            return [self.metrics(mapping) for mapping in mappings]

        items = list(mappings)
        memo = self._memo
        use_memo = self._cache_size > 0
        vectors: List[Optional[MetricVector]] = [None] * len(items)
        # Unique misses in first-seen order; duplicate Mappings collapse to
        # one computation (dict candidates are not hashable, so each prices
        # on its own).
        unique: List[Any] = []
        targets: List[List[int]] = []
        seen: Dict[Mapping, int] = {}
        for index, mapping in enumerate(items):
            if isinstance(mapping, Mapping):
                if use_memo:
                    cached = memo.get(mapping)
                    if cached is not None:
                        self._hits += 1
                        memo.move_to_end(mapping)
                        vectors[index] = cached
                        continue
                slot = seen.get(mapping)
                if slot is not None:
                    targets[slot].append(index)
                    continue
                seen[mapping] = len(unique)
            unique.append(mapping)
            targets.append([index])
        if unique:
            computed = (
                self._compute_metrics_chunk(unique)
                if active is None
                else active.evaluate_metrics(self, unique)
            )
            for mapping, vector, indices in zip(unique, computed, targets):
                self._misses += 1
                for index in indices:
                    vectors[index] = vector
                if use_memo and isinstance(mapping, Mapping):
                    memo[mapping] = vector
                    if len(memo) > self._cache_size:
                        memo.popitem(last=False)
        return vectors  # type: ignore[return-value]  # every slot is filled

    def evaluate_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend: Optional["BatchBackend"] = None,
    ) -> List[float]:
        """Price several candidates in one call (shares the memo).

        The scalar view of :meth:`evaluate_metrics_batch`: component vectors
        are priced (or recalled) once and scalarised with the context's
        :attr:`weights`.  Costs are bit-identical to per-candidate
        :meth:`cost` calls regardless of the backend — only *where* the
        arithmetic runs changes.

        Parameters
        ----------
        mappings:
            Candidates to price (:class:`~repro.core.mapping.Mapping`
            objects or plain assignment dicts).
        backend:
            Override of the context's default backend for this call; with
            both ``None`` the batch is priced inline.

        Returns
        -------
        list of float
            One cost per candidate, in input order.
        """
        active = backend if backend is not None else self._backend
        if active is None:
            return [self.cost(mapping) for mapping in mappings]
        return [
            self._scalarise(vector)
            for vector in self.evaluate_metrics_batch(mappings, backend=active)
        ]

    def _compute_cost(self, mapping: Union[Mapping, Dict[str, int]]) -> float:
        """Uncached objective value of *mapping* (derived from the vector)."""
        return self._scalarise(self._compute_metrics(mapping))

    @abstractmethod
    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        """Uncached component vector of *mapping*."""

    def _compute_metrics_chunk(
        self, mappings: Sequence[Union[Mapping, Dict[str, int]]]
    ) -> List[MetricVector]:
        """Uncached vectors of a chunk of candidates, in order.

        The unit of work of batch pricing: backends
        (:class:`~repro.eval.parallel.SerialBackend` inline, each
        :class:`~repro.eval.parallel.ProcessPoolBackend` worker per task) and
        the inline dedup path all price misses through this method.  The base
        implementation loops per candidate; contexts with an array pricing
        path (:class:`CwmEvaluationContext`) override it to price the whole chunk with one kernel call —
        bit-identical by construction, so *where* a chunk is priced never
        changes a value.
        """
        return [self._compute_metrics(mapping) for mapping in mappings]

    # ------------------------------------------------------------------
    # Memo bookkeeping
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the cost memo."""
        return CacheInfo(self._hits, self._misses, len(self._memo), self._cache_size)

    def clear_cache(self) -> None:
        """Drop all memoised costs and zero the statistics."""
        self._memo.clear()
        self._hits = 0
        self._misses = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CwmEvaluationContext(EvaluationContext):
    """Route-table-backed CWM pricing with exact O(degree) swap deltas.

    Parameters
    ----------
    cwg:
        Application communication graph.
    platform:
        Target architecture; supplies mesh, routing and technology.
    include_local:
        Whether local core-router links contribute ``ECbit`` per bit.
    route_table:
        Optional pre-built table (must match *platform* and *include_local*);
        by default the process-wide shared table is used.
    cache_size:
        Size of the cost memo (0 disables it).
    backend:
        Default :class:`~repro.eval.parallel.BatchBackend` for
        :meth:`EvaluationContext.evaluate_batch`; ``None`` prices inline.
    Notes
    -----
    Batch misses are priced by the NumPy array kernel
    (:class:`~repro.eval.vector.VectorizedCwmKernel`), which is
    bit-identical to the per-candidate scalar loop by construction;
    per-candidate pricing (:meth:`cost`, :meth:`metrics`, :meth:`delta`)
    stays scalar and is the reference the kernel is tested against.

    Pickling is *light*: the memo and the backend are always dropped, and
    the process-shared route table is dropped too — the unpickled context
    rebuilds an identical one via
    :func:`~repro.eval.route_table.get_route_table` (the contract the
    process-pool backend relies on).  A *custom* table (one that is not the
    shared instance, e.g. built for a stateful routing algorithm) travels
    with the pickle so pooled pricing stays bit-identical to serial.
    """

    supports_delta = True
    supports_metric_delta = True
    _chunked_inline = True
    metric_names = CWM_METRIC_NAMES

    def __init__(
        self,
        cwg: CWG,
        platform: Platform,
        include_local: bool = True,
        route_table: Optional[RouteTable] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: Optional["BatchBackend"] = None,
    ) -> None:
        super().__init__(cache_size, backend)
        self.cwg = cwg
        self.platform = platform
        self.include_local = include_local
        self.route_table = (
            route_table
            if route_table is not None
            else get_route_table(platform, include_local=include_local)
        )
        self.name = f"cwm({cwg.name})"
        self.weights = {"dynamic_energy": 1.0}
        # The kernel binds lazily on the first chunk: building it densifies
        # lazy route tables, which sparse per-candidate use should not pay.
        self._kernel: Optional[VectorizedCwmKernel] = None
        # Flat edge arrays: iterating tuples beats re-walking the CWG object
        # graph on every evaluation, and edge indices give delta() a compact
        # per-core incidence list.
        self._edges: List[Tuple[str, str, int]] = [
            (comm.source, comm.target, comm.bits) for comm in cwg.communications()
        ]
        incident: Dict[str, List[int]] = {}
        for index, (source, target, _) in enumerate(self._edges):
            incident.setdefault(source, []).append(index)
            incident.setdefault(target, []).append(index)
        self._incident = incident
        self._flat_energy = self.route_table.flat_bit_energy()

    # ------------------------------------------------------------------
    # Pickling (picklable-light: workers rebuild tables locally)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # The shared table is dropped (the worker rebuilds an identical one);
        # a custom table must travel, or pooled pricing could silently
        # diverge from serial pricing for non-standard routing.
        shared = is_shared_route_table(
            self.route_table, self.platform, self.include_local
        )
        return {
            "cwg": self.cwg,
            "platform": self.platform,
            "include_local": self.include_local,
            "cache_size": self._cache_size,
            "route_table": None if shared else self.route_table,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]  # rebuild = re-run the constructor
            state["cwg"],
            state["platform"],
            include_local=state["include_local"],
            route_table=state.get("route_table"),
            cache_size=state["cache_size"],
        )

    # ------------------------------------------------------------------
    def _tile_assignments(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> Dict[str, int]:
        n = self.route_table.num_tiles
        if isinstance(mapping, Mapping):
            tiles = mapping.assignments()
            if mapping.num_tiles == n:
                return tiles  # already range-checked at construction
        else:
            tiles = dict(mapping)
        for core, tile in tiles.items():
            if not 0 <= tile < n:
                raise MappingError(
                    f"core {core!r} mapped to tile {tile}, outside the "
                    f"{n}-tile {self.platform.mesh}"
                )
        return tiles

    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        # Equation 3 over snapshot edge arrays — the hot-loop twin of
        # :meth:`repro.core.cwm.CwmEvaluator.cost`, which prices per call from
        # the live (mutable) CWG and therefore cannot bind these arrays.  The
        # two are kept value-identical by construction (same route table,
        # same edge order) and pinned by tests/test_eval.py.
        tiles = self._tile_assignments(mapping)
        n = self.route_table.num_tiles
        energy = self._flat_energy
        total = 0.0
        try:
            if energy is not None:
                for source, target, bits in self._edges:
                    total += bits * energy[tiles[source] * n + tiles[target]]
            else:
                bit_energy = self.route_table.bit_energy
                for source, target, bits in self._edges:
                    total += bits * bit_energy(tiles[source], tiles[target])
        except KeyError as exc:
            raise MappingError(
                f"mapping does not place core {exc.args[0]!r} of application "
                f"{self.cwg.name!r}"
            ) from exc
        return MetricVector(CWM_METRIC_NAMES, (total,))

    def vector_kernel(self) -> VectorizedCwmKernel:
        """The context's array pricing kernel (built on first use).

        Bound to the same edge snapshot, route table and accumulation order
        as :meth:`_compute_metrics`, so kernel prices are bit-identical to
        scalar prices.  Building the kernel densifies a lazy route table
        (:meth:`~repro.eval.route_table.RouteTable.warm_dense`), which is why
        it is deferred to the first batch rather than paid at construction.
        """
        kernel = self._kernel
        if kernel is None:
            kernel = VectorizedCwmKernel.from_edges(
                self._edges,
                self.route_table,
                sorted(self.cwg.cores),
                name=f"cwm-kernel({self.cwg.name})",
            )
            self._kernel = kernel
        return kernel

    def _compute_metrics_chunk(
        self, mappings: Sequence[Union[Mapping, Dict[str, int]]]
    ) -> List[MetricVector]:
        """Chunk pricing: one kernel gather per chunk.

        Candidates are validated exactly like the scalar path (same
        :class:`~repro.utils.errors.MappingError` conditions), stacked into a
        ``(pop, cores)`` array and priced by :meth:`vector_kernel` in one
        call.
        """
        items = list(mappings)
        if not items:
            return []
        kernel = self.vector_kernel()
        order = kernel.core_order
        required = kernel.required_cores
        rows = np.zeros((len(items), len(order)), dtype=np.int64)
        for row, mapping in enumerate(items):
            tiles = self._tile_assignments(mapping)
            try:
                rows[row] = [tiles[core] for core in order]
            except KeyError:
                # Isolated cores (no incident edges) may be unplaced — the
                # scalar accumulator never reads them, so neither do we.
                for column, core in enumerate(order):
                    tile = tiles.get(core)
                    if tile is None:
                        if core in required:
                            raise MappingError(
                                f"mapping does not place core {core!r} of "
                                f"application {self.cwg.name!r}"
                            )
                        continue
                    rows[row, column] = tile
        return [
            MetricVector(CWM_METRIC_NAMES, (total,))
            for total in kernel.price(rows)
        ]

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Exact CWM cost change of swapping the contents of two tiles.

        Only the CWG edges incident to the cores on ``tile_a``/``tile_b`` can
        change price, so the swap is priced in O(degree) — the enabler of the
        fast annealing path.  Either tile may be empty; swapping two empty
        tiles (or a tile with itself) costs exactly 0.
        """
        if not isinstance(mapping, Mapping):
            mapping = Mapping(mapping)
        n = self.route_table.num_tiles
        for tile in (tile_a, tile_b):
            if not 0 <= tile < n:
                raise MappingError(
                    f"tile {tile} outside the {n}-tile {self.platform.mesh}"
                )
        if tile_a == tile_b:
            return 0.0
        core_a = mapping.core_at(tile_a)
        core_b = mapping.core_at(tile_b)
        if core_a is None and core_b is None:
            return 0.0
        moved: Dict[str, int] = {}
        if core_a is not None:
            moved[core_a] = tile_b
        if core_b is not None:
            moved[core_b] = tile_a

        incident = self._incident
        if core_a is not None:
            edge_ids = list(incident.get(core_a, ()))
            if core_b is not None:
                seen = set(edge_ids)
                edge_ids.extend(
                    i for i in incident.get(core_b, ()) if i not in seen
                )
        else:
            edge_ids = list(incident.get(core_b, ()))

        edges = self._edges
        energy = self._flat_energy
        bit_energy = self.route_table.bit_energy
        total = 0.0
        for index in edge_ids:
            source, target, bits = edges[index]
            old_source = mapping.tile_of(source)
            old_target = mapping.tile_of(target)
            new_source = moved.get(source, old_source)
            new_target = moved.get(target, old_target)
            if new_source == old_source and new_target == old_target:
                continue
            if energy is not None:
                total += bits * (
                    energy[new_source * n + new_target]
                    - energy[old_source * n + old_target]
                )
            else:
                total += bits * (
                    bit_energy(new_source, new_target)
                    - bit_energy(old_source, old_target)
                )
        return total

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Per-component variant of :meth:`delta` (one component under CWM).

        Scalarisation views re-weight this vector instead of calling
        :meth:`delta`, so a view with a non-unit weight still prices swaps in
        O(degree).
        """
        return MetricVector(
            CWM_METRIC_NAMES, (self.delta(mapping, tile_a, tile_b),)
        )


class CdcmEvaluationContext(EvaluationContext):
    """Memoised CDCM pricing over the shared route table.

    Full evaluations keep the complete schedule replay — contention couples
    every packet, and the replay is accelerated by the shared
    :class:`~repro.eval.route_table.RouteTable` inside the scheduler.  Swap
    deltas, however, are priced incrementally by the *bounded repair* engine
    (:class:`~repro.eval.repair.CdcmRepairEngine`) when the ``repair`` gate
    is on: only the packets a swap can affect are rescheduled against a
    frozen background, with periodic full-replay resyncs bounding the drift
    (see :class:`~repro.eval.repair.RepairPolicy`).

    Parameters
    ----------
    cdcg:
        Packet-level application model.
    platform:
        Target architecture.
    metric:
        ``"energy"`` (equation 10, the default), ``"time"`` or
        ``"weighted"`` — see :class:`~repro.core.cdcm.CdcmEvaluator`.
    energy_weight, time_weight:
        Scalarisation weights for the ``"weighted"`` metric.
    include_local:
        Whether local core-router links contribute to dynamic energy.
    route_table:
        Optional pre-built shared table.
    cache_size:
        Size of the cost memo (0 disables it).
    backend:
        Default :class:`~repro.eval.parallel.BatchBackend` for
        :meth:`EvaluationContext.evaluate_batch`; CDCM replays are orders of
        magnitude more expensive than CWM sums, which makes this context the
        main beneficiary of a process pool.
    repair:
        Whether :meth:`delta` / :meth:`metric_delta` are available, priced
        by the bounded-repair engine.  ``None`` (the default) follows
        :data:`~repro.eval.repair.DEFAULT_REPAIR` — on, the right choice
        for swap-based search (deltas are exact at every resync point and
        drift-bounded between them).
        :class:`~repro.analysis.comparison.ComparisonConfig` pins it off so
        the paper-reproduction rows keep pure full-replay pricing,
        mirroring the ``use_delta`` convention.  Full
        evaluations (:meth:`EvaluationContext.cost`,
        :meth:`EvaluationContext.metrics`, batches) always stay full-replay.
    repair_policy:
        Optional :class:`~repro.eval.repair.RepairPolicy` overriding the
        default resync/drift contract of the repair engine.

    Notes
    -----
    Pickling is *light*: the memo, backend and repair engine *state* are
    dropped (the ``repair`` gate and policy travel, so an unpickled context
    reprices swaps the same way), the shared route table is rebuilt by the
    unpickling process, and a custom table travels with the pickle (see
    :class:`CwmEvaluationContext`).
    """

    supports_delta = False
    metric_names = CDCM_METRIC_NAMES

    def __init__(
        self,
        cdcg: CDCG,
        platform: Platform,
        metric: str = "energy",
        energy_weight: float = 1.0,
        time_weight: float = 0.0,
        include_local: bool = True,
        route_table: Optional[RouteTable] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: Optional["BatchBackend"] = None,
        repair: Optional[bool] = None,
        repair_policy: Optional[RepairPolicy] = None,
    ) -> None:
        super().__init__(cache_size, backend)
        self.cdcg = cdcg
        self.platform = platform
        self.evaluator = CdcmEvaluator(
            platform,
            metric=metric,
            energy_weight=energy_weight,
            time_weight=time_weight,
            include_local=include_local,
            route_table=route_table,
        )
        self.name = f"cdcm({cdcg.name},{metric})"
        self.weights = scalarisation_weights(metric, energy_weight, time_weight)
        self.repair = DEFAULT_REPAIR if repair is None else bool(repair)
        self.repair_policy = repair_policy
        # Instance-level capability flags shadow the class defaults so
        # engines discover delta support per gate state.
        self.supports_delta = self.repair
        self.supports_metric_delta = self.repair
        # The engine binds lazily on the first delta: building it replays
        # nothing, but batch-only users should not even pay the allocation.
        self._repair_engine: Optional[CdcmRepairEngine] = None

    # ------------------------------------------------------------------
    # Pickling (picklable-light: workers rebuild tables locally)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        evaluator = self.evaluator
        # Same custom-table rule as CwmEvaluationContext: the replay
        # scheduler's table ships only when it is not the shared one.
        table = evaluator.route_table
        shared = is_shared_route_table(table, self.platform)
        return {
            "cdcg": self.cdcg,
            "platform": self.platform,
            "metric": evaluator.metric,
            "energy_weight": evaluator.energy_weight,
            "time_weight": evaluator.time_weight,
            "include_local": evaluator.include_local,
            "cache_size": self._cache_size,
            "route_table": None if shared else table,
            "repair": self.repair,
            "repair_policy": self.repair_policy,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]  # rebuild = re-run the constructor
            state["cdcg"],
            state["platform"],
            metric=state["metric"],
            energy_weight=state["energy_weight"],
            time_weight=state["time_weight"],
            include_local=state["include_local"],
            route_table=state.get("route_table"),
            cache_size=state["cache_size"],
            repair=state.get("repair"),
            repair_policy=state.get("repair_policy"),
        )

    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        return self.evaluator.metrics(self.cdcg, mapping)

    def repair_engine(self) -> CdcmRepairEngine:
        """The context's bounded-repair engine (built on first use).

        Raises
        ------
        ConfigurationError
            When the ``repair`` gate is off — callers must check
            ``supports_metric_delta`` first, like any delta consumer.
        """
        if not self.repair:
            raise ConfigurationError(
                f"{self.name}: the repair gate is off; construct the context "
                f"with repair=True to price swap deltas incrementally"
            )
        engine = self._repair_engine
        if engine is None:
            engine = CdcmRepairEngine(
                self.cdcg,
                self.platform,
                route_table=self.evaluator.route_table,
                include_local=self.evaluator.include_local,
                weights=self.weights,
                policy=self.repair_policy,
            )
            self._repair_engine = engine
        return engine

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Per-component change of ``mapping.swap_tiles(tile_a, tile_b)``, repaired.

        Priced by the bounded-repair engine: exact at every resync point
        (and whenever the repair frontier is empty), drift-bounded in
        between — see :mod:`repro.eval.repair` for the contract.  Raises
        :class:`NotImplementedError` when the ``repair`` gate is off, like
        any context without delta support.
        """
        if not self.repair:
            return super().metric_delta(mapping, tile_a, tile_b)
        return self.repair_engine().metric_delta(mapping, tile_a, tile_b)

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Scalar view of :meth:`metric_delta` under the context's weights.

        What swap-based engines (annealing, greedy) consume through
        :func:`repro.search.base.delta_callable`; subject to the same
        exact-at-resync / bounded-between contract as :meth:`metric_delta`.
        """
        if not self.repair:
            return super().delta(mapping, tile_a, tile_b)
        return self.metric_delta(mapping, tile_a, tile_b).weighted_sum(
            self.weights, strict=False
        )

    def evaluate(
        self,
        mapping: Union[Mapping, Dict[str, int]],
        technology: Optional[Technology] = None,
    ) -> CdcmReport:
        """Full CDCM report of a mapping (uncached — reports carry schedules)."""
        return self.evaluator.evaluate(self.cdcg, mapping, technology)


__all__ = [
    "DEFAULT_CACHE_SIZE",
    "CacheInfo",
    "EvaluationContext",
    "CwmEvaluationContext",
    "CdcmEvaluationContext",
]
