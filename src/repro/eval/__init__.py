"""repro.eval — the shared mapping-evaluation engine.

This package is the pricing hot path of the whole reproduction.  Every search
engine (simulated annealing, exhaustive, random, genetic, greedy) explores the
space of core-to-tile mappings and needs each candidate priced as cheaply as
possible; the paper's CPU-time story (Section 5, "CDCM costs at most 23 % more
CPU time than CWM") and the ROADMAP's large-NoC sweeps both live or die on
that cost.  The engine is split into a static and a dynamic half:

* :class:`~repro.eval.route_table.RouteTable` (static) — for one platform,
  precomputes the router path, inter-router link list, hop count ``K`` and
  per-bit route energy ``EBit_ij`` of every ``(source_tile, target_tile)``
  pair.  Shared process-wide via
  :func:`~repro.eval.route_table.get_route_table`, and consumed by the CWM
  evaluator, the CDCM scheduler, the greedy constructor and the benchmarks.
* :class:`~repro.eval.context.EvaluationContext` (dynamic) — binds an
  application to a platform and prices mappings: ``cost(mapping)`` with an
  LRU memo keyed by the mapping assignment, ``delta(mapping, tile_a, tile_b)``
  (exact incremental cost of a tile swap, when the model supports it) and
  ``evaluate_batch(mappings)``.

Model-specific contexts:

* :class:`~repro.eval.context.CwmEvaluationContext` — CWM cost is a sum of
  independent per-edge terms, so a tile swap reprices only the CWG edges
  incident to the two moved cores: ``delta`` is exact and O(degree), which is
  what lets simulated annealing skip the full re-evaluation on every move;
* :class:`~repro.eval.context.CdcmEvaluationContext` — CDCM cost is global
  (contention couples all packets), so ``cost`` keeps the full schedule
  replay (plus route table and memo) while swap deltas go through the
  *bounded repair* engine of :mod:`repro.eval.repair` behind the ``repair``
  gate: only the packets a swap can actually disturb are rescheduled
  against a frozen background, exact at every resync point and
  drift-bounded in between.

A third, parallel half (:mod:`repro.eval.parallel`) makes ``evaluate_batch``
pluggable: a :class:`~repro.eval.parallel.BatchBackend` decides where the
uncached candidates of a batch are priced —
:class:`~repro.eval.parallel.SerialBackend` inline,
:class:`~repro.eval.parallel.ProcessPoolBackend` across a process pool
(contexts pickle light; workers rebuild route tables locally).  The same pool
shards eager route-table construction by source row
(:func:`~repro.eval.parallel.warm_route_table`) for >16x16 NoC sweeps.

A fourth, vectorised half (:mod:`repro.eval.vector`) moves batch pricing onto
NumPy: :class:`~repro.eval.vector.VectorizedCwmKernel` binds an application
as flat edge arrays over the route table's dense matrices
(:meth:`~repro.eval.route_table.RouteTable.as_arrays`) and prices a whole
``(pop, cores)`` population per call — bit-identical to the scalar
accumulator, so every CWM batch miss is priced through it.

A fifth, incremental half (:mod:`repro.eval.repair`) gives the CDCM model a
swap delta after all: :class:`~repro.eval.repair.CdcmRepairEngine` keeps the
per-resource occupation indices of the current mapping incrementally updated
and prices a two-tile swap by replaying only the packets the swap can
disturb, with a running drift estimate and periodic full-replay resyncs
(:class:`~repro.eval.repair.RepairPolicy`) — default-on for search
(:data:`~repro.eval.repair.DEFAULT_REPAIR`) and pinned off by the
paper-reproduction comparison config, like ``use_delta``.

Search engines discover delta support through the objective's
``supports_delta`` attribute (see :func:`repro.search.base.delta_callable`),
batch support through ``supports_batch`` (see
:func:`repro.search.base.batch_callable`), and fall back to full evaluation
otherwise, so custom objectives keep working unchanged.
"""

from repro.eval.route_table import (
    RouteTable,
    clear_route_table_cache,
    get_route_table,
    register_route_table,
)
from repro.eval.context import (
    DEFAULT_CACHE_SIZE,
    CacheInfo,
    CdcmEvaluationContext,
    CwmEvaluationContext,
    EvaluationContext,
)
from repro.eval.parallel import (
    BatchBackend,
    ProcessPoolBackend,
    SerialBackend,
    warm_route_table,
)
from repro.eval.repair import (
    DEFAULT_REPAIR,
    CdcmRepairEngine,
    RepairOutcome,
    RepairPolicy,
    RepairStats,
)
from repro.eval.vector import (
    VectorizedCwmKernel,
    array_to_mappings,
    population_to_array,
)

__all__ = [
    "RouteTable",
    "get_route_table",
    "register_route_table",
    "clear_route_table_cache",
    "DEFAULT_CACHE_SIZE",
    "CacheInfo",
    "EvaluationContext",
    "CwmEvaluationContext",
    "CdcmEvaluationContext",
    "BatchBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "warm_route_table",
    "VectorizedCwmKernel",
    "population_to_array",
    "array_to_mappings",
    "DEFAULT_REPAIR",
    "CdcmRepairEngine",
    "RepairOutcome",
    "RepairPolicy",
    "RepairStats",
]
