"""repro.eval — the shared mapping-evaluation engine.

This package is the pricing hot path of the whole reproduction.  Every search
engine (simulated annealing, exhaustive, random, genetic, greedy) explores the
space of core-to-tile mappings and needs each candidate priced as cheaply as
possible; the paper's CPU-time story (Section 5, "CDCM costs at most 23 % more
CPU time than CWM") and the ROADMAP's large-NoC sweeps both live or die on
that cost.  The engine is split into a static and a dynamic half:

* :class:`~repro.eval.route_table.RouteTable` (static) — for one platform,
  builds the hop count ``K``, the per-bit route energy ``EBit_ij`` and the
  inter-router links (one CSR over link ids, decoded per pair into paths and
  link lists) of every ``(source_tile, target_tile)`` pair, in NumPy, by
  chasing the routing's next-hop matrix.  Shared process-wide via
  :func:`~repro.eval.route_table.get_route_table`, and consumed by the CWM
  evaluator, the CDCM scheduler, the greedy constructor and the benchmarks.
* :class:`~repro.eval.context.EvaluationContext` (dynamic) — binds an
  application to a platform and prices mappings: ``metrics(mapping)`` (the
  named component vector) with an LRU memo keyed by the mapping assignment,
  ``evaluate_metrics_batch(mappings)`` (one deduplicated pass over a batch),
  the scalar views ``cost(mapping, weights=None)`` and
  ``evaluate_batch(mappings)`` derived from them, and
  ``delta(mapping, tile_a, tile_b)`` — the exact change of the context's
  ``delta_metric`` under a tile swap, when the model has one.

Model-specific contexts:

* :class:`~repro.eval.context.CwmEvaluationContext` — CWM cost is a sum of
  independent per-edge terms, so a tile swap reprices only the CWG edges
  incident to the two moved cores: ``delta`` is exact and O(degree), which is
  what lets simulated annealing skip the full re-evaluation on every move;
* :class:`~repro.eval.context.CdcmEvaluationContext` — CDCM cost is global
  (contention couples all packets), so every ``cost`` is a complete replay,
  run trace-free by :meth:`~repro.noc.scheduler.CdcmScheduler.price` (plus
  route table and memo); there is no swap delta.

A third, parallel half (:mod:`repro.eval.parallel`) makes
``evaluate_metrics_batch`` pluggable: a
:class:`~repro.eval.parallel.BatchBackend` decides where the uncached
candidates of a batch are priced —
:class:`~repro.eval.parallel.SerialBackend` inline,
:class:`~repro.eval.parallel.ProcessPoolBackend` across a process pool
(contexts pickle light; workers rebuild route tables locally).

A fourth, vectorised half (:mod:`repro.eval.vector`) moves batch pricing onto
NumPy: :class:`~repro.eval.vector.VectorizedCwmKernel` binds an application
as flat edge arrays over the route table's dense matrices
(:meth:`~repro.eval.route_table.RouteTable.as_arrays`) and prices a whole
``(pop, cores)`` population per call — bit-identical to the scalar
accumulator, so every CWM batch miss is priced through it.

Search engines price through :class:`~repro.core.objective.ScalarisedObjective`
views and discover delta support through the objective's ``supports_delta``
attribute (see :func:`repro.search.base.delta_callable`), batch support
through ``supports_batch`` (see :func:`repro.search.base.batch_callable`),
and fall back to full evaluation otherwise, so custom objectives keep working
unchanged.
"""

from repro.eval.route_table import (
    RouteTable,
    clear_route_table_cache,
    get_route_table,
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
)
from repro.eval.vector import (
    VectorizedCwmKernel,
    array_to_mappings,
    population_to_array,
)

__all__ = [
    "RouteTable",
    "get_route_table",
    "clear_route_table_cache",
    "DEFAULT_CACHE_SIZE",
    "CacheInfo",
    "EvaluationContext",
    "CwmEvaluationContext",
    "CdcmEvaluationContext",
    "BatchBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "VectorizedCwmKernel",
    "population_to_array",
    "array_to_mappings",
]
