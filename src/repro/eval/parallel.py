"""Pluggable batch-pricing backends — the parallel half of the evaluation engine.

:meth:`repro.eval.context.EvaluationContext.evaluate_metrics_batch` is the
seam every population-based engine prices through (GA generations, exhaustive
chunks, NSGA fronts, weight sweeps).  This module makes that seam pluggable:
a :class:`BatchBackend` decides *where* the uncached candidates of a batch
are priced —

* :class:`SerialBackend` prices them inline in the calling process (the
  default, and the reference semantics);
* :class:`ProcessPoolBackend` fans them out over a ``concurrent.futures``
  process pool.  Contexts are *picklable-light*: pickling drops the memo, the
  backend and the route table, and each worker rebuilds the table locally
  through the process-wide :func:`~repro.eval.route_table.get_route_table`
  cache — so tasks ship only the application graph and the candidate
  mappings, never the O(n^2) route arrays.

Both backends are bit-identical by construction: they run the same
``_compute_metrics_chunk`` code on the same inputs, and the caller reassembles
results in submission order, so a seeded search returns the same mapping and
the same cost no matter which backend priced it (pinned by
``tests/test_parallel.py``).

A pool whose worker dies (killed, out of memory) is *broken*: every later
submission raises :class:`~concurrent.futures.process.BrokenProcessPool`.
:class:`ProcessPoolBackend` heals itself — it drops the broken pool, builds a
new one and re-submits the batch's tasks (pricing is idempotent), up to
:data:`POOL_RETRY_LIMIT` times per batch.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.eval.context import EvaluationContext

#: Tokens identifying contexts across the process boundary.  Monotonic within
#: the parent process, so a worker's per-token cache can never confuse two
#: different contexts (unlike ``id()``, which the allocator reuses).
_TOKEN_COUNTER = itertools.count(1)

#: How many times one batch is re-submitted to a rebuilt pool after the pool
#: broke (a worker process died) before the error reaches the caller.
POOL_RETRY_LIMIT = 1

#: How many unpickled contexts each worker process keeps alive.
_WORKER_CONTEXT_LIMIT = 8

#: Per-worker cache of rebuilt contexts, keyed by the parent-side token.
_WORKER_CONTEXTS: "OrderedDict[int, EvaluationContext]" = OrderedDict()


def _worker_context(token: int, payload: bytes) -> "EvaluationContext":
    """Resolve one task's context from the per-worker cache (unpickle on miss).

    The pickled context travels with every task (any worker may see a token
    first), but unpickling — which rebuilds the route table and the edge
    arrays — only happens on a per-worker cache miss.
    """
    context = _WORKER_CONTEXTS.get(token)
    if context is None:
        context = pickle.loads(payload)
        _WORKER_CONTEXTS[token] = context
        while len(_WORKER_CONTEXTS) > _WORKER_CONTEXT_LIMIT:
            _WORKER_CONTEXTS.popitem(last=False)
    else:
        _WORKER_CONTEXTS.move_to_end(token)
    return context


def _price_metrics_chunk(
    token: int, payload: bytes, mappings: Sequence[Any]
) -> List[Any]:
    """Worker task: metric vectors of one chunk with a cached context.

    Prices through ``_compute_metrics_chunk`` so a vectorised context uses
    its array kernel per worker chunk instead of per-candidate loops.
    """
    context = _worker_context(token, payload)
    return list(context._compute_metrics_chunk(mappings))


def _call(task: Tuple[Callable[..., Any], Tuple[Any, ...]]) -> Any:
    """Worker task: apply ``fn(*args)`` (the generic :meth:`BatchBackend.map` unit)."""
    fn, args = task
    return fn(*args)


class BatchBackend(ABC):
    """Strategy deciding where a batch of uncached candidates is priced.

    A backend receives the context and the candidates that missed the memo
    (deduplication and memo bookkeeping stay in
    :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`) and
    must return their metric vectors in order.  Implementations must be
    *bit-identical* to serial pricing: same ``_compute_metrics_chunk`` code,
    same inputs, same order.
    """

    #: Short identifier used in reports and benchmark tables.
    name: str = "backend"

    @abstractmethod
    def evaluate_metrics(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors of *mappings* under *context*, in order.

        This is what
        :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`
        (and therefore every scalar batch too) prices misses through, so
        memoised component vectors are shared by all scalarisation views.
        :class:`SerialBackend` prices inline, :class:`ProcessPoolBackend`
        chunks across the pool.

        Parameters
        ----------
        context:
            The evaluation context whose ``_compute_metrics`` defines the
            components.
        mappings:
            Candidates to price (``Mapping`` objects or assignment dicts).

        Returns
        -------
        list of MetricVector
            ``[context._compute_metrics(m) for m in mappings]``, possibly
            computed elsewhere.
        """

    def map(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[Tuple[Any, ...]],
    ) -> List[Any]:
        """Apply ``fn(*args)`` to every argument tuple, preserving order.

        The generic escape hatch for coarse-grained work that is not a batch
        of mappings — multi-restart annealing runs and route-table row shards
        go through here.  The default implementation runs serially.

        Parameters
        ----------
        fn:
            A picklable module-level callable.
        argslist:
            One positional-argument tuple per task.

        Returns
        -------
        list
            ``[fn(*args) for args in argslist]`` in submission order.
        """
        return [fn(*args) for args in argslist]

    def close(self) -> None:
        """Release any resources held by the backend (idempotent)."""

    def __enter__(self) -> "BatchBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(BatchBackend):
    """Price batches inline in the calling process.

    The reference backend: :class:`ProcessPoolBackend` results are asserted
    bit-identical against it.  Passing ``backend=None`` to a context is
    equivalent.
    """

    name = "serial"

    def evaluate_metrics(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors via ``_compute_metrics_chunk``, in order.

        The chunk call keeps serial pricing bit-identical to pooled pricing
        *and* lets a vectorised context price the whole batch with one array
        gather instead of a per-candidate loop.
        """
        return list(context._compute_metrics_chunk(mappings))


class ProcessPoolBackend(BatchBackend):
    """Fan batches out over a lazily created process pool.

    Workers rebuild evaluation contexts locally — contexts pickle *light*
    (application graph + platform, no memo, no route table) and the route
    table is re-derived once per worker through the process-wide
    :func:`~repro.eval.route_table.get_route_table` cache.  Rebuilt contexts
    are cached per worker and keyed by a parent-side token, so a GA pricing
    thousands of candidates unpickles its context a handful of times, not
    once per chunk.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunk_size:
        Candidates per worker task; defaults to an even split of the batch
        over the workers (one task per worker).
    min_batch_size:
        Batches smaller than this are priced inline — process fan-out has a
        fixed cost per task that tiny batches cannot amortise.  Defaults to
        ``2 * n_workers``.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ...); ``None`` uses the platform default.

    Notes
    -----
    The pool is created on first use and survives across batches; call
    :meth:`close` (or use the backend as a context manager) to shut it down.
    Results are reassembled in submission order, so pricing is bit-identical
    to :class:`SerialBackend` regardless of worker scheduling.  When a worker
    dies the pool is rebuilt and the batch re-submitted (at most
    :data:`POOL_RETRY_LIMIT` times); :attr:`rebuilds` counts the rebuilds.
    """

    name = "process-pool"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        min_batch_size: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        resolved = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ConfigurationError(f"n_workers must be positive, got {n_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
        self.n_workers = resolved
        self.chunk_size = chunk_size
        self.min_batch_size = (
            min_batch_size if min_batch_size is not None else 2 * resolved
        )
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        #: How many broken pools have been replaced over the backend's life.
        self.rebuilds = 0
        # token + pickled payload per context, invalidated when the context
        # is garbage collected (WeakKey) — tokens are never reused, so stale
        # worker-side cache entries can only age out, not alias.
        self._payloads: "weakref.WeakKeyDictionary[EvaluationContext, Tuple[int, bytes]]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            mp_context = None
            if self._start_method is not None:
                import multiprocessing

                mp_context = multiprocessing.get_context(self._start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=mp_context
            )
        return self._pool

    def _run(self, tasks: Sequence[Tuple[Callable[..., Any], Tuple[Any, ...]]]) -> List[Any]:
        """Run ``fn(*args)`` tasks on the pool, results in submission order.

        A broken pool is shut down, replaced and the whole task list
        re-submitted — every task is an idempotent pricing or ``map`` unit —
        up to :data:`POOL_RETRY_LIMIT` times.
        """
        retries = 0
        while True:
            pool = self._ensure_pool()
            try:
                futures = [pool.submit(fn, *args) for fn, args in tasks]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                if retries == POOL_RETRY_LIMIT:
                    raise
                retries += 1
                self.rebuilds += 1

    def _context_payload(self, context: "EvaluationContext") -> Tuple[int, bytes]:
        entry = self._payloads.get(context)
        if entry is None:
            entry = (
                next(_TOKEN_COUNTER),
                pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL),
            )
            self._payloads[context] = entry
        return entry

    # ------------------------------------------------------------------
    def evaluate_metrics(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors of *mappings* across the pool, preserving order.

        Batches below ``min_batch_size`` are priced inline (identical
        arithmetic, no IPC).
        """
        items = list(mappings)
        if len(items) < self.min_batch_size:
            return list(context._compute_metrics_chunk(items))
        token, payload = self._context_payload(context)
        chunk = self.chunk_size or math.ceil(len(items) / self.n_workers)
        chunks = self._run(
            [
                (_price_metrics_chunk, (token, payload, items[i : i + chunk]))
                for i in range(0, len(items), chunk)
            ]
        )
        return [result for priced in chunks for result in priced]

    def map(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[Tuple[Any, ...]],
    ) -> List[Any]:
        """Run ``fn(*args)`` tasks across the pool, preserving order."""
        tasks = [(fn, tuple(args)) for args in argslist]
        if len(tasks) <= 1:
            return [fn(*args) for _, args in tasks]
        return self._run([(_call, (task,)) for task in tasks])

    def close(self) -> None:
        """Shut the pool down and forget all cached context payloads."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._payloads = weakref.WeakKeyDictionary()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return f"ProcessPoolBackend(n_workers={self.n_workers}, {state})"


__all__ = [
    "POOL_RETRY_LIMIT",
    "BatchBackend",
    "SerialBackend",
    "ProcessPoolBackend",
]
