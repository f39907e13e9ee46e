"""The resident evaluation daemon: mapping pricing as a service.

A :class:`MappingDaemon` owns everything that is expensive to build and cheap
to keep — the persistent :class:`~repro.service.store.ResultStore`, a pool of
worker processes (via any :class:`~repro.eval.parallel.BatchBackend`, by
default a :class:`~repro.eval.parallel.ProcessPoolBackend`) and an LRU of
*resident evaluation contexts*, each holding a warm
:class:`~repro.eval.route_table.RouteTable`, a bound
:class:`~repro.eval.vector.VectorizedCwmKernel` and a populated memo.  Jobs
(:class:`EvalJob`: a workload, a platform, a model and a batch of candidate
mappings) arrive on a queue, are matched to a resident context (or build one
on first sight), drained against the store through a
:class:`~repro.service.client.ServiceBackend` so only cache-miss candidates
are priced, and answered as :class:`JobResult`s carrying both the component
vectors and the requested scalarisation.

The daemon never changes a number: pricing goes through the same
``evaluate_metrics_batch`` seam as a plain context, the store round-trips
vectors bit-exactly, and scalarisation applies the same
:meth:`~repro.core.metrics.MetricVector.weighted_sum` arithmetic — so a job
result is bit-identical to a cold
:class:`~repro.eval.parallel.SerialBackend` run (pinned by
``tests/test_service.py``).
"""

from __future__ import annotations

import itertools
import queue
import tempfile
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.parallel import BatchBackend, ProcessPoolBackend
from repro.noc.platform import Platform
from repro.service.client import ServiceBackend
from repro.service.store import (
    ResultStore,
    platform_digest,
    workload_digest,
)
from repro.utils.errors import ConfigurationError

#: Models a job may request.
JOB_MODELS = ("cwm", "cdcm")

#: How many resident contexts the daemon keeps warm by default.
DEFAULT_MAX_CONTEXTS = 8

#: How many *collected* job slots (whose result was read through
#: :meth:`MappingDaemon.result`) the daemon remembers; older collected slots
#: are forgotten oldest-first.  Uncollected slots are never dropped.
MAX_COLLECTED_JOBS = 256


@dataclass
class EvalJob:
    """One unit of service work: price a batch of candidates.

    Attributes
    ----------
    application:
        The workload — a :class:`~repro.graphs.cwg.CWG` for ``model="cwm"``
        or a :class:`~repro.graphs.cdcg.CDCG` (a CDCG is also accepted for
        CWM jobs and collapsed through
        :func:`~repro.graphs.convert.cdcg_to_cwg`).
    platform:
        Target architecture (topology, routing, technology, parameters).
    mappings:
        Candidate core-to-tile assignments to price.
    model:
        ``"cwm"`` or ``"cdcm"``.
    weights:
        Optional scalarisation weights for the returned ``costs``; ``None``
        uses the model's default view (CWM: dynamic energy; CDCM: energy).
        Weights never affect which vectors are priced or stored.
    include_local:
        Whether local core-router links contribute per-bit energy.
    label:
        Free-form tag echoed into the :class:`JobResult` (for sweep drivers
        correlating submissions with results).
    """

    application: Any
    platform: Platform
    mappings: Sequence[Union[Mapping, Dict[str, int]]]
    model: str = "cdcm"
    weights: Optional[Dict[str, float]] = None
    include_local: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.model not in JOB_MODELS:
            raise ConfigurationError(
                f"job model must be one of {JOB_MODELS}, got {self.model!r}"
            )


@dataclass(frozen=True)
class JobResult:
    """The priced answer to one :class:`EvalJob`.

    Attributes
    ----------
    job_id:
        Identifier assigned at submission.
    label:
        The job's echo tag.
    vectors:
        One :class:`~repro.core.metrics.MetricVector` per candidate, in
        submission order.
    costs:
        The vectors scalarised under the job's weight view (or the model
        default), in the same order.
    store_hits:
        Candidates of this job answered from the persistent store.
    priced:
        Candidates of this job actually priced (store misses after memo and
        batch dedup).
    elapsed:
        Wall-clock seconds the job spent executing (queue wait excluded).
    """

    job_id: str
    label: str
    vectors: Tuple[MetricVector, ...]
    costs: Tuple[float, ...]
    store_hits: int
    priced: int
    elapsed: float

    @property
    def hit_rate(self) -> float:
        """Fraction of this job's candidates answered without pricing."""
        total = len(self.vectors)
        return (total - self.priced) / total if total else 0.0


@dataclass
class _JobSlot:
    """Internal per-job bookkeeping (status, result, completion event)."""

    job: EvalJob
    status: str = "pending"
    result: Optional[JobResult] = None
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)
    collected: bool = False


class MappingDaemon:
    """Resident pricing daemon: warm contexts + persistent store + job queue.

    Parameters
    ----------
    store:
        The persistent result store; ``None`` creates a private store in a
        temporary directory that lives (and dies) with the daemon — handy
        for tests and one-shot sweeps, while long-running deployments pass a
        store rooted in a durable path.
    backend:
        Backend that prices store misses.  ``None`` with ``n_workers`` unset
        prices inline (serial reference arithmetic); ``None`` with
        ``n_workers`` set builds an owned
        :class:`~repro.eval.parallel.ProcessPoolBackend` that is shut down
        with the daemon.  A caller-supplied backend is borrowed, never
        closed.
    n_workers:
        Pool size of the owned backend (ignored when *backend* is given).
    max_contexts:
        How many resident evaluation contexts the daemon keeps warm; least
        recently used contexts are dropped beyond this (their priced vectors
        survive in the store).

    Notes
    -----
    One worker thread drains the queue — jobs run strictly one at a time
    (parallelism lives *inside* a job, across the backend's process pool),
    which keeps resident-context access single-threaded and lock-free.  Use
    the daemon as a context manager, or call :meth:`close`, to release the
    thread, the owned pool and the owned store.

    A job's slot (status and result) stays readable until its result has
    been collected through :meth:`result` and :data:`MAX_COLLECTED_JOBS`
    later collections have happened; then its id is forgotten, so a daemon
    running for days holds only its uncollected jobs plus a bounded tail.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        backend: Optional[BatchBackend] = None,
        n_workers: Optional[int] = None,
        max_contexts: int = DEFAULT_MAX_CONTEXTS,
    ) -> None:
        if max_contexts < 1:
            raise ConfigurationError(
                f"max_contexts must be positive, got {max_contexts}"
            )
        self._owned_tempdir: Optional[tempfile.TemporaryDirectory] = None
        if store is None:
            self._owned_tempdir = tempfile.TemporaryDirectory(
                prefix="repro-service-"
            )
            store = ResultStore(self._owned_tempdir.name)
        self.store = store
        self._owned_backend: Optional[BatchBackend] = None
        if backend is None and n_workers is not None:
            backend = ProcessPoolBackend(n_workers=n_workers)
            self._owned_backend = backend
        self.backend = backend
        self.service = ServiceBackend(store, inner=backend)
        self.max_contexts = max_contexts
        self._contexts: "OrderedDict[Tuple[str, str, str], Any]" = OrderedDict()
        self._slots: Dict[str, _JobSlot] = {}
        self._collected: Deque[str] = deque()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._jobs_done = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="mapping-daemon", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------
    def submit(self, job: EvalJob) -> str:
        """Enqueue *job*; returns its id (non-blocking)."""
        if self._closed:
            raise ConfigurationError("daemon is closed")
        if not isinstance(job, EvalJob):
            raise ConfigurationError(
                f"submit() takes an EvalJob, got {type(job).__name__}"
            )
        job_id = f"job-{next(self._ids)}"
        with self._lock:
            self._slots[job_id] = _JobSlot(job=job)
        self._queue.put(job_id)
        return job_id

    def poll(self, job_id: str) -> str:
        """Status of *job_id*: ``"pending"``, ``"running"``, ``"done"`` or ``"error"``."""
        return self._slot(job_id).status

    def result(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until *job_id* completes and return its :class:`JobResult`.

        Re-raises the job's exception if it failed; raises
        :class:`~repro.utils.errors.ConfigurationError` on timeout.  A
        completed call marks the slot collected (see the class notes).
        """
        slot = self._slot(job_id)
        if not slot.done.wait(timeout):
            raise ConfigurationError(
                f"job {job_id} did not complete within {timeout}s"
            )
        with self._lock:
            if not slot.collected:
                slot.collected = True
                self._collected.append(job_id)
                while len(self._collected) > MAX_COLLECTED_JOBS:
                    del self._slots[self._collected.popleft()]
        if slot.error is not None:
            raise slot.error
        assert slot.result is not None  # done + no error implies a result
        return slot.result

    def run(self, job: EvalJob) -> JobResult:
        """Submit *job* and wait for its result (the synchronous convenience)."""
        return self.result(self.submit(job))

    def stats(self) -> Dict[str, Any]:
        """Live daemon statistics: jobs, contexts, store counters."""
        store_stats = self.store.stats
        return {
            "jobs_done": self._jobs_done,
            "jobs_queued": self._queue.qsize(),
            "resident_contexts": len(self._contexts),
            "priced": self.service.priced,
            "store_hits": self.service.store_hits,
            "store": {
                "hits": store_stats.hits,
                "misses": store_stats.misses,
                "hit_rate": store_stats.hit_rate,
                "writes": store_stats.writes,
                "evictions": store_stats.evictions,
                "corrupt_skipped": store_stats.corrupt_skipped,
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker thread and release owned resources (idempotent).

        Queued jobs are drained before the stop sentinel is honoured; the
        owned backend (and its worker processes) and the owned temporary
        store directory are released.  Borrowed backends and stores are left
        untouched.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join()
        if self._owned_backend is not None:
            self._owned_backend.close()
        if self._owned_tempdir is not None:
            self._owned_tempdir.cleanup()
            self._owned_tempdir = None

    def __enter__(self) -> "MappingDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "running"
        return (
            f"MappingDaemon(contexts={len(self._contexts)}, "
            f"jobs_done={self._jobs_done}, {state})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _slot(self, job_id: str) -> _JobSlot:
        with self._lock:
            slot = self._slots.get(job_id)
        if slot is None:
            raise ConfigurationError(f"unknown job id {job_id!r}")
        return slot

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                break
            slot = self._slot(job_id)
            slot.status = "running"
            try:
                slot.result = self._execute(job_id, slot.job)
                slot.status = "done"
                self._jobs_done += 1
            except BaseException as exc:  # job errors answer the poller
                slot.error = exc
                slot.status = "error"
            finally:
                slot.done.set()

    def _context_for(self, job: EvalJob) -> Any:
        key = (
            job.model,
            workload_digest(job.application),
            platform_digest(job.platform, job.include_local),
        )
        context = self._contexts.get(key)
        if context is not None:
            self._contexts.move_to_end(key)
            return context
        context = self._build_context(job)
        self._contexts[key] = context
        while len(self._contexts) > self.max_contexts:
            self._contexts.popitem(last=False)
        return context

    def _build_context(self, job: EvalJob) -> Any:
        from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
        from repro.graphs.cdcg import CDCG
        from repro.graphs.cwg import CWG

        application = job.application
        if job.model == "cwm":
            if isinstance(application, CDCG):
                from repro.graphs.convert import cdcg_to_cwg

                application = cdcg_to_cwg(application)
            if not isinstance(application, CWG):
                raise ConfigurationError(
                    f"cwm jobs need a CWG or CDCG application, got "
                    f"{type(job.application).__name__}"
                )
            return CwmEvaluationContext(
                application, job.platform, include_local=job.include_local
            )
        if not isinstance(application, CDCG):
            raise ConfigurationError(
                f"cdcm jobs need a CDCG application, got "
                f"{type(job.application).__name__}"
            )
        return CdcmEvaluationContext(
            application, job.platform, include_local=job.include_local
        )

    def _execute(self, job_id: str, job: EvalJob) -> JobResult:
        started = time.perf_counter()
        context = self._context_for(job)
        service = self.service
        priced_before = service.priced
        hits_before = service.store_hits
        vectors = context.evaluate_metrics_batch(job.mappings, backend=service)
        weights = job.weights if job.weights is not None else context.weights
        costs = tuple(
            vector.weighted_sum(weights, strict=False) for vector in vectors
        )
        return JobResult(
            job_id=job_id,
            label=job.label,
            vectors=tuple(vectors),
            costs=costs,
            store_hits=service.store_hits - hits_before,
            priced=service.priced - priced_before,
            elapsed=time.perf_counter() - started,
        )


__all__ = [
    "DEFAULT_MAX_CONTEXTS",
    "MAX_COLLECTED_JOBS",
    "JOB_MODELS",
    "EvalJob",
    "JobResult",
    "MappingDaemon",
]
