"""Outside-in tracing: spans around the library's public entry points.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` swaps wrappers in
for a fixed list of public functions and methods (every module-level binding
of a function, every class in a hierarchy that defines a method) and
:meth:`Tracer.remove` puts the originals back.  Each wrapper records a span —
name, start, end, parent span and job id — in memory; :meth:`Tracer.write`
dumps them as JSON lines when the run ends.

A span's parent is the innermost open span of the calling thread or, on a
thread with no open span (the mapping daemon's worker), the innermost open
span of the thread that opened the job, which is blocked waiting for it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import self_time

#: Tolerance of the accounting check: the self times of a job's spans (the
#: ``job`` root's included, which holds the time spent in no wrapped layer)
#: must add up to the traced job time within this share of it.
ACCOUNTING_TOLERANCE = 1e-6


class Tracer:
    """In-memory span recorder with per-job counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [id, name, start, end, parent, job]
        self._local = threading.local()
        self._job: Optional[str] = None
        self._job_stack: Optional[List[int]] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._contexts: Dict[int, Tuple[Any, int, int]] = {}

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._job_stack:
            parent = self._job_stack[-1]
        else:
            parent = None
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None, parent, self._job])
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> float:
        end = time.perf_counter()
        span = self.spans[sid]
        span[3] = end
        self._stack().pop()
        return end - span[2]

    def run_job(self, job_id: str, fn: Callable[[], Any]) -> Tuple[Any, float, Dict[str, float]]:
        """Run *fn* as job *job_id*; returns its output, duration and layer breakdown."""
        self._job = job_id
        self._job_stack = self._stack()
        self.counters = defaultdict(float)
        self._contexts = {}
        first = len(self.spans)
        root = self._open("job")
        try:
            output = fn()
        finally:
            duration = self._close(root)
            self._job = None
            self._job_stack = None
        for context, hits, misses in self._contexts.values():
            info = context.cache_info()
            self.counters["eval.context.memo_hits"] += info.hits - hits
            self.counters["eval.context.memo_misses"] += info.misses - misses
        self._contexts = {}
        breakdown = self._breakdown(first, duration)
        breakdown.update(self.counters)
        return output, duration, breakdown

    def _breakdown(self, first: int, duration: float) -> Dict[str, float]:
        """Self and busy time per layer over the spans of one job."""
        spans = self.spans[first:]
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, _name, start, end, parent, _job in spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, parent, _job in spans:
            out[f"{name}.self_s"] += self_time(start, end, children.get(sid, ()))
            # Busy time and calls count only a layer's outermost spans, so a
            # layer that re-enters itself is not counted twice.
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][1] != name:
                ancestor = self.spans[ancestor][4]
            if ancestor is None:
                out[f"{name}.busy_s"] += end - start
                out[f"{name}.calls"] += 1
        accounted = sum(value for key, value in out.items() if key.endswith(".self_s"))
        out["trace.job_s"] = duration
        out["trace.accounted_ratio"] = accounted / duration if duration > 0 else 1.0
        return out

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close(sid)
            if after is not None:
                after(tracer, args, result, elapsed)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public entry point listed in :func:`entry_points`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kind, target, attr, name, before, after in entry_points():
            if kind == "function":
                original = getattr(target, attr)
                wrapper = self._wrap(name, original, before, after)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapper)
            else:
                for cls in _hierarchy(target):
                    if attr in cls.__dict__:
                        wrapper = self._wrap(name, cls.__dict__[attr], before, after)
                        self._patch(cls, attr, wrapper)

    def remove(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """Dump all spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, job in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "job": job}
                ))
                handle.write("\n")


def _hierarchy(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


# -- counters recorded at the boundaries ----------------------------------

def _remember_context(tracer: Tracer, args, kwargs):
    context = args[0]
    if id(context) not in tracer._contexts:
        info = context.cache_info()
        tracer._contexts[id(context)] = (context, info.hits, info.misses)
    return args, kwargs


def _count_packets(tracer, args, result, elapsed):
    tracer.counters["noc.scheduler.packets"] += args[1].num_packets


def _count_candidates(tracer, args, result, elapsed):
    tracer.counters["eval.vector.candidates"] += len(args[1])


def _count_lookups(tracer, args, result, elapsed):
    tracer.counters["service.store.lookups"] += len(result)
    tracer.counters["service.store.hits"] += sum(1 for v in result if v is not None)


def _materialise_entries(tracer, args, kwargs):
    entries = list(args[2])
    tracer.counters["service.store.writes"] += len(entries)
    return (args[0], args[1], entries) + tuple(args[3:]), kwargs


def _count_accepts(tracer, args, result, elapsed):
    tracer.counters["search.annealing.accepted"] += result.accepted_moves
    tracer.counters["search.annealing.evaluations"] += result.evaluations


def _queue_wait(tracer, args, result, elapsed):
    tracer.counters["service.daemon.queue_wait_s"] += elapsed - result.elapsed


def entry_points() -> List[tuple]:
    """``(kind, owner, attribute, span name, before, after)`` of every wrapped entry point."""
    from repro.analysis import pareto
    from repro.energy import totals
    from repro.eval import route_table
    from repro.eval.context import EvaluationContext
    from repro.eval.vector import VectorizedCwmKernel
    from repro.noc.scheduler import CdcmScheduler
    from repro.search import nsga2
    from repro.search.annealing import SimulatedAnnealing
    from repro.service.client import ServiceBackend
    from repro.service.daemon import MappingDaemon
    from repro.service.store import ResultStore

    return [
        ("method", CdcmScheduler, "schedule", "noc.scheduler", None, _count_packets),
        ("function", totals, "total_energy_cdcm", "energy", None, None),
        ("function", totals, "total_energy_cwm", "energy", None, None),
        ("method", VectorizedCwmKernel, "price", "eval.vector", None, _count_candidates),
        ("method", EvaluationContext, "evaluate_metrics_batch", "eval.context", _remember_context, None),
        ("method", EvaluationContext, "cost", "eval.context", _remember_context, None),
        ("method", EvaluationContext, "delta", "eval.context", _remember_context, None),
        ("function", nsga2, "fast_non_dominated_sort", "search.nsga2.sort", None, None),
        ("function", nsga2, "crowding_distances", "search.nsga2.crowding", None, None),
        ("method", nsga2.NSGA2Search, "search", "search.nsga2", None, None),
        ("method", SimulatedAnnealing, "search", "search.annealing", None, _count_accepts),
        ("function", pareto, "hypervolume", "analysis.pareto.hypervolume", None, None),
        ("method", ResultStore, "get_many", "service.store.get", None, _count_lookups),
        ("method", ResultStore, "put_many", "service.store.put", _materialise_entries, None),
        ("method", ServiceBackend, "evaluate_metrics", "service.client", None, None),
        ("method", MappingDaemon, "run", "service.daemon", None, _queue_wait),
        ("function", route_table, "get_route_table", "eval.route_table", None, None),
    ]
