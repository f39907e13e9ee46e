"""Objective-function adapters over the vector-valued evaluation engine.

Search engines (:mod:`repro.search`) explore the space of
:class:`~repro.core.mapping.Mapping` objects and only ever see a callable
``mapping -> cost``.  Since the vector-objective redesign that scalar is a
*view*: evaluators produce named :class:`~repro.core.metrics.MetricVector`
components (energy terms, CDCM makespan), the shared
:class:`~repro.eval.context.EvaluationContext` memoises the vectors, and
scalars are derived by applying a weight vector — so K scalarisations of one
candidate cost one pricing pass, not K.

Two pieces bind that machinery into the engine-facing contract:

* :class:`ScalarisedObjective` — the one adapter: a weight-vector view over a
  shared context that counts evaluation effort for the Section 5 CPU-cost
  comparison.  :func:`cwm_objective` / :func:`cdcm_objective` return views
  with the context's own weights (bit-identical to the pre-vector
  objectives); several views over one context share its memo, which is what
  makes Pareto weight sweeps (:mod:`repro.analysis.pareto`) essentially free
  after the first pricing pass;
* :class:`VectorObjective` — the structural protocol views and the contexts
  themselves satisfy (``metric_names`` / ``metrics`` /
  ``evaluate_metrics_batch``), the seam Pareto tooling and custom
  multi-objective drivers program against.

Delta-aware engines (simulated annealing, greedy refinement) additionally
call ``delta`` when ``supports_delta`` is True, and population-based engines
(genetic, exhaustive) call ``evaluate_batch`` when ``supports_batch`` is
True; views forward these to the bound context — batches optionally through
a :class:`~repro.eval.parallel.BatchBackend`.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector, validate_weights
from repro.eval.context import (
    CacheInfo,
    CdcmEvaluationContext,
    CwmEvaluationContext,
    DEFAULT_CACHE_SIZE,
    EvaluationContext,
)
from repro.graphs.cdcg import CDCG
from repro.graphs.cwg import CWG
from repro.noc.platform import Platform
from repro.utils.errors import ConfigurationError

#: The signature every search engine expects.
ObjectiveFunction = Callable[[Mapping], float]


@runtime_checkable
class VectorObjective(Protocol):
    """Structural protocol of vector-valued pricing sources.

    Satisfied by :class:`~repro.eval.context.EvaluationContext` subclasses
    and :class:`ScalarisedObjective`.  Pareto tooling and weight-sweep drivers
    program against this seam and never care which concrete adapter they
    were handed.
    """

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Component names produced by :meth:`metrics`, in accumulation order."""
        ...

    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of one mapping (memoised by the source)."""
        ...

    def evaluate_metrics_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
    ) -> List[MetricVector]:
        """Component vectors of several mappings in one pricing pass."""
        ...


def resolve_vector_source(source):
    """The vector-capable pricing source behind an objective-ish argument.

    The single resolution rule shared by :class:`ScalarisedObjective`,
    :mod:`repro.analysis.pareto` and anything else that needs the vector
    half of the protocol: prefer the object's bound ``context`` when it
    satisfies :class:`VectorObjective`, fall back to the object itself, and
    fail loudly otherwise (plain scalar callables cannot price vectors).

    Parameters
    ----------
    source:
        An :class:`~repro.eval.context.EvaluationContext`, an objective
        exposing one through a ``context`` attribute, or any other
        :class:`VectorObjective`.

    Returns
    -------
    VectorObjective
        The resolved source.

    Raises
    ------
    ConfigurationError
        When *source* exposes no named metric components.
    """
    def _quacks(candidate) -> bool:
        return bool(getattr(candidate, "metric_names", None)) and callable(
            getattr(candidate, "metrics", None)
        )

    context = getattr(source, "context", None)
    if context is not None and _quacks(context):
        return context
    if _quacks(source):
        return source
    raise ConfigurationError(
        f"{source!r} does not expose named metric components; pass an "
        f"EvaluationContext or an objective built by repro.core.objective"
    )


class ScalarisedObjective:
    """A weight-vector view over a shared vector-valued pricing source.

    The view satisfies the full engine-facing objective contract (callable,
    ``supports_delta`` / ``supports_batch``, ``delta``, ``evaluate_batch``)
    but owns no pricing machinery of its own: every operation recalls (or
    prices once) the memoised component vector from the underlying
    :class:`~repro.eval.context.EvaluationContext` and applies this view's
    weights.  Constructing K views over one context and pricing the same
    candidates through all of them therefore costs **one** full pricing pass
    per unique candidate — the property Pareto weight sweeps rely on, pinned
    by ``tests/test_pareto.py``.

    Swaps are priced incrementally when every non-zero weight of the view
    sits on the context's ``delta_metric``: the view's :meth:`delta` is then
    ``weight * context.delta(...)``, which is exactly what scalarising a
    one-component change would give.

    Parameters
    ----------
    source:
        An :class:`~repro.eval.context.EvaluationContext`, or any objective
        exposing one through a ``context`` attribute (views do).  Calls
        price through the source's ``cost(mapping, weights)``.
    weights:
        ``{metric_name: weight}`` over the source's ``metric_names``; checked
        by :func:`~repro.core.metrics.validate_weights`.  Defaults to the
        source's own ``weights``.
    name:
        Identifier used in reports; defaults to the source's name, with the
        weights appended when they are given.

    Attributes
    ----------
    evaluations:
        Full evaluations charged: one per call plus one per candidate priced
        through :meth:`evaluate_batch` (scalarisation calls, not underlying
        pricing passes — those are visible in the shared context's
        :meth:`cache_info`).
    delta_evaluations:
        Number of incremental :meth:`delta` calls.
    elapsed:
        Total wall-clock seconds spent in calls, deltas and batch pricing
        (for pooled batches this is the caller-side wall time, not the
        summed worker CPU time).
    """

    def __init__(
        self,
        source,
        weights: Optional[Dict[str, float]] = None,
        name: Optional[str] = None,
    ) -> None:
        context = resolve_vector_source(source)
        self._context = context
        own_weights = weights is None
        self.weights = validate_weights(
            getattr(context, "weights", {}) if own_weights else weights,
            tuple(context.metric_names),
        )
        if name is None:
            name = getattr(context, "name", "objective")
            if not own_weights:
                label = ",".join(
                    f"{key}={value:g}" for key, value in self.weights.items()
                )
                name = f"{name}[{label}]"
        self.name = name
        delta_metric = getattr(context, "delta_metric", None)
        on_delta_metric = delta_metric is not None and all(
            value == 0.0
            for key, value in self.weights.items()
            if key != delta_metric
        )
        #: Weight of ``delta_metric`` when swaps can be priced incrementally.
        self._delta_weight = (
            self.weights[delta_metric] if on_delta_metric else None
        )
        self.evaluations = 0
        self.delta_evaluations = 0
        self.elapsed = 0.0

    # ------------------------------------------------------------------
    # Engine-facing contract
    # ------------------------------------------------------------------
    def __call__(self, mapping: Union[Mapping, Dict[str, int]]) -> float:
        start = time.perf_counter()
        try:
            return self._context.cost(mapping, self.weights)
        finally:
            self.elapsed += time.perf_counter() - start
            self.evaluations += 1

    @property
    def context(self) -> EvaluationContext:
        """The shared evaluation context the view scalarises over."""
        return self._context

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Component names of the underlying context."""
        return self._context.metric_names

    @property
    def supports_delta(self) -> bool:
        """True when the view's weight sits on the context's ``delta_metric``."""
        return self._delta_weight is not None

    @property
    def supports_batch(self) -> bool:
        """Always True — batches route through the shared context."""
        return True

    def evaluate_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
    ) -> List[float]:
        """Scalarise a batch of candidates off the shared vector memo.

        Parameters
        ----------
        mappings:
            Candidates to price, in order.
        backend:
            Optional :class:`~repro.eval.parallel.BatchBackend` override for
            the misses.

        Returns
        -------
        list of float
            One weighted cost per candidate, in input order.
        """
        items = list(mappings)
        start = time.perf_counter()
        try:
            vectors = self._context.evaluate_metrics_batch(
                items, backend=backend
            )
            return [
                vector.weighted_sum(self.weights, strict=False)
                for vector in vectors
            ]
        finally:
            self.elapsed += time.perf_counter() - start
            self.evaluations += len(items)

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Weighted exact cost change of swapping two tiles' contents."""
        if self._delta_weight is None:
            raise NotImplementedError(
                f"objective {self.name!r} cannot price swaps incrementally; "
                f"check supports_delta before calling delta()"
            )
        start = time.perf_counter()
        try:
            return self._delta_weight * self._context.delta(mapping, tile_a, tile_b)
        finally:
            self.elapsed += time.perf_counter() - start
            self.delta_evaluations += 1

    # ------------------------------------------------------------------
    # Vector passthrough (the VectorObjective protocol)
    # ------------------------------------------------------------------
    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of *mapping* (shared-memo passthrough)."""
        return self._context.metrics(mapping)

    def evaluate_metrics_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
    ) -> List[MetricVector]:
        """Component vectors of several candidates (shared-memo passthrough)."""
        return self._context.evaluate_metrics_batch(mappings, backend=backend)

    def with_weights(
        self, weights: Dict[str, float], name: Optional[str] = None
    ) -> "ScalarisedObjective":
        """A sibling view with different weights over the same context."""
        return ScalarisedObjective(self._context, weights, name=name)

    def cache_info(self) -> CacheInfo:
        """Memo statistics of the shared context."""
        return self._context.cache_info()

    def reset(self) -> None:
        """Zero this view's counters (the shared memo is left untouched)."""
        self.evaluations = 0
        self.delta_evaluations = 0
        self.elapsed = 0.0

    def __repr__(self) -> str:
        return (
            f"ScalarisedObjective(name={self.name!r}, "
            f"weights={self.weights!r})"
        )


def cwm_objective(
    cwg: CWG,
    platform: Platform,
    include_local: bool = True,
    cache_size: int = DEFAULT_CACHE_SIZE,
    context: Optional[CwmEvaluationContext] = None,
) -> ScalarisedObjective:
    """Objective minimising CWM dynamic energy (equation 3).

    A view with the context's own weights: it scalarises the single
    ``dynamic_energy`` component with unit weight, bit-identical to the
    pre-vector objective.

    Parameters
    ----------
    cwg:
        Application communication graph.
    platform:
        Target architecture.
    include_local:
        Whether local core-router links contribute ``ECbit`` per bit.
    cache_size:
        Size of the context's metric-vector memo (0 disables it).
    context:
        Optional pre-built context to share (with its route table, memo and
        batch backend) across objectives.

    Returns
    -------
    ScalarisedObjective
        Supports exact incremental swap deltas (``supports_delta``) and bulk
        pricing (``supports_batch``) — see
        :class:`~repro.eval.context.CwmEvaluationContext`.
    """
    if context is None:
        context = CwmEvaluationContext(
            cwg, platform, include_local=include_local, cache_size=cache_size
        )
    return ScalarisedObjective(context)


def cdcm_objective(
    cdcg: CDCG,
    platform: Platform,
    metric: str = "energy",
    energy_weight: float = 1.0,
    time_weight: float = 0.0,
    include_local: bool = True,
    cache_size: int = DEFAULT_CACHE_SIZE,
    context: Optional[CdcmEvaluationContext] = None,
) -> ScalarisedObjective:
    """Objective minimising CDCM total energy (equation 10) or execution time.

    A view with the context's own weights: the legacy ``metric`` /
    ``energy_weight`` / ``time_weight`` knobs are translated to a weight
    view by :func:`~repro.core.metrics.scalarisation_weights` and applied to
    the context's memoised component vectors, bit-identical to the
    pre-vector objective.  For weight *sweeps* build one context and derive
    :class:`ScalarisedObjective` views instead of constructing one objective
    per weight vector.

    Parameters
    ----------
    cdcg:
        Packet-level application model.
    platform:
        Target architecture.
    metric:
        ``"energy"`` (default), ``"time"`` or ``"weighted"`` — see
        :class:`~repro.core.cdcm.CdcmEvaluator`.
    energy_weight, time_weight:
        Scalarisation weights for the ``"weighted"`` metric.
    include_local:
        Whether local core-router links contribute to dynamic energy.
    cache_size:
        Size of the context's metric-vector memo (0 disables it).
    context:
        Optional pre-built context to share across objectives.
    Returns
    -------
    ScalarisedObjective
        Supports bulk pricing (``supports_batch``) but no swap delta:
        contention makes CDCM cost global, so every move is priced by a
        complete (trace-free) replay.
    """
    if context is None:
        context = CdcmEvaluationContext(
            cdcg,
            platform,
            metric=metric,
            energy_weight=energy_weight,
            time_weight=time_weight,
            include_local=include_local,
            cache_size=cache_size,
        )
    return ScalarisedObjective(context)


__all__ = [
    "ObjectiveFunction",
    "VectorObjective",
    "ScalarisedObjective",
    "resolve_vector_source",
    "cwm_objective",
    "cdcm_objective",
]
