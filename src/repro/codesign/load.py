"""Per-link congestion objectives over the route table.

The CWM model (Equation 3) prices a mapping by total routed energy, which is
blind to *where* the traffic lands: two mappings with identical energy can
push very different peak loads onto individual links, and the overloaded one
is the one that saturates first when the static volumes are replayed under
contention.  This module exposes that difference as first-class
:class:`~repro.core.metrics.MetricVector` components so multi-objective
search (and the co-design engine) can trade energy against congestion:

* :func:`link_loads` — the bits each directed mesh link carries under a
  mapping, accumulated over the shared
  :class:`~repro.eval.route_table.RouteTable` (CWM volumes pushed onto the
  route of every communication);
* ``max_link_load`` — the hottest link's volume, the static analogue of the
  CDCM schedule's :meth:`~repro.noc.scheduler.ScheduleResult.max_link_utilisation`;
* ``link_load_spread`` — hottest minus mean over *all* directed links of the
  fabric, a balance measure that distinguishes "everything busy" from "one
  column saturated".

:class:`LoadAwareCwmContext` appends both components to the CWM vector
through the usual context-memoised path.  The components ride **at the end**
of the name tuple and no scalarisation weight ever names them, so every
legacy weighted view (``weighted_sum`` skips zero-weight components without
touching their values) and every
:class:`~repro.analysis.comparison.ComparisonConfig` reproduction row stays
bit-identical — the same append-only contract that lets
``max_link_utilisation`` join :data:`~repro.core.metrics.CDCM_METRIC_NAMES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.graphs.cwg import CWG
from repro.core.mapping import Mapping
from repro.core.metrics import CWM_METRIC_NAMES, MetricVector
from repro.eval.context import CwmEvaluationContext
from repro.eval.route_table import RouteTable

#: Directed mesh link, as produced by ``RouteTable.links``.
Link = Tuple[int, int]

#: Metric components of :class:`LoadAwareCwmContext` — the CWM vector with
#: the two congestion components appended (append-only: legacy weight views
#: must stay bit-identical).
LOAD_METRIC_NAMES: Tuple[str, ...] = CWM_METRIC_NAMES + (
    "max_link_load",
    "link_load_spread",
)


def link_loads(
    cwg: CWG,
    mapping: Union[Mapping, Dict[str, int]],
    route_table: RouteTable,
) -> Dict[Link, float]:
    """Bits carried by each directed mesh link under *mapping*.

    Every communication's full volume is pushed onto every link of its route
    (the CWM static view — no contention, no time axis).  Links that carry no
    traffic are absent from the result.
    """
    tiles = mapping.assignments() if isinstance(mapping, Mapping) else mapping
    loads: Dict[Link, float] = {}
    for comm in cwg.communications():
        source = tiles[comm.source]
        target = tiles[comm.target]
        if source == target:
            continue
        bits = float(comm.bits)
        for link in route_table.links(source, target):
            loads[link] = loads.get(link, 0.0) + bits
    return loads


def max_link_load(loads: Dict[Link, float]) -> float:
    """The hottest directed link's volume (0.0 for an empty load map)."""
    return max(loads.values(), default=0.0)


def link_load_spread(loads: Dict[Link, float], num_links: int) -> float:
    """Hottest-minus-mean volume over *num_links* directed fabric links.

    The mean runs over **all** links of the topology, not just loaded ones —
    an idle fabric half lowers the mean and widens the spread, which is
    exactly the imbalance the component is meant to price.  Returns 0.0 when
    the fabric has no links.
    """
    if num_links <= 0:
        return 0.0
    return max_link_load(loads) - sum(loads.values()) / num_links


class LoadAwareCwmContext(CwmEvaluationContext):
    """CWM pricing extended with per-link congestion components.

    The vector is ``("dynamic_energy", "max_link_load", "link_load_spread")``
    — see :data:`LOAD_METRIC_NAMES`.  The energy component is produced by the
    parent's machinery unmodified (scalar loop per candidate, array kernel
    per batch — the chunk path delegates to
    :class:`~repro.eval.context.CwmEvaluationContext`, so kernel-priced
    energies stay bit-identical to the scalar loop); the two congestion
    components are accumulated from the same shared route table.

    The constructor signature, default ``weights`` (``{"dynamic_energy":
    1.0}``) and picklable-light ``__getstate__``/``__setstate__`` are all
    inherited, so pooled pricing through
    :class:`~repro.eval.parallel.ProcessPoolBackend` rebuilds an identical
    context and stays bit-identical to serial pricing.

    Incremental swap pricing: the scalar :meth:`delta` stays exact (the
    scalar cost is the energy component alone), but per-component deltas are
    disabled — a swap moves link loads non-locally and the parent's
    one-component ``metric_delta`` would silently report the wrong shape.
    """

    metric_names = LOAD_METRIC_NAMES
    supports_metric_delta = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.name = f"cwm+load({self.cwg.name})"
        self._num_links = len(self.platform.mesh.links())

    def _load_components(
        self, tiles: Dict[str, int]
    ) -> Tuple[float, float]:
        loads: Dict[Link, float] = {}
        table_links = self.route_table.links
        for source, target, bits in self._edges:
            source_tile = tiles[source]
            target_tile = tiles[target]
            if source_tile == target_tile:
                continue
            for link in table_links(source_tile, target_tile):
                loads[link] = loads.get(link, 0.0) + bits
        peak = max_link_load(loads)
        return peak, link_load_spread(loads, self._num_links)

    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        energy = super()._compute_metrics(mapping)["dynamic_energy"]
        peak, spread = self._load_components(self._tile_assignments(mapping))
        return MetricVector(LOAD_METRIC_NAMES, (energy, peak, spread))

    def _compute_metrics_chunk(
        self, mappings: Sequence[Union[Mapping, Dict[str, int]]]
    ) -> List[MetricVector]:
        items = list(mappings)
        energies = super()._compute_metrics_chunk(items)
        out: List[MetricVector] = []
        for mapping, vector in zip(items, energies):
            peak, spread = self._load_components(
                self._tile_assignments(mapping)
            )
            out.append(
                MetricVector(
                    LOAD_METRIC_NAMES,
                    (vector["dynamic_energy"], peak, spread),
                )
            )
        return out

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        raise NotImplementedError(
            "LoadAwareCwmContext does not support incremental metric-delta "
            "evaluation: swaps move link loads non-locally; check "
            "supports_metric_delta before calling metric_delta()"
        )


__all__ = [
    "Link",
    "LOAD_METRIC_NAMES",
    "link_loads",
    "max_link_load",
    "link_load_spread",
    "LoadAwareCwmContext",
]
