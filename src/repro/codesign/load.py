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

The context prices both components on arrays.  A ``(pop, cores)`` tile array
becomes one route-table pair index per (candidate, edge); the pairs expand
through :meth:`~repro.eval.route_table.RouteTable.link_incidence`, a CSR of
every pair's link ids built once per route table, and one weighted
``np.bincount`` sums the bits of every (candidate, link).  This is exact:
each term is a whole bit count and no sum reaches ``2**53``, so the vectors
equal, ``repr`` for ``repr``, those built from the three public helpers
above, which stay the reference.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.graphs.cwg import CWG
from repro.core.mapping import Mapping
from repro.core.metrics import CWM_METRIC_NAMES, MetricVector
from repro.eval.context import CwmEvaluationContext
from repro.eval.route_table import RouteTable

#: Directed mesh link, as produced by ``RouteTable.links``.
Link = Tuple[int, int]

#: Expanded route entries the link-load kernel prices per candidate block:
#: bounds its temporaries whatever the batch size.
_BLOCK_ENTRIES = 1 << 15

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
    per batch, so kernel-priced energies stay bit-identical to the scalar
    loop); the two congestion components come from the link-load kernel,
    which prices a batch and a single candidate alike, over the same shared
    route table.

    The constructor signature, default ``weights`` (``{"dynamic_energy":
    1.0}``) and picklable-light ``__getstate__``/``__setstate__`` are all
    inherited, so pooled pricing through
    :class:`~repro.eval.parallel.ProcessPoolBackend` rebuilds an identical
    context and stays bit-identical to serial pricing.

    Incremental swap pricing: the inherited :meth:`delta` stays exact for
    the ``dynamic_energy`` component (the inherited ``delta_metric``), so a
    view weighting energy alone prices swaps in O(degree); a swap moves link
    loads non-locally, so a view with weight on a load component prices
    every move in full.
    """

    metric_names = LOAD_METRIC_NAMES

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.name = f"cwm+load({self.cwg.name})"

    def _link_load_components(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``max_link_load`` and ``link_load_spread`` of every tile row.

        Each (candidate, edge) pair index expands through the route table's
        :meth:`~repro.eval.route_table.RouteTable.link_incidence` into the
        link ids of its route, and one ``np.bincount`` weighted by bits sums
        the load of every (candidate, link).  Exact: every term is a whole
        bit count and every sum stays below ``2**53``, so the summation order
        cannot move a value.  Candidates are priced in blocks of about
        :data:`_BLOCK_ENTRIES` expanded route entries.
        """
        ptr, link_ids, num_links = self.route_table.link_incidence()
        pop = len(rows)
        peaks = np.zeros(pop)
        totals = np.zeros(pop)
        if num_links == 0:  # a one-tile fabric routes nothing
            return peaks, totals
        kernel = self.vector_kernel()
        pairs = kernel.pair_indices(rows)
        starts = ptr[pairs]
        lengths = ptr[pairs + 1] - starts
        entries = lengths.sum(axis=1)
        step = max(1, _BLOCK_ENTRIES // max(1, int(entries.max(initial=0))))
        for begin in range(0, pop, step):
            end = min(begin + step, pop)
            block_lengths = lengths[begin:end].ravel()
            # An entry's place in link_ids: its route's start plus its rank
            # inside the route.
            firsts = np.cumsum(block_lengths) - block_lengths
            index = np.arange(int(block_lengths.sum())) + np.repeat(
                starts[begin:end].ravel() - firsts, block_lengths
            )
            owner = np.repeat(np.arange(end - begin) * num_links, entries[begin:end])
            weights = np.repeat(np.tile(kernel.bits, end - begin), block_lengths)
            loads = np.bincount(
                link_ids[index] + owner,
                weights=weights,
                minlength=(end - begin) * num_links,
            ).reshape(end - begin, num_links)
            peaks[begin:end] = loads.max(axis=1)
            totals[begin:end] = loads.sum(axis=1)
        return peaks, peaks - totals / num_links

    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        energy = super()._compute_metrics(mapping)["dynamic_energy"]
        (peak,), (spread,) = self._link_load_components(self._rows([mapping]))
        return MetricVector(LOAD_METRIC_NAMES, (energy, peak, spread))

    def _compute_metrics_chunk(
        self, mappings: Sequence[Union[Mapping, Dict[str, int]]]
    ) -> List[MetricVector]:
        items = list(mappings)
        if not items:
            return []
        rows = self._rows(items)
        energies = self.vector_kernel().price(rows)
        peaks, spreads = self._link_load_components(rows)
        return [
            MetricVector(LOAD_METRIC_NAMES, values)
            for values in zip(energies, peaks, spreads)
        ]


__all__ = [
    "Link",
    "LOAD_METRIC_NAMES",
    "link_loads",
    "max_link_load",
    "link_load_spread",
    "LoadAwareCwmContext",
]
