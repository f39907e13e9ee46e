"""The Communication Dependence and Computation Model (CDCM) mapping evaluator.

The CDCM algorithm of Section 4 evaluates a mapping by *executing* the
application's CDCG onto the mapped CRG: packets become ready when their
dependences are satisfied, are injected after their source core's computation
time, and reserve the routers and links of their XY route — serialising when
they compete for a link.  The replay yields:

* the application execution time ``texec`` (including contention),
* the dynamic energy ``EDyNoC`` (equation 4),
* the static energy ``EstNoC = PstNoC x texec`` (equation 9),

and the CDCM objective is their sum ``ENoC`` (equation 10).  Because mappings
with less resource sharing finish earlier, minimising ``ENoC`` implicitly
minimises contention — the property CWM cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.metrics import (
    CDCM_METRIC_NAMES,
    MetricVector,
    scalarisation_weights,
)
from repro.energy.dynamic import traffic_dynamic_energy
from repro.energy.static import noc_static_energy
from repro.energy.technology import Technology
from repro.energy.totals import EnergyBreakdown, total_energy_cdcm
from repro.graphs.cdcg import CDCG
from repro.noc.platform import Platform
from repro.noc.scheduler import CdcmScheduler, ScheduleResult
from repro.core.mapping import Mapping
from repro.utils.errors import ConfigurationError


@dataclass
class CdcmReport:
    """Full CDCM evaluation of one mapping.

    Attributes
    ----------
    application:
        CDCG name.
    schedule:
        The full replay result (per-packet timing and per-resource
        cost-variable lists).
    energy:
        Static + dynamic energy decomposition for the evaluation technology.
    """

    application: str
    schedule: ScheduleResult
    energy: EnergyBreakdown

    @property
    def execution_time(self) -> float:
        """``texec`` in nanoseconds."""
        return self.schedule.execution_time

    @property
    def total_energy(self) -> float:
        """``ENoC`` (equation 10) in pJ."""
        return self.energy.total

    @property
    def dynamic_energy(self) -> float:
        return self.energy.dynamic

    @property
    def static_energy(self) -> float:
        return self.energy.static

    @property
    def total_contention_delay(self) -> float:
        return self.schedule.total_contention_delay()

    def metric_vector(self) -> MetricVector:
        """Named component vector of this evaluation (the vector-objective view).

        Components follow :data:`~repro.core.metrics.CDCM_METRIC_NAMES`:
        total energy ``ENoC``, execution time ``texec``, the dynamic/static
        decomposition of the energy term, and the replay's
        :meth:`~repro.noc.scheduler.ScheduleResult.max_link_utilisation`
        congestion figure.  The congestion component never enters the legacy
        weight views (see :func:`~repro.core.metrics.scalarisation_weights`),
        so scalar costs are unchanged by its presence.
        """
        return MetricVector(
            CDCM_METRIC_NAMES,
            (
                self.energy.total,
                self.schedule.execution_time,
                self.energy.dynamic,
                self.energy.static,
                self.schedule.max_link_utilisation(),
            ),
        )


#: Metrics a CDCM objective can minimise.
_METRICS = ("energy", "time", "weighted")


class CdcmEvaluator:
    """Evaluates mappings under the communication dependence and computation model.

    Parameters
    ----------
    platform:
        Target architecture.
    metric:
        Quantity returned by :meth:`cost`:

        * ``"energy"`` (default) — total NoC energy ``ENoC`` (the paper's
          CDCM objective);
        * ``"time"`` — execution time ``texec``;
        * ``"weighted"`` — ``energy_weight x ENoC + time_weight x texec``
          (an extension for multi-objective exploration).
    include_local:
        Whether local core-router links contribute ``ECbit`` to dynamic energy.
    route_table:
        Optional pre-built :class:`~repro.eval.route_table.RouteTable` shared
        with other evaluators of the same platform; forwarded to the replay
        scheduler (which otherwise uses the process-wide shared table).
    """

    def __init__(
        self,
        platform: Platform,
        metric: str = "energy",
        energy_weight: float = 1.0,
        time_weight: float = 0.0,
        include_local: bool = True,
        route_table=None,
    ) -> None:
        if metric not in _METRICS:
            raise ConfigurationError(
                f"unknown CDCM metric {metric!r}; expected one of {_METRICS}"
            )
        self.platform = platform
        self.metric = metric
        self.energy_weight = energy_weight
        self.time_weight = time_weight
        self.include_local = include_local
        self.weights = scalarisation_weights(metric, energy_weight, time_weight)
        self._scheduler = CdcmScheduler(platform, route_table=route_table)

    @property
    def route_table(self):
        """The route table the replay scheduler resolves paths from."""
        return self._scheduler.route_table

    # ------------------------------------------------------------------
    # Objective function
    # ------------------------------------------------------------------
    def cost(self, cdcg: CDCG, mapping: Union[Mapping, Dict[str, int]]) -> float:
        """Scalar cost of a mapping under the configured metric.

        Derived from :meth:`metrics` by the evaluator's ``weights`` view
        (see :func:`~repro.core.metrics.scalarisation_weights`) —
        bit-identical to the legacy per-metric dispatch.
        """
        return self.metrics(cdcg, mapping).weighted_sum(
            self.weights, strict=False
        )

    def metrics(
        self, cdcg: CDCG, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        """Named component vector of a mapping (one replay, every metric).

        Priced by the trace-free replay
        (:meth:`~repro.noc.scheduler.CdcmScheduler.price`) and bit-identical
        to ``evaluate(cdcg, mapping).metric_vector()``, which builds the full
        schedule first.
        """
        priced = self._scheduler.price(cdcg, mapping)
        technology = self.platform.technology
        dynamic = traffic_dynamic_energy(
            priced.traffic, technology, self.include_local
        )
        static = noc_static_energy(
            technology, self.platform.num_tiles, priced.execution_time
        )
        return MetricVector(
            CDCM_METRIC_NAMES,
            (
                dynamic + static,
                priced.execution_time,
                dynamic,
                static,
                priced.max_link_utilisation,
            ),
        )

    # ------------------------------------------------------------------
    # Full report
    # ------------------------------------------------------------------
    def evaluate(
        self,
        cdcg: CDCG,
        mapping: Union[Mapping, Dict[str, int]],
        technology: Optional[Technology] = None,
    ) -> CdcmReport:
        """Replay the CDCG over the mapped platform and price the result.

        Parameters
        ----------
        technology:
            Optional technology override; the replay (timing) is technology
            independent, so the same schedule can be re-priced under several
            technologies — this is how the two ECS columns of Table 2 are
            produced from a single schedule.
        """
        schedule = self._scheduler.schedule(cdcg, mapping)
        energy = total_energy_cdcm(
            schedule, self.platform, technology, self.include_local
        )
        return CdcmReport(
            application=cdcg.name,
            schedule=schedule,
            energy=energy,
        )

    def reprice(
        self, report: CdcmReport, technology: Technology
    ) -> CdcmReport:
        """Price an existing report under a different technology without rescheduling."""
        energy = total_energy_cdcm(
            report.schedule, self.platform, technology, self.include_local
        )
        return CdcmReport(
            application=report.application,
            schedule=report.schedule,
            energy=energy,
        )


__all__ = ["CdcmEvaluator", "CdcmReport"]
