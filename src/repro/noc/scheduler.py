"""Contention-aware replay of a CDCG over a mapped NoC (the CDCM engine).

This module implements the evaluation procedure described in Section 4 of the
paper: given a CDCG, a core-to-tile mapping and a platform, every packet is
"executed onto the CRG" — it is injected after its dependences are satisfied
and its source core's computation time has elapsed, and it then reserves the
routers and links along its XY route for the time intervals dictated by the
wormhole delay model (equations 6–8).  Packets that compete for the same
inter-router link are serialised: the later packet waits in the input buffer
of the router before the contention point and its remaining hops are delayed
accordingly, exactly as in the A->F / B->F contention of Figure 3(a)/Figure 4.

The result (:class:`ScheduleResult`) carries:

* one :class:`PacketSchedule` per packet — injection time, delivery time,
  path, contention delay;
* the cost-variable lists of every CRG vertex and edge
  (:class:`~repro.noc.resources.Occupation` records), matching the
  annotations of Figure 3;
* the application execution time ``texec`` used by the static-energy model.

The timing model is validated against the paper's worked example: it
reproduces every interval of Figure 3 and the execution times of 100 ns /
90 ns for the two mappings of Figure 1(c, d).

Pricing a mapping needs none of that trace: :meth:`CdcmScheduler.price`
runs the same replay over a CDCG compiled once into integer arrays (a
replay plan) and keeps only running aggregates — the execution time,
per-link busy time and each packet's ``(bits, hop_count)`` — which is what
every metric-only consumer (evaluation contexts, batches, pool workers, the
mapping service, co-design, scenarios) prices through.  :meth:`schedule`
stays the reference replay, and the source of reports, figures and Gantt
charts; the two are bit-identical by construction (same heap order, same
arithmetic, same addition order), pinned by ``tests/test_pricing.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping as TypingMapping, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.graphs.cdcg import CDCG, Packet
from repro.noc.platform import NocParameters, Platform
from repro.noc.resources import (
    LinkResource,
    LocalLinkResource,
    Occupation,
    Resource,
    RouterResource,
)
from repro.utils.errors import MappingError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.core.mapping import Mapping


@dataclass(frozen=True)
class PacketSchedule:
    """Timing of one packet's traversal of the NoC.

    All times are absolute nanoseconds from application start.

    Attributes
    ----------
    packet:
        The scheduled CDCG packet.
    source_tile, target_tile:
        Tiles hosting the packet's source and target cores.
    path:
        Router (tile) indices traversed, endpoints included.
    ready_time:
        Instant at which all dependence predecessors had been delivered.
    injection_time:
        ``ready_time + computation_time`` — the instant the source core offers
        the packet's head flit to its local link.
    delivery_time:
        Instant the packet's tail flit reaches the target core.
    contention_delay:
        Total extra delay accumulated waiting for busy links.
    num_flits:
        ``n_abq`` — number of flits of the packet on this platform.
    """

    packet: Packet
    source_tile: int
    target_tile: int
    path: Tuple[int, ...]
    ready_time: float
    injection_time: float
    delivery_time: float
    contention_delay: float
    num_flits: int

    @property
    def hop_count(self) -> int:
        """``K`` — number of routers traversed."""
        return len(self.path)

    @property
    def network_latency(self) -> float:
        """Time from injection to full delivery."""
        return self.delivery_time - self.injection_time

    @property
    def zero_load_latency(self) -> float:
        """Network latency this packet would have without any contention."""
        return self.network_latency - self.contention_delay


@dataclass
class ScheduleResult:
    """Outcome of replaying a CDCG over a mapped platform."""

    application: str
    execution_time: float
    packet_schedules: Dict[str, PacketSchedule]
    occupations: Dict[Resource, List[Occupation]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def schedule(self, packet_name: str) -> PacketSchedule:
        """Schedule of a single packet, by packet name."""
        try:
            return self.packet_schedules[packet_name]
        except KeyError as exc:
            raise SchedulingError(
                f"no packet named {packet_name!r} in schedule of {self.application!r}"
            ) from exc

    def total_contention_delay(self) -> float:
        """Sum of the contention delays of all packets."""
        return sum(s.contention_delay for s in self.packet_schedules.values())

    def contended_packets(self) -> List[str]:
        """Names of packets that suffered any contention, sorted."""
        return sorted(
            name
            for name, sched in self.packet_schedules.items()
            if sched.contention_delay > 0
        )

    def resource_occupations(self, resource: Resource) -> List[Occupation]:
        """Cost-variable list of one CRG resource, sorted by start time."""
        return sorted(self.occupations.get(resource, []), key=lambda o: o.start)

    def router_occupations(self, tile: int) -> List[Occupation]:
        """Cost-variable list of the router at *tile*."""
        return self.resource_occupations(RouterResource(tile))

    def link_occupations(self, source: int, target: int) -> List[Occupation]:
        """Cost-variable list of the inter-router link *source* -> *target*."""
        return self.resource_occupations(LinkResource(source, target))

    def local_link_occupations(self, tile: int) -> List[Occupation]:
        """Cost-variable list of the core-router link of *tile*."""
        return self.resource_occupations(LocalLinkResource(tile))

    def max_link_utilisation(self) -> float:
        """Largest fraction of ``execution_time`` any inter-router link is busy."""
        if self.execution_time <= 0:
            return 0.0
        best = 0.0
        for resource, occupations in self.occupations.items():
            if not isinstance(resource, LinkResource):
                continue
            busy = sum(o.duration for o in occupations)
            best = max(best, busy / self.execution_time)
        return best

    def bits_through_routers(self) -> int:
        """Total router traversals weighted by bits (dynamic-energy quantity)."""
        return sum(
            sum(o.bits for o in occupations)
            for resource, occupations in self.occupations.items()
            if isinstance(resource, RouterResource)
        )

    def bits_through_links(self) -> int:
        """Total inter-router link traversals weighted by bits."""
        return sum(
            sum(o.bits for o in occupations)
            for resource, occupations in self.occupations.items()
            if isinstance(resource, LinkResource)
        )

    def bits_through_local_links(self) -> int:
        """Total local (core-router) link traversals weighted by bits."""
        return sum(
            sum(o.bits for o in occupations)
            for resource, occupations in self.occupations.items()
            if isinstance(resource, LocalLinkResource)
        )


class ReplayPrice(NamedTuple):
    """What :meth:`CdcmScheduler.price` keeps of a replay.

    Attributes
    ----------
    execution_time:
        ``texec`` — the latest packet delivery (0.0 for an empty CDCG).
    max_link_utilisation:
        Largest fraction of ``execution_time`` any inter-router link is busy
        (:meth:`ScheduleResult.max_link_utilisation`).
    traffic:
        One ``(bits, hop_count)`` pair per packet, in delivery (heap-pop)
        order — the input of
        :func:`~repro.energy.dynamic.traffic_dynamic_energy`.
    """

    execution_time: float
    max_link_utilisation: float
    traffic: List[Tuple[int, int]]


class _ReplayPlan:
    """A CDCG compiled for :meth:`CdcmScheduler.price`.

    Packets become indices in CDCG declaration order (which is also the heap
    tie-break rank), cores become indices into :attr:`cores`, and
    dependences become integer successor lists plus predecessor counts.
    Stream times are precomputed from the platform's wormhole parameters.
    The plan records the CDCG's :attr:`~repro.graphs.cdcg.CDCG.revision`;
    the scheduler recompiles once the graph has been mutated.
    """

    __slots__ = (
        "cdcg",
        "revision",
        "cores",
        "source",
        "target",
        "computation",
        "bits",
        "stream",
        "successors",
        "predecessor_counts",
        "roots",
    )

    def __init__(self, cdcg: CDCG, parameters: NocParameters) -> None:
        self.cdcg = cdcg
        self.revision = cdcg.revision
        packets = cdcg.packets
        rank = {packet.name: index for index, packet in enumerate(packets)}
        self.cores = cdcg.cores()
        core_index = {core: index for index, core in enumerate(self.cores)}
        link_time = parameters.link_time
        self.source = [core_index[p.source] for p in packets]
        self.target = [core_index[p.target] for p in packets]
        self.computation = [p.computation_time for p in packets]
        self.bits = [p.bits for p in packets]
        self.stream = [parameters.flits(p.bits) * link_time for p in packets]
        self.successors = [
            sorted(rank[name] for name in cdcg.successors(p.name)) for p in packets
        ]
        self.predecessor_counts = [len(cdcg.predecessors(p.name)) for p in packets]
        roots = [
            (0.0 + p.computation_time, index)
            for index, p in enumerate(packets)
            if self.predecessor_counts[index] == 0
        ]
        heapq.heapify(roots)
        self.roots: List[Tuple[float, int]] = roots


class CdcmScheduler:
    """Replays a CDCG over a mapped platform, producing a :class:`ScheduleResult`.

    Parameters
    ----------
    platform:
        Target architecture (mesh, routing, wormhole parameters, technology).
    route_table:
        Optional pre-built :class:`~repro.eval.route_table.RouteTable`; by
        default the process-wide shared table for *platform* is used, so every
        packet's path is a precomputed O(1) lookup instead of a fresh XY walk
        per replay.
    """

    def __init__(self, platform: Platform, route_table=None) -> None:
        self.platform = platform
        if route_table is None:
            # Imported here rather than at module level: repro.eval builds on
            # the noc layer, so a top-level import would be circular.
            from repro.eval.route_table import get_route_table

            route_table = get_route_table(platform)
        self._route_table = route_table
        # The compiled plan of the most recently priced CDCG: one entry per
        # scheduler, so a context's scheduler holds exactly its own
        # application's plan and nothing outlives the scheduler.
        self._plan: Optional[_ReplayPlan] = None

    def _compiled(self, cdcg: CDCG) -> "_ReplayPlan":
        """The compiled replay plan of *cdcg* (cached, recompiled on mutation)."""
        plan = self._plan
        if plan is None or plan.cdcg is not cdcg or plan.revision != cdcg.revision:
            plan = _ReplayPlan(cdcg, self.platform.parameters)
            self._plan = plan
        return plan

    @property
    def route_table(self):
        """The route table replays read paths from (shared or custom)."""
        return self._route_table

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, cdcg: CDCG, mapping: "Mapping | TypingMapping[str, int]") -> ScheduleResult:
        """Replay *cdcg* with cores placed according to *mapping*.

        *mapping* may be a :class:`repro.core.mapping.Mapping` or any mapping
        from core name to tile index.

        Raises
        ------
        MappingError
            If a core of the application has no tile, or two cores share one.
        SchedulingError
            If the CDCG has a dependence cycle (it then never terminates).
        """
        tile_of = _tile_lookup(cdcg, mapping, self.platform)
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time

        # Dependence bookkeeping ------------------------------------------------
        order_index = {p.name: i for i, p in enumerate(cdcg.packets)}
        remaining_preds = {
            p.name: len(cdcg.predecessors(p.name)) for p in cdcg.packets
        }
        ready_time: Dict[str, float] = {
            p.name: 0.0 for p in cdcg.packets if remaining_preds[p.name] == 0
        }

        # Resource availability: next instant a contention resource is free.
        free_at: Dict[Resource, float] = {}
        occupations: Dict[Resource, List[Occupation]] = {}
        schedules: Dict[str, PacketSchedule] = {}

        # Event-driven processing: always schedule next the ready packet with
        # the earliest injection time, which approximates the FCFS arbitration
        # of a real router for independent packets.
        heap: List[Tuple[float, int, str]] = []
        for name, ready in ready_time.items():
            packet = cdcg.packet(name)
            injection = ready + packet.computation_time
            heapq.heappush(heap, (injection, order_index[name], name))

        scheduled_count = 0
        while heap:
            _, _, name = heapq.heappop(heap)
            packet = cdcg.packet(name)
            ready = ready_time[name]
            schedule = self._schedule_packet(
                packet,
                ready,
                tile_of[packet.source],
                tile_of[packet.target],
                tr,
                tl,
                params.flits(packet.bits),
                params.serialize_local_links,
                free_at,
                occupations,
            )
            schedules[name] = schedule
            scheduled_count += 1

            for successor in cdcg.successors(name):
                remaining_preds[successor] -= 1
                current = ready_time.get(successor, 0.0)
                ready_time[successor] = max(current, schedule.delivery_time)
                if remaining_preds[successor] == 0:
                    succ_packet = cdcg.packet(successor)
                    injection = (
                        ready_time[successor] + succ_packet.computation_time
                    )
                    heapq.heappush(
                        heap, (injection, order_index[successor], successor)
                    )

        if scheduled_count != cdcg.num_packets:
            raise SchedulingError(
                f"only {scheduled_count} of {cdcg.num_packets} packets could be "
                f"scheduled; the CDCG of {cdcg.name!r} has a dependence cycle"
            )

        execution_time = max(
            (s.delivery_time for s in schedules.values()), default=0.0
        )
        return ScheduleResult(
            application=cdcg.name,
            execution_time=execution_time,
            packet_schedules=schedules,
            occupations=occupations,
        )

    def price(self, cdcg: CDCG, mapping: "Mapping | TypingMapping[str, int]") -> "ReplayPrice":
        """Replay *cdcg* like :meth:`schedule`, keeping only what pricing reads.

        The result is bit-identical to the matching aggregates of
        :meth:`schedule`: the same heap order (injection time, then CDCG
        declaration order), the same grant arithmetic, link busy time summed
        as ``(start + stream) - start`` in grant order from ``0``, and the
        utilisation maximum taken over links in first-use order.  No
        per-resource occupation or per-packet schedule is built.

        Raises
        ------
        MappingError
            If a core of the application has no tile, or two cores share one.
        SchedulingError
            If the CDCG has a dependence cycle.
        """
        tile_of = _tile_lookup(cdcg, mapping, self.platform)
        plan = self._compiled(cdcg)
        tiles = [tile_of[core] for core in plan.cores]
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time
        serialize_local = params.serialize_local_links
        link_ids_of = self._route_table.link_ids
        source, target = plan.source, plan.target
        computation, bits, stream = plan.computation, plan.bits, plan.stream
        successors = plan.successors
        remaining = list(plan.predecessor_counts)
        ready = [0.0] * len(remaining)
        heap = list(plan.roots)

        free_local: Dict[int, float] = {}
        free_link: Dict[int, float] = {}
        busy: Dict[int, float] = {}
        traffic: List[Tuple[int, int]] = []
        execution_time = 0.0
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            injection, index = heappop(heap)
            source_tile = tiles[source[index]]
            target_tile = tiles[target[index]]
            route = link_ids_of(source_tile, target_tile)
            stream_time = stream[index]

            start = injection
            if serialize_local:
                available = free_local.get(source_tile, 0.0)
                if available > injection:
                    start = available
                free_local[source_tile] = start + stream_time
            head_arrival = start + tl
            # Inter-router hops, keyed by link id; the route crosses at least
            # one link, since the two endpoint cores sit on distinct tiles.
            for key in route:
                link_start = head_arrival + tr
                available = free_link.get(key, 0.0)
                if available > head_arrival and available + tr > link_start:
                    link_start = available + tr
                end = link_start + stream_time
                free_link[key] = end
                busy[key] = busy.get(key, 0) + (end - link_start)
                head_arrival = link_start + tl
            # The target router's output: the local link to the target core.
            link_start = head_arrival + tr
            if serialize_local:
                available = free_local.get(target_tile, 0.0)
                if available > head_arrival and available + tr > link_start:
                    link_start = available + tr
                free_local[target_tile] = link_start + stream_time
            delivery = link_start + stream_time
            if delivery > execution_time:
                execution_time = delivery
            traffic.append((bits[index], len(route) + 1))

            for successor in successors[index]:
                remaining[successor] -= 1
                if delivery > ready[successor]:
                    ready[successor] = delivery
                if remaining[successor] == 0:
                    heappush(heap, (ready[successor] + computation[successor], successor))

        if len(traffic) != cdcg.num_packets:
            raise SchedulingError(
                f"only {len(traffic)} of {cdcg.num_packets} packets could be "
                f"scheduled; the CDCG of {cdcg.name!r} has a dependence cycle"
            )
        utilisation = 0.0
        if execution_time > 0:
            for busy_time in busy.values():
                utilisation = max(utilisation, busy_time / execution_time)
        return ReplayPrice(execution_time, utilisation, traffic)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule_packet(
        self,
        packet: Packet,
        ready: float,
        source_tile: int,
        target_tile: int,
        tr: float,
        tl: float,
        num_flits: int,
        serialize_local: bool,
        free_at: Dict[Resource, float],
        occupations: Dict[Resource, List[Occupation]],
    ) -> PacketSchedule:
        """Reserve the resources along one packet's route and time its delivery."""
        path = self._route_table.path(source_tile, target_tile)
        injection = ready + packet.computation_time
        stream_time = num_flits * tl
        contention = 0.0

        # Source local link: the core streams the whole packet to its router.
        source_local = LocalLinkResource(source_tile)
        source_start = injection
        if serialize_local:
            available = free_at.get(source_local, 0.0)
            if available > injection:
                source_start = available
                contention += source_start - injection
            free_at[source_local] = source_start + stream_time
        _record(
            occupations,
            source_local,
            Occupation(
                packet.name,
                packet.bits,
                source_start,
                source_start + stream_time,
                contended=source_start > injection,
            ),
        )

        # Header progresses hop by hop; the tail follows (num_flits - 1) x tl
        # behind the header once the header's output has been granted.
        head_arrival = source_start + tl
        link_start = head_arrival  # placeholder, overwritten in the loop
        for position, router_tile in enumerate(path):
            is_last = position == len(path) - 1
            if is_last:
                output: Resource = LocalLinkResource(target_tile)
                output_contends = serialize_local
            else:
                output = LinkResource(router_tile, path[position + 1])
                output_contends = True

            earliest = head_arrival + tr
            link_start = earliest
            contended_here = False
            if output_contends:
                available = free_at.get(output, 0.0)
                if available > head_arrival:
                    # The header waits in this router's input buffer until the
                    # output link is released, then still pays the routing /
                    # arbitration latency tr before streaming out.
                    link_start = max(link_start, available + tr)
                if link_start > earliest:
                    contended_here = True
                    contention += link_start - earliest
                free_at[output] = link_start + stream_time

            _record(
                occupations,
                RouterResource(router_tile),
                Occupation(
                    packet.name,
                    packet.bits,
                    head_arrival,
                    link_start + (num_flits - 1) * tl,
                    contended=contended_here,
                ),
            )
            _record(
                occupations,
                output,
                Occupation(
                    packet.name,
                    packet.bits,
                    link_start,
                    link_start + stream_time,
                    contended=contended_here,
                ),
            )
            head_arrival = link_start + tl

        delivery = link_start + stream_time
        return PacketSchedule(
            packet=packet,
            source_tile=source_tile,
            target_tile=target_tile,
            path=tuple(path),
            ready_time=ready,
            injection_time=injection,
            delivery_time=delivery,
            contention_delay=contention,
            num_flits=num_flits,
        )


def _record(
    occupations: Dict[Resource, List[Occupation]],
    resource: Resource,
    occupation: Occupation,
) -> None:
    occupations.setdefault(resource, []).append(occupation)


def _tile_lookup(
    cdcg: CDCG,
    mapping: "Mapping | TypingMapping[str, int]",
    platform: Platform,
) -> Dict[str, int]:
    """Normalise *mapping* into a plain ``core -> tile`` dict and validate it."""
    if hasattr(mapping, "assignments"):
        assignments = dict(mapping.assignments())  # repro.core.mapping.Mapping
    else:
        assignments = dict(mapping)

    cores = cdcg.cores()
    missing = [core for core in cores if core not in assignments]
    if missing:
        raise MappingError(
            f"mapping does not place cores {missing} of application {cdcg.name!r}"
        )
    used = {}
    for core in cores:
        tile = assignments[core]
        if not platform.mesh.contains(tile):
            raise MappingError(
                f"core {core!r} mapped to tile {tile}, outside {platform.mesh}"
            )
        if tile in used:
            raise MappingError(
                f"cores {used[tile]!r} and {core!r} are both mapped to tile {tile}"
            )
        used[tile] = core
    return {core: assignments[core] for core in cores}


__all__ = [
    "CdcmScheduler",
    "ScheduleResult",
    "PacketSchedule",
    "ReplayPrice",
]
