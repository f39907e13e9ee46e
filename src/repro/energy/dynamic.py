"""Dynamic (switching) energy — equations (3) and (4) of the paper.

Dynamic energy is proportional to the traffic crossing each router and link.
For CWM the traffic is the per-flow bit volume of the CWG (equation 3); for
CDCM it is the per-packet bit volume of the CDCG (equation 4).  Both models
estimate the *same* dynamic energy for a given mapping — the difference
between them is the ability to estimate execution time and hence static
energy, not the dynamic term.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping as TypingMapping, Tuple, Union

from repro.energy.bit_energy import bit_energy_route
from repro.energy.technology import Technology
from repro.graphs.cwg import CWG
from repro.noc.resources import (
    LinkResource,
    LocalLinkResource,
    Resource,
    RouterResource,
)
from repro.utils.errors import MappingError

if TYPE_CHECKING:  # pragma: no cover - imported for type checking only
    from repro.noc.platform import Platform
    from repro.noc.scheduler import ScheduleResult


def _assignments(mapping: Union["TypingMapping[str, int]", object]) -> Dict[str, int]:
    """Accept either a plain dict or a :class:`repro.core.mapping.Mapping`."""
    if hasattr(mapping, "assignments"):
        return dict(mapping.assignments())
    return dict(mapping)  # type: ignore[arg-type]


def communication_dynamic_energy(
    bits: int,
    hop_count: int,
    technology: Technology,
    include_local: bool = True,
) -> float:
    """Dynamic energy of one communication of *bits* bits over *hop_count* routers.

    This is ``w_ab x EBit_ij`` (CWM) or ``w_abq x EBit_ij`` (CDCM, per packet).
    """
    return bits * bit_energy_route(technology, hop_count, include_local)


def cwm_dynamic_energy(
    cwg: CWG,
    mapping: Union["TypingMapping[str, int]", object],
    platform: Platform,
    include_local: bool = True,
) -> float:
    """``EDyNoC`` under CWM (equation 3) for a given mapping.

    Sums, over every CWG edge, the edge's bit volume multiplied by the
    per-bit energy of the XY route between the tiles its endpoints are mapped
    to.
    """
    tiles = _assignments(mapping)
    technology = platform.technology
    total = 0.0
    for comm in cwg.communications():
        try:
            source_tile = tiles[comm.source]
            target_tile = tiles[comm.target]
        except KeyError as exc:
            raise MappingError(
                f"mapping does not place core {exc.args[0]!r} of CWG {cwg.name!r}"
            ) from exc
        hops = platform.hop_count(source_tile, target_tile)
        total += communication_dynamic_energy(
            comm.bits, hops, technology, include_local
        )
    return total


def traffic_dynamic_energy(
    traffic: Iterable[Tuple[int, int]],
    technology: Technology,
    include_local: bool = True,
) -> float:
    """``EDyNoC`` (equation 4) of ``(bits, hop_count)`` pairs, summed in order.

    The one place the CDCM dynamic-energy sum lives: both
    :func:`cdcm_dynamic_energy` (over a full schedule) and the trace-free
    pricing replay (:meth:`~repro.noc.scheduler.CdcmScheduler.price`) feed
    it their packets in delivery order, so the two totals are bit-identical.
    """
    per_bit: Dict[int, float] = {}
    total = 0.0
    for bits, hop_count in traffic:
        energy = per_bit.get(hop_count)
        if energy is None:
            energy = per_bit[hop_count] = bit_energy_route(
                technology, hop_count, include_local
            )
        total += bits * energy
    return total


def cdcm_dynamic_energy(
    schedule: ScheduleResult,
    technology: Technology,
    include_local: bool = True,
) -> float:
    """``EDyNoC`` under CDCM (equation 4) from a schedule result.

    Sums, over every packet, the packet's bit volume multiplied by the per-bit
    energy of its route.  For a common application this equals the CWM value
    of the same mapping — both count the same bits over the same routes.
    """
    return traffic_dynamic_energy(
        (
            (packet_schedule.packet.bits, packet_schedule.hop_count)
            for packet_schedule in schedule.packet_schedules.values()
        ),
        technology,
        include_local,
    )


def dynamic_energy_breakdown(
    schedule: ScheduleResult,
    technology: Technology,
) -> Dict[Resource, float]:
    """Per-resource dynamic energy, from the schedule's cost-variable lists.

    Routers dissipate ``ERbit`` per bit, inter-router links ``ELbit`` per bit,
    local core links ``ECbit`` per bit.  Summing the returned values gives the
    same total as :func:`cdcm_dynamic_energy` (with ``include_local=True``).
    """
    breakdown: Dict[Resource, float] = {}
    for resource, occupations in schedule.occupations.items():
        bits = sum(o.bits for o in occupations)
        if isinstance(resource, RouterResource):
            per_bit = technology.e_rbit
        elif isinstance(resource, LinkResource):
            per_bit = technology.e_lbit
        elif isinstance(resource, LocalLinkResource):
            per_bit = technology.e_cbit
        else:  # pragma: no cover - exhaustive over Resource union
            raise TypeError(f"unknown resource type {type(resource).__name__}")
        breakdown[resource] = bits * per_bit
    return breakdown


__all__ = [
    "communication_dynamic_energy",
    "cwm_dynamic_energy",
    "cdcm_dynamic_energy",
    "traffic_dynamic_energy",
    "dynamic_energy_breakdown",
]
