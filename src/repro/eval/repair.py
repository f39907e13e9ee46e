"""Bounded-repair CDCM deltas — incremental rescheduling with resync guarantees.

CWM swaps are exactly repriceable in O(degree) because the model is a sum of
independent per-edge terms.  CDCM is not: contention couples every packet
through the link arbiters, so the only always-exact swap price is a full
replay of the schedule.  This module implements the middle ground ROADMAP
item 3 asks for — a *bounded repair*: for a two-tile swap it replays only

1. the **seed** packets whose routes actually change (an endpoint core sits
   on one of the swapped tiles),
2. the packets occupying any contention resource the seeds' old or new
   routes touch *at or after the earliest instant a seed reservation can
   change there* (grants are made in start order, so earlier occupations
   keep their grants and stay frozen), and
3. up to ``closure_depth`` adaptive extension rounds of the packets on the
   step's own *frontier* (see below), capped at ``max_replay_fraction`` of
   the application,

against a frozen background of everything else
(:class:`~repro.noc.scheduler.FrozenOccupations`), extending the replay set
with the dependence successors of any packet whose delivery moved until the
set is closed.  The per-resource occupation indices
(:func:`~repro.noc.scheduler.contention_index`) are kept incrementally
updated across accepted swaps, so consecutive deltas never rebuild them.

**Exact or bounded.**  After a bounded step the engine checks its *frontier*:
background occupations that start at or after the earliest replayed change on
a touched resource.  An empty frontier means no frozen grant could have been
re-arbitrated — the step is exact (the usual case on large fabrics, where a
swap's contention is local).  A non-empty frontier makes the step an
approximation; the engine then accumulates a conservative error estimate
(the frontier packets' potential serialisation shifts, mapped through the
static-power and scalarisation weights) as *drift*.

**Resync.**  Exactness is restored by full-replay resyncs: every
``resync_every``-th accepted swap, or as soon as the accumulated drift
estimate exceeds ``max_drift`` of the tracked cost, the next delta is priced
by a full replay and returned as ``exact - tracked`` — so the running sum
``cost0 + sum(deltas)`` coincides with the true cost at every resync point
*by construction*, regardless of how the estimates behaved in between.  The
conformance bound is pinned by ``tests/delta_harness.py`` /
``tests/test_repair.py``.

The engine is consumed through
:meth:`repro.eval.context.CdcmEvaluationContext.metric_delta` behind the
``repair`` gate (default-on via :data:`DEFAULT_REPAIR`, pinned off by
:class:`repro.analysis.comparison.ComparisonConfig` so the paper-reproduction
rows keep full-replay pricing), mirroring the ``use_delta`` convention.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.mapping import Mapping
from repro.core.metrics import CDCM_METRIC_NAMES, MetricVector
from repro.energy.dynamic import cdcm_dynamic_energy, communication_dynamic_energy
from repro.energy.static import noc_static_power
from repro.graphs.cdcg import CDCG
from repro.noc.platform import Platform
from repro.noc.resources import LinkResource, Occupation, Resource
from repro.noc.scheduler import (
    CdcmScheduler,
    FrozenOccupations,
    PacketSchedule,
    ScheduleResult,
    contention_index,
)
from repro.utils.errors import ConfigurationError, MappingError

#: Default state of the CDCM bounded-repair gate — on, the right choice for
#: swap-based search; :class:`~repro.analysis.comparison.ComparisonConfig`
#: pins it off for the paper-reproduction rows (the ``use_delta``
#: convention).
DEFAULT_REPAIR = True

#: Relative floor under which drift comparisons treat the tracked cost as 1.
_DRIFT_FLOOR = 1e-12

#: The zero delta (both tiles empty, or a tile swapped with itself).
_ZERO_DELTA = MetricVector(CDCM_METRIC_NAMES, (0.0, 0.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class RepairPolicy:
    """Knobs of the bounded-repair / resync contract.

    Attributes
    ----------
    resync_every:
        A full-replay resync is scheduled on every ``resync_every``-th
        accepted swap even if the drift estimate stays low — the periodic
        half of the exactness guarantee.
    max_drift:
        Forced-resync threshold: as soon as the accumulated drift estimate
        exceeds ``max_drift x |tracked cost|`` the next delta is priced by a
        full replay.
    closure_depth:
        How many adaptive frontier-extension rounds a bounded step may
        spend pulling its frontier packets into the replay set.  0 replays
        seeds and windowed occupants only; deeper closures make bounded
        steps provably exact more often at higher replay cost.
    max_replay_fraction:
        Cap on the replay-set size as a fraction of the application's
        packets; frontier extension stops once pulling the frontier in
        would exceed it (the step stays bounded and drift-tracked).
    """

    resync_every: int = 64
    max_drift: float = 0.05
    closure_depth: int = 3
    max_replay_fraction: float = 0.5

    def __post_init__(self) -> None:
        """Validate the policy (positive period, non-negative bounds)."""
        if self.resync_every < 1:
            raise ConfigurationError(
                f"resync_every must be >= 1, got {self.resync_every}"
            )
        if self.max_drift < 0:
            raise ConfigurationError(
                f"max_drift must be non-negative, got {self.max_drift}"
            )
        if self.closure_depth < 0:
            raise ConfigurationError(
                f"closure_depth must be non-negative, got {self.closure_depth}"
            )
        if not 0.0 <= self.max_replay_fraction <= 1.0:
            raise ConfigurationError(
                "max_replay_fraction must be within [0, 1], got "
                f"{self.max_replay_fraction}"
            )


@dataclass
class RepairStats:
    """Counters of one engine's life — exposed for benchmarks and tests.

    Attributes
    ----------
    deltas:
        Swap deltas priced (including the zero-delta short-circuits).
    promotions:
        Candidates accepted into the tracked base state.
    anchors:
        Full replays spent (re-)anchoring the base to an unknown mapping.
    resyncs:
        Deltas priced by a full replay because the resync period elapsed.
    forced_resyncs:
        Deltas priced by a full replay because drift exceeded ``max_drift``.
    exact_steps:
        Bounded deltas whose frontier was empty (provably exact).
    bounded_steps:
        Bounded deltas with a non-empty frontier (approximate, drift-tracked).
    replayed_packets:
        Total packets partially replayed across all bounded deltas.
    """

    deltas: int = 0
    promotions: int = 0
    anchors: int = 0
    resyncs: int = 0
    forced_resyncs: int = 0
    exact_steps: int = 0
    bounded_steps: int = 0
    replayed_packets: int = 0


@dataclass(frozen=True)
class RepairOutcome:
    """How the most recent delta was priced (see ``CdcmRepairEngine.last_outcome``).

    Attributes
    ----------
    exact:
        Whether the returned delta is exact — true for resyncs, anchored
        zero-deltas and bounded steps with an empty frontier.
    resynced:
        Whether the delta was priced by a full replay (period elapsed or
        drift exceeded ``max_drift``).
    replayed:
        Number of packets replayed (the whole application for resyncs).
    estimated_error:
        The scalarised error estimate this step would add to the drift if
        accepted (0.0 for exact steps).
    """

    exact: bool
    resynced: bool
    replayed: int
    estimated_error: float


@dataclass
class _BaseState:
    """The engine's tracked world: one mapping's schedule plus repair metadata."""

    mapping: Mapping
    tile_of: Dict[str, int]
    schedules: Dict[str, PacketSchedule]
    index: Dict[Resource, List[Occupation]]
    footprints: Dict[str, List[Tuple[Resource, Occupation]]]
    metrics: MetricVector
    #: Total busy time per inter-router link — the running numerator of the
    #: ``max_link_utilisation`` metric component, spliced incrementally.
    link_busy: Dict[Resource, float] = field(default_factory=dict)
    drift: float = 0.0
    swaps_since_resync: int = 0


@dataclass
class _Candidate:
    """A priced-but-not-yet-accepted swap, promotable into the base state."""

    mapping: Mapping
    origin: _BaseState
    delta: MetricVector
    outcome: RepairOutcome
    #: Full fresh state (resync path) — replaces the base wholesale.
    fresh: Optional[_BaseState] = None
    #: Bounded-repair patch (splice path), applied to ``origin`` in place.
    tile_of: Optional[Dict[str, int]] = None
    replay: FrozenSet[str] = frozenset()
    #: Replayed packets whose contention footprint actually moved — the only
    #: ones whose index entries a promotion must rebuild.
    changed: FrozenSet[str] = frozenset()
    schedules: Dict[str, PacketSchedule] = field(default_factory=dict)
    footprints: Dict[str, List[Tuple[Resource, Occupation]]] = field(
        default_factory=dict
    )
    metrics: Optional[MetricVector] = None
    #: Per-link busy-time change of the ``changed`` packets, applied to the
    #: base's :attr:`_BaseState.link_busy` on promotion.
    link_busy_delta: Dict[Resource, float] = field(default_factory=dict)


def _occupation_start(occupation: Occupation) -> float:
    """Sort key of an occupation inside a per-resource index list."""
    return occupation.start


class CdcmRepairEngine:
    """Stateful bounded-repair pricer of CDCM two-tile swaps.

    The engine tracks one *base* mapping (schedule, occupation indices,
    metric vector).  :meth:`metric_delta` prices the swap ``(tile_a,
    tile_b)`` against it and remembers the candidate; when the next call's
    mapping *is* that candidate (the accept-then-continue pattern of
    annealing and greedy), the candidate's partial replay is spliced into
    the base instead of recomputing anything.  Unknown mappings re-anchor
    with a full replay, so out-of-protocol callers lose speed, never
    correctness.

    Parameters
    ----------
    cdcg:
        Packet-level application model.
    platform:
        Target architecture (topology, wormhole parameters, technology).
    route_table:
        Optional pre-built route table shared with the owning evaluator.
    include_local:
        Whether local core-router links contribute to dynamic energy.
    weights:
        Scalarisation weights used only to map the time-domain error
        estimate onto the tracked cost for drift decisions; defaults to the
        paper objective ``{"energy": 1.0}``.
    policy:
        Resync/drift contract; defaults to :class:`RepairPolicy`.
    """

    def __init__(
        self,
        cdcg: CDCG,
        platform: Platform,
        route_table=None,
        include_local: bool = True,
        weights: Optional[Dict[str, float]] = None,
        policy: Optional[RepairPolicy] = None,
    ) -> None:
        self.cdcg = cdcg
        self.platform = platform
        self.include_local = include_local
        self.weights = dict(weights) if weights else {"energy": 1.0}
        self.policy = policy if policy is not None else RepairPolicy()
        self.scheduler = CdcmScheduler(platform, route_table=route_table)
        self.stats = RepairStats()
        #: :class:`RepairOutcome` of the most recent :meth:`metric_delta`.
        self.last_outcome: Optional[RepairOutcome] = None
        self._serialize_local = platform.parameters.serialize_local_links
        self._link_time = platform.parameters.link_time
        self._routing_time = platform.parameters.routing_time
        self._static_power = noc_static_power(
            platform.technology, platform.num_tiles
        )
        self._base: Optional[_BaseState] = None
        self._candidate: Optional[_Candidate] = None
        # Hot-path lookup tables: per-core packet names (seed discovery)
        # and per-tile-pair contention resources (window construction).
        self._packets_of_core: Dict[str, List[str]] = {}
        for packet in cdcg.packets:
            self._packets_of_core.setdefault(packet.source, []).append(
                packet.name
            )
            if packet.target != packet.source:
                self._packets_of_core.setdefault(packet.target, []).append(
                    packet.name
                )
        self._route_cache: Dict[Tuple[int, int], List[Resource]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Per-component cost change of ``mapping.swap_tiles(tile_a, tile_b)``.

        Exact after a resync or when the bounded step's frontier is empty
        (see :attr:`last_outcome`), bounded by the drift contract otherwise.
        Either tile may be empty; swapping two empty tiles (or a tile with
        itself) prices exactly 0.
        """
        if not isinstance(mapping, Mapping):
            mapping = Mapping(mapping, self.platform.num_tiles)
        n = self.platform.num_tiles
        for tile in (tile_a, tile_b):
            if not 0 <= tile < n:
                raise MappingError(
                    f"tile {tile} outside the {n}-tile {self.platform.mesh}"
                )
        self.stats.deltas += 1
        base = self._ensure_base(mapping)
        core_a = mapping.core_at(tile_a)
        core_b = mapping.core_at(tile_b)
        if tile_a == tile_b or (core_a is None and core_b is None):
            self.last_outcome = RepairOutcome(
                exact=True, resynced=False, replayed=0, estimated_error=0.0
            )
            return _ZERO_DELTA

        candidate_mapping = mapping.swap_tiles(tile_a, tile_b)
        policy = self.policy
        scheduled = base.swaps_since_resync + 1 >= policy.resync_every
        threshold = policy.max_drift * max(
            abs(self._scalarise(base.metrics)), _DRIFT_FLOOR
        )
        forced = base.drift > 0.0 and base.drift > threshold
        if scheduled or forced:
            if scheduled:
                self.stats.resyncs += 1
            else:
                self.stats.forced_resyncs += 1
            candidate = self._resync_candidate(base, candidate_mapping)
        else:
            candidate = self._repair_candidate(
                base, candidate_mapping, core_a, core_b
            )
        self._candidate = candidate
        self.last_outcome = candidate.outcome
        return candidate.delta

    def tracked_metrics(self) -> Optional[MetricVector]:
        """The base state's tracked metric vector (``None`` before any delta)."""
        base = self._base
        return base.metrics if base is not None else None

    def reset(self) -> None:
        """Forget the tracked base and candidate (stats are kept)."""
        self._base = None
        self._candidate = None

    # ------------------------------------------------------------------
    # Base-state lifecycle
    # ------------------------------------------------------------------
    def _ensure_base(self, mapping: Mapping) -> _BaseState:
        """Resolve *mapping* to the tracked base: reuse, promote, or re-anchor."""
        base = self._base
        if base is not None and base.mapping == mapping:
            return base
        candidate = self._candidate
        if (
            candidate is not None
            and candidate.origin is base
            and candidate.mapping == mapping
        ):
            self._promote(candidate)
            assert self._base is not None
            return self._base
        self.stats.anchors += 1
        self._base = self._full_state(mapping)
        self._candidate = None
        return self._base

    def _full_state(self, mapping: Mapping) -> _BaseState:
        """Full replay of *mapping* packaged as an exact base state."""
        result = self.scheduler.schedule(self.cdcg, mapping)
        index = contention_index(result, self._serialize_local)
        footprints: Dict[str, List[Tuple[Resource, Occupation]]] = {
            name: [] for name in result.packet_schedules
        }
        for resource, occupations in index.items():
            for occupation in occupations:
                footprints[occupation.packet].append((resource, occupation))
        tile_of = {core: mapping.tile_of(core) for core in self.cdcg.cores()}
        link_busy: Dict[Resource, float] = {}
        for resource, occupations in index.items():
            if isinstance(resource, LinkResource):
                link_busy[resource] = sum(o.duration for o in occupations)
        return _BaseState(
            mapping=mapping,
            tile_of=tile_of,
            schedules=dict(result.packet_schedules),
            index=index,
            footprints=footprints,
            metrics=self._exact_metrics(result),
            link_busy=link_busy,
        )

    def _exact_metrics(self, result: ScheduleResult) -> MetricVector:
        """Metric vector of a full replay — same arithmetic as the evaluator."""
        technology = self.platform.technology
        dynamic = cdcm_dynamic_energy(result, technology, self.include_local)
        static = self._static_power * result.execution_time
        return MetricVector(
            CDCM_METRIC_NAMES,
            (
                dynamic + static,
                result.execution_time,
                dynamic,
                static,
                result.max_link_utilisation(),
            ),
        )

    def _scalarise(self, metrics: MetricVector) -> float:
        """The engine's weight view of a metric vector (drift bookkeeping)."""
        return metrics.weighted_sum(self.weights, strict=False)

    def _promote(self, candidate: _Candidate) -> None:
        """Accept *candidate*: splice its replay (or fresh state) into the base."""
        self.stats.promotions += 1
        self._candidate = None
        if candidate.fresh is not None:
            self._base = candidate.fresh
            return
        base = candidate.origin
        changed = candidate.changed
        # Rebuild only the dirty resources of the packets whose footprint
        # actually moved: filtering on the packet name is much cheaper than
        # value-equality list removals of Occupations, and replayed packets
        # that rescheduled identically keep their (equal) index entries.
        dirty: Set[Resource] = set()
        added: Dict[Resource, List[Occupation]] = {}
        for name in changed:
            for resource, _ in base.footprints.get(name, ()):
                dirty.add(resource)
            for resource, occupation in candidate.footprints[name]:
                dirty.add(resource)
                added.setdefault(resource, []).append(occupation)
        for resource in dirty:
            entries = [
                o
                for o in base.index.get(resource, ())
                if o.packet not in changed
            ]
            new = added.get(resource)
            if new:
                entries.extend(new)
                entries.sort(key=_occupation_start)
            if entries:
                base.index[resource] = entries
            else:
                base.index.pop(resource, None)
        for name in changed:
            # The candidate is consumed by the promotion, so its footprint
            # lists can be adopted without copying.
            base.footprints[name] = candidate.footprints[name]
        for name in candidate.replay:
            # Schedules are refreshed for every replayed packet: an equal
            # footprint pins the delivery time but not e.g. the injection
            # time, which later window builds read.
            base.schedules[name] = candidate.schedules[name]
        for resource, change in candidate.link_busy_delta.items():
            updated = base.link_busy.get(resource, 0.0) + change
            if updated == 0.0:
                base.link_busy.pop(resource, None)
            else:
                base.link_busy[resource] = updated
        assert candidate.metrics is not None and candidate.tile_of is not None
        base.metrics = candidate.metrics
        base.mapping = candidate.mapping
        base.tile_of = candidate.tile_of
        base.drift += candidate.outcome.estimated_error
        base.swaps_since_resync += 1
        self._base = base

    # ------------------------------------------------------------------
    # Candidate pricing
    # ------------------------------------------------------------------
    def _resync_candidate(
        self, base: _BaseState, candidate_mapping: Mapping
    ) -> _Candidate:
        """Price a swap by full replay; the delta absorbs any tracked drift."""
        fresh = self._full_state(candidate_mapping)
        delta = MetricVector(
            CDCM_METRIC_NAMES,
            tuple(
                new - old
                for new, old in zip(fresh.metrics.values, base.metrics.values)
            ),
        )
        outcome = RepairOutcome(
            exact=True,
            resynced=True,
            replayed=self.cdcg.num_packets,
            estimated_error=0.0,
        )
        return _Candidate(
            mapping=candidate_mapping,
            origin=base,
            delta=delta,
            outcome=outcome,
            fresh=fresh,
        )

    def _repair_candidate(
        self,
        base: _BaseState,
        candidate_mapping: Mapping,
        core_a: Optional[str],
        core_b: Optional[str],
    ) -> _Candidate:
        """Price a swap by bounded partial replay against the frozen base."""
        cdcg = self.cdcg
        moved = {core for core in (core_a, core_b) if core is not None}
        new_tile_of = dict(base.tile_of)
        for core in moved:
            if core in new_tile_of:
                new_tile_of[core] = candidate_mapping.tile_of(core)
        # Cores outside the application may sit on the swapped tiles; they
        # influence nothing the CDCG replays.
        seen: Set[str] = set()
        seeds: List[str] = []
        for core in moved:
            for name in self._packets_of_core.get(core, ()):
                if name not in seen:
                    seen.add(name)
                    seeds.append(name)

        # Per touched resource, the earliest instant a seed's reservation can
        # change there: its old occupation start (removal) on the old route,
        # its injection time plus the zero-contention head latency to that
        # hop (the earliest any new occupation can start) on the new one.
        # Grants are made in start order, so occupations starting before
        # that window cannot move — they stay frozen in the background
        # instead of joining the replay.
        window: Dict[Resource, float] = {}
        touched: Set[Resource] = set()
        for name in seeds:
            for resource, occupation in base.footprints.get(name, ()):
                touched.add(resource)
                known = window.get(resource)
                if known is None or occupation.start < known:
                    window[resource] = occupation.start
            packet = cdcg.packet(name)
            injection = base.schedules[name].injection_time
            for resource, head_latency in self._route_resources(
                new_tile_of[packet.source], new_tile_of[packet.target]
            ):
                touched.add(resource)
                earliest = injection + head_latency
                known = window.get(resource)
                if known is None or earliest < known:
                    window[resource] = earliest

        replay: Set[str] = set(seeds)
        # Pre-pull the *binding cone*: successors whose ready floor is set
        # by a packet already being replayed (base delivery == successor
        # floor).  When a seed's delivery moves, exactly these cascade —
        # predicting them from the base schedule saves the growth fixpoint
        # below a full subset re-replay per cascade level.
        stack = list(seeds)
        while stack:
            name = stack.pop()
            delivery = base.schedules[name].delivery_time
            for successor in cdcg.successors(name):
                if successor in replay:
                    continue
                floor = max(
                    base.schedules[pred].delivery_time
                    for pred in cdcg.predecessors(successor)
                )
                if floor == delivery:
                    replay.add(successor)
                    stack.append(successor)
        replay |= self._occupants_after(base, window)

        # Replay against the frozen rest, then adaptively extend the replay
        # set: with the dependence successors of any delivery that moved
        # (the frozen ready floors must stay consistent), and — while the
        # ``closure_depth`` round budget and the ``max_replay_fraction`` cap
        # last — with the frontier packets themselves, the frozen grants a
        # full replay would have re-arbitrated.  Each extension round
        # either empties the frontier (the step becomes provably exact) or
        # exhausts the budget, leaving a drift-tracked bounded step.
        cap = max(
            len(replay),
            int(cdcg.num_packets * self.policy.max_replay_fraction),
        )
        rounds = self.policy.closure_depth
        # The frozen background is patched, not rebuilt, as the replay set
        # grows: only the resources of newly pulled-in packets need their
        # occupation lists re-filtered.
        bg_map: Dict[Resource, List[Occupation]] = {}
        to_refresh: Set[Resource] = set(touched)
        for name in replay:
            to_refresh.update(r for r, _ in base.footprints.get(name, ()))
        while True:
            while True:
                floors = self._ready_floors(base, replay)
                for resource in to_refresh:
                    occupations = [
                        o
                        for o in base.index.get(resource, ())
                        if o.packet not in replay
                    ]
                    if occupations:
                        bg_map[resource] = occupations
                    else:
                        bg_map.pop(resource, None)
                to_refresh.clear()
                background = FrozenOccupations(bg_map)
                sub = self.scheduler.schedule_subset(
                    cdcg, new_tile_of, replay, floors, background
                )
                # A replayed delivery shift invalidates a frozen successor
                # only when it changes the successor's binding ready floor
                # (ready = max over predecessor deliveries) — with several
                # predecessors the moved one is rarely binding, so the true
                # cascade is much shallower than the dependence cone.
                grew: Set[str] = set()
                for name, schedule in sub.schedules.items():
                    if (
                        schedule.delivery_time
                        == base.schedules[name].delivery_time
                    ):
                        continue
                    for successor in cdcg.successors(name):
                        if successor in replay or successor in grew:
                            continue
                        old_floor = 0.0
                        new_floor = 0.0
                        for pred in cdcg.predecessors(successor):
                            old_delivery = base.schedules[pred].delivery_time
                            if old_delivery > old_floor:
                                old_floor = old_delivery
                            replayed = sub.schedules.get(pred)
                            new_delivery = (
                                replayed.delivery_time
                                if replayed is not None
                                else old_delivery
                            )
                            if new_delivery > new_floor:
                                new_floor = new_delivery
                        if new_floor != old_floor:
                            grew.add(successor)
                if not grew:
                    break
                for name in grew:
                    to_refresh.update(
                        r for r, _ in base.footprints.get(name, ())
                    )
                replay |= grew

            # Frontier: frozen grants at or after the earliest replayed
            # change on a resource would have been re-arbitrated by a full
            # replay — their absence proves the step exact.
            affected: Dict[Resource, float] = {}
            shift: Dict[Resource, float] = {}
            changed: Set[str] = set()
            for name in replay:
                old_footprint = base.footprints.get(name, [])
                new_footprint = sub.footprints[name]
                if old_footprint == new_footprint:
                    continue  # byte-identical reservations constrain nobody
                changed.add(name)
                aligned = len(old_footprint) == len(new_footprint) and all(
                    o[0] == n[0]
                    for o, n in zip(old_footprint, new_footprint)
                )
                if aligned:
                    # Same route: entries pair up positionally, and the
                    # byte-identical pairs constrain nobody either.
                    for (resource, old_occ), (_, new_occ) in zip(
                        old_footprint, new_footprint
                    ):
                        if old_occ == new_occ:
                            continue
                        start = (
                            old_occ.start
                            if old_occ.start < new_occ.start
                            else new_occ.start
                        )
                        known = affected.get(resource)
                        if known is None or start < known:
                            affected[resource] = start
                        shift[resource] = shift.get(resource, 0.0) + abs(
                            new_occ.end - old_occ.end
                        )
                    continue
                old_by = {r: o for r, o in old_footprint}
                new_by = {r: o for r, o in new_footprint}
                for resource, occupation in old_footprint:
                    known = affected.get(resource)
                    if known is None or occupation.start < known:
                        affected[resource] = occupation.start
                    other = new_by.get(resource)
                    moved_by = (
                        abs(other.end - occupation.end)
                        if other is not None
                        else occupation.end - occupation.start
                    )
                    shift[resource] = shift.get(resource, 0.0) + moved_by
                for resource, occupation in new_footprint:
                    known = affected.get(resource)
                    if known is None or occupation.start < known:
                        affected[resource] = occupation.start
                    if resource not in old_by:
                        shift[resource] = shift.get(resource, 0.0) + (
                            occupation.end - occupation.start
                        )
            frontier: Set[str] = set()
            frontier_resources: Set[Resource] = set()
            for resource, start in affected.items():
                blocked = background.starting_at_or_after(resource, start)
                if blocked:
                    frontier_resources.add(resource)
                    frontier.update(o.packet for o in blocked)
            exact = not frontier
            if (
                exact
                or rounds <= 0
                or len(replay) + len(frontier) > cap
            ):
                break
            rounds -= 1
            for name in frontier:
                to_refresh.update(r for r, _ in base.footprints.get(name, ()))
            replay |= frontier
        self.stats.replayed_packets += len(replay)

        # Tracked metric vector of the candidate.  The frozen packets' max
        # delivery is the tracked execution time unless a replayed packet
        # held it — only then is the full scan needed.
        base_execution = base.metrics["time"]
        if any(
            base.schedules[name].delivery_time >= base_execution
            for name in replay
        ):
            execution_time = max(
                (
                    schedule.delivery_time
                    for name, schedule in base.schedules.items()
                    if name not in replay
                ),
                default=0.0,
            )
        else:
            execution_time = base_execution
        for schedule in sub.schedules.values():
            if schedule.delivery_time > execution_time:
                execution_time = schedule.delivery_time
        technology = self.platform.technology
        dynamic_delta = 0.0
        for name in seeds:
            old_hops = base.schedules[name].hop_count
            new_hops = sub.schedules[name].hop_count
            if old_hops != new_hops:
                bits = cdcg.packet(name).bits
                dynamic_delta += communication_dynamic_energy(
                    bits, new_hops, technology, self.include_local
                ) - communication_dynamic_energy(
                    bits, old_hops, technology, self.include_local
                )
        dynamic = base.metrics["dynamic_energy"] + dynamic_delta
        static = self._static_power * execution_time
        # Congestion component: only the ``changed`` packets moved busy time
        # between links, so the tracked per-link numerators are patched by a
        # small delta dict and the max rescanned (division by the shared
        # execution time is monotone, so max(busy)/t == max(busy/t)).
        link_busy_delta: Dict[Resource, float] = {}
        for name in changed:
            for resource, occupation in base.footprints.get(name, ()):
                if isinstance(resource, LinkResource):
                    link_busy_delta[resource] = (
                        link_busy_delta.get(resource, 0.0) - occupation.duration
                    )
            for resource, occupation in sub.footprints[name]:
                if isinstance(resource, LinkResource):
                    link_busy_delta[resource] = (
                        link_busy_delta.get(resource, 0.0) + occupation.duration
                    )
        max_busy = 0.0
        for resource, busy in base.link_busy.items():
            change = link_busy_delta.get(resource)
            if change is not None:
                busy += change
            if busy > max_busy:
                max_busy = busy
        for resource, change in link_busy_delta.items():
            if resource not in base.link_busy and change > max_busy:
                max_busy = change
        utilisation = max_busy / execution_time if execution_time > 0 else 0.0
        metrics = MetricVector(
            CDCM_METRIC_NAMES,
            (dynamic + static, execution_time, dynamic, static, utilisation),
        )
        delta = MetricVector(
            CDCM_METRIC_NAMES,
            tuple(
                new - old
                for new, old in zip(metrics.values, base.metrics.values)
            ),
        )

        if exact:
            self.stats.exact_steps += 1
            error = 0.0
        else:
            self.stats.bounded_steps += 1
            error = self._estimate_error(shift, frontier_resources)
        outcome = RepairOutcome(
            exact=exact,
            resynced=False,
            replayed=len(replay),
            estimated_error=error,
        )
        return _Candidate(
            mapping=candidate_mapping,
            origin=base,
            delta=delta,
            outcome=outcome,
            tile_of=new_tile_of,
            replay=frozenset(replay),
            changed=frozenset(changed),
            schedules=sub.schedules,
            footprints=sub.footprints,
            metrics=metrics,
            link_busy_delta=link_busy_delta,
        )

    # ------------------------------------------------------------------
    # Repair-set helpers
    # ------------------------------------------------------------------
    def _route_resources(
        self, source_tile: int, target_tile: int
    ) -> List[Tuple[Resource, float]]:
        """Contention resources of one route, with their minimum head latency.

        Each entry pairs a resource of the candidate route with the earliest
        offset after the injection instant at which the packet's head can
        reach it under zero contention (``(position + 1) x (t_l + t_r)`` for
        the output at hop *position*) — a sound tightening of the replay
        window on the new route.  Cached per tile pair — routes are fixed,
        and the window build walks a handful of routes on every delta.
        Callers must not mutate the returned list.
        """
        key = (source_tile, target_tile)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        from repro.noc.resources import LinkResource, LocalLinkResource

        hop_latency = self._link_time + self._routing_time
        path = self.scheduler.route_table.path(source_tile, target_tile)
        resources: List[Tuple[Resource, float]] = [
            (LinkResource(a, b), (position + 1) * hop_latency)
            for position, (a, b) in enumerate(zip(path, path[1:]))
        ]
        if self._serialize_local:
            resources.append((LocalLinkResource(source_tile), 0.0))
            resources.append(
                (LocalLinkResource(target_tile), len(path) * hop_latency)
            )
        self._route_cache[key] = resources
        return resources

    @staticmethod
    def _occupants_after(
        base: _BaseState, window: Dict[Resource, float]
    ) -> Set[str]:
        """Packets holding a base occupation inside a per-resource time window.

        Grants on a contention resource are made in start order, so an
        occupation starting before the window — the earliest instant a
        replayed reservation can change there — keeps its grant under any
        full replay.  Those packets stay frozen; only occupations starting
        at or inside the window can move.
        """
        names: Set[str] = set()
        for resource, earliest in window.items():
            occupations = base.index.get(resource)
            if not occupations:
                continue
            starts = [o.start for o in occupations]
            for occupation in occupations[bisect_left(starts, earliest) :]:
                names.add(occupation.packet)
        return names

    def _ready_floors(
        self, base: _BaseState, replay: Set[str]
    ) -> Dict[str, float]:
        """Frozen ready-time floors: old deliveries of out-of-replay predecessors."""
        floors: Dict[str, float] = {}
        for name in replay:
            floor = 0.0
            for predecessor in self.cdcg.predecessors(name):
                if predecessor not in replay:
                    delivery = base.schedules[predecessor].delivery_time
                    if delivery > floor:
                        floor = delivery
            if floor > 0.0:
                floors[name] = floor
        return floors

    def _estimate_error(
        self,
        shift: Dict[Resource, float],
        frontier_resources: Set[Resource],
    ) -> float:
        """Conservative scalar error estimate of one inexact bounded step.

        Replayed packets are re-priced, so their shifts are *accounted*; the
        only error source is the frontier — frozen grants a full replay
        would have re-arbitrated.  Per frontier resource the estimate
        charges how far the replayed reservations there actually moved (the
        accumulated end-time shift, with vacated or newly intruding
        occupations charged at full length) — the serialisation chain
        behind them can move by at most that much.  The time error
        propagates to the energy components through the static power, then
        through the engine's scalarisation weights.  A documented
        heuristic, not a proven bound — which is exactly why the resync
        contract exists.
        """
        time_error = sum(shift[r] for r in frontier_resources)
        energy_error = self._static_power * time_error
        error_by_name = {
            "energy": energy_error,
            "time": time_error,
            "dynamic_energy": 0.0,
            "static_energy": energy_error,
        }
        return sum(
            abs(weight) * error_by_name.get(name, 0.0)
            for name, weight in self.weights.items()
        )


__all__ = [
    "DEFAULT_REPAIR",
    "RepairPolicy",
    "RepairStats",
    "RepairOutcome",
    "CdcmRepairEngine",
]
