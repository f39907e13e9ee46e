"""Routing×mapping co-design: co-evolving next-hop tables and mappings.

The paper's pipeline fixes the routing (XY on a mesh) and searches mappings
against it.  :class:`CodesignSearch` widens the genome to the pair
``(routing table, mapping)`` and evolves both together under NSGA-III
reference-point selection (:mod:`repro.search.nsga3`), with two invariants
the subsystem exists to enforce:

* **certify before price** — every table a child carries passes
  :meth:`~repro.codesign.synthesis.TableSynthesizer.certify` (the
  :func:`~repro.noc.deadlock.validate_deadlock_free` gate, repair-or-reject)
  before any mapping is priced on it; an uncertified table never reaches an
  evaluation context, structurally (contexts are only ever created for
  certified routings);
* **context reuse by routing identity** — evaluation contexts are keyed by
  the table's content digest (its
  :attr:`~repro.codesign.synthesis.SynthesizedRouting.cache_token`), so the
  shared route table, memo and (for CWM) the vector kernel are built once
  per distinct table and reused across the whole population and every
  generation it survives.

The generational loop is the shared
:func:`~repro.search.population.evolve` with NSGA-III's
:class:`~repro.search.nsga3.ReferencePointSelection`; this module supplies
only the genome part, :class:`RoutedGenome`.  Pricing goes through each
context's ``evaluate_metrics_batch`` with one shared
:class:`~repro.eval.parallel.BatchBackend`, children grouped by routing in
first-seen order — the same deterministic parallel seam as the other
population engines, so seeded runs are bit-identical across serial and
pooled pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.graphs.cdcg import CDCG
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.codesign.synthesis import (
    DEFAULT_POLICY,
    NextHopTable,
    SynthesizedRouting,
    TableSynthesizer,
)
from repro.eval.context import CdcmEvaluationContext, EvaluationContext
from repro.noc.deadlock import Channel
from repro.noc.platform import Platform
from repro.search.base import SearchResult
from repro.search.nsga3 import ReferencePointSelection
from repro.search.population import (
    Evolution,
    Genome,
    PopulationParameters,
    PopulationSearch,
    evolve,
    fast_non_dominated_sort,
)
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng

#: Builds the pricing context for one certified routing's platform.
ContextFactory = Callable[[Platform], EvaluationContext]

#: Preferred dominance keys when the caller passes none: the many-objective
#: energy × time × congestion trade-off, falling back like NSGA-II/III when
#: the objective prices fewer components.
DEFAULT_CODESIGN_KEYS: Tuple[str, ...] = (
    "energy",
    "time",
    "max_link_utilisation",
)


@dataclass(frozen=True)
class CodesignParameters(PopulationParameters):
    """Knobs of :class:`CodesignSearch`.

    The shared fields are documented on
    :class:`~repro.search.population.PopulationParameters`; here
    ``population_size`` (default 16) counts ``(table, mapping)`` genomes,
    ``generations`` defaults to 12, and the crossover / mutation rates act
    on the mapping half.

    Attributes
    ----------
    table_mutation_rate:
        Probability a child's *table* is mutated (otherwise it inherits the
        first parent's certified table unchanged — alternation between
        mapping moves and routing moves emerges from the two rates).
    table_mutations:
        Minimal-next-hop entry flips per table mutation.
    divisions:
        Das–Dennis divisions of the NSGA-III reference lattice (``None``
        auto-picks the smallest lattice covering the population).
    n_workers:
        Parallel pricing fan-out (bit-identical to serial, as everywhere).
    """

    population_size: int = 16
    generations: int = 12
    table_mutation_rate: float = 0.5
    table_mutations: int = 2
    divisions: Optional[int] = None
    n_workers: Optional[int] = None


class _Individual(NamedTuple):
    """One genome: a certified routing and a mapping priced under it."""

    routing: SynthesizedRouting
    mapping: Mapping


@dataclass
class CodesignResult(SearchResult):
    """A :class:`~repro.search.base.SearchResult` plus the routing genome.

    Attributes
    ----------
    best_routing:
        The certified table the incumbent mapping was priced under.
    front_routings:
        The routing of each ``front`` point, aligned index-for-index.
    tables_certified:
        How many tables passed the deadlock gate over the run (seeds,
        random fills and mutated children alike).
    tables_rejected:
        How many tables the gate rejected (``"reject"`` policy); rejected
        children fall back to their parent's certified table.
    tables_repaired:
        How many gated tables came out repaired (``"repair"`` policy).
    last_witness:
        The most recent witness cycle a gate surfaced (empty when every
        gated table was deadlock-free as submitted).
    """

    best_routing: Optional[SynthesizedRouting] = None
    front_routings: List[SynthesizedRouting] = field(default_factory=list)
    tables_certified: int = 0
    tables_rejected: int = 0
    tables_repaired: int = 0
    last_witness: Tuple[Channel, ...] = ()


class RoutedGenome(Genome):
    """``(certified routing table, mapping)`` individuals of one co-design run.

    * **seed** — every registry seed table paired with the initial mapping,
      then random ``(table, mapping)`` pairs (a rejected random table falls
      back to the first seed); the first seed's pricing context fixes the
      dominance keys and the incumbent's weight view;
    * **child** — the mapping half breeds like a plain mapping, then a coin
      mutates the first parent's table, which must pass the deadlock gate
      (a rejected table falls back to the parent's certified one);
    * **price** — children grouped by routing digest in first-seen order,
      each group through its routing's context (certify before price:
      contexts exist only for certified routings);
    * **end of generation** — contexts of routings no survivor (nor the
      incumbent) carries are dropped.
    """

    def __init__(self, engine: "CodesignSearch", initial: Mapping) -> None:
        super().__init__(engine, initial)
        self.engine = engine
        self.contexts: Dict[str, EvaluationContext] = {}
        self.weights: Dict[str, float] = {}
        self.certified = 0
        self.rejected = 0
        self.repaired = 0
        self.last_witness: Tuple[Channel, ...] = ()

    def certify(self, table: NextHopTable) -> Optional[SynthesizedRouting]:
        """Run *table* through the deadlock gate (``None`` when rejected)."""
        outcome = self.engine.synthesizer.certify(
            table, policy=self.engine.certification_policy
        )
        if outcome.witness:
            self.last_witness = outcome.witness
        if not outcome.certified:
            self.rejected += 1
            return None
        self.certified += 1
        if outcome.repaired:
            self.repaired += 1
        return outcome.routing

    def context_for(self, routing: SynthesizedRouting) -> EvaluationContext:
        """The (cached) pricing context of a certified *routing*."""
        context = self.contexts.get(routing.digest)
        if context is None:
            engine = self.engine
            context = engine.context_factory(engine.platform.with_routing(routing))
            self.contexts[routing.digest] = context
        return context

    def seed(self, rng) -> List[_Individual]:
        size = self.parameters.population_size
        synthesizer = self.engine.synthesizer
        population: List[_Individual] = []
        for table in list(synthesizer.seed_tables().values())[:size]:
            routing = self.certify(table)
            assert routing is not None  # seeds certified at construction
            population.append(_Individual(routing, self.initial))
        fallback = population[0].routing
        while len(population) < size:
            routing = self.certify(synthesizer.random_table(rng))
            if routing is None:
                routing = fallback
            mapping = Mapping.random(self.cores, self.num_tiles, rng)
            population.append(_Individual(routing, mapping))
        first_context = self.context_for(fallback)
        self.keys = self.engine._resolve_keys(first_context)
        self.weights = dict(getattr(first_context, "weights", None) or {})
        return population

    def child(
        self, parent_a: _Individual, parent_b: _Individual, rng
    ) -> _Individual:
        mapping = self.breed(parent_a.mapping, parent_b.mapping, rng)
        routing = parent_a.routing
        if rng.random() < self.parameters.table_mutation_rate:
            mutated = self.engine.synthesizer.mutate(
                routing.next_hops, rng, mutations=self.parameters.table_mutations
            )
            candidate = self.certify(mutated)
            if candidate is not None:
                routing = candidate
                self.mutations += 1
        return _Individual(routing, mapping)

    def price(self, individuals: Sequence[_Individual]) -> List[MetricVector]:
        groups: Dict[str, List[int]] = {}
        for index, individual in enumerate(individuals):
            groups.setdefault(individual.routing.digest, []).append(index)
        vectors: List[Optional[MetricVector]] = [None] * len(individuals)
        for indices in groups.values():
            context = self.context_for(individuals[indices[0]].routing)
            priced = context.evaluate_metrics_batch(
                [individuals[i].mapping for i in indices], backend=self.backend
            )
            for position, vector in zip(indices, priced):
                vectors[position] = vector
        return vectors  # type: ignore[return-value]

    def score(self, individual: _Individual, vector: MetricVector) -> float:
        if self.weights:
            return vector.weighted_sum(self.weights, strict=False)
        return vector[self.keys[0]]

    def end_generation(
        self, population: Sequence[_Individual], best: _Individual
    ) -> None:
        # Extinct routings' contexts are dropped (their route tables stay in
        # the process cache); survivors keep their memos warm.
        live = {individual.routing.digest for individual in population}
        live.add(best.routing.digest)
        for digest in [d for d in self.contexts if d not in live]:
            del self.contexts[digest]

    def result(self, run: Evolution) -> "CodesignResult":
        # Rank-0 genomes with routings kept aligned (dominance on indices
        # rather than repro.analysis.pareto.non_dominated, which would lose
        # the mapping->routing pairing).
        from repro.analysis.pareto import ParetoPoint

        front_points: List[ParetoPoint] = []
        front_routings: List[SynthesizedRouting] = []
        seen = set()
        for index in fast_non_dominated_sort(run.vectors, self.keys)[0]:
            individual = run.population[index]
            key = (
                individual.routing.digest,
                tuple(sorted(individual.mapping.assignments().items())),
            )
            if key in seen:
                continue
            seen.add(key)
            front_points.append(
                ParetoPoint(mapping=individual.mapping, metrics=run.vectors[index])
            )
            front_routings.append(individual.routing)
        return CodesignResult(
            best_mapping=run.best.mapping,
            best_cost=run.best_cost,
            evaluations=run.evaluations,
            history=run.history,
            accepted_moves=self.mutations,
            best_metrics=run.best_vector,
            front=front_points,
            best_routing=run.best.routing,
            front_routings=front_routings,
            tables_certified=self.certified,
            tables_rejected=self.rejected,
            tables_repaired=self.repaired,
            last_witness=self.last_witness,
        )


class CodesignSearch(PopulationSearch):
    """NSGA-III co-evolution of deadlock-free route tables and mappings.

    Parameters
    ----------
    cdcg:
        Packet-level application model (used by the default CDCM context
        factory; a custom ``context_factory`` may ignore it).
    platform:
        Base architecture — its topology, parameters and technology are
        kept; its routing is replaced per genome via
        :meth:`~repro.noc.platform.Platform.with_routing`.
    parameters:
        Evolution knobs; defaults to :class:`CodesignParameters`.
    keys:
        Dominance keys, validated against the pricing context's components.
        ``None`` picks the components of :data:`DEFAULT_CODESIGN_KEYS` the
        context prices (all three for CDCM), falling back to the full
        component set when fewer than two match.
    synthesizer:
        Optional pre-built :class:`~repro.codesign.synthesis.TableSynthesizer`
        (must cover ``platform.mesh``); built from the platform's topology
        by default.
    certification_policy:
        ``"repair"`` (default) or ``"reject"`` — forwarded to
        :meth:`~repro.codesign.synthesis.TableSynthesizer.certify` for every
        generated or mutated table.
    context_factory:
        ``Platform -> EvaluationContext`` building the pricing context for
        one certified routing.  Defaults to a
        :class:`~repro.eval.context.CdcmEvaluationContext` over *cdcg*.
        Factories must be deterministic in the platform (contexts are
        cached by routing digest).
    backend:
        Optional explicit batch backend (caller-owned), shared by every
        context's pricing calls.
    n_workers:
        Convenience override of ``parameters.n_workers``.
    """

    name = "codesign"
    label = "co-design"
    parameters_class = CodesignParameters
    selection_class = ReferencePointSelection
    default_keys = DEFAULT_CODESIGN_KEYS

    def __init__(
        self,
        cdcg: Optional[CDCG],
        platform: Platform,
        parameters: Optional[CodesignParameters] = None,
        keys: Optional[Sequence[str]] = None,
        synthesizer: Optional[TableSynthesizer] = None,
        certification_policy: str = DEFAULT_POLICY,
        context_factory: Optional[ContextFactory] = None,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        super().__init__(parameters, keys, backend, n_workers)
        self.platform = platform
        self.certification_policy = certification_policy
        if context_factory is None:
            if cdcg is None:
                raise ConfigurationError(
                    "CodesignSearch needs a CDCG for the default CDCM "
                    "pricing context (or pass an explicit context_factory)"
                )
            application = cdcg
            context_factory = lambda routed: CdcmEvaluationContext(
                application, routed
            )
        self.context_factory = context_factory
        self.synthesizer = synthesizer or TableSynthesizer(platform.mesh)
        if self.synthesizer.topology is not platform.mesh:
            if self.synthesizer.topology.num_tiles != platform.num_tiles:
                raise ConfigurationError(
                    f"synthesizer covers {self.synthesizer.topology} but the "
                    f"platform fabric is {platform.mesh}"
                )

    def search(
        self,
        objective=None,
        initial: Optional[Mapping] = None,
        rng: RandomSource = None,
    ) -> CodesignResult:
        """Co-evolve (table, mapping) genomes from *initial* mapping.

        Parameters
        ----------
        objective:
            Optional per-run ``Platform -> EvaluationContext`` factory
            overriding the constructor's; ``None`` (the usual call) uses
            the configured one.  Plain scalar objectives make no sense
            here — pricing depends on each genome's routing.
        initial:
            Seed mapping, paired with every certified seed table; must know
            the NoC size.
        rng:
            Seed or generator driving all variation.

        Returns
        -------
        CodesignResult
            ``front`` / ``front_routings`` carry the final non-dominated
            genomes; ``best_mapping`` / ``best_routing`` / ``best_cost``
            the incumbent under the context's scalar weight view; the
            ``tables_*`` counters and ``last_witness`` describe the gate's
            traffic.
        """
        if initial is None:
            raise ConfigurationError(
                "CodesignSearch.search requires an initial mapping"
            )
        if objective is not None and not callable(objective):
            raise ConfigurationError(
                "CodesignSearch prices through context factories; pass None "
                "(use the configured factory) or a Platform -> "
                "EvaluationContext callable"
            )
        factory = self.context_factory
        if objective is not None:
            self.context_factory = objective
        try:
            return evolve(
                self.parameters,
                RoutedGenome(self, initial),
                self.selection_class,
                ensure_rng(rng),
            )
        finally:
            self.context_factory = factory


__all__ = [
    "ContextFactory",
    "DEFAULT_CODESIGN_KEYS",
    "CodesignParameters",
    "CodesignResult",
    "CodesignSearch",
    "RoutedGenome",
]
