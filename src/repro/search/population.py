"""One generational (mu + lambda) loop for the population-front engines.

NSGA-II, NSGA-III and the routing×mapping co-design engine evolve a
population the same way: seed it and price it, then once per generation
rank it, breed a whole brood through tournaments (one RNG stream, fixed
consumption order), price the brood as one batch, keep the scalar
incumbent, and refill the population from the ranked parents plus children.
:func:`evolve` is that loop.  The engines differ in two parts only, which it
takes as arguments:

* a **selection** part (:class:`Selection`): the tournament key, and how the
  front that overflows the population is cut down — crowding distance
  (:class:`~repro.search.nsga2.CrowdingSelection`) or reference-point niching
  (:class:`~repro.search.nsga3.ReferencePointSelection`, Deb & Jain 2014);
* a **genome** part (:class:`Genome`): seed the population, make one child,
  price a brood, an end-of-generation hook, and build the final result —
  plain mappings (:class:`MappingGenome`) or ``(routing table, mapping)``
  pairs (:class:`~repro.codesign.engine.RoutedGenome`).

Every decision of the loop breaks ties by population index and every brood
is priced through ``evaluate_metrics_batch``, so seeded runs are
bit-identical across serial and pooled pricing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.search.base import (
    PoolOwnerMixin,
    SearchResult,
    Searcher,
    as_objective,
    objective_metrics,
)
from repro.search.genetic import swap_mutation, uniform_assignment_crossover
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng

#: Dominance keys an engine prefers when the caller names none.
DEFAULT_FRONT_KEYS: Tuple[str, ...] = ("energy", "time")

#: Names of the optional count fields that must be at least 1 when set.
_POSITIVE_FIELDS = ("table_mutations", "divisions", "n_workers")


@dataclass(frozen=True)
class PopulationParameters:
    """Validation base of the population engines' parameter classes.

    Each engine subclasses it with its own extra fields and defaults
    (:class:`~repro.search.nsga2.Nsga2Parameters`,
    :class:`~repro.search.nsga3.Nsga3Parameters`,
    :class:`~repro.codesign.engine.CodesignParameters`).  Every field named
    ``*_rate`` must lie in ``[0, 1]``; ``table_mutations``, ``divisions``
    and ``n_workers`` must be positive when set.

    Attributes
    ----------
    population_size:
        Individuals per generation (at least 4 — room for a ranked front
        plus diversity).
    generations:
        Number of (mu + lambda) generations to evolve.
    tournament_size:
        Individuals drawn per tournament (2 is the canonical binary
        tournament).
    crossover_rate:
        Probability a child is produced by crossover rather than cloning.
    mutation_rate:
        Probability a child is mutated by one tile swap.
    """

    population_size: int = 32
    generations: int = 40
    tournament_size: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ConfigurationError("population_size must be at least 4")
        if self.generations < 1:
            raise ConfigurationError("generations must be positive")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigurationError(
                "tournament_size must be between 1 and population_size"
            )
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{spec.name} must be in [0, 1]")
            if spec.name in _POSITIVE_FIELDS and value is not None and value < 1:
                raise ConfigurationError(
                    f"{spec.name} must be positive, got {value}"
                )


def fast_non_dominated_sort(
    vectors: Sequence[MetricVector], keys: Sequence[str]
) -> List[List[int]]:
    """Deb's fast non-dominated sort: indices grouped into Pareto ranks.

    Parameters
    ----------
    vectors:
        Metric vectors of the population, in population order.
    keys:
        Component names the dominance check ranges over (all minimised).

    Returns
    -------
    list of list of int
        ``fronts[0]`` is the non-dominated set, ``fronts[1]`` the set
        dominated only by rank 0, and so on.  Every index appears exactly
        once; order within a front is deterministic for a given input order.
    """
    keys = tuple(keys)
    n = len(vectors)
    dominated: List[List[int]] = [[] for _ in range(n)]
    counts = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if vectors[p].dominates(vectors[q], keys):
                dominated[p].append(q)
                counts[q] += 1
            elif vectors[q].dominates(vectors[p], keys):
                dominated[q].append(p)
                counts[p] += 1
    fronts: List[List[int]] = [[p for p in range(n) if counts[p] == 0]]
    while fronts[-1]:
        next_front: List[int] = []
        for p in fronts[-1]:
            for q in dominated[p]:
                counts[q] -= 1
                if counts[q] == 0:
                    next_front.append(q)
        fronts.append(next_front)
    fronts.pop()  # the loop always appends one trailing empty front
    return fronts


def front_ranks(fronts: Sequence[Sequence[int]]) -> List[int]:
    """Rank of every index, inverted from :func:`fast_non_dominated_sort`."""
    ranks = [0] * sum(len(front) for front in fronts)
    for rank, front in enumerate(fronts):
        for index in front:
            ranks[index] = rank
    return ranks


class Selection(ABC):
    """The survivor-selection part of an engine, bound to its keys.

    Subclasses are constructed as ``Selection(keys, parameters)`` once the
    genome knows its dominance keys.
    """

    def __init__(
        self, keys: Tuple[str, ...], parameters: PopulationParameters
    ) -> None:
        self.keys = keys

    @abstractmethod
    def tournament_key(
        self, fronts: List[List[int]], vectors: Sequence[MetricVector]
    ) -> Callable[[int], Tuple]:
        """Per-generation tournament key: the lowest key wins a tournament."""

    @abstractmethod
    def truncate(
        self,
        accepted: Sequence[int],
        front: Sequence[int],
        vectors: Sequence[MetricVector],
        slots: int,
    ) -> List[int]:
        """Pick *slots* indices of the overflowing *front* to survive."""


@dataclass
class Evolution:
    """The final state of one :func:`evolve` run, handed to :meth:`Genome.result`."""

    population: List[Any]
    vectors: List[MetricVector]
    best: Any
    best_cost: float
    best_vector: MetricVector
    evaluations: int
    history: List[Tuple[int, float]]


class Genome(ABC):
    """The genome part of an engine: what an individual is and how it breeds.

    Holds one run's state: the resolved dominance ``keys`` (set by
    :meth:`seed` at the latest) and the ``mutations`` counter reported as
    ``accepted_moves``.
    """

    keys: Tuple[str, ...] = ()

    def __init__(self, engine: "PopulationSearch", initial: Mapping) -> None:
        if initial.num_tiles is None:
            raise ConfigurationError(
                f"{engine.label} search requires the initial mapping to know "
                f"the NoC size"
            )
        self.initial = initial
        self.parameters = engine.parameters
        self.backend = engine._resolve_backend(engine.parameters.n_workers)
        self.cores = initial.cores
        self.num_tiles = initial.num_tiles
        self.mutations = 0

    def breed(self, mapping_a: Mapping, mapping_b: Mapping, rng) -> Mapping:
        """One child mapping: crossover coin, then mutation coin."""
        params = self.parameters
        if rng.random() < params.crossover_rate:
            child = uniform_assignment_crossover(
                mapping_a, mapping_b, self.cores, self.num_tiles, rng
            )
        else:
            child = mapping_a
        if rng.random() < params.mutation_rate:
            child = swap_mutation(child, self.num_tiles, rng)
            self.mutations += 1
        return child

    @abstractmethod
    def seed(self, rng) -> List[Any]:
        """The initial population (``population_size`` individuals)."""

    @abstractmethod
    def child(self, parent_a: Any, parent_b: Any, rng) -> Any:
        """One child of two tournament winners (fixed RNG consumption order)."""

    @abstractmethod
    def price(self, individuals: Sequence[Any]) -> List[MetricVector]:
        """Metric vectors of *individuals*, in order."""

    @abstractmethod
    def score(self, individual: Any, vector: MetricVector) -> float:
        """Scalar incumbent view of one priced individual."""

    def end_generation(self, population: Sequence[Any], best: Any) -> None:
        """Hook run after each survivor selection (default: nothing)."""

    @abstractmethod
    def result(self, run: Evolution) -> SearchResult:
        """The engine's result for the final state of the run."""


def evolve(
    parameters: PopulationParameters,
    genome: Genome,
    selection_class: Type[Selection],
    rng,
) -> SearchResult:
    """Run the shared (mu + lambda) generational loop and return its result.

    Parameters
    ----------
    parameters:
        Population size, generation count and tournament size.
    genome:
        The individuals' representation, breeding and pricing.
    selection_class:
        Built as ``selection_class(genome.keys, parameters)`` after seeding.
    rng:
        The generator every tournament and variation operator draws from.
    """
    size = parameters.population_size
    population = genome.seed(rng)
    keys = genome.keys
    selection = selection_class(keys, parameters)
    vectors = genome.price(population)
    evaluations = len(population)

    costs = [genome.score(ind, vec) for ind, vec in zip(population, vectors)]
    best_idx = min(range(len(population)), key=costs.__getitem__)
    best, best_cost = population[best_idx], costs[best_idx]
    best_vector = vectors[best_idx]
    history: List[Tuple[int, float]] = [(evaluations, best_cost)]

    for _ in range(parameters.generations):
        key = selection.tournament_key(
            fast_non_dominated_sort(vectors, keys), vectors
        )

        def tournament() -> Any:
            drawn = rng.integers(0, len(population), size=parameters.tournament_size)
            return population[min((int(index) for index in drawn), key=key)]

        # The whole brood first (one RNG stream, fixed consumption order),
        # then one batch pricing call: the parallel seam.
        children: List[Any] = []
        while len(children) < size:
            parent_a = tournament()
            parent_b = tournament()
            children.append(genome.child(parent_a, parent_b, rng))
        child_vectors = genome.price(children)
        evaluations += len(children)

        for individual, vector in zip(children, child_vectors):
            cost = genome.score(individual, vector)
            if cost < best_cost:
                best, best_cost, best_vector = individual, cost, vector
                history.append((evaluations, best_cost))

        # (mu + lambda) environmental selection: whole fronts while they
        # fit, then the selection part cuts down the front that spills.
        combined = population + children
        combined_vectors = vectors + child_vectors
        survivors: List[int] = []
        for front in fast_non_dominated_sort(combined_vectors, keys):
            if len(survivors) + len(front) > size:
                survivors.extend(
                    selection.truncate(
                        survivors, front, combined_vectors, size - len(survivors)
                    )
                )
                break
            survivors.extend(front)
            if len(survivors) == size:
                break
        population = [combined[i] for i in survivors]
        vectors = [combined_vectors[i] for i in survivors]
        genome.end_generation(population, best)

    return genome.result(
        Evolution(
            population, vectors, best, best_cost, best_vector, evaluations, history
        )
    )


class MappingGenome(Genome):
    """Plain :class:`~repro.core.mapping.Mapping` individuals on one objective.

    The population is *initial* plus random mappings; a child is a uniform
    assignment crossover and/or a tile swap; broods are priced through the
    objective's vector source; the result's ``front`` is the final
    non-dominated set.
    """

    def __init__(
        self,
        engine: "PopulationSearch",
        initial: Mapping,
        objective,
        source,
        keys: Tuple[str, ...],
    ) -> None:
        super().__init__(engine, initial)
        self.objective = objective
        self.source = source
        self.keys = keys
        # The objective's (or its context's) weight view: an uncounted dot
        # product over already-priced vectors, bit-identical to the scalar
        # engines' costs.
        self.weights = getattr(objective, "weights", None) or getattr(
            source, "weights", None
        )

    def seed(self, rng) -> List[Mapping]:
        population = [self.initial]
        while len(population) < self.parameters.population_size:
            population.append(Mapping.random(self.cores, self.num_tiles, rng))
        return population

    def child(self, parent_a: Mapping, parent_b: Mapping, rng) -> Mapping:
        return self.breed(parent_a, parent_b, rng)

    def price(self, individuals: Sequence[Mapping]) -> List[MetricVector]:
        return self.source.evaluate_metrics_batch(individuals, backend=self.backend)

    def score(self, individual: Mapping, vector: MetricVector) -> float:
        if self.weights:
            return vector.weighted_sum(self.weights, strict=False)
        return self.objective(individual)

    def result(self, run: Evolution) -> SearchResult:
        from repro.analysis.pareto import ParetoPoint, non_dominated

        points = [
            ParetoPoint(mapping=mapping, metrics=vector)
            for mapping, vector in zip(run.population, run.vectors)
        ]
        return SearchResult(
            best_mapping=run.best,
            best_cost=run.best_cost,
            evaluations=run.evaluations,
            history=run.history,
            accepted_moves=self.mutations,
            best_metrics=objective_metrics(self.objective, run.best),
            front=non_dominated(points, self.keys),
        )


class PopulationSearch(PoolOwnerMixin, Searcher):
    """Shared construction and key resolution of the population engines.

    Subclasses set :attr:`parameters_class`, :attr:`selection_class`,
    :attr:`label` and (optionally) :attr:`default_keys`.
    """

    parameters_class: Type[PopulationParameters] = PopulationParameters
    selection_class: Type[Selection]
    default_keys: Tuple[str, ...] = DEFAULT_FRONT_KEYS
    label: str = "population"

    def __init__(
        self,
        parameters: Optional[PopulationParameters] = None,
        keys: Optional[Sequence[str]] = None,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        params = parameters or self.parameters_class()
        if n_workers is not None:
            params = replace(params, n_workers=n_workers)
        self.parameters = params
        if keys is not None and not tuple(keys):
            raise ConfigurationError(
                "front keys must name at least one metric (or pass None for "
                "the engine's default trade-off)"
            )
        self.keys = tuple(keys) if keys is not None else None
        self._backend = backend
        self._owned_backend = None

    def _resolve_keys(self, source) -> Tuple[str, ...]:
        """The dominance keys for *source* (validated against its components).

        ``None`` keys pick the :attr:`default_keys` the source prices,
        falling back to its full component set when fewer than two match.
        """
        names = tuple(source.metric_names)
        if self.keys is None:
            preferred = tuple(key for key in self.default_keys if key in names)
            return preferred if len(preferred) >= 2 else names
        unknown = [key for key in self.keys if key not in names]
        if unknown:
            raise ConfigurationError(
                f"front keys {unknown!r} are not components of the objective; "
                f"available metrics are {names}"
            )
        return self.keys

    def _evolve_mappings(
        self, objective, initial: Mapping, rng: RandomSource
    ) -> SearchResult:
        """Evolve plain mappings against a vector-capable *objective*."""
        from repro.core.objective import resolve_vector_source

        scalar = as_objective(objective)
        source = resolve_vector_source(scalar)
        genome = MappingGenome(
            self, initial, scalar, source, self._resolve_keys(source)
        )
        return evolve(self.parameters, genome, self.selection_class, ensure_rng(rng))


__all__ = [
    "DEFAULT_FRONT_KEYS",
    "PopulationParameters",
    "fast_non_dominated_sort",
    "front_ranks",
    "Selection",
    "Evolution",
    "Genome",
    "evolve",
    "MappingGenome",
    "PopulationSearch",
]
