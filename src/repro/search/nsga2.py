"""NSGA-II population-front search over the vector objective.

Scalarised engines collapse the paper's energy/time trade-off to one weighted
cost per run, so producing a front costs K runs (one per weight vector) and
can only ever recover the *supported* points — the ones some convex weight
combination selects.  This engine optimises the front directly: it evolves a
population on the :class:`~repro.core.objective.VectorObjective` protocol
using NSGA-II (Deb et al. 2002) — fast non-dominated sorting into ranks,
crowding-distance diversity preservation and a crowded binary tournament —
and returns the final non-dominated set as
:class:`~repro.analysis.pareto.ParetoPoint` objects in
:attr:`~repro.search.base.SearchResult.front`, interoperable with everything
in :mod:`repro.analysis.pareto` (so an NSGA-II front and a
:func:`~repro.analysis.pareto.weight_sweep_front` front compare directly).

The variation operators are the permutation-GA machinery shared with
:class:`~repro.search.genetic.GeneticSearch`
(:func:`~repro.search.genetic.uniform_assignment_crossover`,
:func:`~repro.search.genetic.swap_mutation`), and generations are priced
through ``evaluate_metrics_batch`` — the same seam every population engine
uses — so the engine inherits the :class:`~repro.eval.parallel.BatchBackend`
parallelism: set :attr:`Nsga2Parameters.n_workers` (or pass a backend) to fan
pricing out over a process pool, with results bit-identical to serial runs
under the same seed.

The generational loop itself is the shared
:func:`~repro.search.population.evolve`; this module supplies only NSGA-II's
selection part, :class:`CrowdingSelection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.search.base import SearchResult
from repro.search.population import (
    PopulationParameters,
    PopulationSearch,
    Selection,
    fast_non_dominated_sort,
)
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class Nsga2Parameters(PopulationParameters):
    """Knobs of :class:`NSGA2Search`.

    The shared fields (``population_size`` 32, ``generations`` 40,
    ``tournament_size`` 2, ``crossover_rate`` 0.9, ``mutation_rate`` 0.3)
    are documented on
    :class:`~repro.search.population.PopulationParameters`.

    Attributes
    ----------
    n_workers:
        Parallel pricing fan-out: ``None`` (or 1) prices generations
        serially; larger values make :class:`NSGA2Search` build a
        :class:`~repro.eval.parallel.ProcessPoolBackend` of that size for
        its ``evaluate_metrics_batch`` calls.  Results are bit-identical
        either way.
    """

    n_workers: Optional[int] = None


def crowding_distances(
    front: Sequence[int],
    vectors: Sequence[MetricVector],
    keys: Sequence[str],
) -> Dict[int, float]:
    """Crowding distance of each index of one Pareto rank.

    Boundary points of every key get infinite distance (they anchor the
    front's extent); interior points accumulate the normalised gap between
    their neighbours along each key.  Degenerate keys (zero span across the
    front) contribute nothing.

    Parameters
    ----------
    front:
        Indices of one rank (as produced by :func:`fast_non_dominated_sort`).
    vectors:
        Metric vectors the indices point into.
    keys:
        Component names of the trade-off.

    Returns
    -------
    dict
        ``{index: distance}`` — larger means lonelier, preferred by the
        crowded tournament and by front truncation.
    """
    distances: Dict[int, float] = {index: 0.0 for index in front}
    if len(front) <= 2:
        return {index: math.inf for index in front}
    for key in keys:
        order = sorted(front, key=lambda index: (vectors[index][key], index))
        low = vectors[order[0]][key]
        high = vectors[order[-1]][key]
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        span = high - low
        if span <= 0.0:
            continue
        for position in range(1, len(order) - 1):
            index = order[position]
            if distances[index] == math.inf:
                continue
            gap = (
                vectors[order[position + 1]][key]
                - vectors[order[position - 1]][key]
            )
            distances[index] += gap / span
    return distances


class CrowdingSelection(Selection):
    """NSGA-II selection: crowded tournament and crowding-distance truncation.

    The tournament prefers the lowest rank and breaks ties by the largest
    crowding distance; the overflowing front keeps its loneliest members.
    Remaining ties break by index.
    """

    def tournament_key(
        self, fronts: List[List[int]], vectors: Sequence[MetricVector]
    ) -> Callable[[int], Tuple]:
        ranks = [0] * len(vectors)
        crowding = [0.0] * len(vectors)
        for rank, front in enumerate(fronts):
            distances = crowding_distances(front, vectors, self.keys)
            for index in front:
                ranks[index] = rank
                crowding[index] = distances[index]
        return lambda index: (ranks[index], -crowding[index], index)

    def truncate(
        self,
        accepted: Sequence[int],
        front: Sequence[int],
        vectors: Sequence[MetricVector],
        slots: int,
    ) -> List[int]:
        distances = crowding_distances(front, vectors, self.keys)
        return sorted(front, key=lambda i: (-distances[i], i))[:slots]


class NSGA2Search(PopulationSearch):
    """Non-dominated sorting genetic algorithm (NSGA-II) over mappings.

    Parameters
    ----------
    parameters:
        Evolution knobs; defaults to :class:`Nsga2Parameters`.
    keys:
        Metric names the dominance relation ranges over.  ``None`` (the
        default) selects ``("energy", "time")`` when the objective prices
        both, and falls back to the objective's full component set otherwise
        (a single-component objective degenerates NSGA-II into an elitist
        scalar GA).
    backend:
        Optional explicit :class:`~repro.eval.parallel.BatchBackend` used for
        generation pricing (overrides ``parameters.n_workers``).  The caller
        owns it (it is not closed by the engine).
    n_workers:
        Convenience override of ``parameters.n_workers`` so the registry can
        surface the knob directly: ``get_searcher("nsga2", n_workers=4)``.

    Notes
    -----
    The objective must be vector-capable: an
    :class:`~repro.eval.context.EvaluationContext`, an objective built by
    :mod:`repro.core.objective`, or a ``(vector_objective, weights)`` spec —
    anything :func:`~repro.core.objective.resolve_vector_source` accepts.
    Plain scalar callables are rejected with a loud
    :class:`~repro.utils.errors.ConfigurationError` (there is no vector to
    sort fronts on).

    The returned :class:`~repro.search.base.SearchResult` carries the final
    non-dominated set in ``front`` (as
    :class:`~repro.analysis.pareto.ParetoPoint` objects, deduplicated and
    sorted like :func:`~repro.analysis.pareto.non_dominated` fronts);
    ``best_mapping`` / ``best_cost`` report the incumbent under the
    objective's own scalar weight view, so the result stays drop-in
    comparable with every scalar engine.

    Determinism: a seeded run returns the same population trajectory, front
    and incumbent regardless of ``n_workers`` — pricing is bit-identical
    across backends and every selection decision breaks ties by index.
    """

    name = "nsga2"
    label = "NSGA-II"
    parameters_class = Nsga2Parameters
    selection_class = CrowdingSelection

    def search(
        self,
        objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """Evolve a population front from *initial* and return it.

        Parameters
        ----------
        objective:
            A vector-capable objective spec (context, counting objective,
            scalarised view, or ``(vector_objective, weights)`` pair).
        initial:
            Seed individual; must know the NoC size.
        rng:
            Seed or generator driving selection, crossover and mutation.

        Returns
        -------
        SearchResult
            ``front`` carries the final non-dominated set;
            ``best_mapping`` / ``best_cost`` / ``history`` report the
            incumbent under the objective's scalar weight view, and
            ``accepted_moves`` counts applied mutations.
        """
        return self._evolve_mappings(objective, initial, rng)


__all__ = [
    "Nsga2Parameters",
    "NSGA2Search",
    "CrowdingSelection",
    "fast_non_dominated_sort",
    "crowding_distances",
]
