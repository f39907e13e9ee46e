"""Reusable delta-conformance property harness.

An incremental pricer promises that walking a swap sequence, pricing every
move with ``objective.delta``, keeps the running sum ``cost(initial) +
sum(deltas)`` within float tolerance of a full recompute on every step.  The
CWM ``delta()`` (O(degree) re-pricing of the touched edges) is the pricer
that makes this promise.

:func:`check_delta_conformance` is deliberately objective-agnostic: it takes
plain callables for the ground-truth cost and the delta, so it can pin any
(objective, topology, routing) combination — ``tests/test_eval.py`` runs the
CWM delta through it on mesh and torus fabrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from repro.core.mapping import Mapping

#: Denominator floor so relative errors stay defined at zero cost.
_REL_FLOOR = 1e-12


@dataclass
class ConformanceReport:
    """What a conformance walk observed — for assertions beyond the bound.

    Attributes
    ----------
    steps:
        Number of swaps walked.
    worst_rel:
        Largest relative error observed.
    relative_errors:
        Per-step relative error of the tracked cost vs the full recompute.
    """

    steps: int = 0
    worst_rel: float = 0.0
    relative_errors: List[float] = field(default_factory=list)


def random_swaps(
    num_tiles: int, count: int, rng
) -> List[Tuple[int, int]]:
    """A seeded sequence of *count* random tile pairs (repeats allowed).

    Pairs may collide (``a == b``) on purpose: a conforming delta must price
    the degenerate swap as exactly zero, so the harness keeps them in.
    """
    return [
        (rng.randrange(num_tiles), rng.randrange(num_tiles))
        for _ in range(count)
    ]


def check_delta_conformance(
    *,
    cost: Callable[[Mapping], float],
    delta: Callable[[Mapping, int, int], float],
    initial: Mapping,
    swaps: Sequence[Tuple[int, int]],
    exact_rel: float = 1e-9,
    label: str = "delta",
) -> ConformanceReport:
    """Walk *swaps*, asserting ``cost0 + sum(deltas)`` tracks a full recompute.

    Parameters
    ----------
    cost:
        Ground-truth full recompute of a mapping's cost.
    delta:
        The incremental pricer under test: ``delta(mapping, tile_a, tile_b)``
        returns the cost change of ``mapping.swap_tiles(tile_a, tile_b)``.
        Every priced swap is accepted (the annealing accept-all worst case).
    initial:
        Starting mapping of the walk.
    swaps:
        Tile-pair sequence to walk (see :func:`random_swaps`).
    exact_rel:
        Relative bound every step must meet.
    label:
        Name used in assertion messages.

    Returns
    -------
    ConformanceReport
        The worst error and per-step errors for further assertions.
    """
    report = ConformanceReport()
    mapping = initial
    tracked = cost(initial)
    for step, (tile_a, tile_b) in enumerate(swaps):
        tracked += delta(mapping, tile_a, tile_b)
        mapping = mapping.swap_tiles(tile_a, tile_b)
        truth = cost(mapping)
        rel = abs(tracked - truth) / max(abs(truth), _REL_FLOOR)
        report.steps += 1
        report.relative_errors.append(rel)
        report.worst_rel = max(report.worst_rel, rel)
        assert rel <= exact_rel, (
            f"{label}: step {step} swap {(tile_a, tile_b)}: tracked cost "
            f"{tracked!r} vs full recompute {truth!r} (rel {rel:.3e}) "
            f"exceeds the bound {exact_rel:.3e}"
        )
    return report


__all__ = [
    "ConformanceReport",
    "check_delta_conformance",
    "random_swaps",
]
