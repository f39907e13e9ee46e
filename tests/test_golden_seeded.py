"""Golden seeded outputs of the population engines and the comparison rows.

Every scenario below is a small seeded run whose complete observable result
is pinned in ``tests/golden_seeded.json``: exact ``repr`` of every front
metric value and mapping assignment, plus ``evaluations``, ``history``,
``accepted_moves``, ``best_cost`` and (for co-design) the ``tables_*``
counters.  Any refactor of the generational loop, the selection steps, the
genome plumbing or the CWM batch pricing path must leave these byte-identical.

Covered:

* NSGA-II on ``("energy", "time")`` under CDCM, and on
  ``("dynamic_energy", "max_link_load")`` under
  :class:`~repro.codesign.load.LoadAwareCwmContext` (CWM batch kernel) —
  once on a 4x4 mesh and once in the ``front_nsga2_load`` benchmark job
  shape (8x8 mesh, 48 cores, population 64), with its front hypervolume;
* :class:`~repro.search.genetic.GeneticSearch` on a
  :class:`~repro.eval.context.CwmEvaluationContext`;
* NSGA-III on three keys under CDCM;
* :class:`~repro.codesign.engine.CodesignSearch` under the ``"repair"`` and
  ``"reject"`` certification policies;
* :func:`~repro.analysis.comparison.compare_models` rows with
  ``method="exhaustive"`` (CWM and CDCM batch pricing of every permutation);
* seeded :class:`~repro.search.annealing.SimulatedAnnealing` with
  ``use_delta=True`` on a plain :class:`~repro.eval.context.CdcmEvaluationContext`
  (a 16x16 mesh with 96 cores and 128 packets, and a 4x4 torus with
  serialised local links) — every move is priced by a full CDCM replay;
* :func:`~repro.analysis.comparison.compare_models` annealing rows under a
  fixed 160-evaluation schedule for three Table 1 entries.

Re-record (only when a result is *meant* to change) with::

    PYTHONPATH=src python tests/test_golden_seeded.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.comparison import ComparisonConfig, compare_models  # noqa: E402
from repro.analysis.pareto import hypervolume  # noqa: E402
from repro.codesign import CodesignParameters, CodesignSearch, LoadAwareCwmContext  # noqa: E402
from repro.core.mapping import Mapping  # noqa: E402
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext  # noqa: E402
from repro.graphs.convert import cdcg_to_cwg  # noqa: E402
from repro.energy.technology import TECH_0_07UM  # noqa: E402
from repro.noc.platform import NocParameters, Platform  # noqa: E402
from repro.noc.routing import XYRouting  # noqa: E402
from repro.noc.topology import Mesh, Torus  # noqa: E402
from repro.search.annealing import AnnealingSchedule, SimulatedAnnealing  # noqa: E402
from repro.search.genetic import GeneticParameters, GeneticSearch  # noqa: E402
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters  # noqa: E402
from repro.search.nsga3 import NSGA3Search, Nsga3Parameters  # noqa: E402
from repro.workloads.embedded import image_encoder  # noqa: E402
from repro.workloads.suite import table1_suite  # noqa: E402
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec  # noqa: E402
from repro.workloads.paper_example import (  # noqa: E402
    paper_example_cdcg,
    paper_example_platform,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_seeded.json"

SEED = 20050307


def _mapping(mapping: Mapping) -> str:
    return repr(sorted(mapping.assignments().items()))


def _search_summary(result) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "evaluations": result.evaluations,
        "accepted_moves": result.accepted_moves,
        "best_cost": repr(result.best_cost),
        "best_mapping": _mapping(result.best_mapping),
        "history": [[count, repr(cost)] for count, cost in result.history],
        "front": [
            [_mapping(point.mapping), repr(point.metrics.values)]
            for point in result.front
        ],
    }
    if hasattr(result, "tables_certified"):
        summary.update(
            best_routing=result.best_routing.digest,
            front_routings=[routing.digest for routing in result.front_routings],
            tables_certified=result.tables_certified,
            tables_rejected=result.tables_rejected,
            tables_repaired=result.tables_repaired,
            last_witness=repr(result.last_witness),
        )
    return summary


def _encoder():
    return image_encoder(), Platform(mesh=Mesh(3, 3))


def _tgff():
    spec = TgffSpec(
        name="golden12",
        num_cores=12,
        num_packets=30,
        total_bits=30 * 2048,
        computation_scale=0.5,
    )
    return TgffLikeGenerator(5).generate(spec), Platform(mesh=Mesh(4, 4))


def _initial(cores, platform) -> Mapping:
    return Mapping.random(cores, platform.num_tiles, rng=7)


def nsga2_cdcm_energy_time():
    cdcg, platform = _tgff()
    engine = NSGA2Search(
        Nsga2Parameters(population_size=12, generations=5), keys=("energy", "time")
    )
    result = engine.search(
        CdcmEvaluationContext(cdcg, platform),
        _initial(cdcg.cores(), platform),
        rng=SEED,
    )
    return _search_summary(result)


def nsga2_load_aware_cwm():
    cdcg, platform = _tgff()
    cwg = cdcg_to_cwg(cdcg)
    engine = NSGA2Search(
        Nsga2Parameters(population_size=16, generations=6),
        keys=("dynamic_energy", "max_link_load"),
    )
    result = engine.search(
        LoadAwareCwmContext(cwg, platform), _initial(cwg.cores, platform), rng=SEED
    )
    return _search_summary(result)


def nsga2_load_aware_mesh8():
    """The ``front_nsga2_load`` benchmark job shape, pinned with its hypervolume."""
    spec = TgffSpec(
        name="front48",
        num_cores=48,
        num_packets=120,
        total_bits=120 * 4096,
        computation_scale=0.5,
    )
    cwg = cdcg_to_cwg(TgffLikeGenerator(SEED).generate(spec))
    platform = Platform(mesh=Mesh(8, 8))
    keys = ("dynamic_energy", "max_link_load")
    context = LoadAwareCwmContext(cwg, platform)
    pool = [Mapping.random(cwg.cores, platform.num_tiles, rng=i) for i in range(32)]
    reference = {
        key: max(vector[key] for vector in context.evaluate_metrics_batch(pool))
        for key in keys
    }
    result = NSGA2Search(
        Nsga2Parameters(population_size=64, generations=6), keys=keys
    ).search(context, _initial(cwg.cores, platform), rng=SEED)
    return {
        "evaluations": result.evaluations,
        "accepted_moves": result.accepted_moves,
        "best_cost": repr(result.best_cost),
        "history": [[count, repr(cost)] for count, cost in result.history],
        "front": [repr(point.metrics.values) for point in result.front],
        "hypervolume": repr(hypervolume(result.front, reference=reference, keys=keys)),
    }


def genetic_cwm():
    cdcg, platform = _tgff()
    cwg = cdcg_to_cwg(cdcg)
    result = GeneticSearch(GeneticParameters(population_size=16, generations=8)).search(
        CwmEvaluationContext(cwg, platform), _initial(cwg.cores, platform), rng=SEED
    )
    return _scalar_summary(result)


def nsga3_three_keys():
    cdcg, platform = _encoder()
    engine = NSGA3Search(
        Nsga3Parameters(population_size=12, generations=4),
        keys=("energy", "time", "max_link_utilisation"),
    )
    result = engine.search(
        CdcmEvaluationContext(cdcg, platform),
        _initial(cdcg.cores(), platform),
        rng=SEED,
    )
    return _search_summary(result)


def _codesign(policy: str):
    cdcg, platform = _encoder()
    engine = CodesignSearch(
        cdcg,
        platform,
        CodesignParameters(population_size=8, generations=3),
        certification_policy=policy,
    )
    result = engine.search(initial=_initial(cdcg.cores(), platform), rng=SEED)
    return _search_summary(result)


def codesign_repair():
    return _codesign("repair")


def codesign_reject():
    return _codesign("reject")


def compare_models_exhaustive():
    rows = []
    for seed in (3, 11):
        comparison = compare_models(
            paper_example_cdcg(),
            paper_example_platform(),
            ComparisonConfig(method="exhaustive"),
            seed=seed,
        )
        rows.append(
            {
                "seed": seed,
                "cwm_mapping": _mapping(comparison.cwm_mapping),
                "cdcm_mapping": _mapping(comparison.cdcm_mapping),
                "cwm_cost": repr(comparison.cwm_outcome.cost),
                "cdcm_cost": repr(comparison.cdcm_outcome.cost),
                "evaluations": [
                    comparison.cwm_outcome.evaluations,
                    comparison.cdcm_outcome.evaluations,
                ],
                "etr": repr(comparison.execution_time_reduction),
                "ecs": [
                    [result.technology, repr(result.energy_saving)]
                    for result in comparison.technology_results
                ],
            }
        )
    return rows


def _scalar_summary(result) -> Dict[str, object]:
    return {
        "evaluations": result.evaluations,
        "accepted_moves": result.accepted_moves,
        "best_cost": repr(result.best_cost),
        "best_mapping": _mapping(result.best_mapping),
        "best_metrics": repr(result.best_metrics.values),
        "history": [[count, repr(cost)] for count, cost in result.history],
    }


def _anneal_cdcm(cdcg, platform, initial, schedule):
    searcher = SimulatedAnnealing(schedule, use_delta=True)
    return _scalar_summary(
        searcher.search(CdcmEvaluationContext(cdcg, platform), initial, rng=99)
    )


def anneal_cdcm_mesh16():
    spec = TgffSpec(
        name="repair-16x16",
        num_cores=96,
        num_packets=128,
        total_bits=128 * 4_096,
        levels=8,
        computation_scale=16.0,
    )
    cdcg = TgffLikeGenerator(SEED).generate(spec)
    platform = Platform(mesh=Mesh(16, 16))
    schedule = AnnealingSchedule(max_evaluations=300, moves_per_temperature=128)
    return _anneal_cdcm(cdcg, platform, _initial(cdcg.cores(), platform), schedule)


def anneal_cdcm_torus_serialized():
    spec = TgffSpec(
        name="golden-torus",
        num_cores=12,
        num_packets=40,
        total_bits=40 * 1_024,
        levels=5,
        computation_scale=0.25,
    )
    cdcg = TgffLikeGenerator(SEED).generate(spec)
    platform = Platform(
        mesh=Torus(4, 4), parameters=NocParameters(serialize_local_links=True)
    )
    schedule = AnnealingSchedule(max_evaluations=400, moves_per_temperature=32)
    return _anneal_cdcm(cdcg, platform, _initial(cdcg.cores(), platform), schedule)


#: The fixed 160-evaluation annealing schedule of the ``paper_table2``
#: benchmark workload (every search makes exactly 160 evaluations).
TABLE2_SCHEDULE = AnnealingSchedule(
    cooling_factor=0.85,
    moves_per_temperature=8,
    max_evaluations=160,
    stall_plateaus=10**9,
    min_temperature_ratio=1e-300,
)


def compare_models_table2_annealing():
    rows = []
    entries = {entry.name: entry for entry in table1_suite(groups=("small",))}
    for index, name in enumerate(("3x2-a", "3x3-c", "3x4-c")):
        entry = entries[name]
        platform = Platform(
            mesh=entry.mesh,
            routing=XYRouting(),
            parameters=NocParameters(),
            technology=TECH_0_07UM,
        )
        comparison = compare_models(
            entry.build(),
            platform,
            ComparisonConfig(annealing_schedule=TABLE2_SCHEDULE),
            seed=SEED + index,
        )
        rows.append(
            {
                "entry": name,
                "cwm_mapping": _mapping(comparison.cwm_mapping),
                "cdcm_mapping": _mapping(comparison.cdcm_mapping),
                "cwm_cost": repr(comparison.cwm_outcome.cost),
                "cdcm_cost": repr(comparison.cdcm_outcome.cost),
                "evaluations": [
                    comparison.cwm_outcome.evaluations,
                    comparison.cdcm_outcome.evaluations,
                ],
                "etr": repr(comparison.execution_time_reduction),
                "ecs": [
                    [result.technology, repr(result.energy_saving)]
                    for result in comparison.technology_results
                ],
            }
        )
    return rows


SCENARIOS: Dict[str, Callable[[], object]] = {
    "nsga2_cdcm_energy_time": nsga2_cdcm_energy_time,
    "nsga2_load_aware_cwm": nsga2_load_aware_cwm,
    "nsga2_load_aware_mesh8": nsga2_load_aware_mesh8,
    "genetic_cwm": genetic_cwm,
    "nsga3_three_keys": nsga3_three_keys,
    "codesign_repair": codesign_repair,
    "codesign_reject": codesign_reject,
    "compare_models_exhaustive": compare_models_exhaustive,
    "anneal_cdcm_mesh16": anneal_cdcm_mesh16,
    "anneal_cdcm_torus_serialized": anneal_cdcm_torus_serialized,
    "compare_models_table2_annealing": compare_models_table2_annealing,
}


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_output_matches_golden(name, golden):
    assert SCENARIOS[name]() == golden[name]


if __name__ == "__main__":
    recorded = {name: scenario() for name, scenario in SCENARIOS.items()}
    GOLDEN_PATH.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(recorded)} scenarios to {GOLDEN_PATH}")
