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
  :class:`~repro.codesign.load.LoadAwareCwmContext` (CWM batch kernel);
* NSGA-III on three keys under CDCM;
* :class:`~repro.codesign.engine.CodesignSearch` under the ``"repair"`` and
  ``"reject"`` certification policies;
* :func:`~repro.analysis.comparison.compare_models` rows with
  ``method="exhaustive"`` (CWM and CDCM batch pricing of every permutation).

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
from repro.codesign import CodesignParameters, CodesignSearch, LoadAwareCwmContext  # noqa: E402
from repro.core.mapping import Mapping  # noqa: E402
from repro.eval.context import CdcmEvaluationContext  # noqa: E402
from repro.graphs.convert import cdcg_to_cwg  # noqa: E402
from repro.noc.platform import Platform  # noqa: E402
from repro.noc.topology import Mesh  # noqa: E402
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters  # noqa: E402
from repro.search.nsga3 import NSGA3Search, Nsga3Parameters  # noqa: E402
from repro.workloads.embedded import image_encoder  # noqa: E402
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


SCENARIOS: Dict[str, Callable[[], object]] = {
    "nsga2_cdcm_energy_time": nsga2_cdcm_energy_time,
    "nsga2_load_aware_cwm": nsga2_load_aware_cwm,
    "nsga3_three_keys": nsga3_three_keys,
    "codesign_repair": codesign_repair,
    "codesign_reject": codesign_reject,
    "compare_models_exhaustive": compare_models_exhaustive,
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
