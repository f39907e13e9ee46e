"""CDCM annealing throughput — trace-free pricing replay vs the schedule() reference.

Every metric-only CDCM consumer prices a mapping through
:meth:`~repro.noc.scheduler.CdcmScheduler.price`, a replay over a compiled
plan that keeps only running aggregates.  This bench measures what that buys
a search: seeded simulated annealing on a
:class:`~repro.eval.context.CdcmEvaluationContext` against the same walk
priced by a reference objective that builds the full trace with
:meth:`~repro.noc.scheduler.CdcmScheduler.schedule` and prices it with
:func:`~repro.energy.totals.total_energy_cdcm`.  Both objectives memoise
revisited mappings, so the ratio isolates the replay.

The operating point is a contention-heavy workload: a 16x16 mesh with 96
cores and 128 packets in 8 dependence levels.  Two claims:

* **identity** — both walks are the same walk, so their ``best_cost`` is
  identical (asserted always);
* **throughput** — the context prices annealing moves at >= 5x the
  reference's evaluations/sec.  The bar follows the suite's perf-bar
  convention: rates are recorded first, then the bar can be waived on
  constrained or instrumented interpreters with
  ``REPRO_BENCH_NO_PERF_BARS=1``.

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_cdcm_pricing.json`` in the working directory — the file the CI
benchmark-trajectory job uploads.
"""

import os
import time

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.core.mapping import Mapping
from repro.energy.totals import total_energy_cdcm
from repro.eval.context import CdcmEvaluationContext
from repro.noc.platform import Platform
from repro.noc.scheduler import CdcmScheduler
from repro.noc.topology import Mesh
from repro.search.annealing import AnnealingSchedule, SimulatedAnnealing
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

_SKIP_PERF_BARS = os.environ.get("REPRO_BENCH_NO_PERF_BARS", "0") not in (
    "0",
    "",
    "false",
)

_SCHEDULE = AnnealingSchedule(max_evaluations=600, moves_per_temperature=128)


def _workload():
    spec = TgffSpec(
        name="pricing-16x16",
        num_cores=96,
        num_packets=128,
        total_bits=128 * 4_096,
        levels=8,
        computation_scale=16.0,
    )
    cdcg = TgffLikeGenerator(BENCH_SEED).generate(spec)
    return cdcg, Platform(mesh=Mesh(16, 16))


def _initial_mapping(cdcg, platform):
    cores = sorted(cdcg.cores())
    return Mapping(
        {core: tile for tile, core in enumerate(cores)}, platform.num_tiles
    )


def _reference_objective(cdcg, platform):
    """Memoised ``schedule()`` + ``total_energy_cdcm`` pricing (the reference)."""
    scheduler = CdcmScheduler(platform)
    memo = {}

    def cost(mapping):
        energy = memo.get(mapping)
        if energy is None:
            energy = total_energy_cdcm(scheduler.schedule(cdcg, mapping), platform).total
            memo[mapping] = energy
        return energy

    return cost


def _annealing_rate(objective, initial):
    searcher = SimulatedAnnealing(_SCHEDULE, use_delta=True)
    start = time.perf_counter()
    result = searcher.search(objective, initial, rng=99)
    elapsed = time.perf_counter() - start
    return result, result.evaluations / elapsed


@pytest.mark.benchmark(group="cdcm-pricing")
def test_cdcm_pricing_annealing_throughput(benchmark):
    cdcg, platform = _workload()
    initial = _initial_mapping(cdcg, platform)

    def run():
        context = CdcmEvaluationContext(cdcg, platform)
        priced = _annealing_rate(context, initial)
        reference = _annealing_rate(_reference_objective(cdcg, platform), initial)
        return priced, reference, context.cache_info()

    (result, rate), (ref_result, ref_rate), info = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    emit(
        "CDCM pricing - annealing evaluations/sec, price() context vs "
        "schedule() reference (16x16 mesh, 96 cores, 128 packets)",
        f"{'path':<12} {'evals/s':>10} {'best cost':>14}\n"
        f"{'schedule':<12} {ref_rate:>10,.0f} {ref_result.best_cost:>14,.0f}\n"
        f"{'price':<12} {rate:>10,.0f} {result.best_cost:>14,.0f}\n"
        f"speedup: {rate / ref_rate:.2f}x (context memo hits {info.hits} "
        f"of {info.hits + info.misses})",
    )
    record_sample(
        "BENCH_cdcm_pricing.json",
        {
            "bench": "bench_cdcm_pricing",
            "schedule_evals_per_s": ref_rate,
            "price_evals_per_s": rate,
            "speedup": rate / ref_rate,
            "best_cost": result.best_cost,
        },
    )
    # The same seeded walk under both pricers: bit-identical costs.
    assert result.best_cost == ref_result.best_cost
    assert result.evaluations == ref_result.evaluations
    assert result.best_mapping == ref_result.best_mapping
    if _SKIP_PERF_BARS:
        pytest.skip(
            ">= 5x bar waived via REPRO_BENCH_NO_PERF_BARS (identity checks "
            "above already ran)"
        )
    assert rate >= 5.0 * ref_rate
