"""Benchmark: NSGA-II population-front search vs. the weight-sweep front.

Pins the population-front engine's two claims to numbers on the
image-encoder workload (4x3 mesh, CDCM pricing):

* **quality** — under a shared reference, the NSGA-II front's hypervolume is
  at least that of a budget-matched random-pool weight sweep (the PR 3 way
  of producing fronts), and the returned front is mutually non-dominated;
* **throughput** — evaluations/second of the NSGA-II run (generation
  pricing through ``evaluate_metrics_batch``), recorded into
  ``BENCH_nsga2.json`` with the hypervolume ratio when
  ``REPRO_BENCH_RECORD=1`` so the trajectory tracks both.

A second case times the load-aware front of the ``front_nsga2_load``
benchmark workload (NSGA-II over ``dynamic_energy`` x ``max_link_load`` on
an 8x8 mesh, 48 cores, population 64, CWM pricing): its evaluations/second
and how the loop's time splits between the non-dominated sort, brood
pricing and the rest (tournaments, variation and survivor selection).

Deterministic: every stochastic input is seeded with ``BENCH_SEED``.
"""

from __future__ import annotations

import time

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.analysis.pareto import hypervolume, weight_sweep_front
from repro.codesign.load import LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.eval.route_table import get_route_table
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search import population
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.workloads.embedded import image_encoder
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

FRONT_KEYS = ("dynamic_energy", "time")
PARAMS = Nsga2Parameters(population_size=24, generations=16)
SWEEP_WEIGHTS = 9


@pytest.mark.benchmark(group="nsga2-front")
def test_nsga2_front_quality_and_throughput(benchmark):
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(4, 3))
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=BENCH_SEED)

    def run():
        context = CdcmEvaluationContext(cdcg, platform)
        start = time.perf_counter()
        result = NSGA2Search(PARAMS, keys=FRONT_KEYS).search(
            context, initial, rng=BENCH_SEED
        )
        elapsed = time.perf_counter() - start
        pool = [
            Mapping.random(cdcg.cores(), platform.num_tiles, rng=BENCH_SEED + i)
            for i in range(result.evaluations)
        ]
        sweep = weight_sweep_front(
            context, pool, weights=SWEEP_WEIGHTS, keys=FRONT_KEYS
        )
        return result, sweep, elapsed

    result, sweep, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    union = list(result.front) + list(sweep.front)
    reference = {key: max(p.metrics[key] for p in union) for key in FRONT_KEYS}
    nsga2_hv = hypervolume(result.front, reference=reference, keys=FRONT_KEYS)
    sweep_hv = hypervolume(sweep.front, reference=reference, keys=FRONT_KEYS)
    rate = result.evaluations / elapsed
    # None (not inf) when the sweep front is fully dominated: the trajectory
    # file must stay strictly finite-numeric for tools/plot_bench.py.
    ratio = nsga2_hv / sweep_hv if sweep_hv > 0 else None

    emit(
        "NSGA-II - front quality vs budget-matched weight sweep (image encoder, 4x3)",
        "\n".join(
            [
                f"NSGA-II front: {len(result.front)} point(s), "
                f"{result.evaluations} evaluations in {elapsed:.2f}s "
                f"({rate:,.1f} evals/s)",
                f"sweep front:   {len(sweep.front)} point(s) from "
                f"{SWEEP_WEIGHTS} weight vectors over {result.evaluations} candidates",
                f"hypervolume:   NSGA-II {nsga2_hv:,.0f} vs sweep {sweep_hv:,.0f} "
                + (
                    f"({ratio:.2f}x, shared reference)"
                    if ratio is not None
                    else "(sweep front fully dominated)"
                ),
            ]
        ),
    )
    record_sample(
        "BENCH_nsga2.json",
        {
            "bench": "nsga2_front",
            "evals_per_s": rate,
            "front_size": len(result.front),
            "nsga2_hypervolume": nsga2_hv,
            "sweep_hypervolume": sweep_hv,
            "hypervolume_ratio": ratio,
        },
    )

    # The acceptance bars of the population-front engine: a clean front that
    # is at least as good as the scalarisation sweep under the same budget.
    for a in result.front:
        for b in result.front:
            assert a is b or not a.metrics.dominates(b.metrics, FRONT_KEYS)
    assert nsga2_hv >= sweep_hv


LOAD_KEYS = ("dynamic_energy", "max_link_load")
LOAD_PARAMS = Nsga2Parameters(population_size=64, generations=6)
LOAD_SEARCHES = 20


@pytest.mark.benchmark(group="nsga2-front")
def test_nsga2_load_aware_throughput_split(benchmark, monkeypatch):
    spec = TgffSpec(
        name="front48",
        num_cores=48,
        num_packets=120,
        total_bits=120 * 4096,
        computation_scale=0.5,
    )
    cwg = cdcg_to_cwg(TgffLikeGenerator(BENCH_SEED).generate(spec))
    platform = Platform(mesh=Mesh(8, 8))
    # The shared route table and its link incidence are built once, untimed.
    get_route_table(platform).link_incidence()

    # Time the sort and the brood pricing where the loop calls them.
    spent = {"sort": 0.0, "pricing": 0.0}

    def timed(name, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start

        return wrapper

    monkeypatch.setattr(
        population,
        "fast_non_dominated_sort",
        timed("sort", population.fast_non_dominated_sort),
    )
    monkeypatch.setattr(
        population.MappingGenome,
        "price",
        timed("pricing", population.MappingGenome.price),
    )

    def run():
        results = []
        start = time.perf_counter()
        for index in range(LOAD_SEARCHES):
            context = LoadAwareCwmContext(cwg, platform)
            initial = Mapping.random(cwg.cores, platform.num_tiles, rng=index)
            results.append(
                NSGA2Search(LOAD_PARAMS, keys=LOAD_KEYS).search(
                    context, initial, rng=BENCH_SEED + index
                )
            )
        return results, time.perf_counter() - start

    results, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    evaluations = sum(result.evaluations for result in results)
    rate = evaluations / elapsed
    split = {
        "sort_s": spent["sort"],
        "pricing_s": spent["pricing"],
        "breed_s": elapsed - spent["sort"] - spent["pricing"],
    }
    emit(
        "NSGA-II - load-aware front throughput (8x8 mesh, 48 cores, pop 64)",
        "\n".join(
            [
                f"{LOAD_SEARCHES} searches, {evaluations} evaluations in "
                f"{elapsed:.2f}s ({rate:,.0f} evals/s)",
                "split: "
                + ", ".join(
                    f"{name} {seconds * 1e3:.1f} ms ({seconds / elapsed:.0%})"
                    for name, seconds in split.items()
                ),
            ]
        ),
    )
    record_sample(
        "BENCH_nsga2.json",
        {"bench": "nsga2_load_aware", "evals_per_s": rate, **split},
    )

    # Every front is clean and re-prices exactly on a fresh context.
    fresh = LoadAwareCwmContext(cwg, platform, cache_size=0)
    for result in results:
        for a in result.front:
            assert fresh.metrics(a.mapping) == a.metrics
            for b in result.front:
                assert a is b or not a.metrics.dominates(b.metrics, LOAD_KEYS)
