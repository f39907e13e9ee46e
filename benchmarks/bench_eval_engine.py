"""Throughput of the evaluation engine — full vs cached vs delta pricing.

The repro.eval refactor claims that mapping pricing, the hot path of every
search, gets dramatically cheaper: route tables remove the per-evaluation XY
walks, the context memo removes repeated pricing of revisited candidates, and
exact O(degree) swap deltas remove the full re-evaluation from every annealing
move.  This bench pins those claims to numbers so the speedup stays tracked in
the perf trajectory:

* ``pricing`` group — evaluations/sec of one CWM pricing call on an 8x8 mesh
  under three regimes: the seed's per-edge route walk ("full"), the
  route-table-backed context ("cached") and the incremental swap delta
  ("delta");
* ``annealing`` group — end-to-end evaluations/sec of CWM simulated annealing
  on the 8x8 mesh, seed path vs delta path, asserting the >= 2x speedup the
  refactor was sized for (measured well above 10x in practice).

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_eval_engine.json`` in the working directory — the CI
benchmark-trajectory job records one sample per PR and uploads the file as
an artifact.
"""

import time

import pytest

from conftest import emit, record_sample
from repro.core.mapping import Mapping
from repro.core.objective import cwm_objective
from repro.energy.bit_energy import bit_energy_route
from repro.eval.context import CwmEvaluationContext
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.annealing import AnnealingSchedule, SimulatedAnnealing
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

MESH = Mesh(8, 8)
SEED = 20050307


def _workload():
    spec = TgffSpec(
        name="eval-engine",
        num_cores=48,
        num_packets=200,
        total_bits=400_000,
    )
    cdcg = TgffLikeGenerator(7).generate(spec)
    return cdcg, cdcg_to_cwg(cdcg)


def _legacy_cwm_objective(cwg, platform):
    """The seed pricing path: re-derive the XY route on every edge visit."""
    technology = platform.technology

    def cost(mapping):
        tiles = mapping.assignments()
        total = 0.0
        for comm in cwg.communications():
            hops = platform.hop_count(tiles[comm.source], tiles[comm.target])
            total += comm.bits * bit_energy_route(technology, hops, True)
        return total

    return cost


@pytest.mark.benchmark(group="eval-engine-pricing")
def test_pricing_throughput(benchmark):
    _, cwg = _workload()
    platform = Platform(mesh=MESH)
    legacy = _legacy_cwm_objective(cwg, platform)
    context = CwmEvaluationContext(cwg, platform, cache_size=0)
    mappings = [
        Mapping.random(cwg.cores, platform.num_tiles, rng=seed)
        for seed in range(64)
    ]
    swaps = [(i % platform.num_tiles, (i * 7 + 3) % platform.num_tiles) for i in range(64)]

    def throughput(fn, args_list):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        elapsed = time.perf_counter() - start
        return len(args_list) / elapsed

    def run():
        reps = 20
        full = throughput(legacy, [(m,) for m in mappings] * reps)
        cached = throughput(context.cost, [(m,) for m in mappings] * reps)
        base = mappings[0]
        delta = throughput(
            context.delta, [(base, a, b) for a, b in swaps] * reps
        )
        return {"full": full, "cached": cached, "delta": delta}

    rates = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'pricing path':<12} {'evals/sec':>14} {'vs full':>9}"]
    for label in ("full", "cached", "delta"):
        lines.append(
            f"{label:<12} {rates[label]:>14,.0f} {rates[label] / rates['full']:>8.1f}x"
        )
    emit(
        "Evaluation engine - single-pricing throughput on an 8x8 mesh "
        "(full = seed per-edge route walk, cached = shared route table, "
        "delta = incremental swap pricing)",
        "\n".join(lines),
    )
    record_sample(
        "BENCH_eval_engine.json",
        {
            "bench": "eval_engine_pricing",
            "full_evals_per_s": rates["full"],
            "cached_evals_per_s": rates["cached"],
            "delta_evals_per_s": rates["delta"],
            "cached_speedup": rates["cached"] / rates["full"],
            "delta_speedup": rates["delta"] / rates["full"],
        },
    )
    assert rates["cached"] >= 1.5 * rates["full"]
    assert rates["delta"] >= 2.0 * rates["full"]


@pytest.mark.benchmark(group="eval-engine-annealing")
def test_annealing_throughput_speedup(benchmark):
    _, cwg = _workload()
    platform = Platform(mesh=MESH)
    initial = Mapping.random(cwg.cores, platform.num_tiles, rng=3)
    schedule = AnnealingSchedule(
        cooling_factor=0.95, max_evaluations=20_000, stall_plateaus=25
    )

    def run_one(objective, use_delta):
        engine = SimulatedAnnealing(schedule, use_delta=use_delta)
        start = time.perf_counter()
        result = engine.search(objective, initial, rng=SEED)
        elapsed = time.perf_counter() - start
        return result, result.evaluations / elapsed

    def run():
        seed_result, seed_rate = run_one(
            _legacy_cwm_objective(cwg, platform), use_delta=False
        )
        delta_result, delta_rate = run_one(
            cwm_objective(cwg, platform), use_delta=True
        )
        return seed_result, seed_rate, delta_result, delta_rate

    seed_result, seed_rate, delta_result, delta_rate = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    emit(
        "Evaluation engine - CWM annealing on an 8x8 mesh, seed "
        "full-reevaluation path vs incremental delta path",
        "\n".join(
            [
                f"{'path':<10} {'evals/sec':>12} {'best cost (pJ)':>16}",
                f"{'seed':<10} {seed_rate:>12,.0f} {seed_result.best_cost:>16.1f}",
                f"{'delta':<10} {delta_rate:>12,.0f} {delta_result.best_cost:>16.1f}",
                f"speedup: {delta_rate / seed_rate:.1f}x",
            ]
        ),
    )
    record_sample(
        "BENCH_eval_engine.json",
        {
            "bench": "eval_engine_annealing",
            "seed_evals_per_s": seed_rate,
            "delta_evals_per_s": delta_rate,
            "speedup": delta_rate / seed_rate,
            "seed_best_cost": seed_result.best_cost,
            "delta_best_cost": delta_result.best_cost,
        },
    )
    # The acceptance bar of the refactor: at least 2x evaluations/sec.
    assert delta_rate >= 2.0 * seed_rate
    # Same walk, same destination: the delta path must not trade quality.
    assert delta_result.best_cost <= seed_result.best_cost * (1 + 1e-9)
