#!/usr/bin/env python3
"""Cross-run weight sweeps through the mapping service (`repro.service`).

This example demonstrates the service layer end to end:

1. **cold sweep** — a `MappingDaemon` over a persistent `ResultStore` prices
   a candidate population once for a three-point energy/time weight sweep;
   scalarisation weights live outside the store key, so jobs 2 and 3 already
   answer from the store;
2. **warm re-run** — a *fresh* daemon over the same store directory (the
   "next day's" process) repeats the identical sweep and re-prices zero
   candidates: hit rate 1.0, and the costs are bit-identical to the cold
   pass;
3. **a worker pool** — the same population priced through a
   `ProcessPoolBackend`, bit-identical to serial pricing by construction.

Run with:  python examples/service_sweep.py
(set REPRO_EXAMPLES_SMOKE=1 for the tiny-parameter CI smoke configuration)
"""

import os
import tempfile
import time

from repro import (
    CdcmEvaluationContext,
    EvalJob,
    MappingDaemon,
    Mapping,
    Mesh,
    Platform,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
)
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0", "false")

SEED = 2005

SWEEP = (
    {"energy": 1.0, "time": 0.0},
    {"energy": 0.5, "time": 0.5},
    {"energy": 0.0, "time": 1.0},
)


def run_sweep(daemon, cdcg, platform, population):
    """Submit one job per sweep point; return the results and elapsed time."""
    start = time.perf_counter()
    results = [
        daemon.run(
            EvalJob(
                application=cdcg,
                platform=platform,
                mappings=population,
                model="cdcm",
                weights=weights,
                label=f"sweep-{i}",
            )
        )
        for i, weights in enumerate(SWEEP)
    ]
    return results, time.perf_counter() - start


def main() -> None:
    side = 4 if SMOKE else 8
    platform = Platform(mesh=Mesh(side, side))
    spec = TgffSpec(
        name="service-sweep",
        num_cores=(side * side) - 4,
        num_packets=20 if SMOKE else 96,
        total_bits=40_000 if SMOKE else 240_000,
    )
    cdcg = TgffLikeGenerator(SEED).generate(spec)
    population = [
        Mapping.random(sorted(cdcg.cores()), platform.num_tiles, rng=SEED + i)
        for i in range(8 if SMOKE else 24)
    ]
    print(
        f"application: {cdcg.num_cores} cores, {cdcg.num_packets} packets "
        f"on a {side}x{side} mesh; {len(population)} candidates, "
        f"{len(SWEEP)}-point weight sweep\n"
    )

    with tempfile.TemporaryDirectory(prefix="repro-example-store-") as root:
        # --- 1. cold sweep: the store starts empty --------------------
        with MappingDaemon(store=ResultStore(root)) as daemon:
            cold, cold_s = run_sweep(daemon, cdcg, platform, population)
        priced = sum(r.priced for r in cold)
        print(
            f"cold sweep: {cold_s:.2f}s, priced {priced} candidates "
            f"(jobs 2+ reuse job 1's vectors: "
            f"{[r.priced for r in cold]})"
        )

        # --- 2. warm re-run: a fresh daemon, the same store ----------
        with MappingDaemon(store=ResultStore(root)) as daemon:
            warm, warm_s = run_sweep(daemon, cdcg, platform, population)
        print(
            f"warm sweep: {warm_s:.2f}s, priced "
            f"{sum(r.priced for r in warm)} candidates, "
            f"hit rate {warm[-1].hit_rate:.2f}, "
            f"speedup {cold_s / warm_s:.1f}x"
        )
        assert all(r.priced == 0 for r in warm)
        assert [list(r.costs) for r in warm] == [list(r.costs) for r in cold]
        print(f"balanced-weights winner: cost {min(warm[1].costs):,.0f}\n")

    # --- 3. a worker pool ----------------------------------------------
    serial = SerialBackend().evaluate_metrics(
        CdcmEvaluationContext(cdcg, platform, cache_size=0), population
    )
    with ProcessPoolBackend(n_workers=2, min_batch_size=2) as pool:
        pooled = pool.evaluate_metrics(
            CdcmEvaluationContext(cdcg, platform, cache_size=0), population
        )
    assert pooled == serial, "a worker pool must never change a vector"
    print("pool vectors bit-identical to serial: OK")


if __name__ == "__main__":
    main()
