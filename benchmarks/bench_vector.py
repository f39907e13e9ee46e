"""Throughput of the CWM array pricing kernel — scalar loop vs NumPy batch.

The vectorised kernel (:mod:`repro.eval.vector`) claims two things: (1) the
array path is *bit-identical* to the scalar per-candidate loop, so batch
pricing never changes a result; (2) pricing a whole generation as
one ``(pop, cores)`` gather is at least an order of magnitude faster than the
scalar batch path, which is what makes population engines (GA / NSGA-II /
exhaustive chunks) cheap on the CWM model.  This bench pins both on an 8x8
mesh with a 48-core TGFF-like CWG at populations 256 and 4096:

* identity — every population is priced both per candidate through the
  scalar accumulator (``_compute_metrics``) and as one batch through the
  context (memo disabled so the kernel does all the work), and the metric
  vectors must compare exactly equal; the raw kernel output must equal the
  scalar costs too;
* throughput — three candidates/sec rates per population:

  - ``scalar``: a per-candidate ``_compute_metrics`` loop on a
    ``cache_size=0`` context — the same arithmetic as the scalar reference;
  - ``context``: the context's batch path fed *Mapping objects* — it pays
    the per-candidate dict→row conversion, so it shows the kernel's
    end-to-end win for today's engines;
  - ``array``: :meth:`~repro.eval.vector.VectorizedCwmKernel.price` on the
    population already in ``(pop, cores)`` array form — the hot path the
    kernel is built for, with no per-candidate Python objects.

The >= 10x acceptance bar compares the array path against the scalar loop
at population 4096.  The identity assertions always run; the bar follows
the suite's perf-bar convention (cf. the >= 2x pool bar in
``bench_parallel.py``): rates are recorded first, then the bar can be waived
on constrained or instrumented interpreters by setting
``REPRO_BENCH_NO_PERF_BARS=1``.

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_vector.json`` in the working directory — the file the CI
benchmark-trajectory job uploads.
"""

import os
import time

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.core.mapping import Mapping
from repro.eval.context import CwmEvaluationContext
from repro.eval.vector import population_to_array
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.utils.rng import ensure_rng
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

POPULATIONS = (256, 4096)

#: Perf bars can be waived (rates are still printed and recorded) on
#: constrained runners — same spirit as the CPU gate in bench_parallel.
_SKIP_PERF_BARS = os.environ.get("REPRO_BENCH_NO_PERF_BARS", "0") not in (
    "0",
    "",
    "false",
)


def _workload():
    spec = TgffSpec(
        name="vector-8x8",
        num_cores=48,
        num_packets=120,
        total_bits=120 * 2_000,
    )
    cdcg = TgffLikeGenerator(BENCH_SEED).generate(spec)
    return cdcg_to_cwg(cdcg), Platform(mesh=Mesh(8, 8))


def _population(cwg, num_tiles, size, rng):
    return [Mapping.random(sorted(cwg.cores), num_tiles, rng) for _ in range(size)]


def _timed(fn, size):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, size / elapsed


@pytest.mark.benchmark(group="vector-throughput")
def test_cwm_array_kernel_throughput(benchmark):
    cwg, platform = _workload()
    order = sorted(cwg.cores)
    rng = ensure_rng(BENCH_SEED)
    populations = {
        size: _population(cwg, platform.num_tiles, size, rng) for size in POPULATIONS
    }

    def run():
        results = {}
        for size, population in populations.items():
            # cache_size=0 disables the memo so every candidate actually hits
            # the pricing path under measurement.
            vector_ctx = CwmEvaluationContext(cwg, platform, cache_size=0)
            kernel = vector_ctx.vector_kernel()  # bind outside the timed region
            tiles = population_to_array(
                population, order, num_tiles=platform.num_tiles
            )

            scalar_metrics, scalar_rate = _timed(
                lambda: [vector_ctx._compute_metrics(m) for m in population],
                size,
            )
            vector_metrics, context_rate = _timed(
                lambda: vector_ctx.evaluate_metrics_batch(population), size
            )
            costs, array_rate = _timed(lambda: kernel.price(tiles), size)

            # The kernel's contract: bit-identical results, always.
            assert vector_metrics == scalar_metrics
            assert [float(cost) for cost in costs] == [
                metric["dynamic_energy"] for metric in scalar_metrics
            ]
            results[size] = (scalar_rate, context_rate, array_rate)
        return results

    rates = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"{'population':<12} {'scalar cand/s':>14} {'context cand/s':>15} "
        f"{'array cand/s':>14} {'speedup':>8}"
    ]
    for size, (scalar_rate, context_rate, array_rate) in rates.items():
        lines.append(
            f"{size:<12} {scalar_rate:>14,.0f} {context_rate:>15,.0f} "
            f"{array_rate:>14,.0f} {array_rate / scalar_rate:>7.1f}x"
        )
    emit(
        "Array pricing kernel - CWM candidates/sec, scalar loop vs "
        "batched context vs raw (pop, cores) array (8x8 mesh, 48 cores)",
        "\n".join(lines),
    )

    scalar_rate, context_rate, array_rate = rates[4096]
    record_sample(
        "BENCH_vector.json",
        {
            "bench": "bench_vector",
            "pop_256_scalar_cand_per_s": rates[256][0],
            "pop_256_context_cand_per_s": rates[256][1],
            "pop_256_array_cand_per_s": rates[256][2],
            "pop_4096_scalar_cand_per_s": scalar_rate,
            "pop_4096_context_cand_per_s": context_rate,
            "pop_4096_array_cand_per_s": array_rate,
            "speedup_4096": array_rate / scalar_rate,
        },
    )
    if _SKIP_PERF_BARS:
        pytest.skip(
            "REPRO_BENCH_NO_PERF_BARS=1: >= 10x bar waived (identity checks "
            "above already ran)"
        )
    # The acceptance bar of the array kernel: >= 10x candidates/sec over the
    # scalar loop for a pop-4096 generation in array form.
    assert array_rate >= 10.0 * scalar_rate
