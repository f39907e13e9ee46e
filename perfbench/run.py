"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a checkout; the library is imported from ``src/``.

* ``--trace 0`` times user-level calls with no wrapper installed and prints
  the end-to-end metrics.
* ``--trace 1`` runs each round twice, first untraced and then traced, and
  prints the per-layer metrics of the traced jobs plus the tracing overhead.

Before each round the workload is set up again; then every job of the round
runs once.  A run repeats rounds until ``--seconds`` have passed (and at
least ``MIN_ROUNDS``), so each job is measured several times and every run
measures the same job mix.  Host times are scaled to a nominal host speed
(:data:`harness.REFERENCE_S`).  Every job's output is checked; a wrong
output counts as a failed job.  The last line of standard output is the
JSON result; the line before it is a JSON side report with sample counts,
raw times, tail percentiles and the workload's quality figures.  Spans of a
traced run are written to ``.perfbench/traces/``.
"""

from __future__ import annotations

import os

# One client, no pools: keep native libraries to one thread each.  Set
# before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import gc
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    at_reference_speed,
    parse_args,
    peak_rss_mb,
    percentile,
    reference_seconds,
    result_line,
    timing_summary,
)

WORKLOAD_NAMES = ("paper_table2", "front_nsga2_load", "service_mixed")

#: Each set-up batch repeats the set-up until this many seconds went into it
#: (at most ``SETUP_BATCH_MAX`` times); ``setup_s`` is the median over every
#: set-up of the run, so it samples the whole run, not one moment of it.
SETUP_BATCH_S = 0.1
SETUP_BATCH_MAX = 20
#: Rounds per run at least.
MIN_ROUNDS = 3
#: A run stops after this long even if it has not made ``MIN_ROUNDS``.
HARD_STOP_S = 120.0


def _import_workloads():
    """Put ``src/`` on the path and import the workloads, or explain why not."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError(f"no library sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


class Tally:
    """Timings, evaluation counts and failures of one side of a run.

    Times are kept per job key, both raw and at the nominal host speed; a
    job's figure is the median of its repeats.
    """

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}
        self.evaluations: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.layers: List[Dict[str, float]] = []

    def fail(self, job_id: str, reason: str) -> None:
        self.failed += 1
        print(f"perfbench: job {job_id} failed: {reason}", file=sys.stderr)

    def per_job(self, raw: bool = False) -> List[float]:
        return [median(times) for times in (self.raw if raw else self.times).values()]

    def repeats(self) -> int:
        return min((len(times) for times in self.times.values()), default=0)


def setup_batch(workload, setups: List[float]) -> None:
    """Set the workload up a few times, each from an empty route-table cache."""
    from repro.eval.route_table import clear_route_table_cache

    times = []
    before = reference_seconds()
    for _ in range(SETUP_BATCH_MAX):
        clear_route_table_cache()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        if sum(times) >= SETUP_BATCH_S:
            break
    after = reference_seconds()
    setups.extend(at_reference_speed(t, before, after) for t in times)


def run_round(workload, index: int, tally: Tally, tracer=None) -> None:
    """Run, time and check every job of round *index*."""
    from tracing import ACCOUNTING_TOLERANCE

    reference = reference_seconds()
    for job in workload.round(index):
        job_id = f"r{index}-{job.key}"
        tally.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                start = time.perf_counter()
                output = job.run()
                elapsed = time.perf_counter() - start
            else:
                output, elapsed, layers = tracer.run_job(job_id, job.run)
                tally.layers.append(layers)
        except Exception:  # a job that raises is a failed job; the run goes on
            tally.fail(job_id, traceback.format_exc(limit=3).strip().splitlines()[-1])
            continue
        after = reference_seconds()
        tally.times.setdefault(job.key, []).append(at_reference_speed(elapsed, reference, after))
        tally.raw.setdefault(job.key, []).append(elapsed)
        reference = after
        tally.evaluations.setdefault(job.key, job.evaluations(output))
        problem = job.check(output)
        if problem is None and tracer is not None and abs(layers["trace.accounted_ratio"] - 1.0) > ACCOUNTING_TOLERANCE:
            problem = f"layer self times add up to {layers['trace.accounted_ratio']:.9f} of the job time"
        if problem is not None:
            tally.fail(job_id, problem)


def measure(workload, seconds: float, traced: bool):
    """Set-up plus whole rounds until *seconds* have passed."""
    from tracing import Tracer

    plain, with_trace = Tally(), Tally()
    tracer = Tracer() if traced else None
    setups: List[float] = []
    start = time.perf_counter()
    index = 0
    # A traced round gets a set-up of its own, so it starts from the same
    # state as the untraced round it is compared with.
    sides = [(plain, None)] + ([(with_trace, tracer)] if tracer is not None else [])
    while True:
        for tally, side_tracer in sides:
            setup_batch(workload, setups)
            # What set-up built lives for the whole round: freeze it so the
            # collection before each job scans only what the jobs allocate.
            gc.collect()
            gc.freeze()
            try:
                if side_tracer is None:
                    run_round(workload, index, tally)
                else:
                    side_tracer.install()
                    try:
                        run_round(workload, index, tally, side_tracer)
                    finally:
                        side_tracer.remove()
            finally:
                gc.unfreeze()
        index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= MIN_ROUNDS) or elapsed >= HARD_STOP_S:
            break
    return plain, with_trace, tracer, index, setups


def traced_setup(workload, tracer) -> Dict[str, float]:
    """Layer breakdown of one traced set-up (for ``eval.route_table.build_s``)."""
    from repro.eval.route_table import clear_route_table_cache

    clear_route_table_cache()
    tracer.install()
    try:
        _, _, layers = tracer.run_job("setup", workload.setup)
    finally:
        tracer.remove()
    return layers


def end_to_end(setup_s: float, tally: Tally) -> Dict[str, tuple]:
    per_job = tally.per_job()
    busy = sum(per_job)
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_ms": (1000.0 * percentile(per_job, 0.5), "ms"),
        "jobs_per_s": (len(per_job) / busy, "1/s"),
        "evals_per_s": (sum(tally.evaluations.values()) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_layer(traced: Tally, plain: Tally, setup_layers: Dict[str, float], workload) -> Dict[str, tuple]:
    """Per-layer metrics: raw host-time means per traced job, ratios over all of them."""
    jobs = traced.layers
    count = len(jobs)

    def total(key: str) -> float:
        return sum(job.get(key, 0.0) for job in jobs)

    def mean(key: str) -> float:
        return total(key) / count

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def side(key: str) -> float:
        values = workload.report.get(key, [])
        return sum(values) / len(values) if values else 0.0

    hits, misses = total("eval.context.memo_hits"), total("eval.context.memo_misses")
    return {
        "noc.scheduler.calls": (mean("noc.scheduler.calls"), "count"),
        "noc.scheduler.busy_s": (mean("noc.scheduler.busy_s"), "s"),
        "noc.scheduler.us_per_packet": (
            1e6 * ratio(total("noc.scheduler.busy_s"), total("noc.scheduler.packets")), "us"),
        "energy.busy_s": (mean("energy.busy_s"), "s"),
        "eval.route_table.build_s": (setup_layers.get("eval.route_table.busy_s", 0.0), "s"),
        "eval.context.calls": (mean("eval.context.calls"), "count"),
        "eval.context.self_s": (mean("eval.context.self_s"), "s"),
        "eval.context.memo_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "eval.vector.candidates": (mean("eval.vector.candidates"), "count"),
        "eval.vector.busy_s": (mean("eval.vector.busy_s"), "s"),
        "search.nsga2.sort_s": (mean("search.nsga2.sort.busy_s"), "s"),
        "search.nsga2.crowding_s": (mean("search.nsga2.crowding.busy_s"), "s"),
        "search.nsga2.self_s": (mean("search.nsga2.self_s"), "s"),
        "search.annealing.self_s": (mean("search.annealing.self_s"), "s"),
        "search.annealing.accept_ratio": (
            ratio(total("search.annealing.accepted"), total("search.annealing.evaluations")), "ratio"),
        "analysis.pareto.hypervolume_s": (mean("analysis.pareto.hypervolume.busy_s"), "s"),
        "service.client.self_s": (mean("service.client.self_s"), "s"),
        "service.store.get_s": (mean("service.store.get.busy_s"), "s"),
        "service.store.put_s": (mean("service.store.put.busy_s"), "s"),
        "service.store.hit_ratio": (ratio(total("service.store.hits"), total("service.store.lookups")), "ratio"),
        "service.store.writes": (mean("service.store.writes"), "count"),
        "service.store.disk_bytes": (side("disk_bytes"), "bytes"),
        "service.daemon.queue_wait_ms": (1000.0 * mean("service.daemon.queue_wait_s"), "ms"),
        "service.daemon.self_s": (mean("service.daemon.self_s"), "s"),
        "service.daemon.resident_contexts": (side("resident_contexts"), "count"),
        "trace.other_s": (mean("job.self_s"), "s"),
        "trace.job_s": (mean("trace.job_s"), "s"),
        "trace.accounted_ratio": (mean("trace.accounted_ratio"), "ratio"),
        "trace.overhead_ratio": (percentile(traced.per_job(), 0.5) / percentile(plain.per_job(), 0.5), "ratio"),
    }


def side_report(workload, plain: Tally, rounds: int, setups: List[float]) -> Dict[str, object]:
    """Sample counts, raw times, tail percentiles and quality figures (not gated)."""
    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": workload.seed,
        "rounds": rounds,
        "repeats_per_job": plain.repeats(),
        "setups": len(setups),
        "job_ms": timing_summary(plain.per_job()),
        "raw_job_ms": timing_summary(plain.per_job(raw=True)),
        "evaluations_per_round": sum(plain.evaluations.values()),
    }
    for key, values in sorted(workload.report.items()):
        report[key] = {"n": len(values), "median": median(values)}
    if "etr" in workload.report:
        report["etr_pct"] = 100.0 * sum(workload.report["etr"]) / len(workload.report["etr"])
        report["ecs007_pct"] = 100.0 * sum(workload.report["ecs007"]) / len(workload.report["ecs007"])
    return report


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv, WORKLOAD_NAMES)
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](seed=args.seed, work_dir=work_dir)
        setup_layers: Dict[str, float] = {}
        if args.trace:
            from tracing import Tracer

            setup_layers = traced_setup(workload, Tracer())
        plain, traced, tracer, rounds, setups = measure(workload, args.seconds, bool(args.trace))
        for problem in workload.round_problems():
            plain.fail("round-check", problem)
        if args.trace:
            metrics = per_layer(traced, plain, setup_layers, workload)
            tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(median(setups), plain)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        print(json.dumps(side_report(workload, plain, rounds, setups), sort_keys=True))
        print(json.dumps(result_line(failed == 0, attempted, failed, metrics)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
