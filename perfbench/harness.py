"""Statistics, argument and result-line helpers of the benchmark.

Everything here is pure Python with no dependency on the library under
test, so ``perfbench/tests`` can exercise it without building a workload.
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import resource
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: Seed of the reproduced paper tables (DATE 2005, 7 March 2005); also the
#: seed whose ``paper_table2`` rows are pinned in ``expected/``.
DEFAULT_SEED = 20050307

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it (so a p90 needs 100 jobs, a p50 needs 20).
MIN_SAMPLES_BEYOND = 10

#: Host times are reported at a nominal host speed: each measured time is
#: scaled by ``REFERENCE_S`` over the time the reference kernel took around
#: it, so a figure reads as milliseconds on a host where the kernel takes
#: 1 ms.  On a shared 2-CPU virtual machine the host's speed was seen to
#: change by up to 40 % from one ten-second stretch to the next; the scaling
#: cancels most of that (the raw times are in the side report).
REFERENCE_S = 1e-3

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class InsufficientSamples(ValueError):
    """Raised when a percentile is asked of too few samples."""


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* sorted samples lie strictly above the *q* quantile.

    The quantile is the nearest-rank sample at index ``ceil(q * count) - 1``,
    so the samples beyond it are the ``count - ceil(q * count)`` larger ones.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if count <= 0:
        return 0
    return count - math.ceil(q * count)


def min_samples_for(q: float, beyond: int = MIN_SAMPLES_BEYOND) -> int:
    """Smallest sample count with at least *beyond* samples past quantile *q*."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def percentile(values: Sequence[float], q: float, beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank *q* quantile of *values*, refused without enough tail.

    Raises :class:`InsufficientSamples` unless at least *beyond* samples lie
    strictly above the returned rank.
    """
    count = len(values)
    have = samples_beyond(count, q)
    if have < beyond:
        raise InsufficientSamples(
            f"p{round(q * 100)} of {count} samples has {have} beyond it; "
            f"{beyond} are required ({min_samples_for(q, beyond)} samples)"
        )
    ordered = sorted(values)
    return ordered[math.ceil(q * count) - 1]


def timing_summary(values_s: Sequence[float], quantiles: Iterable[float] = (0.5, 0.9)) -> Dict[str, object]:
    """Per-quantile milliseconds of *values_s* plus the sample count ``n``.

    Quantiles without enough samples beyond them are reported as ``None``
    beside the count, never as a number.
    """
    out: Dict[str, object] = {"n": len(values_s)}
    for q in quantiles:
        key = f"p{round(q * 100)}_ms"
        try:
            out[key] = 1000.0 * percentile(values_s, q)
        except InsufficientSamples:
            out[key] = None
    return out


def self_time(start: float, end: float, children: Iterable[Sequence[float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    covered = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for s, e in clipped:
        if run_start is None or s > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_start is not None:
        covered += run_end - run_start
    return (end - start) - covered


def reference_kernel(steps: int = 2000) -> float:
    """A fixed pure-Python workload (dict, tuple, list and float work).

    It imports nothing from the library, so a change to the library cannot
    change its cost; only the host's speed can.
    """
    busy: Dict[int, float] = {}
    order = []
    total = 0.0
    for i in range(steps):
        key = (i * 7919) % 257
        start = busy.get(key, 0.0)
        end = start + (i % 13) * 0.5 + 1.0
        busy[key] = end
        order.append((key, end))
        total += end - start
    order.sort()
    return total + len(order)


def reference_seconds() -> float:
    """Host time of one :func:`reference_kernel` call, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, reference_before: float, reference_after: float) -> float:
    """*seconds* scaled to the nominal host speed (see :data:`REFERENCE_S`)."""
    return seconds * REFERENCE_S / ((reference_before + reference_after) / 2.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_metric(name: str, unit: str, value: float) -> None:
    """Refuse a metric whose name, unit or value breaks the result format."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"bad metric name {name!r}")
    if not METRIC_UNIT.match(unit):
        raise ValueError(f"bad unit {unit!r} for metric {name!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"metric {name!r} has non-finite value {value!r}")


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> Dict[str, object]:
    """The final JSON object: ``metrics`` maps name -> ``(value, unit)``."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one job")
    body = {}
    for name, (value, unit) in metrics.items():
        check_metric(name, unit, value)
        body[name] = {"value": float(value), "unit": unit}
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": body,
    }


def parse_args(argv: Optional[List[str]], workloads: Sequence[str]) -> argparse.Namespace:
    """Command line: ``--workload --seed --seconds --trace``."""
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Closed-loop benchmark of the NoC mapping library.",
    )
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure at least this long (whole rounds only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: paired traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args
