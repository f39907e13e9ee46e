"""The benchmark's three closed-loop workloads.

Each workload is driven by one client in this process.  ``setup()`` builds
everything a job needs from the workload seed (the program receives only the
generated inputs); ``round(r)`` yields the jobs of round *r*.  Every round
runs the same jobs — same inputs, same seeds, same starting state — so a run
that repeats rounds until its time is up measures each job several times and
always the same job mix.  Each :class:`Job` carries the check of its own
output.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis import pareto
from repro.analysis.comparison import ComparisonConfig, compare_models
from repro.codesign.load import LoadAwareCwmContext
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.energy.technology import TECH_0_07UM, TECH_0_35UM
from repro.eval import route_table
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import NocParameters, Platform
from repro.noc.routing import XYRouting
from repro.noc.topology import Mesh
from repro.search.annealing import AnnealingSchedule
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.service.daemon import EvalJob, MappingDaemon
from repro.service.store import ResultStore, mapping_digest
from repro.utils.rng import spawn_seeds
from repro.workloads.suite import table1_suite
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

from harness import DEFAULT_SEED

EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass
class Job:
    """One timed call and the check of its output.

    ``key`` names the job identically in every round.  ``check(output)``
    returns ``None`` when the output is right, else a one-line reason;
    ``evaluations(output)`` counts the objective evaluations (or candidates
    answered) the job performed.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    evaluations: Callable[[Any], int]


@dataclass
class Workload:
    """Shared shape: seed, scratch directory and side-report accumulators."""

    seed: int
    work_dir: Path
    report: Dict[str, List[float]] = field(default_factory=dict)

    name = "workload"

    def note(self, key: str, value: float) -> None:
        self.report.setdefault(key, []).append(float(value))

    def setup(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def round(self, index: int) -> Iterator[Job]:  # pragma: no cover - interface
        raise NotImplementedError

    def round_problems(self) -> List[str]:
        """Checks that need a whole round (none by default)."""
        return []


# ---------------------------------------------------------------------------
# paper_table2
# ---------------------------------------------------------------------------

#: A fixed evaluation budget instead of the quick Table 2 schedule: the quick
#: schedule's stall stop makes a job's work depend on its seed (one entry
#: took 4.3 s under one seed and 11.4 s under another), which no affordable
#: run length averages out.  With the stall and temperature stops out of
#: reach every search makes exactly ``max_evaluations`` evaluations, cooling
#: over 20 plateaus of 8 moves to 4 % of the starting temperature.
TABLE2_SCHEDULE = AnnealingSchedule(
    cooling_factor=0.85,
    moves_per_temperature=8,
    max_evaluations=160,
    stall_plateaus=10**9,
    min_temperature_ratio=1e-300,
)
TABLE2_CONFIG = ComparisonConfig(annealing_schedule=TABLE2_SCHEDULE)

#: The quick schedule of the repository's Table 2 bench; the rows
#: ``generate_table2`` gives with it are pinned by ``tests/test_table2_quick.py``.
QUICK_TABLE2_CONFIG = ComparisonConfig(
    annealing_schedule=AnnealingSchedule(cooling_factor=0.92, max_evaluations=4_000, stall_plateaus=10)
)


def table2_row(comparison) -> List[str]:
    """ETR, ECS(0.35 um) and ECS(0.07 um) of one comparison, as exact reprs."""
    return [
        repr(comparison.execution_time_reduction),
        repr(comparison.energy_saving(TECH_0_35UM.name)),
        repr(comparison.energy_saving(TECH_0_07UM.name)),
    ]


def quick_table2_rows(rows) -> List[list]:
    """NoC label, exact ETR / ECS reprs and application count of Table 2 rows.

    The CPU-ratio column is wall-clock and left out.
    """
    return [
        [row.noc_label, repr(row.etr), repr(row.ecs_035), repr(row.ecs_007), row.num_applications]
        for row in rows
    ]


def repriced_row(cdcg, platform, comparison) -> List[str]:
    """The same row re-derived from both mappings by a fresh evaluator."""
    evaluator = CdcmEvaluator(platform)
    cwm = evaluator.evaluate(cdcg, comparison.cwm_mapping)
    cdcm = evaluator.evaluate(cdcg, comparison.cdcm_mapping)
    etr = (cwm.execution_time - cdcm.execution_time) / cwm.execution_time if cwm.execution_time > 0 else 0.0
    row = [repr(etr)]
    for technology in (TECH_0_35UM, TECH_0_07UM):
        before = evaluator.reprice(cwm, technology).total_energy
        after = evaluator.reprice(cdcm, technology).total_energy
        row.append(repr((before - after) / before if before > 0 else 0.0))
    return row


class PaperTable2(Workload):
    """CWM-vs-CDCM comparisons over the 15 small-NoC Table 1 entries."""

    name = "paper_table2"

    def setup(self) -> None:
        self.apps = []
        for entry in table1_suite(groups=("small",)):
            platform = Platform(
                mesh=entry.mesh,
                routing=XYRouting(),
                parameters=NocParameters(),
                technology=TECH_0_07UM,
            )
            route_table.get_route_table(platform)
            self.apps.append((entry, entry.build(), platform))

    def passes(self) -> List[Tuple[str, List[int]]]:
        """Two passes over the entries; pass A's seeds are ``spawn_seeds(seed, 15)``."""
        count = len(self.apps)
        return [
            ("A", list(spawn_seeds(self.seed, count))),
            ("B", list(spawn_seeds(np.random.default_rng((self.seed, 1)), count))),
        ]

    def round(self, index: int) -> Iterator[Job]:
        expected = None
        if self.seed == DEFAULT_SEED:
            expected = json.loads((EXPECTED / "paper_table2_rows.json").read_text())["rows"]
        for label, seeds in self.passes():
            pinned = expected if label == "A" else None
            for (entry, cdcg, platform), entry_seed in zip(self.apps, seeds):
                yield Job(
                    key=f"{label}-{entry.name}",
                    run=lambda c=cdcg, p=platform, s=entry_seed: compare_models(c, p, TABLE2_CONFIG, seed=s),
                    check=lambda out, e=entry, c=cdcg, p=platform, x=pinned: self._check(x, e, c, p, out),
                    evaluations=lambda out: out.cwm_outcome.evaluations + out.cdcm_outcome.evaluations,
                )

    def _check(self, expected, entry, cdcg, platform, comparison) -> Optional[str]:
        row = table2_row(comparison)
        self.note("etr", float(row[0]))
        self.note("ecs007", float(row[2]))
        again = repriced_row(cdcg, platform, comparison)
        if again != row:
            return f"{entry.name}: row {row} but a fresh evaluator gives {again}"
        if expected is not None and expected[entry.name] != row:
            return f"{entry.name}: row {row} differs from the recorded {expected[entry.name]}"
        return None


# ---------------------------------------------------------------------------
# front_nsga2_load
# ---------------------------------------------------------------------------

FRONT_KEYS = ("dynamic_energy", "max_link_load")
FRONT_PARAMS = Nsga2Parameters(population_size=64, generations=6)
FRONT_JOBS_PER_ROUND = 20
FRONT_REFERENCE_POOL = 256


class FrontNsga2Load(Workload):
    """NSGA-II energy / peak-link-load fronts on an 8x8 mesh."""

    name = "front_nsga2_load"

    def setup(self) -> None:
        spec = TgffSpec(
            name="front48",
            num_cores=48,
            num_packets=120,
            total_bits=120 * 4096,
            computation_scale=0.5,
        )
        self.cwg = cdcg_to_cwg(TgffLikeGenerator(self.seed).generate(spec))
        self.platform = Platform(mesh=Mesh(8, 8))
        route_table.get_route_table(self.platform)
        # The fixed hypervolume reference: the componentwise worst of a
        # seeded random pool, so every job of the run shares one reference.
        pool = [
            Mapping.random(self.cwg.cores, self.platform.num_tiles, rng=np.random.default_rng((self.seed, 0, i)))
            for i in range(FRONT_REFERENCE_POOL)
        ]
        vectors = LoadAwareCwmContext(self.cwg, self.platform).evaluate_metrics_batch(pool)
        self.reference = {key: max(v[key] for v in vectors) for key in FRONT_KEYS}

    def _search(self, index: int):
        context = LoadAwareCwmContext(self.cwg, self.platform)
        initial = Mapping.random(
            self.cwg.cores, self.platform.num_tiles, rng=np.random.default_rng((self.seed, 1, index, 0))
        )
        result = NSGA2Search(FRONT_PARAMS, keys=FRONT_KEYS).search(
            context, initial, rng=np.random.default_rng((self.seed, 1, index, 1))
        )
        return result, pareto.hypervolume(result.front, reference=self.reference, keys=FRONT_KEYS)

    def round(self, index: int) -> Iterator[Job]:
        for number in range(FRONT_JOBS_PER_ROUND):
            yield Job(
                key=f"j{number}",
                run=lambda n=number: self._search(n),
                check=self._check,
                evaluations=lambda out: out[0].evaluations,
            )

    def _check(self, output) -> Optional[str]:
        result, volume = output
        self.note("hypervolume", volume)
        front = result.front
        if not front or volume <= 0.0:
            return f"empty front or zero hypervolume ({len(front)} points, {volume})"
        for a in front:
            for b in front:
                if a is not b and a.metrics.dominates(b.metrics, FRONT_KEYS):
                    return "front holds a dominated point"
        fresh = LoadAwareCwmContext(self.cwg, self.platform, cache_size=0)
        for point in front:
            again = fresh.metrics(point.mapping)
            if again != point.metrics:
                return f"front vector {point.metrics} re-prices to {again}"
        return None


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------

#: (model, application index, share of fresh candidates) of consecutive
#: jobs; CDCM and CWM alternate.  A fresh candidate has never been asked
#: for, so it is priced and written to the store; the rest of a batch comes
#: from a small per-application pool that the store and the resident
#: contexts answer after its first sighting.  The shares put a few cold
#: replays into every CDCM job and enough store writes into every CWM job
#: that the four kinds of job overlap in latency: job latency is one
#: continuum, with no seam between a fast and a slow group for p50 or p90
#: to sit on.  (With a 10 % CWM share every CWM job was faster than every
#: CDCM job, and p50 fell exactly on that seam.)
SERVICE_KINDS = (("cdcm", 0, 0.03), ("cwm", 0, 0.30), ("cdcm", 1, 0.01), ("cwm", 1, 0.30))
SERVICE_SESSIONS = 4
SERVICE_JOBS_PER_SESSION = 25
SERVICE_POOL = 64  # reused candidates per application
SERVICE_BATCH = (64, 320)  # candidates per job, spread evenly over [lo, hi]


@dataclass
class ServiceMixed(Workload):
    """Store-backed daemon jobs over an 8x8 and a 16x16 application."""

    #: (store hits, store writes, distinct candidates) of every round run.
    round_counts: List[tuple] = field(default_factory=list)

    name = "service_mixed"

    def setup(self) -> None:
        specs = (
            (Mesh(8, 8), TgffSpec(name="svc8", num_cores=48, num_packets=64, total_bits=64 * 2048, computation_scale=0.5)),
            (Mesh(16, 16), TgffSpec(name="svc16", num_cores=96, num_packets=128, total_bits=128 * 2048, computation_scale=0.5)),
        )
        rng = np.random.default_rng((self.seed, len(specs)))
        jobs = SERVICE_SESSIONS * SERVICE_JOBS_PER_SESSION
        # Every kind gets the same batch sizes, evenly spread over the range,
        # in a seeded order: the seed moves which candidates a job asks for,
        # not how much work a round holds.
        per_kind = jobs // len(SERVICE_KINDS)
        sizes = [
            list(rng.permutation(np.linspace(SERVICE_BATCH[0], SERVICE_BATCH[1], per_kind).round().astype(int)))
            for _ in SERVICE_KINDS
        ]
        plan = []
        fresh_needed = [0] * len(specs)
        for job in range(jobs):
            model, app, share = SERVICE_KINDS[job % len(SERVICE_KINDS)]
            size = int(sizes[job % len(SERVICE_KINDS)][job // len(SERVICE_KINDS)])
            fresh = round(share * size)
            picks = [int(p) for p in rng.integers(0, SERVICE_POOL, size=size - fresh)]
            picks += range(SERVICE_POOL + fresh_needed[app], SERVICE_POOL + fresh_needed[app] + fresh)
            fresh_needed[app] += fresh
            plan.append((model, app, picks))
        self.plan = plan
        self.apps = []
        for number, (mesh, spec) in enumerate(specs):
            cdcg = TgffLikeGenerator(np.random.default_rng((self.seed, number))).generate(spec)
            platform = Platform(mesh=mesh)
            route_table.get_route_table(platform)
            candidates = [
                Mapping.random(cdcg.cores(), platform.num_tiles, rng=np.random.default_rng((self.seed, number, i)))
                for i in range(SERVICE_POOL + fresh_needed[number])
            ]
            self.apps.append((cdcg, platform, candidates))
        # Starting (and stopping) the service is part of being ready to serve.
        MappingDaemon(store=ResultStore(self.work_dir / "setup-store")).close()
        shutil.rmtree(self.work_dir / "setup-store", ignore_errors=True)

    def round(self, index: int) -> Iterator[Job]:
        root = self.work_dir / f"store-{index}"
        shutil.rmtree(root, ignore_errors=True)
        first: Dict[tuple, Any] = {}
        hits = misses = writes = 0
        try:
            for session in range(SERVICE_SESSIONS):
                store = ResultStore(root)
                daemon = MappingDaemon(store=store)
                try:
                    start = session * SERVICE_JOBS_PER_SESSION
                    for number in range(start, start + SERVICE_JOBS_PER_SESSION):
                        model, app, picks = self.plan[number]
                        cdcg, platform, candidates = self.apps[app]
                        mappings = [candidates[p] for p in picks]
                        job = EvalJob(application=cdcg, platform=platform, mappings=mappings, model=model)
                        yield Job(
                            key=f"s{session}-j{number}",
                            run=lambda d=daemon, j=job: d.run(j),
                            check=lambda out, m=model, a=app, ms=mappings: self._check(first, m, a, ms, out),
                            evaluations=lambda out: len(out.vectors),
                        )
                    self.note("resident_contexts", daemon.stats()["resident_contexts"])
                finally:
                    daemon.close()
                stats = store.stats
                hits += stats.hits
                misses += stats.misses
                writes += stats.writes
            self.note("disk_bytes", ResultStore(root).disk_bytes())
            self.note("store_hit_ratio", hits / (hits + misses))
            self.round_counts.append((hits, writes, len(first)))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _check(self, first, model, app, mappings, result) -> Optional[str]:
        if len(result.vectors) != len(mappings):
            return f"{len(result.vectors)} vectors for {len(mappings)} candidates"
        for mapping, vector in zip(mappings, result.vectors):
            key = (model, app, mapping_digest(mapping))
            known = first.setdefault(key, vector)
            if known != vector:
                return f"{model} vector for {key[2][:12]} changed: {known} then {vector}"
        return None

    def round_problems(self) -> List[str]:
        problems = [
            f"store wrote {writes} entries for {distinct} distinct candidates"
            for _, writes, distinct in self.round_counts
            if writes != distinct
        ]
        if len(set(self.round_counts)) > 1:
            problems.append(f"store hit/write counts differ between identical rounds: {sorted(set(self.round_counts))}")
        return problems


WORKLOADS = {cls.name: cls for cls in (PaperTable2, FrontNsga2Load, ServiceMixed)}
