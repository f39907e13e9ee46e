"""The outside-in tracer: wrappers come off cleanly and self times add up."""

import sys

import pytest

from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.eval import route_table
from repro.noc.platform import Platform
from repro.noc.scheduler import CdcmScheduler
from repro.noc.topology import Mesh
from repro.service.daemon import EvalJob, MappingDaemon
from repro.service.store import ResultStore
from repro.workloads.paper_example import paper_example_cdcg

from tracing import ACCOUNTING_TOLERANCE, Tracer


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.remove()


def _app():
    cdcg = paper_example_cdcg()
    platform = Platform(mesh=Mesh(2, 2))
    return cdcg, platform, Mapping.random(cdcg.cores(), platform.num_tiles, rng=3)


def test_remove_restores_every_binding():
    original_schedule = CdcmScheduler.schedule
    original_lookup = route_table.get_route_table
    bound = {
        name: module
        for name, module in sys.modules.items()
        if name.startswith("repro") and getattr(module, "get_route_table", None) is original_lookup
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert CdcmScheduler.schedule is not original_schedule
        assert all(module.get_route_table is not original_lookup for module in bound.values())
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    assert CdcmScheduler.schedule is original_schedule
    assert all(module.get_route_table is original_lookup for module in bound.values())


def test_traced_evaluation_accounts_for_the_job(tracer):
    cdcg, platform, mapping = _app()
    evaluator = CdcmEvaluator(platform)
    report, duration, layers = tracer.run_job("j1", lambda: evaluator.evaluate(cdcg, mapping))
    assert report.execution_time > 0
    assert layers["noc.scheduler.calls"] == 1
    assert layers["noc.scheduler.packets"] == cdcg.num_packets
    assert layers["energy.calls"] == 1
    assert abs(layers["trace.accounted_ratio"] - 1.0) <= ACCOUNTING_TOLERANCE
    root = next(index for index, span in enumerate(tracer.spans) if span[1] == "job")
    job_spans = tracer.spans[root:]
    assert {"job", "noc.scheduler", "energy"} <= {span[1] for span in job_spans}
    assert all(span[5] == "j1" for span in job_spans)


def test_traced_results_equal_untraced(tracer):
    cdcg, platform, mapping = _app()
    traced = CdcmEvaluator(platform).metrics(cdcg, mapping)
    tracer.remove()
    assert CdcmEvaluator(platform).metrics(cdcg, mapping) == traced


def test_daemon_worker_spans_nest_under_the_client_call(tracer, tmp_path):
    cdcg, platform, mapping = _app()
    daemon = MappingDaemon(store=ResultStore(tmp_path))
    try:
        job = EvalJob(application=cdcg, platform=platform, mappings=[mapping], model="cdcm")
        result, _, layers = tracer.run_job("d1", lambda: daemon.run(job))
    finally:
        daemon.close()
    assert len(result.vectors) == 1
    by_id = {span[0]: span for span in tracer.spans}
    daemon_span = next(span for span in tracer.spans if span[1] == "service.daemon")
    context_span = next(span for span in tracer.spans if span[1] == "eval.context")
    assert context_span[4] == daemon_span[0]
    assert by_id[daemon_span[4]][1] == "job"
    assert layers["service.store.writes"] == 1
    assert layers["service.daemon.queue_wait_s"] >= 0.0
    assert abs(layers["trace.accounted_ratio"] - 1.0) <= ACCOUNTING_TOLERANCE


def test_spans_are_written_as_json_lines(tracer, tmp_path):
    cdcg, platform, mapping = _app()
    tracer.run_job("w", lambda: CdcmEvaluator(platform).evaluate(cdcg, mapping))
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert all(line.startswith('{"id": ') for line in lines)
