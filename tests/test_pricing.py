"""The trace-free CDCM pricing replay (``CdcmScheduler.price``).

Every metric-only CDCM consumer prices through
:meth:`~repro.noc.scheduler.CdcmScheduler.price` (via
:meth:`~repro.core.cdcm.CdcmEvaluator.metrics`), while
:meth:`~repro.noc.scheduler.CdcmScheduler.schedule` stays the reference
replay.  The contract pinned here:

* **bit identity** — ``metrics()`` equals ``evaluate(...).metric_vector()``
  exactly (``repr`` equality), and ``price()``'s aggregates equal the
  matching aggregates of ``schedule()``, over meshes, tori, a faulted
  irregular fabric and a synthesized co-design routing table, with local
  links serialised or not and local-link energy included or not;
* **error parity** — the same :class:`~repro.utils.errors.MappingError` /
  :class:`~repro.utils.errors.SchedulingError` messages as the reference;
* **plan freshness** — the compiled plan is rebuilt after the CDCG mutates.

The ``slow``-marked sweep at the bottom is the nightly long-haul version on
16x16 fabrics with larger applications.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.codesign.synthesis import SynthesizedRouting, TableSynthesizer
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.graphs.cdcg import CDCG
from repro.noc.platform import NocParameters, Platform
from repro.noc.scheduler import CdcmScheduler
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.utils.errors import ConfigurationError, MappingError, SchedulingError

FABRICS = ("irregular", "mesh", "synthesized", "torus")


def _mesh_links(width: int, height: int):
    links = []
    for y in range(height):
        for x in range(width):
            tile = y * width + x
            if x + 1 < width:
                links.append((tile, tile + 1))
            if y + 1 < height:
                links.append((tile, tile + width))
    return links


def _fabric(fabric: str, width: int, height: int, draw_faults, seed: int):
    """A topology + routing pair of one fabric family."""
    if fabric == "mesh":
        return Mesh(width, height), "xy"
    if fabric == "torus":
        return Torus(width, height), "xy"
    if fabric == "synthesized":
        mesh = Mesh(width, height)
        table = TableSynthesizer(mesh).random_table(rng=seed)
        return mesh, SynthesizedRouting(table)
    links = _mesh_links(width, height)
    faults = set(draw_faults(links))
    try:
        topology = IrregularTopology(
            [link for link in links if link not in faults],
            num_tiles=width * height,
            name=f"faulted-{width}x{height}",
        )
    except ConfigurationError:
        assume(False)  # the faults disconnected the fabric
    return topology, "table"


@st.composite
def pricing_cases(draw, fabric: str, max_side: int, max_cores: int, max_packets: int):
    """(cdcg, platform, mapping, include_local) for one fabric family."""
    width = draw(st.integers(min_value=2, max_value=max_side))
    height = draw(st.integers(min_value=2, max_value=max_side))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))

    def draw_faults(links):
        return draw(st.lists(st.sampled_from(links), max_size=3, unique=True))

    topology, routing = _fabric(fabric, width, height, draw_faults, seed)
    platform = Platform(
        mesh=topology,
        routing=routing,
        parameters=NocParameters(
            flit_width=draw(st.sampled_from([1, 8, 32])),
            serialize_local_links=draw(st.booleans()),
        ),
    )
    num_cores = draw(
        st.integers(min_value=2, max_value=min(max_cores, platform.num_tiles))
    )
    cores = [f"c{i}" for i in range(num_cores)]
    num_packets = draw(st.integers(min_value=1, max_value=max_packets))
    cdcg = CDCG("pricing")
    for index in range(num_packets):
        source = draw(st.sampled_from(cores))
        target = draw(st.sampled_from([c for c in cores if c != source]))
        computation = draw(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)
        )
        bits = draw(st.integers(min_value=1, max_value=2_000))
        cdcg.add_packet(f"p{index}", source, target, computation, bits)
        if index > 0:
            for predecessor in draw(
                st.lists(
                    st.integers(min_value=0, max_value=index - 1),
                    max_size=3,
                    unique=True,
                )
            ):
                cdcg.add_dependence(f"p{predecessor}", f"p{index}")
    mapping = Mapping.random(cdcg.cores(), platform.num_tiles, rng=seed)
    return cdcg, platform, mapping, draw(st.booleans())


def _assert_matches_reference(cdcg, platform, mapping, include_local):
    evaluator = CdcmEvaluator(platform, include_local=include_local)
    reference = evaluator.evaluate(cdcg, mapping)
    expected = repr(reference.metric_vector())
    assert repr(evaluator.metrics(cdcg, mapping)) == expected
    context = CdcmEvaluationContext(cdcg, platform, include_local=include_local)
    assert repr(context.metrics(mapping)) == expected
    assert repr(context.evaluate_metrics_batch([mapping])[0]) == expected

    priced = CdcmScheduler(platform).price(cdcg, mapping)
    schedule = reference.schedule
    assert repr(priced.execution_time) == repr(schedule.execution_time)
    assert repr(priced.max_link_utilisation) == repr(
        schedule.max_link_utilisation()
    )
    assert priced.traffic == [
        (packet_schedule.packet.bits, packet_schedule.hop_count)
        for packet_schedule in schedule.packet_schedules.values()
    ]


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestPriceMatchesReference:
    @pytest.mark.parametrize("fabric", FABRICS)
    @SETTINGS
    @given(data=st.data())
    def test_price_matches_schedule(self, fabric, data):
        case = data.draw(
            pricing_cases(fabric, max_side=4, max_cores=6, max_packets=14)
        )
        _assert_matches_reference(*case)

    def test_paper_example_figures(self, example_cdcg, example_platform, example_mappings):
        # The worked example of Figure 1(c, d): 100 ns / 90 ns.
        scheduler = CdcmScheduler(example_platform)
        assert scheduler.price(example_cdcg, example_mappings["c"]).execution_time == 100.0
        assert scheduler.price(example_cdcg, example_mappings["d"]).execution_time == 90.0

    def test_empty_application_prices_zero(self, example_platform):
        cdcg = CDCG("idle")
        cdcg.add_core("a")
        priced = CdcmScheduler(example_platform).price(cdcg, {"a": 0})
        assert priced == (0.0, 0.0, [])


class TestErrorParity:
    @staticmethod
    def _messages(call):
        with pytest.raises((MappingError, SchedulingError)) as excinfo:
            call()
        return type(excinfo.value), str(excinfo.value)

    def _assert_same_error(self, cdcg, platform, mapping):
        scheduler = CdcmScheduler(platform)
        reference = self._messages(lambda: scheduler.schedule(cdcg, mapping))
        assert self._messages(lambda: scheduler.price(cdcg, mapping)) == reference
        evaluator = CdcmEvaluator(platform)
        assert self._messages(lambda: evaluator.metrics(cdcg, mapping)) == reference
        return reference

    def test_missing_core(self, example_cdcg, example_platform):
        mapping = dict(zip(example_cdcg.cores()[1:], range(4)))
        kind, _ = self._assert_same_error(example_cdcg, example_platform, mapping)
        assert kind is MappingError

    def test_duplicate_tile(self, example_cdcg, example_platform):
        mapping = {core: 0 for core in example_cdcg.cores()}
        kind, _ = self._assert_same_error(example_cdcg, example_platform, mapping)
        assert kind is MappingError

    def test_tile_outside_mesh(self, example_cdcg, example_platform):
        mapping = {core: tile for tile, core in enumerate(example_cdcg.cores())}
        mapping[example_cdcg.cores()[0]] = example_platform.num_tiles
        kind, _ = self._assert_same_error(example_cdcg, example_platform, mapping)
        assert kind is MappingError

    def test_dependence_cycle(self, example_platform):
        cdcg = CDCG("cyclic")
        cdcg.add_packet("p", "a", "b", 1.0, 8)
        cdcg.add_packet("q", "b", "a", 1.0, 8)
        cdcg.add_packet("r", "a", "b", 1.0, 8)
        cdcg.add_dependence("p", "q")
        cdcg.add_dependence("q", "p")
        kind, message = self._assert_same_error(
            cdcg, example_platform, {"a": 0, "b": 3}
        )
        assert kind is SchedulingError
        assert "only 1 of 3 packets" in message


class TestPlanFreshness:
    def test_mutation_between_prices_is_seen(self, example_cdcg, small_platform):
        cdcg = example_cdcg.copy()
        evaluator = CdcmEvaluator(small_platform)
        cores = cdcg.cores()
        mapping = {core: tile for tile, core in enumerate(cores)}
        first = evaluator.metrics(cdcg, mapping)

        def fresh():
            return repr(CdcmEvaluator(small_platform).evaluate(cdcg, mapping).metric_vector())

        cdcg.add_packet("late", cores[0], cores[1], 3.0, 64)
        second = evaluator.metrics(cdcg, mapping)
        assert repr(second) == fresh()
        assert second != first

        cdcg.add_dependence(cdcg.packets[0].name, "late")
        assert repr(evaluator.metrics(cdcg, mapping)) == fresh()

        # An explicit core goes first in cdcg.cores(): a stale plan would
        # read every packet's endpoints through shifted core indices.
        cdcg.add_core("idle")
        mapping["idle"] = len(cores)
        assert repr(evaluator.metrics(cdcg, mapping)) == fresh()

    def test_plan_is_per_scheduler_and_reused(self, example_cdcg, example_platform):
        scheduler = CdcmScheduler(example_platform)
        plan = scheduler._compiled(example_cdcg)
        assert scheduler._compiled(example_cdcg) is plan
        other = example_cdcg.copy()
        assert scheduler._compiled(other) is not plan
        assert CdcmScheduler(example_platform)._compiled(example_cdcg) is not plan

    def test_unpickled_context_prices_identically(self, example_cdcg, example_platform, example_mappings):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        expected = context.metrics(example_mappings["c"])
        clone = pickle.loads(pickle.dumps(context))
        assert not clone.supports_delta
        assert repr(clone.metrics(example_mappings["c"])) == repr(expected)


SLOW_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.mark.slow
class TestPriceLongHaul:
    """Nightly sweep: the same identity on 16x16 fabrics, larger applications."""

    @pytest.mark.parametrize("fabric", FABRICS)
    @SLOW_SETTINGS
    @given(data=st.data())
    def test_price_matches_schedule_16x16(self, fabric, data):
        case = data.draw(
            pricing_cases(fabric, max_side=16, max_cores=64, max_packets=120)
        )
        _assert_matches_reference(*case)
