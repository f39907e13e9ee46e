"""Helpers of the benchmark harness: percentile rule, self time, names, arguments.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import gc
import json
import math

import pytest

import harness
from harness import (
    DEFAULT_SEED,
    REFERENCE_S,
    InsufficientSamples,
    at_reference_speed,
    check_metric,
    min_samples_for,
    parse_args,
    percentile,
    reference_kernel,
    reference_seconds,
    result_line,
    samples_beyond,
    self_time,
    timing_summary,
)

WORKLOADS = ("paper_table2", "front_nsga2_load", "service_mixed")


class TestPercentileRule:
    def test_samples_beyond_counts_strictly_larger_ranks(self):
        assert samples_beyond(20, 0.5) == 10
        assert samples_beyond(19, 0.5) == 9
        assert samples_beyond(100, 0.9) == 10
        assert samples_beyond(99, 0.9) == 9
        assert samples_beyond(0, 0.5) == 0

    def test_minimum_counts(self):
        assert min_samples_for(0.5) == 20
        assert min_samples_for(0.9) == 100
        assert min_samples_for(0.99) == 1000

    def test_refuses_a_tail_without_ten_samples_beyond(self):
        with pytest.raises(InsufficientSamples):
            percentile(list(range(19)), 0.5)
        with pytest.raises(InsufficientSamples):
            percentile(list(range(99)), 0.9)

    def test_single_job_gets_no_p90(self):
        # A p90 equal to the p50 of one sample is exactly what the rule forbids.
        summary = timing_summary([0.004])
        assert summary == {"n": 1, "p50_ms": None, "p90_ms": None}

    def test_nearest_rank_values(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.5) == 50.0
        assert percentile(values, 0.9) == 90.0
        assert percentile(list(reversed(values)), 0.9) == 90.0

    def test_summary_reports_count_beside_every_timing(self):
        summary = timing_summary([0.001 * v for v in range(1, 41)])
        assert summary["n"] == 40
        assert summary["p50_ms"] == pytest.approx(20.0)
        assert summary["p90_ms"] is None


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 3.0, []) == 2.0

    def test_disjoint_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_once(self):
        assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (6.0, 7.0)]) == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)
        assert self_time(2.0, 4.0, [(5.0, 6.0)]) == pytest.approx(2.0)

    def test_nested_tree_adds_up_to_the_root(self):
        # root [0,10] > a [1,6] > b [2,3]; root > c [7,9]
        root = self_time(0.0, 10.0, [(1.0, 6.0), (7.0, 9.0)])
        a = self_time(1.0, 6.0, [(2.0, 3.0)])
        b = self_time(2.0, 3.0, [])
        c = self_time(7.0, 9.0, [])
        assert root + a + b + c == pytest.approx(10.0)


class TestMetricFormat:
    @pytest.mark.parametrize("name", ["setup_s", "job_p50_ms", "noc.scheduler.busy_s", "a", "9x", "x-y.z_1"])
    def test_good_names(self, name):
        check_metric(name, "s", 1.0)

    @pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "x" * 65, "semi;colon", "é"])
    def test_bad_names(self, name):
        with pytest.raises(ValueError):
            check_metric(name, "s", 1.0)

    @pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "MB", "ratio", "us"])
    def test_good_units(self, unit):
        check_metric("m", unit, 1.0)

    @pytest.mark.parametrize("unit", ["", "per second", "x" * 17])
    def test_bad_units(self, unit):
        with pytest.raises(ValueError):
            check_metric("m", unit, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "1"])
    def test_bad_values(self, value):
        with pytest.raises(ValueError):
            check_metric("m", "s", value)

    def test_result_line_shape(self):
        line = result_line(True, 3, 0, {"job_p50_ms": (1.25, "ms")})
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert line["metrics"] == {"job_p50_ms": {"value": 1.25, "unit": "ms"}}
        json.dumps(line)
        with pytest.raises(ValueError):
            result_line(True, 0, 0, {})

    def test_benchmark_json_names_and_units(self):
        from pathlib import Path

        spec = json.loads((Path(harness.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            check_metric(metric["name"], metric["unit"], 1.0)
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


class TestArguments:
    def test_seed_is_read(self):
        args = parse_args(["--workload", "paper_table2", "--seed", "7", "--seconds", "3", "--trace", "1"], WORKLOADS)
        assert (args.workload, args.seed, args.seconds, args.trace) == ("paper_table2", 7, 3.0, 1)

    def test_default_seed(self):
        args = parse_args(["--workload", "service_mixed"], WORKLOADS)
        assert args.seed == DEFAULT_SEED and args.trace == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--workload", "nope"],
            ["--workload", "paper_table2", "--seed", "-1"],
            ["--workload", "paper_table2", "--seed", "x"],
            ["--workload", "paper_table2", "--trace", "2"],
            ["--workload", "paper_table2", "--seconds", "0"],
            [],
        ],
    )
    def test_bad_arguments_exit(self, argv):
        with pytest.raises(SystemExit):
            parse_args(argv, WORKLOADS)


class TestReferenceSpeed:
    def test_scaling_uses_the_mean_of_the_surrounding_kernel_times(self):
        # The kernel took 2 ms around the job: the host ran at half the
        # nominal speed, so the job counts half its measured time.
        assert at_reference_speed(0.2, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.1)
        assert at_reference_speed(0.3, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.2)
        assert at_reference_speed(0.05, REFERENCE_S, REFERENCE_S) == pytest.approx(0.05)

    def test_kernel_is_deterministic(self):
        assert reference_kernel() == reference_kernel()
        assert reference_kernel(10) != reference_kernel(20)

    def test_timing_leaves_the_collector_as_it_was(self):
        assert gc.isenabled()
        assert reference_seconds() > 0.0
        assert gc.isenabled()
        gc.disable()
        try:
            reference_seconds()
            assert not gc.isenabled()
        finally:
            gc.enable()
