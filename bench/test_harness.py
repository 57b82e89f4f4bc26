"""Tests of the benchmark's own arithmetic: python3 -m pytest bench/test_harness.py"""

import json
import math
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter, sleep

import pytest

import harness
import run
from harness import Tracer, layer_totals, percentile, ratio, samples_beyond, self_times


def test_percentile_interpolates_between_closest_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert percentile([7.0], 90) == 7.0
    # the median agrees with the statistics module for odd and even counts
    for values in ([5.0, 1.0, 4.0], [5.0, 1.0, 4.0, 2.0]):
        assert percentile(values, 50) == statistics.median(values)


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert samples_beyond(10, 50) == 5    # rank position 4.5
    assert samples_beyond(11, 50) == 5    # rank position 5 exactly
    assert samples_beyond(128, 90) == 13  # rank position 114.3
    assert samples_beyond(24, 90) == 3
    assert samples_beyond(1, 90) == 0
    assert samples_beyond(0, 50) == 0
    for n in range(1, 40):
        values = list(range(n))
        p = percentile(values, 90)
        assert samples_beyond(n, 90) == sum(v > p for v in values)


def test_at_reference_speed_divides_by_the_median_kernel_time():
    # the kernel ran at half the reference speed, so times halve
    assert harness.at_reference_speed(3.0, [0.2, 0.1, 0.25], 0.1) == pytest.approx(1.5)
    assert harness.at_reference_speed(3.0, [0.1, 0.1], 0.1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        harness.at_reference_speed(3.0, [], 0.1)


def test_calibrate_runs_the_kernel_for_a_share_of_the_elapsed_time(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_MIN_S", 0.0)
    calls = []
    out = []
    run.calibrate(lambda: calls.append(1), 0.0, out)
    assert len(calls) == len(out) == 1  # always at least once
    out.clear()
    start = perf_counter()
    run.calibrate(lambda: sleep(0.002), 0.04, out)
    assert perf_counter() - start >= run.CALIBRATION_SHARE * 0.04
    assert len(out) >= 2 and all(t >= 0.002 for t in out)


def test_ratio_keeps_its_base():
    r = ratio(3, 12)
    assert (r["value"], r["num"], r["den"]) == (0.25, 3, 12)
    assert math.isnan(ratio(0, 0)["value"])


def span(name, start, end, parent, op=0, meta=None):
    return (name, start, end, parent, op, meta)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("b.child", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == 10.0


def test_layer_totals_sum_self_time_and_calls_per_name():
    spans = [span("x", 0.0, 2.0, -1, op=1), span("y", 0.5, 1.0, 0, op=1),
             span("y", 1.0, 1.5, 0, op=1), span("x", 3.0, 4.0, -1, op=2)]
    totals = layer_totals(spans, self_times(spans), lambda s: s[4] == 1)
    assert totals == {"x": [1.0, 1], "y": [1.0, 2]}


def test_tracer_records_nested_spans_and_restores_patches(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = Tracer()
    tracer.patch("layers.outer", "fake_layers", "outer")
    tracer.patch("layers.inner", "fake_layers", "inner", meta=lambda a, k: a[0])
    tracer.install()
    tracer.op = 7
    assert mod.outer(3) == 8
    tracer.uninstall()
    assert mod.outer(3) == 8  # untraced call records nothing
    assert (mod.inner, mod.outer) == (inner, outer)

    (o_name, o_start, o_end, o_parent, o_op, _), (i_name, i_start, i_end, i_parent, _, i_meta) = \
        tracer.spans
    assert (o_name, o_parent, o_op) == ("layers.outer", -1, 7)
    assert (i_name, i_parent, i_meta) == ("layers.inner", 0, 3)
    assert o_start <= i_start <= i_end <= o_end


def test_tracer_closes_span_when_the_call_raises(monkeypatch):
    mod = types.ModuleType("fake_raising")

    def boom():
        raise RuntimeError("x")

    mod.boom = boom
    monkeypatch.setitem(sys.modules, "fake_raising", mod)
    tracer = Tracer()
    tracer.patch("boom", "fake_raising", "boom")
    tracer.install()
    with pytest.raises(RuntimeError):
        mod.boom()
    tracer.uninstall()
    assert len(tracer.spans) == 1 and tracer.spans[0][0] == "boom"
    assert tracer._stack == []


class Elem:
    def __init__(self, shape, radius):
        self.shape, self.radius = shape, radius


@pytest.mark.parametrize("shape", ["square", "diamond"])
@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_offset_count_matches_enumeration(shape, radius):
    r = radius
    cells = [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)
             if shape == "square" or abs(dy) + abs(dx) <= r]
    assert run._offset_count(Elem(shape, radius)) == len(cells)


def test_conv_macs_from_shapes():
    # 8 filters over 3 channels, 3x3 kernel, stride 2 on 32x32 -> 16x16 outputs
    fwd = span("condnet.conv2d_forward", 0, 1, -1, meta=((8, 3, 3, 3), (3, 32, 32), 2))
    assert run._conv_macs(fwd) == 8 * 3 * 9 * 16 * 16
    # odd sizes round up under SAME padding
    fwd_odd = span("condnet.conv2d_forward", 0, 1, -1, meta=((1, 1, 1, 1), (1, 5, 5), 2))
    assert run._conv_macs(fwd_odd) == 9
    bwd = span("condnet.conv2d_backward", 0, 1, -1, meta=((8, 3, 3, 3), (8, 16, 16)))
    assert run._conv_macs(bwd) == 2 * 8 * 3 * 9 * 16 * 16


class Labels:
    def __init__(self, data: bytes):
        self.shape, self._data = (len(data),), data

    def tobytes(self):
        return self._data


class LabelMapStub:
    def __init__(self, data: bytes):
        self.labels = Labels(data)


def test_counters_bases():
    a, b = LabelMapStub(b"aa"), LabelMapStub(b"bb")
    spans = [
        # op 1 builds the reference of a twice and of b once; op 2 of a once
        span("adjacency.adjacency_from_labels", 0, 1, -1, op=1, meta=a),
        span("adjacency.adjacency_from_labels", 1, 2, -1, op=1, meta=a),
        span("adjacency.adjacency_from_labels", 2, 3, -1, op=1, meta=b),
        span("adjacency.adjacency_from_labels", 3, 4, -1, op=2, meta=LabelMapStub(b"aa")),
        span("morphology.soft_dilate_forward", 4, 5, -1, op=1, meta=(1024, Elem("square", 2))),
        span("formats.load_map", 5, 6, -1, op=2, meta=300),
        span("formats.load_labelset", 6, 7, -1, op=2, meta=20),
        # untraced operations are left out
        span("formats.load_map", 7, 8, -1, op=3, meta=999),
    ]
    counts = run.counters(spans, traced_ops={1, 2})
    # distinct label maps are counted within each operation, then summed
    assert counts["reference_useful"] == {"value": 0.75, "num": 3, "den": 4}
    assert counts["soft_window_evals"] == 1024 * 25
    assert counts["bytes_read"] == 320
    assert counts["conv_macs"] == 0


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted((m["name"], m["unit"]) for m in doc["end_to_end"]) == sorted(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
