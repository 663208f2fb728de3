"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They check the statistics, the seeded item stream, self-time subtraction,
the outside-in tracer, that a corrupted output counts as a failure, and
that the layer map covers exactly the per-layer metrics.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import tracer as tracing
from run import (
    MIN_ITEMS,
    MODULES,
    SRC,
    References,
    Tally,
    typical,
    item_stream,
    load_spec,
    measure,
    min_samples,
    percentile,
    probe,
    samples_beyond,
)
from workloads import WORKLOADS

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="module")
def lib():
    # reuse modules already imported by other tests instead of re-importing
    return SimpleNamespace(**{m: importlib.import_module("modcut." + m) for m in MODULES})


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_sample_count_selection():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples(90) == 100 == MIN_ITEMS
    assert min_samples(50) == 20
    assert min_samples(99) == 1000


def _pass(durations, scales, ok):
    t = Tally()
    t.indices = list(range(len(durations)))
    t.durations, t.scales, t.ok = durations, scales, ok
    return t


def test_typical_time_per_item_at_reference_speed():
    first = _pass([3.0, 5.0, 4.0], [1.0, 1.0, 0.5], [True, True, True])
    second = _pass([2.0, 6.0, 4.0], [0.5, 1.0, 1.0], [True, False, True])
    third = _pass([2.0, 6.0], [1.0, 1.0], [True, True])  # cut short by the deadline
    out = typical([first, second, third])
    assert out.durations == [2.0, 6.0, 3.0]
    assert out.ok == [True, False, True]
    assert out.latencies() == [2.0, math.inf, 3.0]


def test_probe_is_short_and_positive():
    assert 0 < probe() < 0.5


def test_item_stream_is_seeded_and_stratified():
    strata = [(list(range(0, 10)), 3), (list(range(10, 14)), 1)]
    first = list(itertools.islice(item_stream(strata, 5), 40))
    assert first == list(itertools.islice(item_stream(strata, 5), 40))
    assert first != list(itertools.islice(item_stream(strata, 6), 40))
    for r in range(10):
        chunk = first[4 * r: 4 * r + 4]
        assert sum(i >= 10 for i in chunk) == 1
    # a stratum is exhausted before any of its items repeats, and any
    # stretch of its walk spreads over its whole (cost-ordered) range
    walk = [i for i in first if i < 10]
    assert sorted(walk[:10]) == list(range(10))
    assert walk[10:20] == walk[:10]
    assert all(max(walk[k:k + 3]) - min(walk[k:k + 3]) >= 3 for k in range(10))


def test_self_time_subtraction_on_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert list(tracing.self_times(parents, starts, ends)) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_rebinds_internal_calls(lib):
    tr = tracing.Tracer()
    tr.install(lib)
    try:
        with pytest.raises(AssertionError):
            tracing.assert_clean()
        tr.begin_item(0)
        x = lib.exactnum.sqrt_exact(3) * Fraction(1, 2)  # surd() inside __mul__
        spec = lib.tessellation.GeodesicSpec(lib.exactnum.PINF, Fraction(5, 14))
        steps = list(lib.tessellation.trace(spec))
        lib.shiftspace.decide_block(("J", "L", "L", "J"))
        tr.end_item()
    finally:
        tr.uninstall()
    tracing.assert_clean()
    m = tr.metrics()
    assert x == lib.exactnum.sqrt_exact(Fraction(3, 4))
    assert m["exactnum.surd.calls"] >= 2
    assert m["tessellation.trace.calls"] == 1
    assert m["tessellation.trace.steps"] == len(steps) == 9
    # lft_apply is called from inside trace, through tessellation's binding
    assert m["exactnum.lft_apply.calls"] >= 2 * len(steps)
    assert m["shiftspace.decide_block.calls"] == 1
    assert m["shiftspace.decide_block.admissible"] == 1
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0 < m["bench.item.self_s"] < total
    assert m["bench.item.total_s"] == pytest.approx(total)
    assert m["tessellation.trace.self_s"] < m["tessellation.trace.total_s"] < total


class _Corrupting:
    """A workload whose outputs are altered after the library returns them."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt
        self.name, self.pool = wl.name, wl.pool

    def run(self, item):
        return self.corrupt(self.wl.run(item))

    def check(self, index, out):
        return self.wl.check(index, out)


def _tally(wl, indices, corrupt=lambda out: out):
    return measure(_Corrupting(wl, corrupt), References(wl), indices, math.inf)


def test_corrupted_output_counts_as_failure(lib):
    wl = WORKLOADS["rational-oracle"](lib)
    indices = [wl.pool.index(Fraction(5, 14)), wl.pool.index(Fraction(-2, 5))]
    assert _tally(wl, indices).failed == 0

    def one_route(out):  # the tracer's word loses a symbol
        return out[:2] + (out[2][:-1],) + out[3:]

    def every_route(out):  # all routes agree, the reference does not
        word = out[0].replace("J", "R", 1)[::-1]
        cut = lib.cutting.cutting_from_mgcf(word)
        return (word, word, cut, cut, cut, None, out[6])

    for corrupt in (one_route, every_route):
        tally = _tally(wl, indices, corrupt)
        assert tally.failed == 2 == tally.attempted
        assert all(lat == float("inf") for lat in tally.latencies())


def test_corrupted_scan_and_surd_outputs_fail(lib):
    scan = WORKLOADS["rational-scan"](lib)
    assert _tally(scan, [0]).failed == 0
    assert _tally(scan, [0], lambda o: (o[0][:-1],) + o[1:]).failed == 1
    surd = WORKLOADS["surd-prefix"](lib)
    prefix, corners = 0, len(surd.pool) - 1
    assert _tally(surd, [prefix, corners]).failed == 0
    assert _tally(surd, [prefix], lambda o: o[:2] + (o[2][:-1] + ("L",), o[3])).failed == 1
    assert _tally(surd, [corners], lambda count: count + 1).failed == 1


def test_corrupted_verdict_fails(lib):
    wl = WORKLOADS["block-verdicts"](lib)
    assert _tally(wl, [0, len(wl.pool) - 1]).failed == 0
    forbidden = lambda v: type(v)(v.block, "whole-forbidden", reason="corrupted")
    assert _tally(wl, [0], forbidden).failed == 1
    wrong_witness = lambda v: type(v)(v.block, v.status, witness=type(v.witness)(
        v.witness.head, Fraction(1, 3)))
    assert _tally(wl, [0], wrong_witness).failed == 1


def test_surd_constructions_are_counted(lib):
    tr = tracing.Tracer()
    tr.install(lib)
    try:
        tr.begin_item(0)
        lib.exactnum.as_surd(Fraction(1, 3))
        lib.exactnum.QuadSurd(Fraction(1), Fraction(2), 3)
        tr.end_item()
    finally:
        tr.uninstall()
    tracing.assert_clean()
    assert tr.metrics()["exactnum.surd.calls"] == 2


def test_traced_runs_cover_a_fixed_item_count():
    for wl in WORKLOADS.values():
        assert isinstance(wl.TRACE_ITEMS, int) and wl.TRACE_ITEMS >= MIN_ITEMS


def test_layer_map_covers_the_per_layer_metrics():
    spec = load_spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    layers = json.loads((Path(__file__).parent / "layer_map.json").read_text())["layers"]

    def layer_of(metric):
        keys = [k for k in layers if metric.startswith(k + ".")]
        assert keys, metric
        return max(keys, key=len)

    assert {layer_of(n) for n in per_layer} == set(layers)
    assert per_layer <= set(tracing.Tracer().metrics()) | {"bench.trace_overhead"}
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"*"}
    for layer in layers.values():
        for pairing in layer["moves"] + layer["unchanged"]:
            assert pairing["workload"] in workloads
            assert pairing["metric"] in end_to_end
