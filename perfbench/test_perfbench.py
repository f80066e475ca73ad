"""Tests of the benchmark's own arithmetic and of its inputs' stability."""
import json
import random
import sys
import time
import types

import pytest

from layers import METRICS, layer_metrics
from run import END_TO_END, PINNED, ROOT, SRC, load_coordmp
from spans import Span, Tracer, covered, self_times
from speed import MARK_PROBES, NOMINAL_PROBE_S, WINDOW_S, Meter
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, relabel, render_hash


@pytest.fixture(scope="module")
def cm():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return load_coordmp(fresh=False)


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def _span(id_, parent, start, end, name="x", **counts):
    span = Span(id_, parent, name, 0, start, end)
    span.counts.update(counts)
    return span


# ---------------------------------------------------------------------------
# self time


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered((0.0, 10.0), [(8.0, 12.0), (-2.0, 1.0)]) == pytest.approx(3.0)
    assert covered((0.0, 10.0), [(1.0, 2.0), (5.0, 6.0)]) == pytest.approx(2.0)
    assert covered((0.0, 10.0), [(11.0, 12.0), (4.0, 4.0)]) == 0.0


def test_self_time_is_duration_minus_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: counts against 1, not against 0
        _span(3, 0, 6.0, 7.5),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_tracer_wraps_nested_calls_and_restores_names():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer")
    assert mod.outer(1) == 4
    assert tracer.spans == []  # nothing recorded until enabled
    tracer.enabled = True
    with tracer.span("bench.solve"):
        assert mod.outer(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("bench.solve", None), ("m.outer", 0), ("m.inner", 1)]
    selfs = self_times(tracer.spans)
    assert all(v >= 0 for v in selfs.values())
    tracer.uninstall()
    assert mod.inner is original


def test_tracer_records_the_exception_a_layer_raises():
    mod = types.SimpleNamespace()

    def fail():
        raise KeyError("x")

    mod.fail = fail
    tracer = Tracer()
    tracer.wrap(mod, "fail", "m.fail")
    tracer.enabled = True
    with pytest.raises(KeyError):
        mod.fail()
    assert tracer.spans[0].outcome == "KeyError"
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_layer_metrics_attribute_time_by_parent():
    spans = [
        _span(0, None, 0.0, 10.0, "bench.solve"),
        _span(1, 0, 0.0, 10.0, "twdp.solve_twdp"),
        _span(2, 1, 1.0, 3.0, "approx.approximate"),
        _span(3, 2, 1.0, 2.8, "oracle.check_feasible"),
        _span(4, 1, 4.0, 5.0, "oracle.solve_exact", states=50, status="optimal"),
        _span(5, 1, 6.0, 6.5, "twdp.dp_join", entries=7),
        _span(6, 1, 7.0, 7.5, "twdp.dp_join", entries=3),
    ]
    m = layer_metrics([], spans, passes=1)
    assert m["twdp.upper_bound_s"] == pytest.approx(2.0)
    assert m["twdp.certify_s"] == pytest.approx(1.0)
    assert m["approx.precheck_share"] == pytest.approx(0.9)
    assert m["approx.approximate.self_s"] == pytest.approx(0.2)
    assert m["oracle.states_per_s"] == pytest.approx(50.0)
    assert m["oracle.solve_exact.nonoptimal_s"] == 0.0
    assert m["twdp.dp_join.calls"] == 2
    assert m["twdp.table_entries.max"] == 7
    assert m["twdp.table_entries.sum"] == 10
    assert m["twdp.solve_twdp.self_s"] == pytest.approx(10.0 - 2.0 - 1.0 - 1.0)
    halved = layer_metrics([], spans, passes=2)
    assert halved["twdp.dp_join.calls"] == 1


# ---------------------------------------------------------------------------
# host-speed scaling


def _meter(marks):
    meter = Meter()
    for at, took in marks:
        meter.at.append(at)
        meter.took.append(took)
    return meter


def test_scaling_uses_the_median_probe_in_and_near_the_interval():
    slow = 2 * NOMINAL_PROBE_S
    w = WINDOW_S
    meter = _meter([(0.0, slow), (0.5, slow), (1.0, 4 * slow), (1.0 + 3 * w, slow / 2)])
    # probes in [0.4 - w, 0.6 + w]: only the one at 0.5, inside; its time is
    # taken out of the interval before scaling
    assert meter.scaled((0.4, 0.6)) == pytest.approx((0.2 - slow) / 2)
    # probes in [-w, 1 + w]: the first three, median = slow; the probe at
    # 1 + 3w is too far past the end to count
    assert meter.factor(0.0, 1.0) == pytest.approx(0.5)
    assert meter.factor(0.0, 1.0) == meter.factor(0.0, 1.0 + w)
    # no probe in the window: the nearest ones on either side
    far = _meter([(0.0, slow), (10.0, slow / 2)])
    assert far.factor(5.0, 5.1) == pytest.approx(NOMINAL_PROBE_S / (0.75 * slow))


def test_timed_brackets_the_call_with_probes():
    meter = Meter()
    result, (start, end) = meter.timed(sum, [1, 2, 3])
    assert result == 6
    assert len(meter.at) == 2 * MARK_PROBES
    assert meter.at[MARK_PROBES - 1] <= start <= end <= meter.at[MARK_PROBES]
    assert meter.scaled((start, end)) >= 0


def test_sampling_probes_inside_a_call_and_stops_after():
    meter = Meter()
    with meter.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    after = len(meter.at)
    assert sum(t0 < at <= t1 for at in meter.at) >= 2
    assert meter.scaled((t0, t1)) < (t1 - t0) * meter.factor(t0, t1)
    time.sleep(0.1)
    assert len(meter.at) == after


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_named_seed_fingerprints_are_the_recorded_ones(cm, pinned, name):
    wl = WORKLOADS[name]
    pins = pinned["pins"].get(name, {})
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        first = render_hash(cm, [c.instance for c in wl.cases(cm, seed, pins)])
        again = render_hash(cm, [c.instance for c in wl.cases(cm, seed, pins)])
        assert first == again
        assert first == pinned["fingerprints"][name][str(seed)]
    assert pinned["fingerprints"][name]["1"] != pinned["fingerprints"][name]["2"]


def test_relabeling_keeps_the_optimal_energy(cm):
    base = cm.generators.generate("grid", width=3, height=3, robots=3, seed=4)
    want = cm.oracle.solve_exact(base).energy
    for seed in range(3):
        inst = relabel(cm, base, random.Random(seed), vertices=True)
        assert render_hash(cm, [inst]) != render_hash(cm, [base])
        assert cm.oracle.solve_exact(inst).energy == want


def test_benchmark_json_names_the_metrics_the_runner_prints():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
