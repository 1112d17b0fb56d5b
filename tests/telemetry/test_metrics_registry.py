"""Metrics registry units: counters, gauges, histograms, merge_counts."""

from __future__ import annotations

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_counts,
)


def test_counter_increments():
    counter = Counter("x")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42


def test_gauge_set_and_max():
    gauge = Gauge("depth")
    gauge.set(3)
    gauge.max(5)
    gauge.max(2)  # not a new peak
    assert gauge.value == 5
    gauge.set(1)  # set is unconditional
    assert gauge.value == 1


def test_histogram_buckets_and_snapshot():
    histogram = Histogram("latency", buckets=(1, 10, 100))
    for value in (0, 1, 5, 50, 500):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 5
    assert snapshot["sum"] == 556
    assert snapshot["buckets"] == {"le_1": 2, "le_10": 1, "le_100": 1,
                                   "inf": 1}


def test_histogram_default_buckets_cover_powers_of_two():
    histogram = Histogram("n")
    histogram.observe(DEFAULT_BUCKETS[-1])  # largest bound, not overflow
    histogram.observe(DEFAULT_BUCKETS[-1] + 1)  # overflow
    snapshot = histogram.snapshot()
    assert snapshot["buckets"][f"le_{DEFAULT_BUCKETS[-1]}"] == 1
    assert snapshot["buckets"]["inf"] == 1


def test_registry_create_on_demand_returns_same_object():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")


def test_registry_value_and_prefix_lookup():
    registry = MetricsRegistry()
    registry.counter("campaign.sites.pht").inc(3)
    registry.gauge("campaign.sites.btb").set(1)
    registry.counter("fuzz.executions").inc(10)
    assert registry.value("fuzz.executions") == 10
    assert registry.value("unknown.metric") == 0
    assert registry.values_with_prefix("campaign.sites.") == {
        "pht": 3, "btb": 1,
    }


def test_registry_snapshot_is_sorted_and_json_ready():
    import json

    registry = MetricsRegistry()
    registry.counter("z.count").inc(2)
    registry.gauge("a.gauge").set(7)
    registry.histogram("m.hist").observe(3)
    snapshot = registry.snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot["z.count"] == 2
    assert snapshot["a.gauge"] == 7
    assert snapshot["m.hist"]["count"] == 1
    json.dumps(snapshot)  # must not raise


def test_merge_counts_sums_and_returns_target():
    into = {"a": 1, "b": 2}
    result = merge_counts(into, {"b": 3, "c": 4})
    assert result is into
    assert into == {"a": 1, "b": 5, "c": 4}
