"""Tests for the metrics registry: counters, gauges, histograms, labels."""

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        counter = Counter("x", {})
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = Counter("x", {})
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_a_source_is_folded_in_on_every_read(self):
        owned = [3]
        counter = Counter("x", {})
        counter.inc(2)
        counter.add_source(lambda: owned[0])
        owned[0] = 5
        assert counter.value == counter.to_dict()["value"] == 7

    def test_a_disarmed_counter_ignores_sources(self):
        counter = NullMetricsRegistry().counter("x")
        counter.add_source(lambda: 9)
        assert counter.value == 0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("depth", {})
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_moments(self):
        histogram = Histogram("h", {})
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_log2_buckets(self):
        histogram = Histogram("h", {})
        histogram.observe(3)       # 2^2
        histogram.observe(4)       # 2^2 (ceil(log2(4)) == 2)
        histogram.observe(5)       # 2^3
        histogram.observe(0)       # <=0
        buckets = histogram.to_dict()["buckets"]
        assert buckets["2^2"] == 2
        assert buckets["2^3"] == 1
        assert buckets["<=0"] == 1

    def test_empty_mean_is_zero(self):
        assert Histogram("h", {}).mean == 0.0


class TestRegistry:
    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("msgs", status="sent").inc(2)
        registry.counter("msgs", status="dropped").inc()
        assert registry.counter("msgs", status="sent").value == 2
        assert registry.counter("msgs", status="dropped").value == 1
        assert len(registry) == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("c", a=1, b=2).inc()
        assert registry.counter("c", b=2, a=1).value == 1

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_rows(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        rows = registry.snapshot()
        assert {row["type"] for row in rows} == {"counter", "gauge", "histogram"}
        assert all("name" in row and "labels" in row for row in rows)


class TestNullRegistry:
    def test_writes_are_no_ops(self):
        registry = NullMetricsRegistry()
        registry.counter("c", any_label="x").inc(10)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        assert registry.snapshot() == []
        assert len(registry) == 0
