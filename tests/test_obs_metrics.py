"""Unit tests for the repro.obs metrics registry primitives."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Series,
    render_key,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registry_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("probe.sent", tool="badabing")
        b = reg.counter("probe.sent", tool="badabing")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_different_labels_are_different_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("drops", queue="q1")
        b = reg.counter("drops", queue="q2")
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a="1", b="2")
        b = reg.counter("x", b="2", a="1")
        assert a is b


class TestGauge:
    def test_tracks_value_and_peak(self):
        g = Gauge("depth")
        g.set(10)
        g.set(3)
        assert g.value == 3
        assert g.peak == 10

    def test_sample_pins_peak_to_latest_reading(self):
        # Point-in-time collectors use sample() so an extra mid-run
        # scrape cannot leave a transient peak behind in the snapshot.
        g = Gauge("pending")
        g.sample(859)
        g.sample(1)
        assert g.value == 1
        assert g.peak == 1

    def test_registry_identity(self):
        reg = MetricsRegistry()
        assert reg.gauge("g", k="v") is reg.gauge("g", k="v")


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        # <=1: {0.5, 1.0}; <=2: {1.5}; <=5: {4.0}; overflow: {100.0}
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)
        assert h.mean == pytest.approx(107.0 / 5)

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=())

    def test_accepts_default_buckets(self):
        h = Histogram("h")
        assert h.buckets == DEFAULT_BUCKETS
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1


class TestSeries:
    def test_keeps_everything_below_cap(self):
        s = Series("s", max_samples=16)
        for i in range(10):
            s.append(float(i), float(i * 2))
        assert s.times == [float(i) for i in range(10)]
        assert s.stride == 1

    def test_decimates_deterministically_at_cap(self):
        s = Series("s", max_samples=8)
        for i in range(100):
            s.append(float(i), float(i))
        assert len(s.times) < 8 + 8  # bounded
        assert s.stride > 1
        # Retained points are a subsequence of the appended sequence.
        assert s.times == sorted(s.times)
        assert s.times == s.values

    def test_same_appends_same_retention(self):
        def build():
            s = Series("s", max_samples=8)
            for i in range(1000):
                s.append(i * 0.1, i % 7)
            return s.times, s.values, s.stride

        assert build() == build()

    def test_rejects_tiny_cap(self):
        with pytest.raises(ObservabilityError):
            Series("s", max_samples=1)

    def test_points_include_latest_sample_mid_skip_phase(self):
        # Regression: once stride > 1, appends in the skip phase were lost
        # from snapshots — the reported last value could be up to
        # stride - 1 appends stale.
        s = Series("s", max_samples=8)
        for i in range(9):  # crosses the cap: stride becomes 2
            s.append(float(i), float(i))
        assert s.stride == 2
        s.append(9.0, 99.0)  # falls in the skip phase
        times, values = s.points()
        assert times[-1] == 9.0
        assert values[-1] == 99.0
        # The decimated backbone is untouched.
        assert times[:-1] == s.times
        assert s.times == sorted(s.times)

    def test_points_equal_samples_when_tail_retained(self):
        s = Series("s", max_samples=8)
        for i in range(5):
            s.append(float(i), float(i))
        assert s.points() == ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0, 4.0])
        assert Series("empty").points() == ([], [])

    def test_points_are_deterministic(self):
        def build():
            s = Series("s", max_samples=8)
            for i in range(1001):  # odd count: ends mid-skip-phase
                s.append(i * 0.1, i % 7)
            return s.points()

        assert build() == build()
        times, values = build()
        assert times[-1] == pytest.approx(1000 * 0.1)
        assert values[-1] == 1000 % 7

    def test_snapshot_reports_tail(self):
        reg = MetricsRegistry()
        s = reg.series("s")
        for i in range(9):
            s.append(float(i), float(i))
        s.append(9.0, 42.0)
        snap = reg.snapshot()["series"]["s"]
        assert snap["times"][-1] == 9.0
        assert snap["values"][-1] == 42.0
        assert len(snap["times"]) == len(snap["values"])

    def test_merge_carries_tail(self):
        src = MetricsRegistry()
        s = src.series("s")
        for i in range(9):
            s.append(float(i), float(i))
        s.append(9.0, 42.0)
        dst = MetricsRegistry()
        dst.merge(src)
        times, values = dst.series("s").points()
        assert times[-1] == 9.0
        assert values[-1] == 42.0


class TestRenderKey:
    def test_no_labels(self):
        assert render_key("a.b", ()) == "a.b"

    def test_labels_sorted(self):
        assert (
            render_key("a", (("q", "x"), ("z", "1"))) == "a{q=x,z=1}"
        )


class TestSnapshot:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc(3)
        reg.gauge("g").set(2.5)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        reg.series("s").append(0.0, 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c{k=v}": 3}
        assert snap["gauges"] == {"g": {"value": 2.5, "peak": 2.5}}
        assert snap["histograms"]["h"]["counts"] == [0, 1, 0]
        assert snap["series"]["s"] == {
            "times": [0.0],
            "values": [1.0],
            "stride": 1,
        }

    def test_collectors_run_at_snapshot_time(self):
        reg = MetricsRegistry()
        external = {"total": 0}
        reg.add_collector(
            lambda r: setattr(r.counter("ext"), "value", external["total"])
        )
        external["total"] = 41
        assert reg.snapshot()["counters"]["ext"] == 41
        external["total"] = 42
        assert reg.snapshot()["counters"]["ext"] == 42

    def test_snapshot_is_json_serializable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.2)
        json.dumps(reg.snapshot())


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", q="x").inc(2)
        b.counter("c", q="x").inc(3)
        b.counter("c", q="y").inc(1)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"] == {"c{q=x}": 5, "c{q=y}": 1}

    def test_gauges_keep_later_value_and_max_peak(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(10)
        b.gauge("g").set(4)
        a.merge(b)
        g = a.snapshot()["gauges"]["g"]
        assert g["value"] == 4
        assert g["peak"] == 10

    def test_histograms_add_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        h = a.snapshot()["histograms"]["h"]
        assert h["counts"] == [1, 1, 0]
        assert h["count"] == 2

    def test_histogram_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ObservabilityError):
            a.merge(b)


class TestNullRegistry:
    def test_api_parity_instruments_work_locally(self):
        reg = NullRegistry()
        c = reg.counter("c")
        c.inc(7)
        assert c.value == 7  # real instrument for local bookkeeping
        g = reg.gauge("g")
        g.set(3)
        assert g.peak == 3
        reg.histogram("h").observe(0.1)
        reg.series("s").append(0.0, 1.0)

    def test_nothing_is_retained(self):
        reg = NullRegistry()
        reg.counter("c").inc(7)
        reg.add_collector(lambda r: (_ for _ in ()).throw(AssertionError))
        snap = reg.snapshot()
        assert snap == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "series": {},
        }

    def test_instruments_are_not_shared(self):
        reg = NullRegistry()
        assert reg.counter("c") is not reg.counter("c")

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True
        assert NullRegistry().enabled is False

    def test_merge_is_noop(self):
        null = NullRegistry()
        other = MetricsRegistry()
        other.counter("c").inc()
        null.merge(other)
        assert null.snapshot()["counters"] == {}
