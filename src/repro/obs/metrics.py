"""Zero-dependency metrics: counters, gauges, histograms, time series.

The registry is the substrate every perf/accuracy PR measures against, so
its design optimizes for two things:

* **Hot paths stay hot.** Per-packet code never formats strings or touches
  dicts: instruments are resolved once at construction time and incremented
  through plain attribute arithmetic, and bulk counts (queue/link totals)
  are *pulled* from the raw ``__slots__`` counters the substrate already
  keeps, via collector callbacks that run only at :meth:`MetricsRegistry.snapshot`
  time. Components check :attr:`MetricsRegistry.enabled` once and skip
  per-event instrumentation entirely under :class:`NullRegistry`.
* **Determinism.** Everything recorded here is in the *simulation* domain
  (virtual time, event counts, byte occupancy), never wall-clock, so two
  runs with the same seed produce byte-identical snapshots. Wall-clock data
  lives in :class:`~repro.obs.manifest.RunManifest` and the trace file.

Instruments are keyed by ``(name, labels)``; repeated ``counter("x", q="a")``
calls return the same object, so components can resolve freely.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import profiling as _profiling
from repro.errors import ObservabilityError

#: Collector callback: called with the registry at snapshot time so cheap
#: raw counters (QueueStats, Link totals, ...) can be published lazily.
Collector = Callable[["MetricsRegistry"], None]

#: Default histogram buckets (seconds): spans one simulator tick to minutes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Buckets for small integer run lengths (drop bursts, retries).
RUN_LENGTH_BUCKETS: Tuple[float, ...] = (1, 2, 3, 5, 10, 20, 50, 100)


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Stable string form: ``name`` or ``name{k=v,k2=v2}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter. ``value`` may also be written directly by
    collectors that publish an externally-kept total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value plus the peak ever written."""

    __slots__ = ("name", "labels", "value", "peak")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def sample(self, value: float) -> None:
        """Record a point-in-time reading with the peak pinned to it.

        Pull-collectors publishing instantaneous state (pending events,
        active sessions) run once per snapshot — which, with a live
        exporter attached, can be many times mid-run instead of once at
        the end. ``set`` would then capture transient peaks an
        end-only snapshot never sees, making the snapshot digest depend
        on *when* scrapes happened. ``sample`` keeps the digest a pure
        function of simulation state.
        """
        self.value = value
        self.peak = value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds observations with
    ``value <= buckets[i]``; the final slot is the +Inf overflow bucket.

    Sums absorbed through :meth:`MetricsRegistry.merge` are kept as a
    flat list of per-shard contributions and reduced with
    :func:`math.fsum` (exactly rounded, hence independent of addend
    order) when read — so merging the same shards in any order yields a
    byte-identical snapshot, the invariant the fleet-controller and
    parallel-sweep digest checks rely on. Plain ``a += b`` float
    accumulation would make the merged ``sum`` depend on completion
    order.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum", "_merged_sums")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not buckets or any(later <= earlier for later, earlier in zip(buckets[1:], buckets)):
            raise ObservabilityError(
                f"histogram buckets must be strictly increasing: {buckets}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self._merged_sums: List[float] = []

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def sum_terms(self) -> List[float]:
        """Every sum contribution this histogram holds (local + merged)."""
        return [self.sum] + self._merged_sums

    @property
    def total_sum(self) -> float:
        """Order-independent total of local and merged-in observation sums."""
        if not self._merged_sums:
            return self.sum
        return math.fsum(self.sum_terms())

    @property
    def mean(self) -> float:
        return self.total_sum / self.count if self.count else 0.0


class Series:
    """Bounded (time, value) series with deterministic decimation.

    Keeps every ``stride``-th appended sample; when ``max_samples`` is
    reached, every other retained sample is discarded and the stride
    doubles. Memory stays O(max_samples) over arbitrarily long runs and
    the retained points depend only on the append sequence — never on
    wall-clock — so seeded runs stay byte-identical.

    The most recent append is always remembered: once the stride exceeds 1
    most appends fall in the skip phase, so without a retained tail a
    snapshot taken mid-phase would report a last value up to ``stride - 1``
    appends stale. :meth:`points` (what snapshots and merges read) returns
    the decimated samples plus that trailing point when decimation skipped
    it — still a pure function of the append sequence.
    """

    __slots__ = (
        "name", "labels", "max_samples", "times", "values", "stride", "_phase",
        "_tail_time", "_tail_value", "_tail_retained",
    )

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        max_samples: int = 1024,
    ):
        if max_samples < 2:
            raise ObservabilityError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self.labels = labels
        self.max_samples = max_samples
        self.times: List[float] = []
        self.values: List[float] = []
        self.stride = 1
        self._phase = 0
        self._tail_time: Optional[float] = None
        self._tail_value = 0.0
        self._tail_retained = True

    def append(self, time: float, value: float) -> None:
        self._tail_time = time
        self._tail_value = value
        if self._phase:
            self._phase -= 1
            self._tail_retained = False
            return
        self._phase = self.stride - 1
        self.times.append(time)
        self.values.append(value)
        self._tail_retained = True
        if len(self.times) >= self.max_samples:
            # Halving keeps even indices; the just-appended sample survives
            # only when it sat at an even index.
            self._tail_retained = (len(self.times) - 1) % 2 == 0
            self.times = self.times[::2]
            self.values = self.values[::2]
            self.stride *= 2

    def points(self) -> Tuple[List[float], List[float]]:
        """Retained samples plus the freshest append when it was skipped.

        Trimmed to matching lengths: a snapshot taken by a concurrent
        exporter can land between the two appends inside :meth:`append`,
        and the exported document must stay self-consistent even then.
        """
        times, values = list(self.times), list(self.values)
        if len(times) != len(values):
            shortest = min(len(times), len(values))
            times, values = times[:shortest], values[:shortest]
        if self._tail_retained or self._tail_time is None:
            return times, values
        return times + [self._tail_time], values + [self._tail_value]


class MetricsRegistry:
    """Labeled instrument registry with pull-collectors.

    All instruments live in one namespace; :meth:`snapshot` runs the
    registered collectors (publishing raw substrate counters) and returns
    a plain-JSON-serializable document.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, tuple], Counter] = {}
        self._gauges: Dict[Tuple[str, tuple], Gauge] = {}
        self._histograms: Dict[Tuple[str, tuple], Histogram] = {}
        self._series: Dict[Tuple[str, tuple], Series] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------ instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], buckets)
        return instrument

    def series(self, name: str, max_samples: int = 1024, **labels: Any) -> Series:
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = Series(name, key[1], max_samples)
        return instrument

    # ------------------------------------------------------------- collectors
    def add_collector(self, collector: Collector) -> None:
        """Register a callback run at snapshot time (publish raw counters)."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run all collectors now (normally done by :meth:`snapshot`)."""
        for collector in self._collectors:
            collector(self)

    # --------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """Collect and return the full metric state as a JSON-able dict.

        Snapshots contain only simulation-domain values, so two runs with
        the same seed yield identical snapshots (this is tested).
        """
        self.collect()
        return {
            "counters": {
                render_key(c.name, c.labels): c.value
                for c in sorted(self._counters.values(), key=_sort_key)
            },
            "gauges": {
                render_key(g.name, g.labels): {"value": g.value, "peak": g.peak}
                for g in sorted(self._gauges.values(), key=_sort_key)
            },
            "histograms": {
                # count is recomputed from the copied bucket list so a
                # snapshot racing a concurrent observe() is always
                # self-consistent (count == sum(counts)); on a quiescent
                # registry the value is identical to the running counter.
                render_key(h.name, h.labels): {
                    "buckets": list(h.buckets),
                    "counts": counts,
                    "count": sum(counts),
                    "sum": h.total_sum,
                }
                for h, counts in (
                    (h, list(h.counts))
                    for h in sorted(self._histograms.values(), key=_sort_key)
                )
            },
            "series": {
                render_key(s.name, s.labels): {
                    "times": points[0],
                    "values": points[1],
                    "stride": s.stride,
                }
                for s, points in (
                    (s, s.points())
                    for s in sorted(self._series.values(), key=_sort_key)
                )
            },
        }

    def detach_collectors(self) -> "MetricsRegistry":
        """Collect once, then drop the collector callbacks. Returns self.

        Collectors close over live substrate objects (simulators, queues,
        links), which cannot cross a process boundary and keep finished
        runs alive. A sweep worker calls this after its cell completes so
        the registry it sends back is a plain data object: the raw totals
        the collectors would have published are baked into the instruments,
        and a later :meth:`collect`/:meth:`snapshot` is a no-op on them.
        """
        self.collect()
        self._collectors = []
        return self

    # ------------------------------------------------------------------ merge
    def merge(
        self,
        other: "MetricsRegistry",
        series_labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold another registry into this one.

        Counters and histogram buckets add; gauges keep the later write
        (and the max of the peaks); series are concatenated sample-wise
        (re-decimated under this registry's bounds). Histograms with
        mismatched bucket bounds raise :class:`ObservabilityError`.

        ``series_labels`` adds extra labels to every absorbed *series* key
        (e.g. ``cell=<sweep label>``). Sweep shards use this so each
        cell's series stays a separate, monotonically-timed instrument
        instead of interleaving restarting sim clocks into one stream —
        counters/gauges/histograms still aggregate across the shards.
        """
        with _profiling.profile_stage("registry.merge"):
            other.collect()
            for (name, labels), src in other._counters.items():
                self.counter(name, **dict(labels)).value += src.value
            for (name, labels), src in other._gauges.items():
                dst = self.gauge(name, **dict(labels))
                dst.value = src.value
                dst.peak = max(dst.peak, src.peak)
            for (name, labels), src in other._histograms.items():
                dst = self.histogram(name, buckets=src.buckets, **dict(labels))
                if dst.buckets != src.buckets:
                    raise ObservabilityError(
                        f"cannot merge histogram {name!r}: bucket bounds differ"
                    )
                for i, n in enumerate(src.counts):
                    dst.counts[i] += n
                dst.count += src.count
                # Keep contributions flat so re-merging merged registries
                # still reduces one multiset of shard sums with fsum.
                dst._merged_sums.extend(src.sum_terms())
            for (name, labels), src in other._series.items():
                merged_labels = dict(labels)
                if series_labels:
                    merged_labels.update(series_labels)
                dst = self.series(name, max_samples=src.max_samples, **merged_labels)
                for t, v in zip(*src.points()):
                    dst.append(t, v)


class NullRegistry(MetricsRegistry):
    """Disabled registry: same API, retains nothing, snapshots empty.

    Instruments handed out are real (so ``counter.value`` etc. still work
    for local bookkeeping) but are never registered, collectors are
    dropped, and hot paths that check :attr:`enabled` skip instrumentation
    entirely — the substrate runs at pre-observability speed.
    """

    enabled = False

    def counter(self, name: str, **labels: Any) -> Counter:
        return Counter(name, _label_key(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return Gauge(name, _label_key(labels))

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return Histogram(name, _label_key(labels), buckets)

    def series(self, name: str, max_samples: int = 1024, **labels: Any) -> Series:
        return Series(name, _label_key(labels), max_samples)

    def add_collector(self, collector: Collector) -> None:
        pass

    def merge(
        self,
        other: "MetricsRegistry",
        series_labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        pass

    def detach_collectors(self) -> "MetricsRegistry":
        return self


def _sort_key(instrument) -> Tuple[str, tuple]:
    return (instrument.name, instrument.labels)


def snapshot_digest(snapshot: Dict[str, Any]) -> str:
    """Canonical sha256 hex digest of a snapshot document.

    Two registries with byte-identical metric state produce equal digests
    regardless of instrument creation order (snapshots sort by key). Used
    by the sweep engine's equivalence checks: a parallel sweep's merged
    snapshot must digest identically to the serial run on the same seeds.
    """
    import hashlib
    import json

    payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
