"""The metrics registry: counters, gauges and histograms.

Metrics are *observations only*: nothing in the runtime ever reads a
metric back to make a decision, so enabling or disabling telemetry can
never change execution results (the differential and golden-table suites
pin this).  The hot layers pay for telemetry with exactly one
``is not None`` check per *execution* (never per instruction): when no
:class:`~repro.telemetry.Telemetry` is installed,
:func:`repro.telemetry.context.active` returns ``None`` and the
instrumented code paths skip everything else.

The module also hosts :func:`merge_counts`, the one shared
merge-by-summing rule for ``spec_stats``-style counter dictionaries
(previously duplicated across the fuzzer and the campaign aggregation
paths).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Union

#: default histogram bucket upper bounds (powers of two); one overflow
#: bucket is always appended.
DEFAULT_BUCKETS: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)

#: bucket bounds for latency histograms measured in (fractional)
#: seconds — the integer DEFAULT_BUCKETS would collapse sub-second
#: waits into the first bucket.  Used by the ``service.job.*`` queue
#: and job-latency families.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 300.0,
)


def merge_counts(into: Dict[str, int],
                 other: Mapping[str, int]) -> Dict[str, int]:
    """Sum one counter dictionary into another and return the target.

    This is the single merge rule for ``spec_stats`` (and any other
    name → count mapping): every key of ``other`` is added to ``into``,
    missing keys start at zero.  The fuzzer's per-execution accumulation
    and :func:`repro.campaign.scheduler.merge_worker_result` both route
    through here, so the two aggregation paths cannot drift.
    """
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
    return into


class Counter:
    """A monotonically increasing metric (events, executions, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time metric (corpus size, unique sites, depth peaks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def max(self, value: Union[int, float]) -> None:
        """Raise the gauge to ``value`` if it is a new peak."""
        if value > self.value:
            self.value = value


class Histogram:
    """A bucketed distribution (instructions per execution, job latency)."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str,
                 buckets: Sequence[Union[int, float]] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds: Tuple[Union[int, float], ...] = tuple(buckets)
        #: one count per bound, plus the trailing overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready form: total count/sum plus non-empty buckets."""
        buckets: Dict[str, int] = {}
        for index, bound in enumerate(self.bounds):
            if self.bucket_counts[index]:
                buckets[f"le_{bound}"] = self.bucket_counts[index]
        if self.bucket_counts[-1]:
            buckets["inf"] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


class MetricsRegistry:
    """Create-on-first-use registry of named counters, gauges, histograms.

    Metric names are dotted paths (``fuzz.executions``,
    ``campaign.sites.btb``); the catalog lives in
    ``docs/observability.md``.  Accessors return the live metric object,
    so hot loops fetch it once outside the loop and update the plain
    attribute inside.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  buckets: Sequence[Union[int, float]] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    def counters(self) -> Dict[str, Counter]:
        """The live counter objects by name (typed view for exporters)."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """The live gauge objects by name (typed view for exporters)."""
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        """The live histogram objects by name (typed view for exporters)."""
        return dict(self._histograms)

    def value(self, name: str, default: Union[int, float] = 0):
        """The current value of a counter or gauge (0 when unknown)."""
        metric = self._counters.get(name) or self._gauges.get(name)
        return metric.value if metric is not None else default

    def values_with_prefix(self, prefix: str) -> Dict[str, Union[int, float]]:
        """Counter/gauge values whose name starts with ``prefix`` (the
        prefix itself is stripped from the returned keys)."""
        found: Dict[str, Union[int, float]] = {}
        for pool in (self._counters, self._gauges):
            for name, metric in pool.items():
                if name.startswith(prefix):
                    found[name[len(prefix):]] = metric.value
        return found

    def snapshot(self) -> Dict[str, object]:
        """Every metric's current value, sorted by name (JSON-ready).

        Counters and gauges map name → number; histograms map name → the
        :meth:`Histogram.snapshot` record.
        """
        record: Dict[str, object] = {}
        for name, counter in self._counters.items():
            record[name] = counter.value
        for name, gauge in self._gauges.items():
            record[name] = gauge.value
        for name, histogram in self._histograms.items():
            record[name] = histogram.snapshot()
        return dict(sorted(record.items()))
