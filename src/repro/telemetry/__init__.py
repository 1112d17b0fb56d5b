"""``repro.telemetry`` — metrics, tracing, live progress and profiling.

The observability layer of the reproduction.  One :class:`Telemetry`
object bundles the four instruments:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters /
  gauges / histograms that the fuzzer, both emulator engines, the
  campaign scheduler and the hardening pipeline update;
* an optional :class:`~repro.telemetry.tracing.TraceWriter` emitting a
  versioned JSONL span/event trace (``repro stats`` aggregates it);
* an optional :class:`~repro.telemetry.progress.HeartbeatReporter`
  rendering live ``[progress]`` lines from the registry;
* an optional :class:`~repro.telemetry.profiler.EngineProfiler`
  counting per-opcode/per-address hot spots inside an engine.

Telemetry is observation-only — it never feeds back into execution, so
results are bit-identical with it on or off — and costs one ``is not
None`` check per execution when disabled (the default).  Install a
bundle process-wide with :func:`repro.telemetry.context.session` (what
``Pipeline.telemetry(...)`` and the CLI ``--progress``/``--trace`` flags
do), or hand one to a specific runtime via
``TeapotConfig(telemetry=...)``.  See ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Optional

from repro._version import __version__
from repro.telemetry import context
from repro.telemetry.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.telemetry.logging import LEVELS, StructuredLogger, parse_level
from repro.telemetry.metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_counts,
)
from repro.telemetry.profiler import EngineProfiler
from repro.telemetry.progress import HeartbeatReporter
from repro.telemetry.report import render_flamegraph, render_html_report
from repro.telemetry.runs import (
    RUN_KIND,
    RUN_SCHEMA_VERSION,
    RunDirectory,
    RunRegistry,
)
from repro.telemetry.tracing import (
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    TraceError,
    TraceWriter,
    aggregate_trace,
    derive_span_id,
    format_trace_stats,
    new_trace_id,
    read_trace,
)


class Telemetry:
    """One run's observability bundle: registry + trace + progress + profile.

    All helper methods tolerate missing instruments (no trace writer →
    :meth:`event` is a no-op, :meth:`span` a null context), so
    instrumented code guards only on "is a Telemetry active at all".
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceWriter] = None,
        heartbeat: Optional[HeartbeatReporter] = None,
        profiler: Optional[EngineProfiler] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        if trace is not None and trace.registry is None:
            trace.registry = self.registry
        self.heartbeat = heartbeat
        self.profiler = profiler
        self._owns_trace = False
        #: optional :class:`~repro.telemetry.runs.RunDirectory` this run
        #: records into (manifest + trace + metrics snapshots).
        self.run_dir = None
        #: optional ``(host, port)`` on which a campaign run under this
        #: bundle serves its ephemeral service's HTTP API.
        self.serve = None

    @classmethod
    def create(
        cls,
        trace=None,
        progress: bool = False,
        interval: float = 5.0,
        profile_engine: bool = False,
        context_info: Optional[Dict[str, object]] = None,
        sink=None,
    ) -> "Telemetry":
        """Build a bundle from plain options (what the CLI flags map to).

        ``trace`` is a path or an existing :class:`TraceWriter`; a path
        is opened (and later closed) by this bundle.  ``sink`` overrides
        where heartbeat lines go (default: stderr).
        """
        registry = MetricsRegistry()
        writer = None
        owns = False
        if trace is not None:
            if isinstance(trace, TraceWriter):
                writer = trace
                if writer.registry is None:
                    writer.registry = registry
            else:
                writer = TraceWriter(trace, context=context_info,
                                     registry=registry)
                owns = True
        heartbeat = None
        if progress:
            heartbeat = HeartbeatReporter(registry, interval=interval,
                                          sink=sink)
        profiler = EngineProfiler() if profile_engine else None
        telemetry = cls(registry=registry, trace=writer, heartbeat=heartbeat,
                        profiler=profiler)
        telemetry._owns_trace = owns
        return telemetry

    def event(self, type_: str, **fields) -> None:
        """Emit a trace event (no-op without a trace writer)."""
        if self.trace is not None:
            self.trace.event(type_, **fields)

    def span(self, name: str, **fields):
        """A trace span context (a null context without a trace writer)."""
        if self.trace is not None:
            return self.trace.span(name, **fields)
        return nullcontext()

    # -- engine hook ---------------------------------------------------------
    def record_execution(self, emulator, result) -> None:
        """Fold one emulator run into the registry.

        Called by :meth:`repro.runtime.emulator.Emulator.run` after each
        execution.  Per-run deltas of the controller's cumulative
        statistics are tracked through a mark stored on the controller,
        so several live emulators (native + instrumented, per-variant
        rebuilds) aggregate correctly.
        """
        registry = self.registry
        registry.counter("engine.executions").inc()
        registry.counter("engine.instructions").inc(result.arch_instructions)
        registry.counter("engine.steps").inc(result.steps)
        registry.counter("engine.cycles").inc(result.cycles)
        registry.histogram("engine.instructions_per_exec").observe(
            result.arch_instructions)

        controller = emulator.controller
        if controller is not None:
            stats = controller.stats
            previous = getattr(controller, "_telemetry_mark", None)
            if previous is None:
                previous = (0, 0, 0, {})
            registry.counter("engine.simulations").inc(
                stats.simulations_started - previous[0])
            registry.counter("engine.rollbacks").inc(
                stats.rollbacks - previous[1])
            registry.counter("engine.simulated_instructions").inc(
                stats.simulated_instructions - previous[2])
            for model, count in stats.model_entries.items():
                registry.counter(f"engine.entered.{model}").inc(
                    count - previous[3].get(model, 0))
            controller._telemetry_mark = (
                stats.simulations_started, stats.rollbacks,
                stats.simulated_instructions, dict(stats.model_entries),
            )
            registry.gauge("engine.max_nesting_depth").max(
                stats.max_depth_reached)
            registry.gauge("engine.journal_depth_max").max(
                getattr(controller, "undo_depth_max", 0))

        fallbacks = getattr(emulator, "_fallback_addresses", None)
        if fallbacks is not None:
            registry.gauge("engine.fallback_thunks").set(len(fallbacks))

        blocks = getattr(emulator, "_blocks_nosim", None)
        if blocks is not None:  # jit engine
            registry.gauge("engine.jit.compiled_blocks").set(len(blocks))
            registry.gauge("engine.jit.compiled_blocks_sim").set(
                len(emulator._blocks_sim))
            registry.gauge("engine.jit.inlined_instructions").set(
                getattr(emulator, "_jit_inline_instructions", 0))
            cache = getattr(emulator, "_jit_cache", None)
            if cache is not None:
                for key, value in cache.stats.items():
                    registry.gauge(f"engine.jit.cache_{key}").set(value)

    # -- lifecycle -----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready section for ``RunResult``/``BENCH_*.json`` embedding."""
        record: Dict[str, object] = {
            "version": __version__,
            "metrics": self.registry.snapshot(),
        }
        if self.profiler is not None:
            record["profile"] = self.profiler.snapshot()
        return record

    def close(self) -> None:
        """Final heartbeat plus trace shutdown (closes an owned sink)."""
        if self.heartbeat is not None:
            self.heartbeat.maybe_beat(force=True)
        if self.trace is not None and self._owns_trace:
            self.trace.close()


__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_counts",
    "TraceWriter",
    "TraceError",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "read_trace",
    "aggregate_trace",
    "format_trace_stats",
    "HeartbeatReporter",
    "EngineProfiler",
    "context",
    "__version__",
    # campaign observatory (PR 8)
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "RunDirectory",
    "RunRegistry",
    "RUN_KIND",
    "RUN_SCHEMA_VERSION",
    "render_html_report",
    "render_flamegraph",
    # service observatory (PR 10)
    "StructuredLogger",
    "parse_level",
    "LEVELS",
    "LATENCY_BUCKETS_S",
    "new_trace_id",
    "derive_span_id",
]
