"""Live metrics export: Prometheus text format + stdlib HTTP endpoints.

Two consumption modes share one renderer:

* **In-process** — ``Pipeline.telemetry(serve=...)`` or ``repro campaign
  --serve`` start a :class:`MetricsExporter` over the live
  :class:`~repro.telemetry.Telemetry`; the campaign folds each job's
  counters into that registry as the job's result merges, so
  ``/metrics`` totals increase *mid-round*.
* **Cross-process** — ``repro monitor --run <id>`` exports a
  :class:`~repro.telemetry.runs.RunDirectory` written by a campaign in
  another process: its latest metrics snapshot, which the campaign
  rewrites after every merged job under ``pool``/``service`` and after
  every round under ``serial``.

The renderer emits Prometheus text exposition format 0.0.4: ``# TYPE``
per family, ``_total``-suffixed counters, cumulative histogram buckets
ending in ``+Inf``, and label extraction for the per-variant/per-model
metric families (``campaign.sites.<variant>`` becomes
``repro_campaign_sites{variant="..."}``).  The server is a stdlib
``ThreadingHTTPServer`` on a daemon thread — no dependencies, safe to
leave running for the life of a campaign.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro._version import __version__

#: Content type of the ``/metrics`` endpoint (exposition format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: metric-name prefixes whose trailing component becomes a label.
_LABEL_RULES: Tuple[Tuple[str, str], ...] = (
    ("campaign.sites.", "variant"),
    ("fuzz.sites.", "variant"),
    ("engine.entered.", "model"),
    ("service.worker.utilization.", "worker"),
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

Number = Union[int, float]


def _prom_name(dotted: str) -> str:
    """``fuzz.executions`` → ``repro_fuzz_executions``."""
    return "repro_" + _NAME_OK.sub("_", dotted)


def _split_labels(dotted: str) -> Tuple[str, Optional[Tuple[str, str]]]:
    """Family name plus an optional (label, value) extracted by rule."""
    for prefix, label in _LABEL_RULES:
        if dotted.startswith(prefix) and len(dotted) > len(prefix):
            return dotted[:len(prefix) - 1], (label, dotted[len(prefix):])
    return dotted, None


def _format_number(value: Number) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


class MetricsView:
    """A uniform, render-ready view of one run's metrics.

    ``counters``/``gauges`` map dotted names to numbers; ``histograms``
    maps names to :meth:`repro.telemetry.metrics.Histogram.snapshot`-style
    records (``count``/``sum``/``buckets`` with ``le_<bound>``/``inf``
    keys).  Both the live-telemetry and the run-directory sources reduce
    to this before rendering.
    """

    def __init__(
        self,
        counters: Optional[Mapping[str, Number]] = None,
        gauges: Optional[Mapping[str, Number]] = None,
        histograms: Optional[Mapping[str, Mapping[str, object]]] = None,
    ) -> None:
        self.counters: Dict[str, Number] = dict(counters or {})
        self.gauges: Dict[str, Number] = dict(gauges or {})
        self.histograms: Dict[str, Mapping[str, object]] = dict(
            histograms or {})

    def merged_counts(self) -> Dict[str, Number]:
        """Counters and gauges in one sorted mapping (``/status``)."""
        merged: Dict[str, Number] = dict(self.counters)
        merged.update(self.gauges)
        return dict(sorted(merged.items()))

    @classmethod
    def from_telemetry(cls, telemetry) -> "MetricsView":
        """Live view: the registry's current values."""
        counters = {name: counter.value
                    for name, counter in telemetry.registry.counters().items()}
        gauges = {name: gauge.value
                  for name, gauge in telemetry.registry.gauges().items()}
        histograms = {name: histogram.snapshot()
                      for name, histogram
                      in telemetry.registry.histograms().items()}
        return cls(counters, gauges, histograms)

    @classmethod
    def from_run_dir(cls, run_dir) -> "MetricsView":
        """Cross-process view: the run's latest metrics snapshot."""
        snapshot = run_dir.latest_metrics() or {}
        metrics = dict(snapshot.get("metrics", {}))
        types = dict(snapshot.get("types", {}))
        view = cls()
        for name, value in metrics.items():
            kind = types.get(name)
            if isinstance(value, dict) or kind == "histogram":
                if isinstance(value, dict):
                    view.histograms[name] = value
            elif kind == "counter":
                view.counters[name] = value
            else:
                view.gauges[name] = value
        return view


def _histogram_lines(family: str, record: Mapping[str, object]) -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` samples of one family."""
    name = _prom_name(family)
    buckets = dict(record.get("buckets", {}))
    bounds: List[Tuple[float, int]] = []
    for key, count in buckets.items():
        if key == "inf":
            continue
        try:
            bounds.append((float(str(key)[len("le_"):]), int(count)))
        except ValueError:
            continue
    bounds.sort()
    total = int(record.get("count", 0))
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for bound, count in bounds:
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_format_number(bound)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {total}')
    lines.append(f"{name}_sum {_format_number(record.get('sum', 0))}")
    lines.append(f"{name}_count {total}")
    return lines


def render_prometheus(source) -> str:
    """Render a telemetry bundle or :class:`MetricsView` as exposition text.

    ``source`` is a :class:`repro.telemetry.Telemetry`, a
    :class:`~repro.telemetry.runs.RunDirectory` or a prepared
    :class:`MetricsView`.
    """
    if isinstance(source, MetricsView):
        view = source
    elif hasattr(source, "registry"):
        view = MetricsView.from_telemetry(source)
    else:
        view = MetricsView.from_run_dir(source)

    # family → (prom type, [(labels, value)]) — one # TYPE line each.
    families: Dict[str, Tuple[str, List[Tuple[Optional[Tuple[str, str]],
                                              Number]]]] = {}
    for pool, prom_type in ((view.counters, "counter"),
                            (view.gauges, "gauge")):
        for dotted, value in sorted(pool.items()):
            family, label = _split_labels(dotted)
            entry = families.setdefault(family, (prom_type, []))
            if entry[0] == prom_type:
                entry[1].append((label, value))
    lines: List[str] = []
    for family in sorted(families):
        prom_type, samples = families[family]
        name = _prom_name(family)
        if prom_type == "counter":
            name += "_total"
        lines.append(f"# TYPE {name} {prom_type}")
        for label, value in samples:
            if label is None:
                lines.append(f"{name} {_format_number(value)}")
            else:
                key, val = label
                lines.append(
                    f'{name}{{{key}="{val}"}} {_format_number(value)}')
    for family in sorted(view.histograms):
        lines.extend(_histogram_lines(family, view.histograms[family]))
    return "\n".join(lines) + "\n"


def status_snapshot(source, run_dir=None) -> Dict[str, object]:
    """The ``/status`` JSON body: merged counts + progress digest."""
    if isinstance(source, MetricsView):
        view = source
    elif hasattr(source, "registry"):
        view = MetricsView.from_telemetry(source)
        if run_dir is None:
            run_dir = getattr(source, "run_dir", None)
    else:
        view = MetricsView.from_run_dir(source)
        if run_dir is None:
            run_dir = source
    counts = view.merged_counts()

    def _count(name: str) -> Number:
        value = counts.get(name, 0)
        return value if isinstance(value, (int, float)) else 0

    sites: Dict[str, Number] = {}
    for dotted, value in counts.items():
        family, label = _split_labels(dotted)
        if label is not None and family in ("campaign.sites", "fuzz.sites"):
            variant = label[1]
            sites[variant] = max(sites.get(variant, 0), value)
    record: Dict[str, object] = {
        "kind": "repro.telemetry/status",
        "schema_version": 1,
        "version": __version__,
        "counts": counts,
        "progress": {
            "executions": max(_count("campaign.executions"),
                              _count("fuzz.executions")),
            "rounds_completed": _count("campaign.rounds_completed"),
            "jobs_running": _count("campaign.jobs_running"),
            "jobs_done": _count("campaign.jobs_done"),
            "unique_sites": max(_count("campaign.reports_unique"),
                                _count("fuzz.reports_unique")),
            "sites": dict(sorted(sites.items())),
        },
    }
    if run_dir is not None:
        try:
            record["run"] = run_dir.manifest()
        except Exception:
            record["run"] = {"run_id": getattr(run_dir, "run_id", None)}
    return record


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/metrics``, ``/status`` and ``/runs``; silent logging."""

    server_version = "repro-exporter/" + __version__

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        exporter: "MetricsExporter" = self.server.exporter  # type: ignore
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = render_prometheus(exporter.source).encode("utf-8")
                self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/status":
                record = status_snapshot(exporter.source)
                self._reply(200, "application/json",
                            json.dumps(record, indent=1,
                                       sort_keys=True).encode("utf-8"))
            elif path == "/runs":
                manifests = (exporter.registry.list_manifests()
                             if exporter.registry is not None else [])
                self._reply(200, "application/json",
                            json.dumps(manifests, indent=1,
                                       sort_keys=True).encode("utf-8"))
            elif path == "/":
                self._reply(200, "text/plain; charset=utf-8",
                            b"repro campaign observatory\n"
                            b"endpoints: /metrics /status /runs\n")
            else:
                self._reply(404, "text/plain; charset=utf-8",
                            b"unknown endpoint\n")
        except Exception as error:  # never kill the serving thread
            try:
                self._reply(500, "text/plain; charset=utf-8",
                            f"exporter error: {error}\n".encode("utf-8"))
            except OSError:
                pass

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


class MetricsExporter:
    """One HTTP exporter over a telemetry bundle or run directory.

    ``source`` is a live :class:`~repro.telemetry.Telemetry` or a
    :class:`~repro.telemetry.runs.RunDirectory`; ``registry`` (a
    :class:`~repro.telemetry.runs.RunRegistry`) backs ``/runs``.  Binding
    ``port=0`` picks a free port — read it back from :attr:`port`.
    """

    def __init__(self, source, registry=None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.source = source
        self.registry = registry
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.exporter = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsExporter":
        """Serve on a daemon thread (returns immediately)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-exporter", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve on *this* thread until interrupted (``repro monitor``)."""
        try:
            self._server.serve_forever(poll_interval=poll_interval)
        except KeyboardInterrupt:
            pass
        finally:
            self._server.server_close()


def serve_metrics(source, registry=None, host: str = "127.0.0.1",
                  port: int = 0) -> MetricsExporter:
    """Start (and return) a background exporter for ``source``.

    The public-API convenience: ``exporter = serve_metrics(telemetry)``;
    scrape ``exporter.url + "/metrics"``; ``exporter.stop()`` when done.
    """
    return MetricsExporter(source, registry=registry, host=host,
                           port=port).start()


def parse_address(text: str, default_port: int = 9753,
                  ) -> Tuple[str, int]:
    """``"9090"`` / ``":9090"`` / ``"0.0.0.0:9090"`` → (host, port)."""
    text = (text or "").strip()
    if not text:
        return ("127.0.0.1", default_port)
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        return (host or "127.0.0.1",
                int(port_text) if port_text else default_port)
    if text.isdigit():
        return ("127.0.0.1", int(text))
    return (text, default_port)


def wait_until(predicate, timeout: float = 5.0,
               interval: float = 0.05) -> bool:
    """Poll ``predicate`` until true or timeout (test/CI helper)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())
