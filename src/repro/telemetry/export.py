"""Prometheus text exposition of a metrics registry.

:func:`render_prometheus` turns a :class:`~repro.telemetry.Telemetry`
bundle or a prepared :class:`MetricsView` into text exposition format
0.0.4: ``# TYPE`` per family, ``_total``-suffixed counters, cumulative
histogram buckets ending in ``+Inf``, and label extraction for the
per-variant/per-model metric families (``campaign.sites.<variant>``
becomes ``repro_campaign_sites{variant="..."}``).  The service's HTTP
API (:mod:`repro.service.httpapi`) serves it at ``/metrics`` — for
``repro serve`` and for a campaign run with ``--serve``, whose
ephemeral service merges the campaign's live registry into the view.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Mapping, Optional, Tuple, Union

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
    keys).  The service assembles one from its own and its campaigns'
    registries before rendering.
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
        """Counters and gauges in one sorted mapping."""
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

    ``source`` is a :class:`repro.telemetry.Telemetry` or a prepared
    :class:`MetricsView`.
    """
    view = (source if isinstance(source, MetricsView)
            else MetricsView.from_telemetry(source))

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


def parse_address(text: str, default_port: int = 9753,
                  ) -> Tuple[str, int]:
    """``"9090"`` / ``":9090"`` / ``"0.0.0.0:9090"`` → (host, port).

    Raises :class:`ValueError` for a non-numeric port or one outside
    0–65535 (0 lets the OS pick).
    """
    text = (text or "").strip()
    if not text:
        return ("127.0.0.1", default_port)
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or "127.0.0.1"
    elif text.isdigit():
        host, port_text = "127.0.0.1", text
    else:
        return (text, default_port)
    if not port_text:
        return (host, default_port)
    if not port_text.isdigit() or int(port_text) > 65535:
        raise ValueError(f"invalid address {text!r}: the port must be a "
                         "number in 0-65535")
    return (host, int(port_text))


def wait_until(predicate, timeout: float = 5.0,
               interval: float = 0.05) -> bool:
    """Poll ``predicate`` until true or timeout (test/CI helper)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())
