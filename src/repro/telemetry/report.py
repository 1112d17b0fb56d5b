"""Trace reports: self-contained HTML and collapsed-stack flamegraphs.

``repro stats --html out.html trace.jsonl`` renders one dependency-free
HTML page from an :func:`~repro.telemetry.tracing.aggregate_trace`
summary: the span tree with elapsed bars, the critical path (the
heaviest parent→child chain), per-span-path timing percentiles, the
final counters, and — when a ``RunResult`` with an engine profile is
supplied — the per-opcode histogram and hot-spot table of
:class:`~repro.telemetry.profiler.EngineProfiler`.

``repro stats --flamegraph out.txt trace.jsonl`` emits the *collapsed
stack* format consumed by the standard ``flamegraph.pl``/speedscope
tooling: one ``parent;child;grandchild <value>`` line per span path,
where the value is the span's **self time** in microseconds (elapsed
minus direct children), so stacking the frames reconstructs inclusive
time exactly.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence

from repro._version import __version__


# -- span-tree helpers -------------------------------------------------------
def _span_children(spans: Sequence[Dict[str, object]],
                   ) -> Dict[str, List[Dict[str, object]]]:
    """Direct children per span path ('' keys the roots)."""
    children: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        path = str(span.get("path") or "")
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        children.setdefault(parent, []).append(span)
    return children


def _elapsed(span: Dict[str, object]) -> float:
    return float(span.get("elapsed_s") or 0.0)


def critical_path(spans: Sequence[Dict[str, object]],
                  ) -> List[Dict[str, object]]:
    """The heaviest root→leaf chain: at each level, the slowest child.

    With repeated sibling paths (per-round spans) every *instance* is a
    candidate — the chain follows concrete spans, not aggregated paths.
    """
    children = _span_children(spans)
    chain: List[Dict[str, object]] = []
    level = children.get("", [])
    while level:
        heaviest = max(level, key=_elapsed)
        chain.append(heaviest)
        level = children.get(str(heaviest.get("path") or ""), [])
    return chain


def self_times(spans: Sequence[Dict[str, object]],
               ) -> Dict[str, float]:
    """Summed self time (elapsed minus direct children) per span path."""
    children = _span_children(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        path = str(span.get("path") or "")
        child_sum = 0.0
        # Only children started inside this instance belong to it; with
        # repeated paths we conservatively split the children's total
        # across the instances evenly.
        instances = [s for s in spans if str(s.get("path") or "") == path]
        for child in children.get(path, []):
            child_sum += _elapsed(child)
        share = child_sum / len(instances) if instances else child_sum
        totals[path] = totals.get(path, 0.0) + max(
            0.0, _elapsed(span) - share)
    return totals


def render_flamegraph(aggregate: Dict[str, object]) -> str:
    """Collapsed-stack output: ``a;b;c <self-time-µs>`` per span path."""
    spans = list(aggregate.get("spans") or [])
    lines: List[str] = []
    for path, self_s in sorted(self_times(spans).items()):
        micros = int(round(self_s * 1_000_000))
        if micros <= 0:
            continue
        frames = ";".join(part for part in path.split("/") if part)
        if frames:
            lines.append(f"{frames} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- HTML rendering ----------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #1a1a2e; max-width: 70em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccd; padding: 0.25em 0.7em; text-align: left;
         font-size: 0.92em; }
th { background: #eef; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: inline-block; height: 0.8em; background: #4a7ebb;
       vertical-align: middle; margin-right: 0.4em; }
.crit { color: #b03030; font-weight: 600; }
.muted { color: #667; font-size: 0.85em; }
code { background: #f2f2f8; padding: 0.1em 0.3em; border-radius: 3px; }
"""


def _bar(fraction: float) -> str:
    width = max(1, int(round(200 * max(0.0, min(1.0, fraction)))))
    return f'<span class="bar" style="width:{width}px"></span>'


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           numeric: Sequence[int] = ()) -> str:
    num_attr = ' class="num"'
    head = "".join(
        f"<th{num_attr if i in numeric else ''}>{html.escape(h)}</th>"
        for i, h in enumerate(headers))
    body = []
    for row in rows:
        cells = "".join(
            f"<td{num_attr if i in numeric else ''}>{cell}</td>"
            for i, cell in enumerate(row))
        body.append(f"<tr>{cells}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def render_html_report(
    aggregate: Dict[str, object],
    profile: Optional[Dict[str, object]] = None,
    title: str = "repro trace report",
) -> str:
    """One self-contained HTML page from a trace aggregate.

    ``profile`` is the optional ``telemetry.profile`` section of a
    :class:`repro.api.RunResult` (an
    :meth:`~repro.telemetry.profiler.EngineProfiler.snapshot` record);
    when given, the hot-spot and per-opcode tables are included.
    """
    spans = list(aggregate.get("spans") or [])
    crit = critical_path(spans)
    crit_paths = {id(span) for span in crit}
    max_elapsed = max((_elapsed(span) for span in spans), default=0.0)

    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p class='muted'>repro {html.escape(str(aggregate.get('version')))}"
        f" · trace schema v{aggregate.get('schema_version')}"
        f" · {aggregate.get('records')} records"
        f" · report generator {html.escape(__version__)}</p>",
    ]
    context = aggregate.get("context") or {}
    if context:
        parts.append("<p>" + " · ".join(
            f"<code>{html.escape(str(k))}={html.escape(str(v))}</code>"
            for k, v in sorted(context.items()) if v is not None) + "</p>")

    # -- span tree with bars + critical-path highlight ----------------------
    parts.append("<h2>Span tree</h2>")
    rows = []
    for span in spans:
        path = str(span.get("path") or "")
        depth = path.count("/")
        elapsed = _elapsed(span)
        marker = " class='crit'" if id(span) in crit_paths else ""
        name = ("&nbsp;" * 4 * depth
                + f"<span{marker}>{html.escape(str(span.get('name')))}</span>")
        status = str(span.get("status") or "?")
        if span.get("error"):
            status += f" — {html.escape(str(span.get('error')))}"
        bar = _bar(elapsed / max_elapsed if max_elapsed else 0.0)
        rows.append([name, f"{bar}{elapsed:.3f}s", html.escape(status)])
    parts.append(_table(["span", "elapsed", "status"], rows)
                 if rows else "<p class='muted'>no spans recorded</p>")
    if crit:
        total = sum(_elapsed(span) for span in crit)
        chain = " → ".join(html.escape(str(span.get("name"))) for span in crit)
        parts.append(f"<p>critical path: <span class='crit'>{chain}</span> "
                     f"<span class='muted'>({total:.3f}s inclusive)</span></p>")

    # -- per-span-path percentiles ------------------------------------------
    span_paths = aggregate.get("span_paths") or {}
    if span_paths:
        parts.append("<h2>Per-path timings</h2>")
        rows = []
        for path in sorted(span_paths):
            stats = span_paths[path]
            rows.append([
                f"<code>{html.escape(path)}</code>",
                str(stats.get("count", 0)),
                f"{float(stats.get('total_s') or 0):.3f}",
                f"{float(stats.get('p50_s') or 0):.3f}",
                f"{float(stats.get('p90_s') or 0):.3f}",
                f"{float(stats.get('max_s') or 0):.3f}",
            ])
        parts.append(_table(
            ["path", "count", "total s", "p50 s", "p90 s", "max s"],
            rows, numeric=(1, 2, 3, 4, 5)))

    # -- jobs ----------------------------------------------------------------
    jobs = aggregate.get("jobs") or {}
    if jobs.get("done") or jobs.get("failed"):
        parts.append(
            f"<h2>Jobs</h2><p>{jobs.get('done', 0)} completed, "
            f"{jobs.get('failed', 0)} failed, "
            f"{jobs.get('executions', 0)} executions, "
            f"{float(jobs.get('elapsed_s') or 0):.3f}s in workers</p>")
        failures = aggregate.get("failures") or []
        if failures:
            parts.append(_table(
                ["failed job", "error"],
                [[html.escape(str(f.get('job_id'))),
                  html.escape(str(f.get('error')))] for f in failures]))

    # -- counters ------------------------------------------------------------
    counters = aggregate.get("counters") or {}
    numeric_counters = {name: value for name, value in counters.items()
                        if isinstance(value, (int, float))}
    if numeric_counters:
        parts.append("<h2>Final counters</h2>")
        parts.append(_table(
            ["metric", "value"],
            [[f"<code>{html.escape(name)}</code>", str(value)]
             for name, value in sorted(numeric_counters.items())],
            numeric=(1,)))

    # -- engine profile (hot spots) -----------------------------------------
    if profile:
        hot = list(profile.get("hot_spots") or [])
        if hot:
            parts.append(
                f"<h2>Engine hot spots</h2><p class='muted'>"
                f"{profile.get('addresses_seen', 0)} distinct addresses "
                f"executed; top {len(hot)} shown</p>")
            top = max((int(entry.get("count", 0)) for entry in hot),
                      default=0)
            rows = []
            for entry in hot:
                count = int(entry.get("count", 0))
                rows.append([
                    f"<code>{html.escape(str(entry.get('address')))}</code>",
                    html.escape(str(entry.get("function", "?"))),
                    f"{_bar(count / top if top else 0)}{count}",
                ])
            parts.append(_table(["address", "function", "executions"], rows))
        per_opcode = dict(profile.get("per_opcode") or {})
        if per_opcode:
            parts.append("<h2>Per-opcode executions</h2>")
            top = max(per_opcode.values())
            rows = [
                [f"<code>{html.escape(name)}</code>",
                 f"{_bar(count / top if top else 0)}{count}"]
                for name, count in sorted(per_opcode.items(),
                                          key=lambda kv: (-kv[1], kv[0]))
            ]
            parts.append(_table(["opcode", "executions"], rows))

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
