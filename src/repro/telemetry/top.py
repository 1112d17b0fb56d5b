"""``repro top`` — a live terminal dashboard over the fuzzing service.

One screenful, refreshed in place, answering the operator's first three
questions: *is the service healthy*, *is the queue draining*, and *what
is every worker doing right now*.  Two targets share the renderer:

* **Service URL** (``repro top http://127.0.0.1:8642``) — samples the
  HTTP API's ``/healthz``, ``/v1/queue``, ``/v1/fleet`` and
  ``/v1/campaigns`` endpoints (stdlib ``urllib`` only, same as ``repro
  submit``) of ``repro serve`` or of a campaign run with ``--serve``.
* **Run directory** (``repro top runs/<id>``) — samples a
  :class:`~repro.telemetry.runs.RunDirectory` manifest plus its live
  counters, for campaigns recorded by any scheduler in any process.

Sampling and rendering are separate, pure-ish steps (``sample`` →
``render_frame``) so tests drive them without a terminal or a ticking
clock; ``run_top`` owns the loop, the ANSI home-and-clear escape, and
the ``--once`` mode CI uses to assert one frame renders against a live
server.  Throughput comes from counter deltas between consecutive
samples, so the first frame shows totals only.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

#: Clear the terminal and home the cursor (plain ANSI; no curses dep).
ANSI_CLEAR = "\x1b[H\x1b[2J"


class TopError(RuntimeError):
    """The target cannot be sampled (unreachable URL, not a run dir)."""


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _fetch_json(url: str, timeout: float) -> Dict[str, object]:
    request = urllib.request.Request(
        url, headers={"Accept": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        # Unready (/readyz 503) and error replies still carry JSON bodies.
        try:
            return json.loads(error.read().decode("utf-8"))
        except ValueError:
            raise TopError(f"HTTP {error.code} from {url}")
    except urllib.error.URLError as error:
        raise TopError(f"cannot reach {url}: {error.reason}")
    except (ValueError, OSError) as error:
        raise TopError(f"bad response from {url}: {error}")


def sample_service(base_url: str, timeout: float = 5.0) -> Dict[str, object]:
    """One observation of a live service via its HTTP API."""
    base = base_url.rstrip("/")
    return {
        "kind": "service",
        "target": base,
        "sampled_at": time.time(),
        "health": _fetch_json(base + "/healthz", timeout),
        "queue": _fetch_json(base + "/v1/queue", timeout),
        "fleet": _fetch_json(base + "/v1/fleet", timeout),
        "campaigns": _fetch_json(
            base + "/v1/campaigns", timeout).get("campaigns", []),
    }


def sample_run_dir(path: str) -> Dict[str, object]:
    """One observation of a recorded run directory."""
    from repro.telemetry.runs import RunDirectory, RunSchemaError

    run = RunDirectory(path)
    try:
        manifest = run.manifest()
    except (OSError, RunSchemaError, ValueError) as error:
        raise TopError(f"{path} is not a run directory: {error}")
    return {
        "kind": "run_dir",
        "target": path,
        "sampled_at": time.time(),
        "manifest": manifest,
        "counts": run.live_counts(),
    }


def sample(target: str, timeout: float = 5.0) -> Dict[str, object]:
    """Dispatch on target shape: URL → service API, path → run dir."""
    if target.startswith(("http://", "https://")):
        return sample_service(target, timeout=timeout)
    return sample_run_dir(target)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _num(record: Dict[str, object], key: str, default: float = 0) -> float:
    value = record.get(key, default)
    return float(value) if isinstance(value, (int, float)) else default


def _rate(current: Dict[str, object], previous: Optional[Dict[str, object]],
          path: List[str], key: str) -> Optional[float]:
    """Per-second delta of one nested numeric field between samples."""
    if previous is None:
        return None
    dt = _num(current, "sampled_at") - _num(previous, "sampled_at")
    if dt <= 0:
        return None

    def _dig(sample_record: Dict[str, object]) -> float:
        node: object = sample_record
        for part in path:
            if not isinstance(node, dict):
                return 0.0
            node = node.get(part, {})
        return _num(node, key) if isinstance(node, dict) else 0.0

    return max(0.0, (_dig(current) - _dig(previous)) / dt)


def _fmt_rate(rate: Optional[float], unit: str) -> str:
    return f"{rate:.1f} {unit}/s" if rate is not None else f"- {unit}/s"


def _fmt_age(seconds: object) -> str:
    if not isinstance(seconds, (int, float)):
        return "-"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(header.ljust(widths[index])
                       for index, header in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index])
                               for index, cell in enumerate(row)).rstrip())
    return lines


def _render_service(current: Dict[str, object],
                    previous: Optional[Dict[str, object]]) -> List[str]:
    health = current.get("health") or {}
    queue = current.get("queue") or {}
    fleet = current.get("fleet") or {}
    counts = fleet.get("counts") or queue.get("fleet") or {}
    lines = [
        f"repro top — {current.get('target')}   "
        f"{health.get('status', '?')} v{health.get('version', '?')}   "
        f"up {_fmt_age(health.get('uptime_s'))}"
        + ("" if health.get("observe", True) else "   [observe off]"),
        f"queue: {int(_num(queue, 'pending'))} pending / "
        f"{int(_num(queue, 'leased'))} leased / "
        f"{int(_num(queue, 'done'))} done / "
        f"{int(_num(queue, 'failed'))} failed   "
        f"throughput {_fmt_rate(_rate(current, previous, ['queue'], 'done'), 'jobs')}",
        f"fleet: {int(_num(counts, 'workers'))} workers, "
        f"{int(_num(counts, 'alive'))} alive, "
        f"{int(_num(counts, 'busy'))} busy",
        "",
    ]
    workers = fleet.get("workers") or []
    rows = []
    for worker in workers:
        if not isinstance(worker, dict):
            continue
        current_job = worker.get("current_job")
        job = "-"
        if isinstance(current_job, dict):
            job = (f"{current_job.get('campaign_id', '?')} "
                   f"#{str(current_job.get('fingerprint', ''))[:8]} "
                   f"(attempt {current_job.get('attempt', '?')})")
        utilization = worker.get("utilization")
        rows.append([
            str(worker.get("name", "?")),
            "busy" if worker.get("busy") else (
                "idle" if worker.get("alive") else "dead"),
            str(int(_num(worker, "completed"))),
            (f"{float(utilization) * 100:.0f}%"
             if isinstance(utilization, (int, float)) else "-"),
            _fmt_age(worker.get("heartbeat_age_s")),
            job,
        ])
    if rows:
        lines.extend(_table(
            ["WORKER", "STATE", "JOBS", "UTIL", "HB AGE", "CURRENT"], rows))
        lines.append("")
    campaign_rows = []
    for record in current.get("campaigns") or []:
        if not isinstance(record, dict):
            continue
        gadgets = "-"
        summary = record.get("summary")
        if isinstance(summary, dict):
            gadgets = str(sum(int(group.get("unique_gadgets", 0))
                              for group in summary.get("groups", [])))
        campaign_rows.append([
            str(record.get("campaign_id", "?")),
            str(record.get("status", "?")),
            f"{record.get('rounds_completed', 0)}/{record.get('rounds', '?')}",
            f"{record.get('jobs_done', 0)}/{record.get('jobs_total', '?')}",
            gadgets,
        ])
    if campaign_rows:
        lines.extend(_table(
            ["CAMPAIGN", "STATUS", "ROUNDS", "JOBS", "GADGETS"],
            campaign_rows))
    else:
        lines.append("no campaigns submitted")
    return lines


#: run-dir counters worth a dashboard row, in display order.
_RUN_COUNTS = (
    "campaign.jobs_done",
    "campaign.rounds_completed",
    "campaign.reports_unique",
    "engine.executions",
    "engine.instructions",
    "fuzz.executions",
)


def _render_run_dir(current: Dict[str, object],
                    previous: Optional[Dict[str, object]]) -> List[str]:
    manifest = current.get("manifest") or {}
    counts = current.get("counts") or {}
    lines = [
        f"repro top — run {manifest.get('run_id', '?')} "
        f"[{manifest.get('status', '?')}]   {current.get('target')}",
        f"command: {manifest.get('command', '?')}   "
        f"created {manifest.get('created_at', '?')}",
        f"throughput "
        f"{_fmt_rate(_rate(current, previous, ['counts'], 'engine.executions'), 'execs')}",
        "",
    ]
    rows = [[name, str(counts[name])]
            for name in _RUN_COUNTS if name in counts]
    others = sorted(name for name in counts
                    if name not in _RUN_COUNTS
                    and name.startswith(("campaign.", "service.")))
    rows.extend([name, str(counts[name])] for name in others[:12])
    if rows:
        lines.extend(_table(["COUNTER", "VALUE"], rows))
    else:
        lines.append("no metrics snapshots yet")
    return lines


def render_frame(current: Dict[str, object],
                 previous: Optional[Dict[str, object]] = None) -> str:
    """One dashboard frame (no trailing newline, no ANSI escapes)."""
    if current.get("kind") == "service":
        lines = _render_service(current, previous)
    else:
        lines = _render_run_dir(current, previous)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def run_top(target: str, interval: float = 2.0, once: bool = False,
            stream=None, timeout: float = 5.0) -> int:
    """The ``repro top`` command body; returns a process exit code."""
    out = stream if stream is not None else sys.stdout
    previous: Optional[Dict[str, object]] = None
    try:
        while True:
            current = sample(target, timeout=timeout)
            frame = render_frame(current, previous)
            if once:
                out.write(frame + "\n")
                return 0
            out.write(ANSI_CLEAR + frame + "\n")
            out.flush()
            previous = current
            time.sleep(max(0.1, interval))
    except TopError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
