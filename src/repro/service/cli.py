"""``repro serve`` / ``repro submit`` / ``repro status``.

The service's operator surface::

    repro serve --dir service/ --workers 4 --serve 8642
    repro submit --url http://127.0.0.1:8642 --targets gadgets \\
                 --spec-variants pht,btb --iterations 120 --wait
    repro status --url http://127.0.0.1:8642            # all campaigns
    repro status --url ... c0001-ab12cd34 --reports

``serve`` runs a :class:`~repro.service.core.FuzzService` plus its HTTP
API on the foreground thread until interrupted.  ``submit``/``status``
are plain :mod:`urllib` clients of that API — nothing here imports the
heavy campaign machinery, so the client commands work from any checkout
that can reach the server.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Sequence

from repro.plugins import DEFAULT_ENGINE

DEFAULT_PORT = 8642
DEFAULT_URL = f"http://127.0.0.1:{DEFAULT_PORT}"


def _parse_csv(text: str) -> tuple:
    return tuple(item.strip() for item in text.split(",") if item.strip())


# ---------------------------------------------------------------------------
# HTTP client plumbing (stdlib only)
# ---------------------------------------------------------------------------

def _request(url: str, payload: Optional[Dict[str, object]] = None,
             method: Optional[str] = None) -> Dict[str, object]:
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", "replace")
        try:
            detail = json.loads(body).get("error", body)
        except ValueError:
            detail = body.strip()
        raise RuntimeError(f"HTTP {error.code} from {url}: {detail}")
    except urllib.error.URLError as error:
        raise RuntimeError(f"cannot reach {url}: {error.reason}")


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------

def _serve_parser(sub) -> None:
    serve = sub.add_parser(
        "serve", help="run the fuzzing service (queue + workers + HTTP API)")
    serve.add_argument("--dir", dest="root", default=".repro-service",
                       metavar="PATH",
                       help="service root (queue/, runs/, state/; "
                            "default: .repro-service)")
    serve.add_argument("--workers", type=int, default=2,
                       help="workers pulling queued jobs, each running "
                            "them in its own process (default: 2)")
    serve.add_argument("--serve", dest="address", default=str(DEFAULT_PORT),
                       metavar="[HOST:]PORT",
                       help=f"HTTP bind address (default: {DEFAULT_PORT})")
    serve.add_argument("--visibility-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="lease duration; a worker silent this long "
                            "loses its job to someone else (default: 30)")
    serve.add_argument("--log-json", metavar="PATH", default=None,
                       help="append structured JSONL logs (trace-correlated "
                            "service events) to PATH ('-' for stderr)")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warning", "error"),
                       help="minimum structured-log severity "
                            "(default: info)")
    serve.add_argument("--no-observe", action="store_true",
                       help="disable the service observatory (no metrics, "
                            "no distributed job tracing)")


def _cmd_serve(args: argparse.Namespace) -> int:
    # Heavy imports live here so `repro submit/status` stay client-thin.
    from repro.service.core import FuzzService
    from repro.service.httpapi import ServiceApiServer
    from repro.telemetry.export import parse_address
    from repro.telemetry.logging import StructuredLogger

    try:
        host, port = parse_address(args.address, default_port=DEFAULT_PORT)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    log = None
    if args.log_json:
        sink = sys.stderr if args.log_json == "-" else args.log_json
        log = StructuredLogger(sink, level=args.log_level)
    service = FuzzService(args.root, workers=max(1, args.workers),
                          visibility_timeout=args.visibility_timeout,
                          observe=not args.no_observe, log=log)
    try:
        server = ServiceApiServer(service, host=host, port=port)
    except OSError as error:
        print(f"error: cannot serve on {host}:{port}: {error}",
              file=sys.stderr)
        if log is not None:
            log.close()
        return 2
    service.start()
    print(f"[repro] fuzzing service on {server.url} "
          f"({len(service.fleet.workers)} workers, root {service.root})",
          file=sys.stderr)
    service.log.info("service_started", logger="service.cli", url=server.url,
                     workers=len(service.fleet.workers), root=service.root,
                     observe=service.observe)
    try:
        server.serve_forever()
    finally:
        service.stop()
        service.log.info("service_stopped", logger="service.cli")
        if log is not None:
            log.close()
    return 0


# ---------------------------------------------------------------------------
# repro submit
# ---------------------------------------------------------------------------

def _submit_parser(sub) -> None:
    submit = sub.add_parser(
        "submit", help="submit a campaign to a running service")
    submit.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default: {DEFAULT_URL})")
    submit.add_argument("--spec", metavar="PATH",
                        help="JSON campaign-spec file "
                             "(CampaignSpec.to_dict shape); overrides the "
                             "matrix flags below")
    submit.add_argument("--targets", default="gadgets",
                        help="comma-separated targets (default: gadgets)")
    submit.add_argument("--tools", default="teapot",
                        help="comma-separated tools (default: teapot)")
    submit.add_argument("--variants", default="vanilla",
                        help="binary variants (default: vanilla)")
    submit.add_argument("--spec-variants", default="pht",
                        help="speculation variants (default: pht)")
    submit.add_argument("--iterations", type=int, default=200)
    submit.add_argument("--rounds", type=int, default=2)
    submit.add_argument("--shards", type=int, default=1)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--max-input-size", type=int, default=1024)
    submit.add_argument("--engine", default=DEFAULT_ENGINE)
    submit.add_argument("--job-timeout", type=float, default=0.0,
                        metavar="SECONDS", dest="job_timeout",
                        help="per-job wall-clock cap (0 = unlimited)")
    submit.add_argument("--job-retries", type=int, default=0,
                        dest="job_retries", metavar="N",
                        help="in-worker retries per job (default: 0)")
    submit.add_argument("--resume", action="store_true",
                        help="resume from the service-side checkpoint")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the campaign finishes")
    submit.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="poll interval with --wait (default: 0.5)")
    submit.add_argument("--json", action="store_true",
                        help="print the final status record as JSON")


def _spec_record(args: argparse.Namespace) -> Dict[str, object]:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if not isinstance(record, dict):
            raise RuntimeError(f"{args.spec} is not a JSON object")
        return record
    record: Dict[str, object] = {
        "targets": list(_parse_csv(args.targets)),
        "tools": list(_parse_csv(args.tools)),
        "variants": list(_parse_csv(args.variants)),
        "spec_variants": list(_parse_csv(args.spec_variants)),
        "iterations": args.iterations,
        "rounds": args.rounds,
        "shards": args.shards,
        "seed": args.seed,
        "max_input_size": args.max_input_size,
        "engine": args.engine,
    }
    if args.job_timeout > 0:
        record["job_timeout_s"] = args.job_timeout
    if args.job_retries > 0:
        record["job_max_attempts"] = 1 + args.job_retries
    return record


def _print_status(record: Dict[str, object], as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=1, sort_keys=True))
        return
    line = (f"campaign {record.get('campaign_id')}: "
            f"{record.get('status')} — "
            f"round {record.get('rounds_completed')}/{record.get('rounds')}, "
            f"jobs {record.get('jobs_done')}/{record.get('jobs_total')}")
    summary = record.get("summary")
    if isinstance(summary, dict):
        groups = summary.get("groups", [])
        gadgets = sum(int(g.get("unique_gadgets", 0)) for g in groups)
        executions = sum(int(g.get("executions", 0)) for g in groups)
        line += (f", {gadgets} unique gadgets "
                 f"over {executions} executions")
    if record.get("error"):
        line += f" ({record['error']})"
    print(line)


def _cmd_submit(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    payload: Dict[str, object] = {"spec": _spec_record(args)}
    if args.resume:
        payload["resume"] = True
    accepted = _request(base + "/v1/campaigns", payload=payload)
    campaign_id = accepted.get("campaign_id")
    if not args.wait:
        _print_status(_request(f"{base}/v1/campaigns/{campaign_id}"),
                      args.json)
        return 0
    while True:
        record = _request(f"{base}/v1/campaigns/{campaign_id}")
        if record.get("status") in ("completed", "failed", "cancelled"):
            _print_status(record, args.json)
            return 0 if record.get("status") == "completed" else 1
        time.sleep(args.poll)


# ---------------------------------------------------------------------------
# repro status
# ---------------------------------------------------------------------------

def _status_parser(sub) -> None:
    status = sub.add_parser(
        "status", help="query a running service's campaigns")
    status.add_argument("campaign_id", nargs="?", default=None,
                        help="one campaign (default: list all)")
    status.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default: {DEFAULT_URL})")
    status.add_argument("--reports", action="store_true",
                        help="fetch the deduplicated gadget reports too "
                             "(requires a campaign id)")
    status.add_argument("--json", action="store_true")


def _cmd_status(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    if args.campaign_id is None:
        if args.reports:
            print("error: --reports requires a campaign id",
                  file=sys.stderr)
            return 2
        listing = _request(base + "/v1/campaigns")
        campaigns = listing.get("campaigns", [])
        if args.json:
            print(json.dumps(listing, indent=1, sort_keys=True))
        elif not campaigns:
            print("no campaigns submitted")
        else:
            for record in campaigns:
                _print_status(record, as_json=False)
        return 0
    record = _request(f"{base}/v1/campaigns/{args.campaign_id}")
    if args.reports:
        record["reports"] = _request(
            f"{base}/v1/campaigns/{args.campaign_id}/reports")["groups"]
    if args.json:
        print(json.dumps(record, indent=1, sort_keys=True))
    else:
        _print_status(record, as_json=False)
        if args.reports:
            for group, reports in sorted(record["reports"].items()):
                print(f"  {group}: {len(reports)} unique site(s)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser(prog: str = "repro") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="fuzzing-as-a-service commands")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)
    _serve_parser(sub)
    _submit_parser(sub)
    _status_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None, prog: str = "repro") -> int:
    parser = build_parser(prog=prog)
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    handler = {"serve": _cmd_serve, "submit": _cmd_submit,
               "status": _cmd_status}[args.command]
    try:
        return handler(args)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
