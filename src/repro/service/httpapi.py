"""The service's HTTP/JSON API: submit, watch and cancel campaigns.

A deliberately thin veneer over :class:`~repro.service.core.FuzzService`
on the stdlib ``ThreadingHTTPServer`` (a daemon thread; zero
dependencies).  It is the repository's only HTTP server: ``repro serve``
runs it over a long-lived service, and a campaign run with ``--serve``
(``Pipeline.telemetry(serve=...)``) binds it over the campaign's
ephemeral service for the campaign's duration.  Routes::

    GET  /                          help text
    GET  /v1/campaigns              every campaign's status record
    POST /v1/campaigns              submit (202 + {"campaign_id": ...})
    GET  /v1/campaigns/<id>         one status record
    GET  /v1/campaigns/<id>/reports deduplicated per-group gadget reports
    POST /v1/campaigns/<id>/cancel  request cancellation
    GET  /v1/queue                  queue-depth and fleet counters
    GET  /v1/fleet                  per-worker status (heartbeat, job)
    GET  /metrics                   Prometheus exposition (service.*,
                                    plus campaign.*/engine.* when served
                                    by a campaign)
    GET  /healthz                   liveness (always 200 while serving)
    GET  /readyz                    readiness (503 until workers run)

The submit body is a campaign-spec mapping (``CampaignSpec.to_dict``
shape) either bare or wrapped as ``{"spec": {...}}``; extra top-level
keys ``resume`` (bool) are honoured.  Errors come back as JSON
``{"error": ...}`` with 400 (bad request body or headers), 404 (unknown
campaign or route), 413 (body over :data:`MAX_BODY_BYTES`) or 500.

Trust model: there is no authentication.  Any client that reaches the
port can submit and cancel campaigns — on a served campaign's port too,
where a submitted campaign runs on the ephemeral fleet until the served
campaign ends.  Both entry points bind to 127.0.0.1 unless given
another host.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro._version import __version__
from repro.campaign.spec import CampaignSpec
from repro.service.core import FuzzService, UnknownCampaignError
from repro.telemetry.export import PROMETHEUS_CONTENT_TYPE, render_prometheus

#: Hard cap on request bodies: a campaign spec is a few KB, so anything
#: beyond this is either a mistake or an attempt to exhaust memory.
MAX_BODY_BYTES = 1 << 20

_HELP = """repro fuzzing service
endpoints:
  GET  /v1/campaigns
  POST /v1/campaigns              (body: campaign spec JSON)
  GET  /v1/campaigns/<id>
  GET  /v1/campaigns/<id>/reports
  POST /v1/campaigns/<id>/cancel
  GET  /v1/queue
  GET  /v1/fleet
  GET  /metrics
  GET  /healthz
  GET  /readyz
"""


class _ApiError(Exception):
    """An error with an HTTP status code (rendered as JSON)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _parse_spec(body: Dict[str, object]) -> Tuple[CampaignSpec, bool]:
    """The submit body → (spec, resume)."""
    if not isinstance(body, dict):
        raise _ApiError(400, "request body must be a JSON object")
    resume = bool(body.get("resume", False))
    record = body.get("spec", body)
    if not isinstance(record, dict) or "targets" not in record:
        raise _ApiError(
            400, "body must be a campaign spec mapping with 'targets' "
                 "(optionally wrapped as {\"spec\": {...}})")
    try:
        spec = CampaignSpec.from_dict(record)
        # Resolve every plugin name now: an unknown target or tool should
        # be a 400 at submit time, not a failed campaign minutes later.
        from repro.targets import get_target
        for target in spec.targets:
            get_target(target)
        spec.groups()
    except (KeyError, TypeError, ValueError) as error:
        raise _ApiError(400, f"invalid campaign spec: {error}")
    return spec, resume


class _Handler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` API; silent request logging."""

    server_version = "repro-service/" + __version__

    @property
    def service(self) -> FuzzService:
        return self.server.service  # type: ignore[attr-defined]

    # -- verbs ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("POST")

    def _dispatch(self, verb: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        log = self.service.log
        try:
            self._route(verb, path)
            log.debug("http_request", logger="service.http", verb=verb,
                      path=path)
        except _ApiError as error:
            log.warning("http_client_error", logger="service.http",
                        verb=verb, path=path, code=error.code,
                        error=str(error))
            self._reply_json(error.code, {"error": str(error)})
        except UnknownCampaignError as error:
            log.warning("http_client_error", logger="service.http",
                        verb=verb, path=path, code=404, error=str(error))
            self._reply_json(404, {"error": str(error)})
        except Exception as error:  # never kill the serving thread
            log.error("http_server_error", logger="service.http", verb=verb,
                      path=path, error=f"{type(error).__name__}: {error}")
            try:
                self._reply_json(500, {"error": f"{type(error).__name__}: "
                                                f"{error}"})
            except OSError:
                pass

    def _route(self, verb: str, path: str) -> None:
        if path == "/" and verb == "GET":
            self._reply(200, "text/plain; charset=utf-8",
                        _HELP.encode("utf-8"))
            return
        if path == "/metrics" and verb == "GET":
            body = render_prometheus(self.service.metrics_view())
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body.encode("utf-8"))
            return
        if path == "/healthz" and verb == "GET":
            self._reply_json(200, self.service.health())
            return
        if path == "/readyz" and verb == "GET":
            readiness = self.service.readiness()
            self._reply_json(200 if readiness["ready"] else 503, readiness)
            return
        if path == "/v1/fleet" and verb == "GET":
            self._reply_json(200, self.service.fleet_status())
            return
        if path == "/v1/queue" and verb == "GET":
            record: Dict[str, object] = dict(self.service.queue.stats())
            record["fleet"] = self.service.fleet.counts()
            self._reply_json(200, record)
            return
        if path == "/v1/campaigns":
            if verb == "GET":
                self._reply_json(200, {"campaigns": self.service.statuses()})
            else:
                spec, resume = _parse_spec(self._read_body())
                campaign_id = self.service.submit(spec, resume=resume)
                self._reply_json(202, {"campaign_id": campaign_id,
                                       "status": "queued"})
            return
        parts = path.split("/")
        # /v1/campaigns/<id>[/reports|/cancel]
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "campaigns":
            campaign_id = parts[3]
            tail = parts[4] if len(parts) > 4 else ""
            if tail == "" and verb == "GET":
                self._reply_json(200, self.service.status(campaign_id))
                return
            if tail == "reports" and verb == "GET":
                self._reply_json(200, self.service.reports(campaign_id))
                return
            if tail == "cancel" and verb == "POST":
                self._reply_json(200, self.service.cancel(campaign_id))
                return
        raise _ApiError(404, f"no route {verb} {path}")

    # -- plumbing ------------------------------------------------------------
    def _read_body(self) -> Dict[str, object]:
        """The request body as parsed JSON, or an :class:`_ApiError`.

        Every malformed-input path — a junk or negative Content-Length,
        a body over the cap, bytes that aren't UTF-8 JSON, JSON that
        isn't an object — maps to a structured 400/413 JSON envelope
        instead of leaking a raw 500 out of the parsing internals.
        """
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length or 0)
        except (TypeError, ValueError):
            raise _ApiError(400,
                            f"invalid Content-Length header: {raw_length!r}")
        if length < 0:
            raise _ApiError(400,
                            f"invalid Content-Length header: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            # Drain the body (chunked, bounded) so a well-behaved client
            # finishes its upload and reads the 413 instead of dying on a
            # broken pipe; past the drain cap we just close the socket.
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            raise _ApiError(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _ApiError(400, "empty request body")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise _ApiError(400, f"request body is not JSON: {error}")
        if not isinstance(body, dict):
            raise _ApiError(
                400, "request body must be a JSON object, not "
                     f"{type(body).__name__}")
        return body

    def _reply_json(self, code: int, record: Dict[str, object]) -> None:
        body = json.dumps(record, indent=1, sort_keys=True).encode("utf-8")
        self._reply(code, "application/json", body)

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


class ServiceApiServer:
    """One HTTP front end over one :class:`FuzzService`.

    Binding ``port=0`` picks a free port — read it back from
    :attr:`port`.  ``start`` serves on a daemon thread;
    ``serve_forever`` serves on the calling thread (``repro serve``).
    """

    def __init__(self, service: FuzzService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = service  # type: ignore[attr-defined]
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

    def start(self) -> "ServiceApiServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-service-api", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        try:
            self._server.serve_forever(poll_interval=poll_interval)
        except KeyboardInterrupt:
            pass
        finally:
            self._server.server_close()


def serve_api(service: FuzzService, host: str = "127.0.0.1",
              port: int = 0) -> ServiceApiServer:
    """Start (and return) a background API server over ``service``."""
    return ServiceApiServer(service, host=host, port=port).start()
