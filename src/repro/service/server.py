"""HTTP front end for the lifting service (stdlib only).

A thin JSON layer over :class:`repro.service.api.LiftingService`, built on
``http.server.ThreadingHTTPServer`` so the repository stays free of web
framework dependencies.  Endpoints:

========  ==================  =============================================
Method    Path                Meaning
========  ==================  =============================================
POST      ``/submit``         Body: a :class:`LiftRequest` payload.
                              Returns ``{"job_id", "state", "cached"}``.
POST      ``/batch``          Body: ``{"requests": [payload, ...]}``.
                              Returns ``{"jobs": [{"job_id", ...}, ...]}``.
GET       ``/status/<id>``    Job status snapshot (404 for unknown ids).
GET       ``/result/<id>``    Finished job incl. the full report; 409 while
                              the job is still queued/running.  Accepts
                              ``?wait=<seconds>`` to block for completion.
GET       ``/stats``          Store + scheduler counters.
GET       ``/healthz``        Liveness probe (+ uptime/git_sha/version).
GET       ``/metrics``        Prometheus text exposition of the service's
                              metrics registry (latency histograms incl.).
========  ==================  =============================================

Responses are JSON (``/metrics`` is ``text/plain``); errors are
``{"error": "..."}`` with a 4xx status.
The handler threads only touch the service object, which is thread-safe,
so the server can take concurrent submissions from many clients.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .api import (
    LiftRequest,
    LiftingService,
    ServiceError,
    ServiceOverloadedError,
    method_name,
)

#: The pre-registry request shape, kept working for old clients.  A payload
#: that selects its method through these fields gets a ``"deprecated"``
#: advisory in the submit response naming the equivalent registry method.
_LEGACY_TRIPLE_FIELDS = ("search", "grammar", "probabilities")


def _legacy_deprecation(
    payload: Dict[str, object], request: LiftRequest
) -> Optional[Dict[str, object]]:
    """The ``"deprecated"`` advisory for a legacy-triple submission.

    Detection reads the *raw payload*: the triple fields have defaults on
    :class:`LiftRequest`, so only keys the client actually sent count.  A
    payload carrying an explicit ``"method"`` is modern regardless of any
    stray triple fields (``method`` wins inside the service too).
    """
    if request.method is not None:
        return None
    fields = [field for field in _LEGACY_TRIPLE_FIELDS if field in payload]
    if not fields:
        return None
    return {
        "fields": fields,
        "method": method_name(request),
        "note": (
            "the search/grammar/probabilities triple is deprecated; "
            "pass the registry \"method\" string instead"
        ),
    }

#: Default service port (unassigned by IANA; "TACO" on a phone keypad is 8226,
#: which is taken by some SNMP agents — 8642 is simply memorable and free).
DEFAULT_PORT = 8642

#: Largest accepted request body; a corpus kernel is a few KB, so 4 MiB is
#: generous headroom for batch submissions while bounding memory per request.
MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    server_version = "ReproLiftingService/1.0"

    @property
    def service(self) -> LiftingService:
        return self.server.service  # type: ignore[attr-defined]

    # Silence per-request stderr logging (the service has /stats instead).
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send_json(self, payload: Dict[str, object], status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        message: str,
        status: int,
        extra: Optional[Dict[str, object]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload: Dict[str, object] = {"error": message}
        if extra:
            payload.update(extra)
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, body: str, status: int = 200,
                   content_type: str = "text/plain; version=0.0.4; charset=utf-8"
                   ) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _send_overloaded(self, error: ServiceOverloadedError) -> None:
        """429 with the Retry-After the drain-rate estimate implies."""
        self._send_error_json(
            str(error),
            429,
            extra={"retry_after": error.retry_after, "queue_depth": error.depth},
            headers={"Retry-After": str(error.retry_after)},
        )

    def _read_json_body(self) -> Optional[Dict[str, object]]:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            self._send_error_json("invalid Content-Length header", 400)
            return None
        if length <= 0:
            self._send_error_json("request body required", 400)
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json("request body too large", 413)
            return None
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_error_json(f"invalid JSON body: {error}", 400)
            return None
        if not isinstance(data, dict):
            self._send_error_json("JSON body must be an object", 400)
            return None
        return data

    def _split(self) -> Tuple[str, ...]:
        parsed = urlparse(self.path)
        return tuple(part for part in parsed.path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        parsed = urlparse(self.path)
        return {k: v[-1] for k, v in parse_qs(parsed.query).items()}

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parts = self._split()
        if parts == ("healthz",):
            self._send_json(self.service.health())
        elif parts == ("stats",):
            self._send_json(self.service.stats())
        elif parts == ("metrics",):
            self._send_text(self.service.metrics_text())
        elif len(parts) == 2 and parts[0] == "status":
            status = self.service.status(parts[1])
            if status is None:
                self._send_error_json(f"unknown job {parts[1]!r}", 404)
            else:
                self._send_json(status)
        elif len(parts) == 2 and parts[0] == "result":
            wait: Optional[float] = None
            raw_wait = self._query().get("wait")
            if raw_wait is not None:
                try:
                    wait = max(0.0, min(float(raw_wait), 600.0))
                except ValueError:
                    self._send_error_json(f"invalid wait value {raw_wait!r}", 400)
                    return
            status = self.service.status(parts[1])
            if status is None:
                self._send_error_json(f"unknown job {parts[1]!r}", 404)
                return
            result = self.service.result(parts[1], wait=wait)
            if result is None:
                self._send_error_json(f"job {parts[1]!r} is not finished", 409)
            else:
                self._send_json(result)
        else:
            self._send_error_json(f"no such endpoint: GET {self.path}", 404)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        parts = self._split()
        if parts == ("submit",):
            data = self._read_json_body()
            if data is None:
                return
            try:
                request = LiftRequest.from_payload(data)
                job = self.service.submit(request)
            except ServiceError as error:
                self._send_error_json(str(error), 400)
                return
            except ServiceOverloadedError as error:
                self._send_overloaded(error)
                return
            body = {"job_id": job.id, "state": job.state.value, "cached": job.cached}
            deprecation = _legacy_deprecation(data, request)
            if deprecation is not None:
                body["deprecated"] = deprecation
            self._send_json(body, status=202)
        elif parts == ("batch",):
            data = self._read_json_body()
            if data is None:
                return
            payloads = data.get("requests")
            if not isinstance(payloads, list) or not payloads:
                self._send_error_json("'requests' must be a non-empty list", 400)
                return
            try:
                requests = [LiftRequest.from_payload(p) for p in payloads]
            except ServiceError as error:
                self._send_error_json(str(error), 400)
                return
            # Submit one by one so admission control can shed the tail of
            # an overlong batch: accepted jobs are reported either way.
            jobs = []
            overload: Optional[ServiceOverloadedError] = None
            for request in requests:
                try:
                    jobs.append(self.service.submit(request))
                except ServiceOverloadedError as error:
                    overload = error
                    break
            body: Dict[str, object] = {
                "jobs": [
                    {"job_id": j.id, "state": j.state.value, "cached": j.cached}
                    for j in jobs
                ]
            }
            if overload is not None:
                body["error"] = str(overload)
                body["retry_after"] = overload.retry_after
                body["rejected"] = len(requests) - len(jobs)
                payload_bytes = json.dumps(body).encode("utf-8")
                self.send_response(429)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload_bytes)))
                self.send_header("Retry-After", str(overload.retry_after))
                self.end_headers()
                self.wfile.write(payload_bytes)
                return
            self._send_json(body, status=202)
        else:
            self._send_error_json(f"no such endpoint: POST {self.path}", 404)


class LiftingServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`LiftingService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: LiftingService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = False


def make_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    service: Optional[LiftingService] = None,
    **service_kwargs: object,
) -> LiftingServer:
    """Create (but do not start) a lifting server; port 0 picks a free port."""
    service = service or LiftingService(**service_kwargs)  # type: ignore[arg-type]
    return LiftingServer((host, port), service)


def serve_in_background(server: LiftingServer) -> threading.Thread:
    """Run *server* on a daemon thread (used by tests and ``repro submit``)."""
    thread = threading.Thread(
        target=server.serve_forever, name="lifting-server", daemon=True
    )
    thread.start()
    return thread
