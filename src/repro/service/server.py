"""The ``repro serve`` HTTP surface over :class:`ExperimentService`.

Pure stdlib (:mod:`http.server`), because the experiment service must run
anywhere the simulator runs — CI containers, laptops, air-gapped repro
machines — with zero extra dependencies.  Routes:

===========================================  =====================================
``GET  /healthz``                            liveness + store stats summary
``POST /experiments``                        submit a campaign (JSON body) → 202
``GET  /experiments``                        all jobs, oldest first
``GET  /experiments/<id>``                   one job's status snapshot
``GET  /experiments/<id>?watch=1``           NDJSON stream of snapshots until terminal
``GET  /experiments/<id>/result``            rows + summary (409 until completed)
``GET  /store/stats``                        attached store's :meth:`stats` (404 if none)
===========================================  =====================================

Error contract: every non-2xx body is ``{"error": "..."}``.  Malformed
payloads and ``Content-Length`` headers are 400
(:class:`~repro.service.jobs.JobError`), unknown job ids 404, results of
unfinished jobs 409, and a body declared larger than
:data:`MAX_BODY_BYTES` is 413 — answered without reading it.

The watch stream is close-delimited NDJSON — one JSON snapshot per line,
connection closed after the terminal snapshot — which works over plain
HTTP/1.0 clients (``urllib``) with no chunked-encoding machinery.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .jobs import ExperimentService, JobError

__all__ = ["MAX_BODY_BYTES", "ServiceServer", "make_server", "serve_forever"]

#: Largest POST body read, in bytes; a submission is a small JSON object.
MAX_BODY_BYTES = 1 << 20


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server that owns an :class:`ExperimentService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ExperimentService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    """Request dispatch; all state lives on ``self.server.service``."""

    server: ServiceServer  # narrowed from BaseHTTPRequestHandler
    protocol_version = "HTTP/1.0"  # close-delimited bodies; streams just work

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # tests and CI want machine-parseable stdout, not access logs

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        service = self.server.service
        try:
            if parts == ["healthz"]:
                store = service.store
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "jobs": len(service.jobs()),
                        "store": store.stats().to_dict() if store is not None else None,
                    },
                )
            elif parts == ["experiments"]:
                self._send_json(200, {"jobs": [job.snapshot() for job in service.jobs()]})
            elif len(parts) == 2 and parts[0] == "experiments":
                if query.get("watch", ["0"])[0] in ("1", "true", "yes"):
                    self._watch(parts[1])
                else:
                    self._send_json(200, service.get(parts[1]).snapshot())
            elif len(parts) == 3 and parts[:1] == ["experiments"] and parts[2] == "result":
                job = service.get(parts[1])
                if job.state == "failed":
                    self._error(409, f"job {job.id} failed: {job.error}")
                elif not job.terminal:
                    self._error(409, f"job {job.id} is {job.state}, not completed")
                else:
                    self._send_json(200, job.result_payload())
            elif parts == ["store", "stats"]:
                if service.store is None:
                    self._error(404, "no result store attached (start with --store)")
                else:
                    self._send_json(200, service.store.stats().to_dict())
            else:
                self._error(404, f"no such route: GET {url.path}")
        except KeyError:
            self._error(404, f"unknown job id {parts[1]!r}")
        except BrokenPipeError:  # client hung up mid-stream; nothing to do
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts != ["experiments"]:
            self._error(404, f"no such route: POST {url.path}")
            return
        try:
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                raise JobError(
                    f"Content-Length must be a non-negative integer, got {header!r}"
                )
            if length > MAX_BODY_BYTES:
                self._error(
                    413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
                return
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as exc:
                raise JobError(f"body is not valid JSON: {exc}") from None
            job, created = self.server.service.submit(payload)
        except JobError as exc:
            self._error(400, str(exc))
            return
        snapshot = job.snapshot()
        snapshot["created"] = created
        self._send_json(202 if created else 200, snapshot)

    # ------------------------------------------------------------------

    def _watch(self, job_id: str) -> None:
        """Stream status snapshots as NDJSON until the job is terminal."""
        job = self.server.service.get(job_id)  # KeyError → 404 in do_GET
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for snapshot in self.server.service.watch(job.id):
            self.wfile.write((json.dumps(snapshot, default=str) + "\n").encode("utf-8"))
            self.wfile.flush()


def make_server(
    host: str, port: int, service: ExperimentService
) -> ServiceServer:
    """Bind a :class:`ServiceServer` (``port=0`` picks a free port — tests)."""
    return ServiceServer((host, port), service)


def serve_forever(
    server: ServiceServer, *, ready_line: bool = True, in_thread: bool = False
) -> Optional[threading.Thread]:
    """Run the server loop, announcing readiness as a machine-readable line.

    ``SERVE_READY {"host": ..., "port": ...}`` on stdout is the contract CI
    polls for before submitting.  With ``in_thread=True`` the loop runs on
    a daemon thread and the thread is returned (tests).
    """
    host, port = server.server_address[0], server.server_address[1]
    if ready_line:
        print(f"SERVE_READY {json.dumps({'host': host, 'port': port})}", flush=True)
    if in_thread:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return thread
    server.serve_forever()
    return None
