"""The ``repro serve`` HTTP surface over :class:`ExperimentService`.

Pure stdlib (:mod:`asyncio`), because the experiment service must run
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

One event loop on one thread serves every connection; no thread is
started per connection.  The loop reads the request line, the headers and
a ``Content-Length`` body itself and answers each route inline, POST
validation included (an inline grid is capped by
:data:`~repro.service.jobs.MAX_INLINE_SPECS`, so one parse stays short).
Jobs run on the service's job pool; a watch stream waits for its job
through a waker that the job's thread calls
(:meth:`~repro.service.jobs.Job.add_waker`), never on a blocked thread.

Error contract: every non-2xx body is ``{"error": "..."}``.  Malformed
request lines, header lines, payloads and ``Content-Length`` headers are
400 (:class:`~repro.service.jobs.JobError` for payloads), unknown routes
and job ids 404, methods other than GET and POST 405, a request head not
complete within :data:`REQUEST_HEAD_SECONDS` 408, results of
unfinished jobs 409, a body declared larger than :data:`MAX_BODY_BYTES`
413 — answered before it is read — as is an inline grid over the cap, a
request or header line over :data:`MAX_LINE_BYTES` 414 / 431, and a
server fault 500.

The watch stream is close-delimited NDJSON — one JSON snapshot per line,
connection closed after the terminal snapshot — which works over plain
HTTP/1.0 clients (``urllib``) with no chunked-encoding machinery.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import traceback
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple
from urllib.parse import SplitResult, parse_qs, urlsplit

from .jobs import ExperimentService, Job, JobError, JobTooLarge

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_LINE_BYTES",
    "REQUEST_HEAD_SECONDS",
    "ServiceServer",
    "make_server",
    "serve_forever",
]

#: Largest POST body read, in bytes; a submission is a small JSON object.
MAX_BODY_BYTES = 1 << 20
#: Longest request or header line read, in bytes.
MAX_LINE_BYTES = 1 << 16
#: Most header lines read per request.
MAX_HEADERS = 100
#: How long a connection may take to send its request line and headers.
REQUEST_HEAD_SECONDS = 30.0
#: How long a connection refused before its request was read keeps
#: draining input, so that closing it does not reset the reply away.
LINGER_SECONDS = 1.0

_WATCH_HEAD = b"HTTP/1.0 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"


class HttpError(Exception):
    """Answer the request with ``status`` and ``{"error": message}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _response(status: int, payload: Any) -> bytes:
    body = json.dumps(payload, default=str).encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
        "Content-Type: application/json\r\n"
        + ("Allow: GET, POST\r\n" if status == 405 else "")
        + f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One CRLF/LF-terminated line (``b""`` at a clean EOF)."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise HttpError(400, f"{what} ended before its newline") from None
        return b""
    except asyncio.LimitOverrunError:
        raise HttpError(status, f"{what} longer than {MAX_LINE_BYTES} bytes") from None


async def _read_head(reader: asyncio.StreamReader) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """``(method, target, headers)``, or ``None`` when the client sent nothing."""
    line = await _read_line(reader, 414, "request line")
    if not line:
        return None
    words = line.decode("latin-1").split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line {line[:80]!r}")
    method, target, _ = words
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader, 431, "header line")
        if not line:
            raise HttpError(400, "request head ended before its blank line")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise HttpError(400, f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, f"more than {MAX_HEADERS} header lines")
    return method, target, headers


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, SplitResult, bytes]]:
    """``(method, url, body)``, or ``None`` when the client sent nothing.

    The head must arrive within :data:`REQUEST_HEAD_SECONDS` (408
    otherwise), so an idle client cannot hold its socket.
    """
    try:
        head = await asyncio.wait_for(_read_head(reader), REQUEST_HEAD_SECONDS)
    except asyncio.TimeoutError:
        raise HttpError(
            408, f"request head not received within {REQUEST_HEAD_SECONDS} s"
        ) from None
    if head is None:
        return None
    method, target, headers = head
    header = headers.get("content-length") or "0"
    try:
        length = int(header)
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, f"Content-Length must be a non-negative integer, got {header!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise HttpError(400, f"body ended after {len(exc.partial)} of {length} bytes") from None
    return method, urlsplit(target), body


def _resolve(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


async def _job_changed(job: Job, version: int, hangup: "asyncio.Future[bytes]") -> None:
    """Wait until ``job`` moves past ``version`` or the client hangs up."""
    loop = asyncio.get_running_loop()
    bumped = loop.create_future()

    def wake() -> None:  # runs on the job's thread
        try:
            loop.call_soon_threadsafe(_resolve, bumped)
        except RuntimeError:  # the loop is closed: the server shut down
            pass

    if job.add_waker(version, wake):
        try:
            await asyncio.wait((bumped, hangup), return_when=asyncio.FIRST_COMPLETED)
        finally:
            job.remove_waker(wake)


class ServiceServer:
    """An HTTP server on one asyncio event loop that owns an :class:`ExperimentService`.

    The listening socket is bound on construction, so a bad address fails
    at once and ``port=0`` is resolved in :attr:`server_address`.
    :meth:`serve_forever` runs the loop on the calling thread until
    :meth:`shutdown` is called from another.
    """

    def __init__(self, address: Tuple[str, int], service: ExperimentService) -> None:
        self.service = service
        self.socket = socket.create_server(address)
        self.server_address: Tuple[str, int] = self.socket.getsockname()[:2]
        self._lock = threading.Lock()
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional["asyncio.Future[None]"] = None
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Answer requests until :meth:`shutdown`; closes the socket on return."""
        try:
            asyncio.run(self._serve())
        finally:
            self.socket.close()
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        with self._lock:
            self._closing = True
            loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return  # not serving (yet): serve_forever will return at once
        try:
            loop.call_soon_threadsafe(_resolve, stop)
        except RuntimeError:  # the loop already closed
            pass
        self._stopped.wait()

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        stop = loop.create_future()
        with self._lock:
            if self._closing:
                return
            self._loop, self._stop = loop, stop
        server = await asyncio.start_server(
            self._connection, sock=self.socket, limit=MAX_LINE_BYTES
        )
        try:
            await stop
        finally:
            server.close()  # asyncio.run then cancels the open connections

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request, one response (or one watch stream), then close."""
        try:
            try:
                request = await _read_request(reader)
            except HttpError as exc:
                writer.write(_response(exc.status, {"error": str(exc)}))
                await self._linger(reader, writer)
                return
            if request is None:
                return
            try:
                status, payload = self._answer(*request)
            except HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - a fault answers 500, the loop lives on
                traceback.print_exc()
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            if isinstance(payload, Job):
                await self._watch(payload, reader, writer)
                return
            writer.write(_response(status, payload))
            await writer.drain()
        except ConnectionError:
            pass  # the client hung up; nothing to answer
        except asyncio.CancelledError:
            # asyncio.run cancels open connections at shutdown; ending the
            # task normally keeps asyncio (before 3.13) from logging it.
            pass
        finally:
            writer.close()

    @staticmethod
    async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Half-close, then discard input until EOF or :data:`LINGER_SECONDS`.

        Closing a socket with unread input resets the connection, which can
        discard the reply before the client reads it.
        """
        writer.write_eof()

        async def discard() -> None:
            while await reader.read(MAX_LINE_BYTES):
                pass

        try:
            await asyncio.wait_for(discard(), LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        try:
            return self.service.get(job_id)
        except KeyError:
            raise HttpError(404, f"unknown job id {job_id!r}") from None

    async def _watch(
        self, job: Job, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Stream :meth:`Job.changes` as NDJSON until the job is terminal."""
        writer.write(_WATCH_HEAD)
        # Any input after the request means the client hung up (or spoke
        # out of turn): either way the stream ends.
        hangup = asyncio.ensure_future(reader.read(1))
        try:
            last_version = -1
            for snap in job.changes():
                if snap is not None:
                    last_version = snap["version"]
                    writer.write((json.dumps(snap, default=str) + "\n").encode("utf-8"))
                    await writer.drain()
                    continue
                await _job_changed(job, last_version, hangup)
                if hangup.done():
                    return
        finally:
            if hangup.done() and not hangup.cancelled():
                hangup.exception()  # retrieved, so a reset is not logged
            hangup.cancel()

    def _answer(self, method: str, url: SplitResult, body: bytes) -> Tuple[int, Any]:
        """The status and JSON body of a route (a :class:`Job` to watch for ``?watch=1``)."""
        parts = [part for part in url.path.split("/") if part]
        service = self.service
        if method == "POST":
            if parts != ["experiments"]:
                raise HttpError(404, f"no such route: POST {url.path}")
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError) as exc:
                raise HttpError(400, f"body is not valid JSON: {exc}") from None
            try:
                job, created = service.submit(payload)
            except JobTooLarge as exc:
                raise HttpError(413, str(exc)) from None
            except JobError as exc:
                raise HttpError(400, str(exc)) from None
            snapshot = job.snapshot()
            snapshot["created"] = created
            return (202 if created else 200), snapshot
        if method != "GET":
            raise HttpError(405, f"method {method} not allowed; use GET or POST")
        if parts == ["healthz"]:
            store = service.store
            return 200, {
                "ok": True,
                "jobs": len(service.jobs()),
                "store": store.stats().to_dict() if store is not None else None,
            }
        if parts == ["experiments"]:
            return 200, {"jobs": [job.snapshot() for job in service.jobs()]}
        if len(parts) == 2 and parts[0] == "experiments":
            job = self._job(parts[1])
            if parse_qs(url.query).get("watch", ["0"])[0] in ("1", "true", "yes"):
                return 200, job
            return 200, job.snapshot()
        if len(parts) == 3 and parts[0] == "experiments" and parts[2] == "result":
            job = self._job(parts[1])
            if job.state == "failed":
                raise HttpError(409, f"job {job.id} failed: {job.error}")
            if not job.terminal:
                raise HttpError(409, f"job {job.id} is {job.state}, not completed")
            return 200, job.result_payload()
        if parts == ["store", "stats"]:
            if service.store is None:
                raise HttpError(404, "no result store attached (start with --store)")
            return 200, service.store.stats().to_dict()
        raise HttpError(404, f"no such route: GET {url.path}")


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
