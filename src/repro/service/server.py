"""The stdlib-asyncio HTTP daemon behind ``python -m repro serve``.

One process, one event loop, no dependencies beyond the standard
library: requests are parsed straight off :func:`asyncio.start_server`
streams (HTTP/1.1, one request per connection, ``Connection: close``).
Submitted jobs flow through the :class:`~repro.service.queue.JobQueue`
to a small pool of worker coroutines; the compute itself runs on a
thread pool so the event loop keeps serving while a job simulates.

Endpoints (all shapes defined in :mod:`repro.service.api`):

========  ==========================  =======================================
method    path                        body / response
========  ==========================  =======================================
GET       ``/v1/health``              liveness + server state
GET       ``/v1/stats``               ``ServerStats``
POST      ``/v1/jobs``                ``SubmitRequest`` -> ``SubmitReply``
GET       ``/v1/jobs/<id>``           ``JobStatus``
GET       ``/v1/jobs/<id>/result``    chunked ndjson event stream
POST      ``/v1/shutdown``            drain, then the ``RunReport``
========  ==========================  =======================================

The result stream is chunked transfer encoding, one JSON event per
line: ``status`` events while the job progresses, then the output in
``chunk`` events (16 KiB apiece, so a long experiment table streams
instead of buffering), then one ``end`` event carrying the result's log
— or one ``error`` event.  Clients reassemble the chunks; the bytes
equal the batch CLI's output exactly.

Graceful shutdown (``POST /v1/shutdown`` or SIGINT) closes admissions,
drains every admitted job to a terminal state, and reports the whole
service session as a :class:`~repro.runner.report.RunReport` (schema
``repro-run/2``) — the same artifact a batch engine run produces.  Each
job runs once: a typed :class:`~repro.service.api.ApiError` fails it
with its code, any other exception as ``internal-error``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..runner.report import (
    FAILED as RUN_FAILED,
    JobReport,
    OK as RUN_OK,
    RunReport,
    SKIPPED as RUN_SKIPPED,
)
from ..telemetry import get_registry
from . import api
from .api import ApiError, ErrorInfo, JobResult, JobStatus, ServerStats, SubmitReply
from .engine import ServiceEngine
from .queue import JobQueue

#: Result-stream chunk size, in characters of output per ``chunk`` event.
CHUNK_SIZE = 16 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class JobEntry:
    """Server-side lifecycle record of one admitted job."""

    __slots__ = (
        "job_id", "job", "arguments", "tenant", "priority", "state", "attempts",
        "seconds", "output", "log", "error",
    )

    def __init__(self, job_id: str, job: api.Job, arguments, tenant: str,
                 priority: int) -> None:
        self.job_id = job_id
        self.job = job
        self.arguments = arguments
        self.tenant = tenant
        self.priority = priority
        self.state = api.QUEUED
        self.attempts = 0
        self.seconds = 0.0
        self.output = ""
        self.log = ""
        self.error: Optional[ErrorInfo] = None

    @property
    def terminal(self) -> bool:
        return self.state in api.TERMINAL_STATES

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            kind=self.job.kind,
            tenant=self.tenant,
            state=self.state,
            priority=self.priority,
            attempts=self.attempts,
            seconds=self.seconds,
            error=self.error,
        )

    def result(self) -> JobResult:
        return JobResult(
            job_id=self.job_id,
            kind=self.job.kind,
            state=self.state,
            output=self.output,
            log=self.log,
            error=self.error,
        )

    def report(self) -> JobReport:
        """This job as one :class:`~repro.runner.report.RunReport` entry."""
        status = {api.DONE: RUN_OK, api.FAILED: RUN_FAILED}.get(self.state, RUN_SKIPPED)
        causes: Tuple[str, ...] = ()
        if self.error is not None:
            causes = (f"{self.error.code}: {self.error.message}",)
        return JobReport(
            job_id=self.job_id,
            kind=self.job.kind,
            label=f"{self.tenant}/{self.job.kind}",
            status=status,
            attempts=self.attempts,
            seconds=self.seconds,
            causes=causes,
        )


class ServiceServer:
    """The daemon: queue, workers, HTTP front end, drain logic.

    Args:
        engine: the shared-store executor (a default one is built when
            omitted).
        host / port: bind address; port 0 picks a free port, exposed as
            :attr:`port` once serving.
        workers: concurrent job slots (worker coroutines + threads).
        queue_depth / tenant_quota: admission limits
            (see :class:`~repro.service.queue.JobQueue`).
    """

    def __init__(
        self,
        engine: Optional[ServiceEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 64,
        tenant_quota: int = 8,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.engine = engine or ServiceEngine()
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_depth = queue_depth
        self.tenant_quota = tenant_quota
        self.state = "serving"
        self.ready = threading.Event()
        self.report: Optional[RunReport] = None
        self._entries: Dict[str, JobEntry] = {}
        self._order: List[str] = []
        self._sequence = 0
        self._queue: Optional[JobQueue] = None
        self._changed: Optional[asyncio.Condition] = None
        self._stopping: Optional[asyncio.Event] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------

    async def serve(self) -> RunReport:
        """Run until drained; returns the session's :class:`RunReport`."""
        self._loop = asyncio.get_running_loop()
        self._queue = JobQueue(self.queue_depth, self.tenant_quota)
        self._changed = asyncio.Condition()
        self._stopping = asyncio.Event()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        worker_tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(self.workers)
        ]
        self.ready.set()
        try:
            await self._stopping.wait()
            await asyncio.gather(*worker_tasks)
        finally:
            server.close()
            await server.wait_closed()
            self._pool.shutdown(wait=True)
            self.ready.clear()
        if self.report is None:
            self.report = self._build_report()
        return self.report

    def run_in_thread(self) -> threading.Thread:
        """Start :meth:`serve` on a daemon thread (tests, embedding)."""

        def runner() -> None:
            asyncio.run(self.serve())

        thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
        thread.start()
        if not self.ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return thread

    async def drain(self) -> RunReport:
        """Stop admissions, finish every admitted job, report the session."""
        assert self._queue is not None and self._changed is not None
        self.state = "draining"
        self._queue.close()
        async with self._changed:
            await self._changed.wait_for(
                lambda: all(e.terminal for e in self._entries.values())
            )
        report = self._build_report()
        self.report = report
        get_registry().counter("serve.drains").add(1)
        self._stopping.set()
        return report

    def _build_report(self) -> RunReport:
        report = RunReport()
        for job_id in self._order:
            report.jobs.append(self._entries[job_id].report())
        return report

    # -- job lifecycle -----------------------------------------------

    def _admit(self, request: api.SubmitRequest) -> SubmitReply:
        arguments = self.engine.admit(request.job)
        digest = api.job_digest(request.job)
        job_id = f"{request.job.kind}-{self._sequence:05d}-{digest[:8]}"
        entry = JobEntry(job_id, request.job, arguments, request.tenant, request.priority)
        position = self._queue.submit(request.tenant, request.priority, entry)
        self._sequence += 1
        self._entries[job_id] = entry
        self._order.append(job_id)
        return SubmitReply(job_id=job_id, state=entry.state, position=position)

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            entry = await self._queue.get()
            if entry is None:
                return
            await self._run_entry(entry)

    async def _run_entry(self, entry: JobEntry) -> None:
        started = time.perf_counter()
        await self._transition(entry, api.RUNNING)
        entry.attempts = 1
        try:
            entry.output, entry.log = await self._loop.run_in_executor(
                self._pool, self.engine.execute, entry.job, entry.arguments
            )
        except ApiError as error:
            entry.error = error.to_info()
        except Exception as error:  # noqa: BLE001 - boundary: fail the job, not the server
            entry.error = ErrorInfo(api.INTERNAL_ERROR, f"{type(error).__name__}: {error}")
        entry.seconds = time.perf_counter() - started
        self._queue.release(entry.tenant)
        await self._transition(
            entry, api.DONE if entry.error is None else api.FAILED
        )

    async def _transition(self, entry: JobEntry, state: str) -> None:
        entry.state = state
        async with self._changed:
            self._changed.notify_all()

    # -- HTTP front end ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except (ValueError, asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        get_registry().counter("serve.requests").add(1)
        try:
            await self._route(method, path, body, writer)
        except ApiError as error:
            await self._send_json(
                writer,
                error.http_status,
                {"schema": api.SCHEMA, "error": error.to_info().to_dict()},
            )
        except ConnectionError:
            pass
        except Exception as error:  # noqa: BLE001 - last-resort 500
            info = ErrorInfo(api.INTERNAL_ERROR, f"{type(error).__name__}: {error}")
            try:
                await self._send_json(
                    writer, 500, {"schema": api.SCHEMA, "error": info.to_dict()}
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _route(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if path == api.HEALTH_PATH and method == "GET":
            await self._send_json(
                writer, 200, {"schema": api.SCHEMA, "ok": True, "state": self.state}
            )
        elif path == api.STATS_PATH and method == "GET":
            await self._send_json(writer, 200, self._stats().to_dict())
        elif path == api.JOBS_PATH and method == "POST":
            reply = self._admit(self._decode_submit(body))
            await self._send_json(writer, 202, reply.to_dict())
        elif path == api.SHUTDOWN_PATH and method == "POST":
            report = await self.drain()
            await self._send_json(
                writer, 200, {"schema": api.SCHEMA, "report": report.to_dict()}
            )
        elif path.startswith(api.JOBS_PATH + "/"):
            await self._route_job(method, path, writer)
        else:
            raise ApiError(api.BAD_REQUEST, f"no route for {method} {path}")

    async def _route_job(
        self, method: str, path: str, writer: asyncio.StreamWriter
    ) -> None:
        tail = path[len(api.JOBS_PATH) + 1 :]
        if tail.endswith("/result"):
            job_id, want_result = tail[: -len("/result")], True
        else:
            job_id, want_result = tail, False
        entry = self._entries.get(job_id)
        if entry is None or method != "GET":
            if method != "GET":
                raise ApiError(api.BAD_REQUEST, f"no route for {method} {path}")
            raise ApiError(api.UNKNOWN_JOB, f"no such job {job_id!r}")
        if want_result:
            await self._stream_result(entry, writer)
        else:
            await self._send_json(writer, 200, entry.status().to_dict())

    def _decode_submit(self, body: bytes) -> api.SubmitRequest:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError(api.BAD_REQUEST, f"body is not JSON: {error}") from error
        return api.SubmitRequest.from_dict(payload)

    def _stats(self) -> ServerStats:
        states = [entry.state for entry in self._entries.values()]
        return ServerStats(
            state=self.state,
            queued=states.count(api.QUEUED),
            running=states.count(api.RUNNING),
            finished=sum(1 for state in states if state in api.TERMINAL_STATES),
            tenants=self._queue.in_flight() if self._queue else {},
            queue_depth=self.queue_depth,
            tenant_quota=self.tenant_quota,
        )

    # -- streaming result delivery -----------------------------------

    async def _stream_result(
        self, entry: JobEntry, writer: asyncio.StreamWriter
    ) -> None:
        await self._send_headers(
            writer, 200, "application/x-ndjson", chunked=True
        )
        last_state = None
        while not entry.terminal:
            if entry.state != last_state:
                last_state = entry.state
                await self._send_chunk(
                    writer,
                    {"event": api.EVENT_STATUS, "status": entry.status().to_dict()},
                )
                continue
            async with self._changed:
                # wait_for re-checks under the lock, so a transition
                # between the loop test and this wait cannot be missed.
                await self._changed.wait_for(lambda: entry.state != last_state)
        if entry.state == api.DONE:
            output = entry.output
            for offset in range(0, len(output), CHUNK_SIZE) or (0,):
                await self._send_chunk(
                    writer,
                    {
                        "event": api.EVENT_CHUNK,
                        "data": output[offset : offset + CHUNK_SIZE],
                    },
                )
            # The chunks above are authoritative for the output bytes;
            # the end event carries identity and the log.
            summary = entry.result().to_dict()
            summary["output"] = ""
            await self._send_chunk(
                writer, {"event": api.EVENT_END, "result": summary}
            )
        else:
            await self._send_chunk(
                writer,
                {"event": api.EVENT_ERROR, "result": entry.result().to_dict()},
            )
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _send_chunk(self, writer: asyncio.StreamWriter, event: dict) -> None:
        data = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    # -- response plumbing -------------------------------------------

    async def _send_headers(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        *,
        chunked: bool = False,
        length: Optional[int] = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        else:
            lines.append(f"Content-Length: {length or 0}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        await self._send_headers(
            writer, status, "application/json", length=len(body)
        )
        writer.write(body)
        await writer.drain()


__all__ = ["CHUNK_SIZE", "JobEntry", "ServiceServer"]
