"""Synchronous client library for the ``repro serve`` daemon.

Built on :mod:`http.client` (stdlib, handles chunked transfer decoding)
and typed entirely by :mod:`repro.service.api` — the same dataclasses
the server handlers use, so client and server agree on the wire format
by construction.  One connection per request mirrors the server's
``Connection: close`` policy.

Usage::

    from repro.service import Job, ServiceClient

    client = ServiceClient("127.0.0.1", 8750)
    result = client.run(Job(("compile", "demo.mc"), {"demo.mc": minic_text}))
    print(result.output)          # the textual assembly
    print(result.log, end="")     # what `repro compile` prints to stderr

:meth:`ServiceClient.run` submits and blocks on the streaming result
endpoint; :meth:`submit` / :meth:`status` / :meth:`stream_result` give
finer control (e.g. overlapping many jobs before collecting any).
Server-reported failures raise :class:`~repro.service.api.ApiError`
with the taxonomy code the server chose.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
from typing import Any, Dict, Iterator, Optional, Tuple

from ..runner.retry import JobReport, RunReport
from . import api
from .api import (
    ApiError,
    ErrorInfo,
    Job,
    JobResult,
    JobStatus,
    ServerStats,
    SubmitReply,
    SubmitRequest,
)


class ServiceClient:
    """Typed HTTP client for one ``repro serve`` endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8750, timeout: float = 300.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- low-level transport -----------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            decoded = json.loads(response.read().decode("utf-8"))
            return response.status, decoded
        finally:
            connection.close()

    @staticmethod
    def _check(status: int, payload: dict) -> dict:
        # Only an HTTP failure is a transport error; a 200 JobStatus for
        # a failed job legitimately carries its own ``error`` field.
        if status >= 400:
            error = payload.get("error")
            if error:
                ErrorInfo.from_dict(error).raise_()
            raise ApiError(api.INTERNAL_ERROR, f"HTTP {status} without error body")
        return payload

    # -- endpoints ----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        status, payload = self._request("GET", api.HEALTH_PATH)
        return self._check(status, payload)

    def stats(self) -> ServerStats:
        status, payload = self._request("GET", api.STATS_PATH)
        return ServerStats.from_dict(self._check(status, payload))

    def submit(
        self,
        job: Job,
        tenant: str = api.DEFAULT_TENANT,
        priority: int = 0,
    ) -> SubmitReply:
        request = SubmitRequest(job=job, tenant=tenant, priority=priority)
        status, payload = self._request("POST", api.JOBS_PATH, request.to_dict())
        return SubmitReply.from_dict(self._check(status, payload))

    def status(self, job_id: str) -> JobStatus:
        status, payload = self._request("GET", api.job_path(job_id))
        return JobStatus.from_dict(self._check(status, payload))

    def stream_result(self, job_id: str) -> Iterator[dict]:
        """The raw result event stream: ``status``/``chunk``/``end``/``error``.

        Yields each decoded ndjson event; ``http.client`` transparently
        undoes the chunked transfer encoding.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", api.result_path(job_id))
            response = connection.getresponse()
            if response.status >= 400:
                payload = json.loads(response.read().decode("utf-8"))
                self._check(response.status, payload)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def result(self, job_id: str) -> JobResult:
        """Block until ``job_id`` finishes; reassemble its streamed output.

        Raises :class:`ApiError` when the stream ends in an ``error``
        event (carrying the server's taxonomy code).
        """
        chunks = []
        for event in self.stream_result(job_id):
            kind = event.get("event")
            if kind == api.EVENT_CHUNK:
                chunks.append(event.get("data", ""))
            elif kind == api.EVENT_END:
                result = JobResult.from_dict(event["result"])
                # The chunks are authoritative for the output bytes.
                return dataclasses.replace(result, output="".join(chunks))
            elif kind == api.EVENT_ERROR:
                result = JobResult.from_dict(event["result"])
                if result.error is not None:
                    result.error.raise_()
                raise ApiError(api.EXECUTION_ERROR, f"job {job_id} failed")
        raise ApiError(api.INTERNAL_ERROR, f"result stream for {job_id} ended early")

    def run(
        self,
        job: Job,
        tenant: str = api.DEFAULT_TENANT,
        priority: int = 0,
    ) -> JobResult:
        """Submit one job and block for its complete result."""
        reply = self.submit(job, tenant=tenant, priority=priority)
        return self.result(reply.job_id)

    def shutdown(self) -> RunReport:
        """Drain the server; returns its session :class:`RunReport`."""
        status, payload = self._request("POST", api.SHUTDOWN_PATH)
        checked = self._check(status, payload)
        report_dict = checked.get("report") or {}
        report = RunReport(
            retries=int(report_dict.get("retries", 0)),
            timeouts=int(report_dict.get("timeouts", 0)),
            pool_rebuilds=int(report_dict.get("pool_rebuilds", 0)),
        )
        for entry in report_dict.get("jobs", []):
            report.jobs.append(
                JobReport(
                    job_id=str(entry["job_id"]),
                    kind=str(entry["kind"]),
                    label=str(entry.get("label", "")),
                    status=str(entry["status"]),
                    attempts=int(entry.get("attempts", 0)),
                    seconds=float(entry.get("seconds", 0.0)),
                    causes=tuple(entry.get("causes", ())),
                )
            )
        return report


__all__ = ["ServiceClient"]
