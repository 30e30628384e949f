"""The service wire contract (schema ``repro-serve/2``).

Everything that crosses the HTTP boundary is defined here, once: the job
payload, the submission envelope, job states, status/result shapes and
the error taxonomy.  The server handlers (:mod:`repro.service.server`),
the client library (:mod:`repro.service.client`) and the ``repro
client`` CLI (:mod:`repro.service.cli`) all import these types rather
than hand-rolling dictionaries.

Design rules:

* A job is a batch command line plus the files it names
  (:class:`Job`).  The daemon runs it with the batch CLI's own parser
  and handler (:mod:`repro.service.engine`), so a result's ``output``
  and ``log`` are the bytes the batch command writes to stdout (or its
  ``-o`` file) and to stderr.
* Every envelope carries ``"schema": "repro-serve/2"``; decoding
  rejects unknown schemas up front instead of failing deep in a
  handler.
* Errors are closed-vocabulary: an :class:`ApiError` carries one of
  :data:`ERROR_CODES`, each with a fixed HTTP status
  (:data:`HTTP_STATUS`).  Clients can switch on the code without
  parsing prose.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Version tag carried by every request and response envelope.
SCHEMA = "repro-serve/2"

# -- job states -------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can be observed in, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

# -- error taxonomy ---------------------------------------------------------

BAD_REQUEST = "bad-request"          # malformed envelope / JSON / schema
INVALID_JOB = "invalid-job"          # well-formed but unexecutable payload
UNKNOWN_JOB = "unknown-job"          # job id the server has never seen
QUOTA_EXCEEDED = "quota-exceeded"    # tenant at its admission quota
QUEUE_FULL = "queue-full"            # global queue depth reached
SHUTTING_DOWN = "shutting-down"      # server is draining; no admissions
EXECUTION_ERROR = "execution-error"  # the job itself failed
INTERNAL_ERROR = "internal-error"    # anything else; a server bug

ERROR_CODES = (
    BAD_REQUEST,
    INVALID_JOB,
    UNKNOWN_JOB,
    QUOTA_EXCEEDED,
    QUEUE_FULL,
    SHUTTING_DOWN,
    EXECUTION_ERROR,
    INTERNAL_ERROR,
)

#: The one HTTP status each error code maps to.
HTTP_STATUS: Dict[str, int] = {
    BAD_REQUEST: 400,
    INVALID_JOB: 400,
    UNKNOWN_JOB: 404,
    QUOTA_EXCEEDED: 429,
    QUEUE_FULL: 429,
    SHUTTING_DOWN: 503,
    EXECUTION_ERROR: 500,
    INTERNAL_ERROR: 500,
}


class ApiError(Exception):
    """A failure with a closed-vocabulary ``code`` and an HTTP status."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            code = INTERNAL_ERROR
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

    def to_info(self) -> "ErrorInfo":
        return ErrorInfo(code=self.code, message=self.message)


@dataclasses.dataclass(frozen=True)
class ErrorInfo:
    """The serialized form of an :class:`ApiError`."""

    code: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, payload: dict) -> "ErrorInfo":
        return cls(
            code=str(payload.get("code", INTERNAL_ERROR)),
            message=str(payload.get("message", "")),
        )

    def raise_(self) -> None:
        raise ApiError(self.code, self.message)


# -- endpoints --------------------------------------------------------------

HEALTH_PATH = "/v1/health"
STATS_PATH = "/v1/stats"
JOBS_PATH = "/v1/jobs"
SHUTDOWN_PATH = "/v1/shutdown"


def job_path(job_id: str) -> str:
    return f"{JOBS_PATH}/{job_id}"


def result_path(job_id: str) -> str:
    return f"{JOBS_PATH}/{job_id}/result"


# -- job payloads -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Job:
    """One batch command line plus the files it reads.

    ``argv`` is what follows ``python -m repro`` (``("compile",
    "demo.mc")``); ``files`` maps each file the command line names to
    its contents, so the daemon never reads its own disk.  A file name
    is a plain name: not empty, with no ``/`` and no NUL.
    """

    argv: Tuple[str, ...]
    files: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The command (``argv[0]``); it labels job ids and reports."""
        return self.argv[0]

    def to_dict(self) -> dict:
        return {"argv": list(self.argv), "files": dict(self.files)}

    @classmethod
    def from_dict(cls, payload: Any) -> "Job":
        if not isinstance(payload, dict):
            raise ApiError(BAD_REQUEST, "job payload must be an object")
        argv = payload.get("argv")
        if (not isinstance(argv, list) or not argv
                or not all(isinstance(token, str) for token in argv)):
            raise ApiError(INVALID_JOB, "job 'argv' must be a non-empty list of strings")
        files = payload.get("files", {})
        if not isinstance(files, dict) or not all(
            isinstance(contents, str) for contents in files.values()
        ):
            raise ApiError(INVALID_JOB, "job 'files' must map names to text")
        for name in files:
            if not name or "/" in name or "\0" in name:
                raise ApiError(INVALID_JOB, f"bad file name {name!r}")
        return cls(argv=tuple(argv), files=dict(files))


# The three jobs of the paper's workflow, as Python callers (such as the
# perfbench serve-sessions workload) build them.  Capitalized because they
# replaced job classes of these names.  Each file is named after the
# program, so its ``Path.stem`` gives back ``name`` even when ``name``
# contains dots (corpus names such as ``gen.1997.000`` do).


def CompileJob(source: str, name: str = "program") -> Job:  # noqa: N802
    """``repro compile <name>.mc``."""
    return Job(("compile", f"{name}.mc"), {f"{name}.mc": source})


def ProfileJob(  # noqa: N802
    program: str, name: str = "program", input_sets: Sequence[Sequence[Number]] = ((),)
) -> Job:
    """``repro profile <name>.asm --inputs=...``, one flag per input set."""
    # The ``=`` form keeps a leading minus sign from reading as a flag.
    flags = [f"--inputs={','.join(map(str, inputs))}" for inputs in input_sets]
    return Job(("profile", f"{name}.asm", *flags), {f"{name}.asm": program})


def AnnotateJob(program: str, profile: str, name: str = "program") -> Job:  # noqa: N802
    """``repro annotate <name>.asm <name>.profile``."""
    return Job(
        ("annotate", f"{name}.asm", f"{name}.profile"),
        {f"{name}.asm": program, f"{name}.profile": profile},
    )


def job_digest(job: Job) -> str:
    """SHA-256 content digest of a job's canonical JSON form."""
    canonical = json.dumps(job.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- envelopes --------------------------------------------------------------

DEFAULT_TENANT = "default"


@dataclasses.dataclass(frozen=True)
class SubmitRequest:
    """``POST /v1/jobs`` body: one job plus its admission metadata."""

    job: Job
    tenant: str = DEFAULT_TENANT
    priority: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "tenant": self.tenant,
            "priority": self.priority,
            "job": self.job.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "SubmitRequest":
        if not isinstance(payload, dict):
            raise ApiError(BAD_REQUEST, "submit body must be a JSON object")
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ApiError(
                BAD_REQUEST, f"unsupported schema {schema!r} (expected {SCHEMA!r})"
            )
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ApiError(BAD_REQUEST, "tenant must be a non-empty string")
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ApiError(BAD_REQUEST, "priority must be an integer")
        return cls(
            job=Job.from_dict(payload.get("job")), tenant=tenant, priority=priority
        )


@dataclasses.dataclass(frozen=True)
class SubmitReply:
    """``POST /v1/jobs`` response: the admitted job's identity."""

    job_id: str
    state: str
    position: int

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "job_id": self.job_id,
            "state": self.state,
            "position": self.position,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SubmitReply":
        return cls(
            job_id=str(payload["job_id"]),
            state=str(payload["state"]),
            position=int(payload["position"]),
        )


@dataclasses.dataclass(frozen=True)
class JobStatus:
    """``GET /v1/jobs/<id>`` response: where one job is in its lifecycle."""

    job_id: str
    kind: str
    tenant: str
    state: str
    priority: int = 0
    attempts: int = 0
    seconds: float = 0.0
    error: Optional[ErrorInfo] = None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "job_id": self.job_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "seconds": self.seconds,
            "error": self.error.to_dict() if self.error else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobStatus":
        error = payload.get("error")
        return cls(
            job_id=str(payload["job_id"]),
            kind=str(payload["kind"]),
            tenant=str(payload["tenant"]),
            state=str(payload["state"]),
            priority=int(payload.get("priority", 0)),
            attempts=int(payload.get("attempts", 0)),
            seconds=float(payload.get("seconds", 0.0)),
            error=ErrorInfo.from_dict(error) if error else None,
        )


@dataclasses.dataclass(frozen=True)
class JobResult:
    """The terminal outcome of one job.

    ``output`` is what the batch command writes to stdout or to its
    ``-o`` file, and ``log`` is what it writes to stderr.
    """

    job_id: str
    kind: str
    state: str
    output: str = ""
    log: str = ""
    error: Optional[ErrorInfo] = None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "output": self.output,
            "log": self.log,
            "error": self.error.to_dict() if self.error else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobResult":
        error = payload.get("error")
        return cls(
            job_id=str(payload["job_id"]),
            kind=str(payload["kind"]),
            state=str(payload["state"]),
            output=str(payload.get("output", "")),
            log=str(payload.get("log", "")),
            error=ErrorInfo.from_dict(error) if error else None,
        )


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """``GET /v1/stats`` response: one queue/tenant snapshot."""

    state: str
    queued: int
    running: int
    finished: int
    tenants: Dict[str, int]
    queue_depth: int
    tenant_quota: int

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "state": self.state,
            "queued": self.queued,
            "running": self.running,
            "finished": self.finished,
            "tenants": dict(self.tenants),
            "queue_depth": self.queue_depth,
            "tenant_quota": self.tenant_quota,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServerStats":
        return cls(
            state=str(payload["state"]),
            queued=int(payload["queued"]),
            running=int(payload["running"]),
            finished=int(payload["finished"]),
            tenants={
                str(name): int(count)
                for name, count in (payload.get("tenants") or {}).items()
            },
            queue_depth=int(payload["queue_depth"]),
            tenant_quota=int(payload["tenant_quota"]),
        )


#: Result-stream event names (``GET /v1/jobs/<id>/result`` ndjson lines).
EVENT_STATUS = "status"
EVENT_CHUNK = "chunk"
EVENT_END = "end"
EVENT_ERROR = "error"


__all__ = [
    "ApiError",
    "AnnotateJob",
    "BAD_REQUEST",
    "CANCELLED",
    "CompileJob",
    "DEFAULT_TENANT",
    "DONE",
    "ERROR_CODES",
    "EVENT_CHUNK",
    "EVENT_END",
    "EVENT_ERROR",
    "EVENT_STATUS",
    "EXECUTION_ERROR",
    "ErrorInfo",
    "FAILED",
    "HEALTH_PATH",
    "HTTP_STATUS",
    "INTERNAL_ERROR",
    "INVALID_JOB",
    "JOBS_PATH",
    "JOB_STATES",
    "Job",
    "JobResult",
    "JobStatus",
    "ProfileJob",
    "QUEUED",
    "QUEUE_FULL",
    "QUOTA_EXCEEDED",
    "RUNNING",
    "SCHEMA",
    "SHUTDOWN_PATH",
    "SHUTTING_DOWN",
    "STATS_PATH",
    "ServerStats",
    "SubmitReply",
    "SubmitRequest",
    "TERMINAL_STATES",
    "UNKNOWN_JOB",
    "job_digest",
    "job_path",
    "result_path",
]
