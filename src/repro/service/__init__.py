"""Profiling-as-a-service: the daemon behind ``python -m repro serve``.

The paper's central economy is *profile once, reuse the result*; this
package is that economy as a long-running service.  One process owns a
shared :class:`~repro.machine.TraceStore` and artifact cache and runs
batch command lines — compile, trace, profile, annotate, fuse,
classify predict, experiments — for many tenants over HTTP.

Layering — the service is a thin shell over the batch CLI:

* :mod:`repro.service.api` — the wire contract (schema
  ``repro-serve/2``): a job is a batch ``argv`` plus the files it names
  (:class:`Job`), with the submission envelope, job states and the
  error taxonomy around it.
* :mod:`repro.service.queue` — the priority job queue with per-tenant
  admission quotas.
* :mod:`repro.service.engine` — parses a job with the batch parser at
  admission, refuses what the sandbox forbids, and runs the batch
  handler in-process against the shared stores, so its output and log
  are the batch command's stdout and stderr.
* :mod:`repro.service.server` — the stdlib-asyncio HTTP daemon:
  streaming (chunked) result delivery and graceful drain into a
  :class:`~repro.runner.report.RunReport`.
* :mod:`repro.service.client` — the synchronous client library used by
  ``python -m repro client``.
"""

from .api import (
    SCHEMA,
    AnnotateJob,
    ApiError,
    CompileJob,
    ErrorInfo,
    Job,
    JobResult,
    JobStatus,
    ProfileJob,
    SubmitReply,
    SubmitRequest,
)
from .client import ServiceClient
from .server import ServiceServer

__all__ = [
    "SCHEMA",
    "AnnotateJob",
    "ApiError",
    "CompileJob",
    "ErrorInfo",
    "Job",
    "JobResult",
    "JobStatus",
    "ProfileJob",
    "ServiceClient",
    "ServiceServer",
    "SubmitReply",
    "SubmitRequest",
]
