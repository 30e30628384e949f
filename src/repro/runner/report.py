"""Structured run reporting for the experiment engine.

The executor (:mod:`repro.runner.executor`) gives every job one
attempt.  A job that raises, or whose result payload does not decode,
is *failed*; its transitive dependents are *skipped*, independent jobs
still complete, and the whole run is summarized by a :class:`RunReport`
instead of a stack trace.  The service (:mod:`repro.service.server`)
reports a drained session in the same shape.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple

#: Terminal job statuses (:attr:`JobReport.status`).
OK = "ok"
CACHED = "cached"
FAILED = "failed"
SKIPPED = "skipped"

STATUSES = (OK, CACHED, FAILED, SKIPPED)


@dataclasses.dataclass(frozen=True)
class JobReport:
    """Terminal outcome of one job.

    ``attempts`` is 1 for a job that ran and 0 for one served from the
    cache or skipped.
    """

    job_id: str
    kind: str
    label: str
    status: str
    attempts: int
    seconds: float
    causes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "seconds": self.seconds,
            "causes": list(self.causes),
        }


@dataclasses.dataclass
class RunReport:
    """Structured summary of an engine run (schema ``repro-run/2``).

    ``jobs`` is in graph order, one entry per job, regardless of
    completion order — the report of a run is deterministic even when
    the pool is not.
    """

    jobs: List[JobReport] = dataclasses.field(default_factory=list)

    SCHEMA = "repro-run/2"

    def job(self, job_id: str) -> Optional[JobReport]:
        for entry in self.jobs:
            if entry.job_id == job_id:
                return entry
        return None

    @property
    def failed(self) -> List[JobReport]:
        return [entry for entry in self.jobs if entry.status == FAILED]

    @property
    def skipped(self) -> List[JobReport]:
        return [entry for entry in self.jobs if entry.status == SKIPPED]

    @property
    def ok(self) -> bool:
        return not self.failed and not self.skipped

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in STATUSES}
        for entry in self.jobs:
            counts[entry.status] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "counts": self.counts(),
            "jobs": [entry.to_dict() for entry in self.jobs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format(self) -> str:
        """Human-readable summary: one headline, then failures in detail."""
        counts = self.counts()
        headline = (
            f"run report: {len(self.jobs)} jobs — "
            f"{counts[OK]} ok, {counts[CACHED]} cached, "
            f"{counts[FAILED]} failed, {counts[SKIPPED]} skipped"
        )
        lines = [headline]
        if self.failed:
            lines.append("failed:")
            for entry in self.failed:
                lines.append(f"  {entry.job_id} — {entry.seconds:.2f}s")
                for cause in entry.causes:
                    lines.append(f"      {cause}")
        if self.skipped:
            lines.append("skipped (unmet dependencies):")
            for entry in self.skipped:
                cause = entry.causes[-1] if entry.causes else "dependency failed"
                lines.append(f"  {entry.job_id} — {cause}")
        return "\n".join(lines)


class RunFailure(RuntimeError):
    """Raised by the experiment runner when a run ends with failed jobs.

    Carries the :class:`RunReport` (``.report``) and whatever tables did
    complete (``.tables``), so callers degrade gracefully instead of
    digging a cause out of a traceback.
    """

    def __init__(self, report: RunReport, tables: Optional[list] = None) -> None:
        self.report = report
        self.tables = list(tables or [])
        failed = ", ".join(entry.job_id for entry in report.failed)
        super().__init__(
            f"{len(report.failed)} job(s) failed ({failed}); "
            f"{len(report.skipped)} skipped"
        )


__all__ = [
    "CACHED",
    "FAILED",
    "JobReport",
    "OK",
    "RunFailure",
    "RunReport",
    "SKIPPED",
    "STATUSES",
]
