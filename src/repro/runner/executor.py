"""Serial and process-pool execution of a :class:`JobGraph`.

The scheduler walks the graph in dependency order.  For every job it
first asks the context whether the disk cache serves the job's cell
(:meth:`~repro.experiments.context.ExperimentContext.from_disk`; a hit
is reported as ``cached``); misses are computed — inline in the parent
for serial runs and ``inline`` jobs, otherwise fanned out to a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Keys, decoding and
storing all belong to the context.  Pool jobs receive the encoded
payloads of their dependencies, so the disk cache is an optimization,
never a correctness requirement.

Degraded runs: every job gets exactly one attempt — a cell is a pure
function of its inputs, so a retry would fail the same way.  A worker
exception or a result payload that does not decode fails the job; its
transitive dependents are marked skipped, independent jobs still
complete, and the outcome carries a structured
:class:`~repro.runner.report.RunReport` (per-job status, duration,
causes) in place of a stack trace.  A broken pool is shut down, not
rebuilt: every job it lost, and every job not yet launched, runs
in-process — the rule :func:`repro.machine.sharding._pool_map` applies.

Determinism: jobs are launched in graph (topological/insertion) order,
results are keyed by job id, and tables are returned by experiment id —
completion order never influences output.  Every job gets a
:class:`JobRecord` with wall-clock seconds and cache provenance; the CLI
turns these into progress and timing lines.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Set, TextIO

from ..telemetry import get_registry
from . import serialize, worker
from .jobs import Job, JobGraph
from .report import CACHED, FAILED, OK, SKIPPED, JobReport, RunReport

#: Cause recorded on a job whose pool worker was lost with the pool.
POOL_BROKE = "worker pool broke; rerun in-process"


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """Outcome bookkeeping for one executed job."""

    job_id: str
    kind: str
    label: str
    seconds: float
    cached: bool
    status: str


@dataclasses.dataclass
class ExecutionOutcome:
    """Everything :func:`execute_graph` produced."""

    records: List[JobRecord] = dataclasses.field(default_factory=list)
    tables: Dict[str, object] = dataclasses.field(default_factory=dict)
    values: Dict[str, object] = dataclasses.field(default_factory=dict)
    report: Optional[RunReport] = None

    def record_for(self, job_id: str) -> Optional[JobRecord]:
        for record in self.records:
            if record.job_id == job_id:
                return record
        return None

    @property
    def cached_jobs(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def computed_seconds(self) -> float:
        return sum(record.seconds for record in self.records if not record.cached)


def resolve_jobs(jobs: Optional[int]) -> int:
    """``--jobs`` semantics: ``None``/``1`` serial, ``<= 0`` all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _lost(future: concurrent.futures.Future) -> bool:
    """Whether a finished pool future died with its pool."""
    return future.cancelled() or isinstance(future.exception(), BrokenProcessPool)


def execute_graph(
    graph: JobGraph,
    context,
    *,
    jobs: Optional[int] = 1,
    progress: Optional[TextIO] = None,
) -> ExecutionOutcome:
    """Run every job in ``graph`` against ``context``.

    With ``jobs > 1``, independent jobs run in a process pool; the
    parent context ends up primed with every artifact either way, so
    callers can keep using it (e.g. for follow-up experiments) exactly
    as after a serial run.

    The returned outcome always carries ``outcome.report`` — a
    :class:`~repro.runner.report.RunReport` in graph order; a job that
    raised (in its compute or in its disk-cache probe) appears there as
    ``failed`` and its transitive dependents as ``skipped`` rather than
    raising.
    """
    workers = resolve_jobs(jobs)
    order = graph.order()
    position = {job.job_id: rank for rank, job in enumerate(order)}
    waiting = {job.job_id: len(job.deps) for job in order}
    dependents = graph.dependents()

    telemetry = get_registry()
    outcome = ExecutionOutcome()
    #: job id -> encoded value, for shipping to pool jobs that depend on it.
    encoded: Dict[str, str] = {}
    spec = worker.context_spec(context)
    total = len(order)
    done = 0
    ready = [job.job_id for job in order if not job.deps]
    #: job id -> moment it became runnable (for queue-latency telemetry).
    ready_at: Dict[str, float] = {job_id: time.perf_counter() for job_id in ready}
    #: Moment execution capacity last freed up.  ``runner.queue_wait``
    #: charges each job only the time it sat runnable *beyond* resource
    #: saturation — launch minus max(became ready, capacity freed) — so
    #: the summed metric is scheduler-induced dispatch latency and stays
    #: bounded by wall clock, instead of re-counting every other job's
    #: compute time the way finish-time accounting would.
    capacity_freed_at = time.perf_counter()

    #: Jobs launched (served neither from disk nor skipped).
    launched: Set[str] = set()
    causes: Dict[str, List[str]] = {job.job_id: [] for job in order}
    #: Terminal status per job; presence means the job is settled.
    status: Dict[str, str] = {}

    use_pool = workers > 1 and any(not job.inline for job in order)
    pool = ProcessPoolExecutor(max_workers=workers) if use_pool else None
    futures: Dict[concurrent.futures.Future, Job] = {}

    def record_job(job: Job, job_status: str, seconds: float, cached: bool) -> None:
        nonlocal done, capacity_freed_at
        done += 1
        capacity_freed_at = time.perf_counter()
        status[job.job_id] = job_status
        ready_at.pop(job.job_id, None)
        outcome.records.append(
            JobRecord(job.job_id, job.kind, job.label(), seconds, cached, job_status)
        )

    def finish(job: Job, value, seconds: float, cached: bool) -> None:
        record_job(job, CACHED if cached else OK, seconds, cached)
        outcome.values[job.job_id] = value
        if job.kind == "experiment":
            outcome.tables[job.name] = value
        if telemetry.enabled:
            telemetry.counter("runner.jobs").add(1)
            if cached:
                telemetry.counter("runner.jobs_cached").add(1)
            else:
                telemetry.timer(f"runner.job.{job.kind}").add(seconds)
        if progress is not None:
            suffix = " (cached)" if cached else ""
            print(
                f"[{done:>3}/{total}] {job.label()}: {seconds:.2f}s{suffix}",
                file=progress,
                flush=True,
            )
        for dependent in dependents[job.job_id]:
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                ready.append(dependent)
                ready_at[dependent] = time.perf_counter()

    def mark_terminal(job: Job, job_status: str, cause: str, seconds: float) -> None:
        """Settle ``job`` as failed/skipped (degraded, not raised)."""
        causes[job.job_id].append(cause)
        record_job(job, job_status, seconds, False)
        if telemetry.enabled:
            telemetry.counter(f"runner.jobs_{job_status}").add(1)
        if progress is not None:
            print(
                f"[{done:>3}/{total}] {job.label()}: {job_status.upper()} ({cause})",
                file=progress,
                flush=True,
            )

    def fail_job(job: Job, cause: str, seconds: float) -> None:
        """Fail ``job`` and skip its transitive dependents."""
        mark_terminal(job, FAILED, cause, seconds)
        for dependent_id in graph.transitive_dependents(job.job_id, table=dependents):
            if dependent_id not in status:
                mark_terminal(
                    graph[dependent_id], SKIPPED, f"dependency {job.job_id} failed", 0.0
                )

    def compute_inline(job: Job) -> None:
        started = time.perf_counter()
        try:
            with telemetry.span(f"attempt:{job.kind}"):
                value = worker.compute_value(job, context)
        except Exception as error:
            fail_job(job, _describe(error), time.perf_counter() - started)
            return
        finish(job, value, time.perf_counter() - started, False)

    def settle(job: Job, result: tuple) -> None:
        """Handle a pool job that returned: prime the context, record."""
        seconds, payload, worker_metrics = result
        try:
            value = context.prime(job.cell(), payload)
        except serialize.PayloadError as error:
            fail_job(job, f"corrupt result payload: {error}", seconds)
            return
        if worker_metrics is not None:
            # Re-root the worker's spans under the coordinator's active
            # span so nesting survives the process pool.
            telemetry.merge(worker_metrics, prefix=telemetry.current_path or None)
        encoded[job.job_id] = payload
        finish(job, value, seconds, False)

    def collect(job: Job, future: concurrent.futures.Future) -> None:
        """Settle a finished pool future; a job the pool lost reruns here."""
        if _lost(future):
            causes[job.job_id].append(POOL_BROKE)
            compute_inline(job)
        elif future.exception() is not None:
            fail_job(job, _describe(future.exception()), 0.0)
        else:
            settle(job, future.result())

    def abandon_pool() -> None:
        """The pool broke: shut it down and settle everything it held.

        The pool is not rebuilt; jobs launched from now on run inline.
        """
        nonlocal pool
        pool.shutdown(wait=True, cancel_futures=True)
        pool = None
        held = sorted(futures.items(), key=lambda item: position[item[1].job_id])
        futures.clear()
        for future, job in held:
            collect(job, future)

    def payload_of(job_id: str) -> str:
        if job_id not in encoded:  # served from disk or computed inline
            encoded[job_id] = serialize.encode(
                graph[job_id].kind, outcome.values[job_id]
            )
        return encoded[job_id]

    def launch(job: Job) -> None:
        launched.add(job.job_id)
        if telemetry.enabled:
            became_ready = ready_at.get(job.job_id)
            if became_ready is not None:
                telemetry.timer("runner.queue_wait").add(
                    max(
                        0.0,
                        time.perf_counter()
                        - max(became_ready, capacity_freed_at),
                    )
                )
        if pool is not None and not job.inline:
            dep_items = tuple(
                (graph[dep], payload_of(dep))
                for dep in job.deps
                if graph[dep].kind != "compile"
            )
            try:
                futures[pool.submit(worker.run_pool_job, spec, job, dep_items)] = job
                return
            except BrokenProcessPool:
                # The pool died since the last wait.
                abandon_pool()
        compute_inline(job)

    def deadlock_error() -> RuntimeError:
        pending = [job for job in order if job.job_id not in status]
        details = []
        for job in pending:
            unmet = [dep for dep in job.deps if dep not in outcome.values]
            details.append(f"{job.job_id} (waiting on: {', '.join(unmet) or '?'})")
        failed = sorted(
            job_id for job_id, job_status in status.items() if job_status == FAILED
        )
        root = (
            f"; root-cause failed jobs: {', '.join(failed)}"
            if failed
            else "; no failed jobs — the graph is malformed (dependency cycle?)"
        )
        return RuntimeError(
            f"job graph deadlock; unrunnable: {'; '.join(details)}{root}"
        )

    try:
        while done < total:
            ready.sort(key=position.__getitem__)
            # Pool submissions are throttled to the worker count so that
            # submit time ≈ start time and a pool break loses at most
            # ``workers`` in-flight jobs.
            index = 0
            while index < len(ready):
                job_id = ready[index]
                job = graph[job_id]
                if job_id in status:
                    ready.pop(index)
                    continue
                if pool is not None and not job.inline and len(futures) >= workers:
                    index += 1
                    continue
                ready.pop(index)
                started = time.perf_counter()
                try:
                    value = context.from_disk(job.cell())
                except Exception as error:  # e.g. a key of an unknown workload
                    fail_job(job, _describe(error), time.perf_counter() - started)
                    continue
                if value is not None:
                    finish(job, value, time.perf_counter() - started, True)
                    continue
                launch(job)
            if done >= total:
                break
            if not futures:
                raise deadlock_error()
            completed, _ = concurrent.futures.wait(
                futures, return_when=concurrent.futures.FIRST_COMPLETED
            )
            if any(_lost(future) for future in completed):
                abandon_pool()
                continue
            for future in sorted(completed, key=lambda f: position[futures[f].job_id]):
                collect(futures.pop(future), future)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    records_by_id = {record.job_id: record for record in outcome.records}
    outcome.report = RunReport(
        jobs=[
            JobReport(
                job_id=job.job_id,
                kind=job.kind,
                label=job.label(),
                status=records_by_id[job.job_id].status,
                attempts=int(job.job_id in launched),
                seconds=records_by_id[job.job_id].seconds,
                causes=tuple(causes[job.job_id]),
            )
            for job in order
        ]
    )
    return outcome
