"""Serial and process-pool execution of a :class:`JobGraph`.

The scheduler walks the graph in dependency order.  For every job it
first asks the context whether the disk cache serves the job's cell
(:meth:`~repro.experiments.context.ExperimentContext.from_disk`; a hit
is reported as ``cached``); misses are computed — inline in the parent
for serial runs and ``inline`` jobs, otherwise fanned out to a
:class:`concurrent.futures.ProcessPoolExecutor`.  Keys, decoding and
storing all belong to the context.  Pool jobs receive the encoded
payloads of their dependencies, so the disk cache is an optimization,
never a correctness requirement.

Fault tolerance: every attempt is fallible.  A worker exception, a
corrupt result payload, a timed-out attempt or a crashed worker process
each count as one *failed attempt* against the run's
:class:`~repro.runner.retry.RetryPolicy`; the job is resubmitted with
deterministic backoff until the policy is exhausted.  A broken pool is
rebuilt and the jobs that were merely in flight at the time are
resubmitted without being charged an attempt.  When a job does exhaust
its retries the run *degrades* instead of aborting: the job's
transitive dependents are marked skipped, independent jobs still
complete, and the outcome carries a structured
:class:`~repro.runner.retry.RunReport` (per-job status, attempts,
durations, causes) in place of a stack trace.  Deterministic fault
injection for all of these paths lives in :mod:`repro.runner.faults`.

Determinism: jobs are launched in graph (topological/insertion) order,
results are keyed by job id, and tables are returned by experiment id —
completion order never influences output.  Every job gets a
:class:`JobRecord` with wall-clock seconds and cache provenance; the CLI
turns these into progress and timing lines.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import heapq
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, TextIO, Tuple

from ..telemetry import get_registry
from . import faults, serialize, worker
from .jobs import Job, JobGraph
from .retry import CACHED, FAILED, OK, SKIPPED, JobReport, RetryPolicy, RunReport


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """Outcome bookkeeping for one executed job."""

    job_id: str
    kind: str
    label: str
    seconds: float
    cached: bool
    status: str = OK
    attempts: int = 1


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


def execute_graph(
    graph: JobGraph,
    context,
    *,
    jobs: Optional[int] = 1,
    progress: Optional[TextIO] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan=None,
) -> ExecutionOutcome:
    """Run every job in ``graph`` against ``context``.

    With ``jobs > 1``, independent jobs run in a process pool; the
    parent context ends up primed with every artifact either way, so
    callers can keep using it (e.g. for follow-up experiments) exactly
    as after a serial run.

    ``retry`` governs per-job resubmission and timeouts (default: one
    attempt, no timeout).  ``fault_plan`` accepts anything
    :func:`repro.runner.faults.resolve_plan` does and injects
    deterministic faults for testing the recovery paths.  The returned
    outcome always carries ``outcome.report`` — a
    :class:`~repro.runner.retry.RunReport` in graph order; jobs that
    exhausted their retries appear there as ``failed`` and their
    transitive dependents as ``skipped`` rather than raising.
    """
    policy = retry or RetryPolicy()
    plan = faults.resolve_plan(fault_plan, graph)
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

    #: Attempts launched, failure causes, and seconds burned per job.
    attempts: Dict[str, int] = {job.job_id: 0 for job in order}
    causes: Dict[str, List[str]] = {job.job_id: [] for job in order}
    spent: Dict[str, float] = {job.job_id: 0.0 for job in order}
    #: Terminal status per job; presence means the job is settled.
    status: Dict[str, str] = {}
    #: Pool breaks suffered per job while merely in flight (loop guard).
    pool_breaks: Dict[str, int] = {}
    #: Min-heap of (resume_time, graph rank, job_id) backoff retries.
    delayed: List[Tuple[float, int, str]] = []
    retries_count = timeouts_count = rebuilds_count = 0

    use_pool = workers > 1 and any(not job.inline for job in order)
    old_plan_env = None
    if plan is not None and use_pool:
        # Workers inherit the environment at spawn; both the initial pool
        # and any rebuilt pool therefore see the same schedule.
        old_plan_env = os.environ.get(faults.ENV_VAR)
        os.environ[faults.ENV_VAR] = plan.to_json()

    def new_pool():
        return concurrent.futures.ProcessPoolExecutor(max_workers=workers)

    pool = new_pool() if use_pool else None
    #: future -> (job, attempt number, timeout deadline).
    futures: Dict[concurrent.futures.Future, tuple] = {}

    def discard_pool(*, kill: bool) -> None:
        """Tear the pool down; ``kill`` reclaims hung/stuck workers."""
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:
                    pass
        pool.shutdown(wait=True, cancel_futures=True)

    def finish(job: Job, value, seconds: float, cached: bool):
        nonlocal done, capacity_freed_at
        done += 1
        status[job.job_id] = CACHED if cached else OK
        outcome.values[job.job_id] = value
        if job.kind == "experiment":
            outcome.tables[job.name] = value
        record = JobRecord(
            job.job_id,
            job.kind,
            job.label(),
            seconds,
            cached,
            status=status[job.job_id],
            attempts=attempts[job.job_id],
        )
        outcome.records.append(record)
        capacity_freed_at = time.perf_counter()
        ready_at.pop(job.job_id, None)
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

    def mark_terminal(job: Job, job_status: str, cause: Optional[str]) -> None:
        """Settle ``job`` as failed/skipped (degraded, not raised)."""
        nonlocal done, capacity_freed_at
        done += 1
        capacity_freed_at = time.perf_counter()
        status[job.job_id] = job_status
        if cause:
            causes[job.job_id].append(cause)
        ready_at.pop(job.job_id, None)
        outcome.records.append(
            JobRecord(
                job.job_id,
                job.kind,
                job.label(),
                spent[job.job_id],
                False,
                status=job_status,
                attempts=attempts[job.job_id],
            )
        )
        if telemetry.enabled:
            telemetry.counter(f"runner.jobs_{job_status}").add(1)
        if progress is not None:
            last_cause = causes[job.job_id][-1] if causes[job.job_id] else ""
            detail = f" ({last_cause})" if last_cause else ""
            print(
                f"[{done:>3}/{total}] {job.label()}: {job_status.upper()}{detail}",
                file=progress,
                flush=True,
            )

    def fail_job(job: Job) -> None:
        """Exhausted retries: fail ``job``, skip its transitive dependents."""
        mark_terminal(job, FAILED, None)
        for dependent_id in graph.transitive_dependents(job.job_id, table=dependents):
            if dependent_id in status:
                continue
            mark_terminal(
                graph[dependent_id],
                SKIPPED,
                f"dependency {job.job_id} failed",
            )

    def attempt_failed(
        job: Job, attempt: int, cause: str, *, timed_out: bool = False
    ) -> None:
        nonlocal retries_count, timeouts_count, capacity_freed_at
        capacity_freed_at = time.perf_counter()
        causes[job.job_id].append(f"attempt {attempt}: {cause}")
        if timed_out:
            timeouts_count += 1
            if telemetry.enabled:
                telemetry.counter("runner.timeouts").add(1)
        if attempt < policy.max_attempts:
            retries_count += 1
            if telemetry.enabled:
                telemetry.counter("runner.retries").add(1)
            resume = time.perf_counter() + policy.backoff_seconds(job.job_id, attempt)
            heapq.heappush(delayed, (resume, position[job.job_id], job.job_id))
        else:
            fail_job(job)

    def compute_inline(job: Job, attempt: int) -> None:
        started = time.perf_counter()
        try:
            if plan is not None:
                plan.fire(job.job_id, attempt, in_worker=False)
            with telemetry.span(f"attempt:{job.kind}"):
                value = worker.compute_value(job, context)
        except Exception as error:
            spent[job.job_id] += time.perf_counter() - started
            attempt_failed(job, attempt, _describe(error))
            return
        finish(job, value, time.perf_counter() - started, False)

    def settle(job: Job, attempt: int, result: tuple) -> None:
        """Handle a pool attempt that returned: prime the context, record."""
        seconds, payload, worker_metrics = result
        try:
            value = context.prime(job.cell(), payload)
        except serialize.PayloadError as error:
            # Worker metrics from a failed attempt are deliberately not
            # merged: totals reflect committed results only, which keeps
            # a recovered faulty run's telemetry equal to a clean run's.
            spent[job.job_id] += seconds
            attempt_failed(job, attempt, f"corrupt result payload: {error}")
            return
        if worker_metrics is not None:
            # Re-root the worker's spans under the coordinator's active
            # span so nesting survives the process pool.
            telemetry.merge(worker_metrics, prefix=telemetry.current_path or None)
        encoded[job.job_id] = payload
        finish(job, value, seconds, False)

    def requeue_in_flight(in_flight: List[tuple], *, expired: frozenset) -> None:
        """Re-dispatch jobs that were in flight when the pool went down.

        Jobs whose deadline expired and jobs whose schedule says this
        attempt crashed are the culprits — they are charged a failed
        attempt.  Everything else was an innocent bystander and is
        resubmitted without being charged, guarded by a per-job break
        budget so a repeatedly crashing pool cannot loop forever.
        """
        for future, (job, attempt, deadline) in in_flight:
            if job.job_id in status:
                continue
            error = future.exception() if future.done() and not future.cancelled() else None
            if future.done() and not future.cancelled() and error is None:
                settle(job, attempt, future.result())
                continue
            if error is not None and not isinstance(error, BrokenProcessPool):
                attempt_failed(job, attempt, _describe(error))
                continue
            if future in expired:
                spent[job.job_id] += policy.job_timeout or 0.0
                attempt_failed(
                    job,
                    attempt,
                    f"timed out after {policy.job_timeout:g}s",
                    timed_out=True,
                )
                continue
            fault = plan.fault_for(job.job_id, attempt) if plan is not None else None
            if fault is not None and fault.kind == "crash":
                attempt_failed(job, attempt, "worker process crashed (injected fault)")
                continue
            pool_breaks[job.job_id] = pool_breaks.get(job.job_id, 0) + 1
            if pool_breaks[job.job_id] > policy.max_attempts:
                causes[job.job_id].append(
                    f"attempt {attempt}: worker pool broke repeatedly "
                    f"with this job in flight"
                )
                fail_job(job)
            else:
                attempts[job.job_id] -= 1
                ready.append(job.job_id)

    def rebuild_pool(*, expired: frozenset = frozenset()) -> None:
        nonlocal pool, rebuilds_count
        rebuilds_count += 1
        if telemetry.enabled:
            telemetry.counter("runner.pool_rebuilds").add(1)
        in_flight = list(futures.items())
        futures.clear()
        discard_pool(kill=True)
        pool = new_pool()
        requeue_in_flight(in_flight, expired=expired)

    def payload_of(job_id: str) -> str:
        if job_id not in encoded:  # served from disk or computed inline
            encoded[job_id] = serialize.encode(
                graph[job_id].kind, outcome.values[job_id]
            )
        return encoded[job_id]

    def submit(job: Job, attempt: int) -> None:
        dep_items = tuple(
            (graph[dep], payload_of(dep))
            for dep in job.deps
            if graph[dep].kind != "compile"
        )
        deadline = (
            time.perf_counter() + policy.job_timeout if policy.job_timeout else None
        )
        try:
            future = pool.submit(worker.run_pool_job, spec, job, dep_items, attempt)
        except BrokenProcessPool:
            # The pool died since the last wait; recover the in-flight
            # jobs, rebuild, and resubmit on the fresh pool.
            rebuild_pool()
            future = pool.submit(worker.run_pool_job, spec, job, dep_items, attempt)
        futures[future] = (job, attempt, deadline)

    def launch(job: Job) -> None:
        attempts[job.job_id] += 1
        attempt = attempts[job.job_id]
        if telemetry.enabled and attempt == 1:
            became_ready = ready_at.get(job.job_id)
            if became_ready is not None:
                telemetry.timer("runner.queue_wait").add(
                    max(
                        0.0,
                        time.perf_counter()
                        - max(became_ready, capacity_freed_at),
                    )
                )
        if pool is None or job.inline:
            compute_inline(job, attempt)
        else:
            submit(job, attempt)

    def check_timeouts() -> None:
        if not policy.job_timeout or not futures:
            return
        now = time.perf_counter()
        expired = frozenset(
            future
            for future, (_, _, deadline) in futures.items()
            if deadline is not None and deadline <= now and not future.done()
        )
        if expired:
            # A running task cannot be cancelled; reclaim the stuck
            # worker(s) by rebuilding the pool.
            rebuild_pool(expired=expired)

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
            now = time.perf_counter()
            while delayed and delayed[0][0] <= now:
                _, _, job_id = heapq.heappop(delayed)
                if job_id not in status:
                    ready.append(job_id)
                    ready_at[job_id] = now
            ready.sort(key=position.__getitem__)
            # Pool submissions are throttled to the worker count so that
            # submit time ≈ start time: per-attempt deadlines then bound
            # compute, not time spent queued behind busy workers, and a
            # pool break touches at most ``workers`` in-flight jobs.
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
                if attempts[job_id] == 0:
                    started = time.perf_counter()
                    value = context.from_disk(job.cell())
                    if value is not None:
                        finish(job, value, time.perf_counter() - started, True)
                        continue
                launch(job)
            if done >= total:
                break
            if not futures and not delayed:
                raise deadlock_error()
            # Wake for the first of: a completion, a due backoff retry,
            # or the nearest attempt deadline.
            now = time.perf_counter()
            wake = delayed[0][0] if delayed else None
            if policy.job_timeout:
                deadlines = [
                    meta[2] for meta in futures.values() if meta[2] is not None
                ]
                if deadlines:
                    nearest = min(deadlines)
                    wake = nearest if wake is None else min(wake, nearest)
            if futures:
                timeout = None if wake is None else max(0.0, wake - now)
                completed, _ = concurrent.futures.wait(
                    futures,
                    timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in completed:
                    if future not in futures:
                        continue
                    job, attempt, deadline = futures.pop(future)
                    error = future.exception()
                    if error is None:
                        settle(job, attempt, future.result())
                    elif isinstance(error, BrokenProcessPool):
                        # Put it back: recovery classifies every
                        # in-flight job (culprit vs bystander) at once.
                        futures[future] = (job, attempt, deadline)
                        rebuild_pool()
                        break
                    else:
                        attempt_failed(job, attempt, _describe(error))
                check_timeouts()
            elif wake is not None:
                time.sleep(max(0.0, wake - now))
    finally:
        if pool is not None:
            for future in futures:
                future.cancel()
            had_stuck = any(not future.done() for future in futures)
            discard_pool(kill=had_stuck)
        if plan is not None and use_pool:
            if old_plan_env is None:
                os.environ.pop(faults.ENV_VAR, None)
            else:
                os.environ[faults.ENV_VAR] = old_plan_env

    records_by_id = {record.job_id: record for record in outcome.records}
    outcome.report = RunReport(
        jobs=[
            JobReport(
                job_id=job.job_id,
                kind=job.kind,
                label=job.label(),
                status=records_by_id[job.job_id].status,
                attempts=attempts[job.job_id],
                seconds=spent[job.job_id]
                + (
                    records_by_id[job.job_id].seconds
                    if records_by_id[job.job_id].status in (OK, CACHED)
                    else 0.0
                ),
                causes=tuple(causes[job.job_id]),
            )
            for job in order
        ],
        retries=retries_count,
        timeouts=timeouts_count,
        pool_rebuilds=rebuilds_count,
    )
    return outcome
