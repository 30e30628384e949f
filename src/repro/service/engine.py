"""Job execution against the service's shared stores.

One :class:`ServiceEngine` owns what every tenant shares: the
content-addressed :class:`~repro.machine.TraceStore` (capture a trace
once, every later job replays it), the on-disk
:class:`~repro.runner.cache.ArtifactCache`, and the
:class:`~repro.runner.retry.RetryPolicy` under which jobs re-run.

Each ``run_*`` method reproduces the corresponding batch CLI command's
computation exactly — same entry points, same ``run_label`` strings,
same default budgets — so a service :class:`~repro.service.api.JobResult`
``output`` is byte-identical to the bytes ``python -m repro
compile/trace/profile/annotate/experiments`` would have produced.  The
e2e test and the CI smoke job assert this equivalence.

Experiment jobs genuinely multiplex onto the fault-tolerant runner:
the job graph is built by :func:`repro.runner.build_experiment_graph`
and executed by :func:`repro.runner.executor.execute_graph` under the
engine's retry policy, and the run's
:class:`~repro.runner.retry.RunReport` rides back in the result meta.

Execution happens on worker threads (the server calls :meth:`execute`
through an executor), so everything here is thread-safe: the trace
store locks its LRU, experiment contexts are created under a lock, and
per-kind telemetry uses the registry's monotonic instruments.
"""

from __future__ import annotations

import io
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..annotate import AnnotationPolicy, annotate_program, annotation_report
from ..isa import assemble, disassemble
from ..lang import CompileError, compile_source
from ..machine import DEFAULT_BUDGET, ExecutionError, TraceStore, write_trace
from ..machine.tracestore import trace_key
from ..profiling import (
    MergeAccumulator,
    ProfileFormatError,
    collect_profile,
    decode_profile_payload,
    dumps_profile,
    loads_profile,
    merge_profiles,
)
from ..runner.cache import ArtifactCache
from ..runner.retry import RetryPolicy
from ..telemetry import get_registry
from .api import (
    AnnotateJob,
    ApiError,
    ClassifyJob,
    CompileJob,
    EXECUTION_ERROR,
    ExperimentJob,
    FuseJob,
    INVALID_JOB,
    Job,
    ProfileJob,
    TraceJob,
)

#: Exceptions that mean the *job* is wrong, not the server — never retried.
_JOB_FAULTS = (CompileError, ProfileFormatError, SyntaxError, ValueError, KeyError)


class ServiceEngine:
    """Executes decoded jobs against the shared tenant-wide resources.

    Args:
        store_dir: on-disk root for the shared trace store (``None``
            keeps traces memory-only).
        cache_dir: on-disk root for the shared artifact cache used by
            experiment jobs (``None`` disables it).
        retry: policy under which the server re-runs failed attempts.
    """

    def __init__(
        self,
        store_dir: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.store_dir = Path(store_dir) if store_dir else None
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.retry = retry or RetryPolicy()
        self.traces = TraceStore(self.store_dir)
        self.artifacts = ArtifactCache(self.cache_dir) if self.cache_dir else None
        self._contexts: Dict[Tuple[float, int], Any] = {}
        self._context_lock = threading.Lock()

    # -- dispatch ----------------------------------------------------

    def execute(self, job: Job) -> Tuple[str, Dict[str, Any]]:
        """Run one job; returns ``(output text, meta)``.

        Raises :class:`ApiError` — ``invalid-job`` for payloads that can
        never succeed (never retried by the server), ``execution-error``
        for runs the machine terminated.  Any other exception is a
        transient server-side failure eligible for retry.
        """
        telemetry = get_registry()
        started = time.perf_counter()
        try:
            if isinstance(job, CompileJob):
                result = self.run_compile(job)
            elif isinstance(job, TraceJob):
                result = self.run_trace(job)
            elif isinstance(job, ProfileJob):
                result = self.run_profile(job)
            elif isinstance(job, AnnotateJob):
                result = self.run_annotate(job)
            elif isinstance(job, ExperimentJob):
                result = self.run_experiment(job)
            elif isinstance(job, FuseJob):
                result = self.run_fuse(job)
            elif isinstance(job, ClassifyJob):
                result = self.run_classify(job)
            else:  # pragma: no cover - decoding rejects unknown kinds
                raise ApiError(INVALID_JOB, f"unsupported job type {type(job).__name__}")
        except ApiError:
            telemetry.counter("serve.jobs_failed").add(1)
            raise
        except _JOB_FAULTS as error:
            telemetry.counter("serve.jobs_failed").add(1)
            raise ApiError(INVALID_JOB, f"{type(error).__name__}: {error}") from error
        finally:
            elapsed = time.perf_counter() - started
            telemetry.timer("serve.job_latency").add(elapsed)
            telemetry.timer(f"serve.job.{job.KIND}").add(elapsed)
        telemetry.counter("serve.jobs").add(1)
        return result

    # -- per-kind computations (each mirrors one CLI command) --------

    def _assemble(self, text: str, name: str):
        try:
            return assemble(text, name=name)
        except Exception as error:
            raise ApiError(INVALID_JOB, f"bad program: {error}") from error

    def run_compile(self, job: CompileJob) -> Tuple[str, Dict[str, Any]]:
        program = compile_source(job.source, name=job.name, optimize=job.optimize)
        meta = {
            "name": program.name,
            "instructions": len(program),
            "candidates": len(program.candidate_addresses),
        }
        return disassemble(program), meta

    def run_trace(self, job: TraceJob) -> Tuple[str, Dict[str, Any]]:
        program = self._assemble(job.program, job.name)
        budget = DEFAULT_BUDGET if job.max_instructions is None else job.max_instructions
        buffer = io.StringIO()
        try:
            count = write_trace(
                self.traces.batches(program, job.inputs, max_instructions=budget),
                buffer,
                program.name,
            )
        except ExecutionError as error:
            raise ApiError(
                EXECUTION_ERROR, f"{type(error).__name__}: {error}"
            ) from error
        meta = {
            "records": count,
            "trace_key": trace_key(program, list(job.inputs), budget),
        }
        return buffer.getvalue(), meta

    def run_profile(self, job: ProfileJob) -> Tuple[str, Dict[str, Any]]:
        program = self._assemble(job.program, job.name)
        try:
            images = [
                collect_profile(
                    program,
                    list(inputs),
                    run_label=f"run-{index}",
                    max_instructions=job.max_instructions,
                    sample_every=job.sample_every,
                    store=self.traces,
                )
                for index, inputs in enumerate(job.input_sets)
            ]
        except ExecutionError as error:
            raise ApiError(
                EXECUTION_ERROR, f"{type(error).__name__}: {error}"
            ) from error
        image = images[0] if len(images) == 1 else merge_profiles(images)
        meta = {"instructions": len(image), "runs": len(images)}
        return dumps_profile(image), meta

    def run_fuse(self, job: FuseJob) -> Tuple[str, Dict[str, Any]]:
        accumulator = MergeAccumulator(
            run_label=job.name, require_common=job.require_common
        )
        sketches = 0
        for payload in job.profiles:
            if not payload.startswith("# repro-profile-image"):
                sketches += 1
            accumulator.fold(decode_profile_payload(payload))
        image = accumulator.result()
        meta = {
            "images": accumulator.images_folded,
            "sketches": sketches,
            "instructions": len(image),
        }
        return dumps_profile(image), meta

    def run_annotate(self, job: AnnotateJob) -> Tuple[str, Dict[str, Any]]:
        program = self._assemble(job.program, job.name)
        image = loads_profile(job.profile)
        policy = AnnotationPolicy(
            accuracy_threshold=job.accuracy_threshold,
            stride_threshold=job.stride_threshold,
        )
        annotated = annotate_program(program, image, policy)
        report = annotation_report(program, image, policy)
        meta = {
            "candidates": report.candidates,
            "stride_tagged": report.stride_tagged,
            "last_value_tagged": report.last_value_tagged,
        }
        return disassemble(annotated), meta

    def run_classify(self, job: ClassifyJob) -> Tuple[str, Dict[str, Any]]:
        from ..classify import ModelFormatError, annotate_with_model, loads_model, model_digest

        program = self._assemble(job.program, job.name)
        try:
            model = loads_model(job.model)
        except ModelFormatError as error:
            raise ApiError(INVALID_JOB, f"bad model: {error}") from error
        annotated = annotate_with_model(model, program)
        directives = annotated.directives()
        meta = {
            "candidates": len(program.candidate_addresses),
            "tagged": len(directives),
            "model_digest": model_digest(model),
        }
        return disassemble(annotated), meta

    def run_experiment(self, job: ExperimentJob) -> Tuple[str, Dict[str, Any]]:
        from ..experiments.runner import EXPERIMENTS
        from ..runner import build_experiment_graph
        from ..runner.executor import execute_graph

        if job.experiment not in EXPERIMENTS:
            raise ApiError(
                INVALID_JOB,
                f"unknown experiment {job.experiment!r} "
                "(see `python -m repro experiments list`)",
            )
        context = self._context(job.scale, job.training_runs)
        graph = build_experiment_graph([job.experiment], context)
        outcome = execute_graph(graph, context, jobs=1, retry=self.retry)
        table = outcome.tables.get(job.experiment)
        meta: Dict[str, Any] = {}
        if outcome.report is not None:
            meta["run_report"] = outcome.report.to_dict()
        if table is None:
            causes = [
                cause
                for entry in (outcome.report.failed if outcome.report else [])
                for cause in entry.causes
            ]
            detail = causes[-1] if causes else "experiment produced no table"
            raise ApiError(EXECUTION_ERROR, detail)
        meta["tsv"] = table.to_tsv()
        return table.format(), meta

    def _context(self, scale: float, training_runs: int):
        """One memoizing :class:`ExperimentContext` per (scale, runs) pair.

        All contexts share the engine's trace store and artifact cache,
        so every tenant's experiment jobs replay each other's traces.
        """
        from ..experiments.context import ExperimentContext

        key = (scale, training_runs)
        with self._context_lock:
            context = self._contexts.get(key)
            if context is None:
                context = ExperimentContext(
                    scale=scale,
                    training_runs=training_runs,
                    cache_dir=self.cache_dir,
                )
                context.traces = self.traces
                self._contexts[key] = context
            return context


__all__ = ["ServiceEngine"]
