"""Job entry points executed in pool processes (and inline).

A pool worker receives a picklable job plus the *encoded* payloads of
its dependencies, rebuilds an :class:`ExperimentContext` matching the
parent's configuration, primes the dependency cells into it
(:meth:`~repro.experiments.context.ExperimentContext.prime`), and
computes its own cell through exactly the same code path a serial run
takes (:mod:`repro.experiments.shared` and the context's artifact
methods, all served by ``ExperimentContext.cell``).  That shared path is
what makes ``--jobs N`` byte-identical to ``--jobs 1``.  The context,
not this module, decides how a cell is keyed, cached and decoded.

Contexts are kept in a per-process table keyed by configuration, so a
long-lived pool worker reuses compiled programs, profiles and annotated
binaries across every job it is handed.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from ..telemetry import Telemetry, get_registry, use_registry
from . import serialize
from .jobs import Job

#: Per-process contexts, keyed by :func:`spec_key` of the parent config.
_CONTEXTS: Dict[Tuple, object] = {}


def context_spec(context) -> dict:
    """The picklable configuration a worker needs to mirror ``context``."""
    return {
        "scale": context.scale,
        "training_runs": context.training_runs,
        "stride_threshold": context.stride_threshold,
        "cache_dir": str(context.cache_dir) if context.cache_dir else None,
        "telemetry": get_registry().enabled,
    }


def spec_key(spec: dict) -> Tuple:
    return (
        spec["scale"],
        spec["training_runs"],
        spec["stride_threshold"],
        spec["cache_dir"],
    )


def resolve_context(spec: dict):
    """The per-process context for ``spec`` (created on first use)."""
    key = spec_key(spec)
    context = _CONTEXTS.get(key)
    if context is None:
        from ..experiments.context import ExperimentContext

        context = ExperimentContext(
            scale=spec["scale"],
            training_runs=spec["training_runs"],
            cache_dir=spec["cache_dir"],
            stride_threshold=spec["stride_threshold"],
        )
        _CONTEXTS[key] = context
    return context


def compute_value(job: Job, context):
    """Compute one job in-process, returning the native (decoded) value."""
    from ..experiments import shared

    if job.kind == "compile":
        return context.program(job.name)
    if job.kind == "profile":
        return context.training_profile(job.name, job.params[0])
    if job.kind == "annotate":
        return context.annotated(job.name, job.params[0])
    if job.kind == "classify":
        return shared.classification_accuracy_stats(context, job.name)
    if job.kind == "ilp":
        entries, ways = job.params
        return shared.ilp_results(context, job.name, None, entries, ways)
    if job.kind == "experiment":
        from ..experiments.runner import EXPERIMENTS

        return context.cell(job.cell(), lambda: EXPERIMENTS[job.name](context))
    raise ValueError(f"unknown job kind {job.kind!r}")


def run_pool_job(
    spec: dict, job: Job, dep_items: Sequence[Tuple[Job, str]]
) -> Tuple[float, str, Optional[dict]]:
    """Pool entry point: prime dependencies, compute, return encoded.

    Returns ``(compute_seconds, payload, telemetry_snapshot)`` — the
    timing covers only this job's own work, not queue wait or dependency
    decoding, so parent-side progress lines report honest per-cell cost.
    When the coordinator's registry is live, the job runs under a fresh
    per-job registry whose snapshot rides back for merging; totals over a
    parallel run therefore equal a serial run's.
    """
    context = resolve_context(spec)
    for dep_job, payload in dep_items:
        context.prime(dep_job.cell(), payload)
    # The coordinator probed the disk before launching this job.
    context.missed(job.cell())
    if spec.get("telemetry"):
        registry = Telemetry()
        with use_registry(registry):
            with registry.span(f"attempt:{job.kind}"):
                started = time.perf_counter()
                value = compute_value(job, context)
                seconds = time.perf_counter() - started
        snapshot = registry.snapshot()
    else:
        started = time.perf_counter()
        value = compute_value(job, context)
        seconds = time.perf_counter() - started
        snapshot = None
    return seconds, serialize.encode(job.kind, value), snapshot
