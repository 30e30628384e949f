"""Job entry points executed in pool processes (and inline).

A pool worker receives a picklable job plus the *encoded* payloads of
its dependencies, rebuilds an :class:`ExperimentContext` matching the
parent's configuration, primes the dependency cells into it
(:meth:`~repro.experiments.context.ExperimentContext.prime`), and
computes its own cell through exactly the same code path a serial run
takes: ``ExperimentContext.cell``, which computes it as the cell-kind
table declares.  That shared path is what makes ``--jobs N``
byte-identical to ``--jobs 1``.  The context, not this module, decides
how a cell is computed, keyed, cached and encoded.

Contexts are kept in a per-process table keyed by configuration, so a
long-lived pool worker reuses compiled programs, profiles and annotated
binaries across every job it is handed.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from ..telemetry import Telemetry, get_registry, use_registry
from .jobs import Job

#: Per-process contexts, keyed by the parent's configuration.
_CONTEXTS: Dict[Tuple, object] = {}


def context_spec(context) -> Tuple:
    """What a worker needs to mirror ``context``, picklable:
    ``(configuration, telemetry enabled)``, where the configuration is
    ``ExperimentContext``'s positional arguments."""
    cache_dir = str(context.cache_dir) if context.cache_dir else None
    configuration = (
        context.scale, context.training_runs, cache_dir, context.stride_threshold
    )
    return configuration, get_registry().enabled


def resolve_context(configuration: Tuple):
    """The per-process context for ``configuration`` (made on first use)."""
    context = _CONTEXTS.get(configuration)
    if context is None:
        from ..experiments.context import ExperimentContext

        context = _CONTEXTS[configuration] = ExperimentContext(*configuration)
    return context


def compute_value(job: Job, context):
    """Compute one job in-process, returning the native (decoded) value."""
    return context.cell(job.cell())


def run_pool_job(
    spec: Tuple, job: Job, dep_items: Sequence[Tuple[Job, str]]
) -> Tuple[float, str, Optional[dict]]:
    """Pool entry point: prime dependencies, compute, return encoded.

    Returns ``(compute_seconds, payload, telemetry_snapshot)`` — the
    timing covers only this job's own work, not queue wait or dependency
    decoding, so parent-side progress lines report honest per-cell cost.
    When the coordinator's registry is live, the job runs under a fresh
    per-job registry whose snapshot rides back for merging; totals over a
    parallel run therefore equal a serial run's.
    """
    configuration, telemetry = spec
    context = resolve_context(configuration)
    for dep_job, payload in dep_items:
        context.prime(dep_job.cell(), payload)
    # The coordinator probed the disk before launching this job.
    context.missed(job.cell())
    if telemetry:
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
    return seconds, context.encode(job.cell(), value), snapshot
