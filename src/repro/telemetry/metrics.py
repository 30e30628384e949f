"""The canonical registry of telemetry metric names.

Every counter/gauge/timer name used anywhere in :mod:`repro` must be
declared here — either exactly (:data:`KNOWN_METRICS`) or as a dynamic
family (:data:`KNOWN_METRIC_PREFIXES`, for names built with an f-string
such as ``runner.job.<kind>``).  The ``repro check`` invariant lint
(:mod:`repro.check.lint`) statically extracts metric-name literals from
the source tree and fails on any name missing from this registry, so a
new instrument cannot ship undeclared (and therefore undocumented — the
"Well-known metric names" table in ``docs/api.md`` mirrors this module).

Keeping the registry in code rather than in the docs makes it cheap to
test: :func:`is_known_metric` is the single decision point shared by the
lint and by anything else that wants to validate a snapshot.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

#: Exact metric names, grouped by subsystem.
KNOWN_METRICS: FrozenSet[str] = frozenset(
    {
        # machine: the trace-generating executor and the trace store.
        "machine.instructions",
        "machine.run",
        "machine.trace.captures",
        "machine.trace.captured_records",
        "machine.trace.capture",
        "machine.trace.replays",
        "machine.trace.replayed_records",
        "machine.trace.replay",
        # Bytes of packed column buffers each committed capture adds.
        "machine.trace.stored_bytes",
        "machine.columns.values",
        # capture.shard: multi-process sharded trace capture.
        "capture.shard.runs",
        "capture.shard.jobs",
        "capture.shard.shards",
        "capture.shard.records",
        "capture.shard.capture",
        # predictors: shared by the core simulation engines.
        "predictor.lookups",
        "predictor.hits",
        "predictor.evictions",
        # core: classified hardware simulation.
        "core.simulate",
        "core.simulations",
        "core.candidates",
        "core.attempts",
        "core.taken",
        "core.taken_correct",
        "core.would_correct",
        "core.allocations",
        # core: engines by route, once per engine per call: a kernel walk,
        # a fold from a leader's walk, or a `step` per candidate.
        "core.engines.walked",
        "core.engines.followed",
        "core.engines.stepped",
        # ilp: the abstract-machine scheduler (one add per measure call).
        "ilp.schedule",
        "ilp.runs",
        "ilp.records",
        # profiling: phase-2 profile collection.
        "profiling.records",
        "profiling.runs",
        # Runs profiled inside the interpreter's closures, without a batch.
        "profiling.runs.inline",
        "profiling.collect",
        "profiling.sampled.runs",
        "profiling.sampled.records",
        # Predictors folded from a sibling's walk, once per predictor per run.
        "profiling.predictors.followed",
        # corpus: the seeded mini-C workload generator.
        "corpus.programs",
        "corpus.generate",
        # fusion: the profile merge (images folded, merges, fold time).
        "fusion.images",
        "fusion.runs",
        "fusion.fold",
        # classify: the learned predictability classifier.
        "classify.features",
        "classify.extract",
        "classify.programs",
        "classify.dataset",
        "classify.trained",
        "classify.train",
        "classify.predictions",
        "classify.predict",
        # runner: the parallel experiment engine and its degraded runs.
        "runner.jobs",
        "runner.jobs_cached",
        "runner.jobs_failed",
        "runner.jobs_skipped",
        "runner.queue_wait",
        "runner.cache.corrupt",
        # experiments: suite-level rollups.
        "experiments.tables",
        "experiments.wall_seconds",
        # serve: the profiling-as-a-service daemon.
        "serve.requests",
        "serve.admissions",
        "serve.rejections",
        "serve.queue_depth",
        "serve.jobs",
        "serve.jobs_failed",
        "serve.job_latency",
        "serve.drains",
    }
)

#: Prefixes for dynamically named metric families (name = prefix + tail).
KNOWN_METRIC_PREFIXES: Tuple[str, ...] = (
    "runner.job.",      # runner.job.<kind> per-kind timers
    "runner.jobs_",     # runner.jobs_<status> degraded-run counters
    "cache.hit.",       # cache.{hit,miss,store,corrupt}.<kind>
    "cache.miss.",
    "cache.store.",
    "cache.corrupt.",
    "serve.job.",       # serve.job.<kind> per-kind latency timers
    "serve.tenant.",    # serve.tenant.<tenant>.{admissions,rejections}
)


def is_known_metric(name: str) -> bool:
    """Whether ``name`` is declared, exactly or via a dynamic family."""
    if name in KNOWN_METRICS:
        return True
    return any(name.startswith(prefix) for prefix in KNOWN_METRIC_PREFIXES)


__all__ = ["KNOWN_METRICS", "KNOWN_METRIC_PREFIXES", "is_known_metric"]
