"""The parallel experiment engine.

The full experiment suite decomposes into independent *cells* — compile a
workload, profile one training run, merge-and-annotate at a threshold,
simulate a (benchmark × engine-set) grid, schedule it on the ILP machine
— with explicit dependencies between them.  This package expresses the
suite as a :class:`JobGraph` of such cells, fans it out across cores with
a :class:`concurrent.futures.ProcessPoolExecutor`, and persists every
expensive artifact in a content-addressed on-disk :class:`ArtifactCache`
so that a repeated run is nearly free and single-figure reruns reuse
sibling work.

Layering (no module imports upward):

* :mod:`~repro.runner.cache` — the content-addressed store (stdlib only).
* :mod:`~repro.runner.keys` — the SHA-256 digests cache keys are made
  of: program text, input streams, configuration.  Only
  :class:`~repro.experiments.context.ExperimentContext` derives keys: it
  owns every cell's memo, disk probe, decode and store, and derives no
  key at all without a ``cache_dir``.
* :mod:`~repro.runner.jobs` — the job graph and its builder; a job names
  its context cell as ``(kind, name, *params)``.
* :mod:`~repro.runner.report` — the structured :class:`RunReport`
  every run ends with (per-job status, seconds, causes) and
  :class:`RunFailure`.
* :mod:`~repro.runner.worker` — the picklable job entry points executed
  in pool processes: prime the dependency cells into a per-process
  context, compute the job's cell, return it encoded.
* :mod:`~repro.runner.executor` — serial and process-pool scheduling,
  one attempt per job: a failed job's dependents are skipped, and a
  broken pool's lost jobs rerun in-process; per-job timing, progress
  lines, deterministic result ordering.  It asks the context for a disk
  hit before launching a job.

The package is generic over cells: what a kind computes, which kinds
its jobs wait for, and how it is held, keyed and encoded is declared
once, in the cell-kind table :data:`repro.experiments.cells.KINDS`.

Typical use (what ``python -m repro experiments`` does)::

    from repro.experiments import ExperimentContext
    from repro.runner import build_experiment_graph, execute_graph

    context = ExperimentContext(scale=0.3, cache_dir="~/.cache/repro")
    graph = build_experiment_graph(["fig-5.1", "table-5.2"], context)
    outcome = execute_graph(graph, context, jobs=4)
    for entry in outcome.report.jobs:
        print(entry.job_id, entry.seconds, entry.status)
    print(outcome.tables["table-5.2"].format())
"""

from .cache import ArtifactCache, default_cache_dir
from .executor import ExecutionOutcome, execute_graph
from .jobs import Job, JobGraph, build_experiment_graph
from .report import JobReport, RunFailure, RunReport

__all__ = [
    "ArtifactCache",
    "ExecutionOutcome",
    "Job",
    "JobGraph",
    "JobReport",
    "RunFailure",
    "RunReport",
    "build_experiment_graph",
    "default_cache_dir",
    "execute_graph",
]

