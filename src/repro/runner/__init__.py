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
* :mod:`~repro.runner.keys` — SHA-256 cache keys from program text +
  input streams + configuration.  Only
  :class:`~repro.experiments.context.ExperimentContext` derives keys: it
  owns every cell's memo, disk probe, decode and store, and derives no
  key at all without a ``cache_dir``.
* :mod:`~repro.runner.serialize` — payload codecs: profile images and
  annotated binaries travel in their on-disk text formats,
  ``PredictionStats`` / ``IlpResult`` grids and experiment tables as JSON
  / TSV.
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

Typical use (what ``python -m repro experiments`` does)::

    from repro.experiments import ExperimentContext
    from repro.runner import build_experiment_graph, execute_graph

    context = ExperimentContext(scale=0.3, cache_dir="~/.cache/repro")
    graph = build_experiment_graph(["fig-5.1", "table-5.2"], context)
    outcome = execute_graph(graph, context, jobs=4)
    for record in outcome.records:
        print(record.job_id, record.seconds, record.cached)
    print(outcome.tables["table-5.2"].format())
"""

from .cache import ArtifactCache, default_cache_dir
from .jobs import CELL_KINDS, Job, JobGraph, build_experiment_graph
from .report import JobReport, RunFailure, RunReport

__all__ = [
    "ArtifactCache",
    "CELL_KINDS",
    "ExecutionOutcome",
    "Job",
    "JobGraph",
    "JobRecord",
    "JobReport",
    "RunFailure",
    "RunReport",
    "build_experiment_graph",
    "default_cache_dir",
    "execute_graph",
]


def __getattr__(name: str):
    # The executor pulls in the experiments layer (for table codecs and
    # the worker entry points); import it lazily so that the cache/key
    # layers stay importable from `repro.experiments.context` without a
    # cycle.
    if name in ("execute_graph", "ExecutionOutcome", "JobRecord"):
        from . import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
