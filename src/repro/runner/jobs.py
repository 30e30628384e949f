"""The experiment job graph.

The suite decomposes into independent *cells* with explicit
dependencies::

    compile(w)                                   [inline: parent process]
      └─ profile(w, run)                         one per training run
           └─ annotate(w, threshold)             merge + directive insertion
                ├─ classify(w)                   Figs 5.1/5.2 grid
                ├─ finite(w, entries, ways)      Figs 5.3/5.4 grid
                └─ ilp(w, entries, ways)         Table 5.2 grid
    experiment(id)                               one per requested table

Each experiment module declares which cell kinds it consumes in a
module-level ``CELLS`` tuple (e.g. ``CELLS = ("classify",)`` for
Figure 5.1); the builder instantiates the union of the requested cells
across the Table 4.1 benchmarks and makes each experiment job depend on
the closure of its kinds, so a pool worker running the experiment
receives every primed artifact it needs and recomputes nothing.
Experiments with ``CELLS = ()`` (bespoke studies like the ablations) run
self-contained in their own worker.

Compile jobs are marked ``inline``: the parent needs every program text
anyway to compute cache keys, and compilation is memoized per process,
so shipping it to a worker would only add overhead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

#: Cell kinds an experiment module may declare in its ``CELLS`` tuple.
CELL_KINDS = ("profile", "annotate", "classify", "finite", "ilp")

#: Transitive closure of artifacts implied by each cell kind.
KIND_CLOSURE = {
    "profile": ("profile",),
    "annotate": ("profile", "annotate"),
    "classify": ("profile", "annotate", "classify"),
    "finite": ("profile", "annotate", "finite"),
    "ilp": ("profile", "annotate", "ilp"),
}


@dataclasses.dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``name`` is the workload name for cell jobs and the experiment id
    for experiment jobs; ``params`` carries kind-specific values (run
    index, threshold, table geometry).  Jobs are immutable and picklable
    — they travel to pool workers alongside their dependency payloads.
    """

    job_id: str
    kind: str
    name: str
    params: Tuple = ()
    deps: Tuple[str, ...] = ()
    inline: bool = False

    def cell(self) -> Tuple:
        """The context cell this job computes: ``(kind, name, *params)``."""
        return (self.kind, self.name) + self.params

    def label(self) -> str:
        """Human-readable form for progress lines."""
        if self.kind == "profile":
            return f"profile({self.name}, run {self.params[0]})"
        if self.kind == "annotate":
            return f"annotate({self.name}, th={self.params[0]:g})"
        if self.kind in ("finite", "ilp"):
            entries, ways = self.params[:2]
            return f"{self.kind}({self.name}, {entries}x{ways})"
        return f"{self.kind}({self.name})"


class JobGraph:
    """An insertion-ordered DAG of :class:`Job` objects."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}

    def add(self, job: Job) -> Job:
        existing = self.jobs.get(job.job_id)
        if existing is not None:
            return existing
        for dep in job.deps:
            if dep not in self.jobs:
                raise ValueError(f"{job.job_id}: unknown dependency {dep!r}")
        self.jobs[job.job_id] = job
        return job

    def order(self) -> List[Job]:
        """Jobs in insertion order (a valid topological order)."""
        return list(self.jobs.values())

    def dependents(self) -> Dict[str, List[str]]:
        """job id -> the ids that list it as a direct dependency."""
        table: Dict[str, List[str]] = {job_id: [] for job_id in self.jobs}
        for job in self.jobs.values():
            for dep in job.deps:
                table[dep].append(job.job_id)
        return table

    def transitive_dependents(
        self, job_id: str, table: Optional[Dict[str, List[str]]] = None
    ) -> List[str]:
        """Every job downstream of ``job_id``, in insertion order.

        This is the skip set when ``job_id`` fails: nothing in it can
        ever run.  Pass a precomputed :meth:`dependents` ``table`` to
        amortize the reverse-edge scan across calls.
        """
        if table is None:
            table = self.dependents()
        reached = set()
        frontier = list(table[job_id])
        while frontier:
            current = frontier.pop()
            if current in reached:
                continue
            reached.add(current)
            frontier.extend(table[current])
        return [job.job_id for job in self.jobs.values() if job.job_id in reached]

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.jobs

    def __getitem__(self, job_id: str) -> Job:
        return self.jobs[job_id]


def compile_id(name: str) -> str:
    return f"compile:{name}"


def profile_id(name: str, run_index: int) -> str:
    return f"profile:{name}:{run_index}"


def annotate_id(name: str, threshold: float) -> str:
    return f"annotate:{name}:{threshold:g}"


def classify_id(name: str) -> str:
    return f"classify:{name}"


def finite_id(name: str, entries: int, ways: int) -> str:
    return f"finite:{name}:{entries}:{ways}"


def ilp_id(name: str, entries: int, ways: int) -> str:
    return f"ilp:{name}:{entries}:{ways}"


def experiment_id(identifier: str) -> str:
    return f"experiment:{identifier}"


def experiment_cells(module) -> Tuple[str, ...]:
    """The ``CELLS`` declaration of an experiment module (default none)."""
    cells = tuple(getattr(module, "CELLS", ()))
    unknown = [kind for kind in cells if kind not in CELL_KINDS]
    if unknown:
        raise ValueError(
            f"{module.__name__}: unknown cell kind(s) {unknown}; "
            f"known: {CELL_KINDS}"
        )
    return cells


def build_experiment_graph(
    names: Sequence[str],
    context,
    workload_names: Optional[Sequence[str]] = None,
) -> JobGraph:
    """Express the requested experiments as a job graph.

    ``context`` is an :class:`~repro.experiments.context.ExperimentContext`
    — only its configuration (training-run count, thresholds constants)
    shapes the graph.  ``workload_names`` defaults to the Table 4.1
    benchmark set shared by every paper experiment.
    """
    # Imported here: the experiments layer imports this package at the
    # module level, so the dependency must stay one-way at import time.
    from ..experiments.context import TABLE_ENTRIES, TABLE_WAYS, THRESHOLDS
    from ..experiments.runner import EXPERIMENTS, MODULES
    from ..workloads import TABLE_4_1_NAMES

    if workload_names is None:
        workload_names = TABLE_4_1_NAMES

    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        raise SystemExit(f"unknown experiment {unknown[0]!r}; known: {known}")

    graph = JobGraph()
    kinds_needed = set()
    for name in names:
        for kind in experiment_cells(MODULES[name]):
            kinds_needed.update(KIND_CLOSURE[kind])

    cell_ids: Dict[str, List[str]] = {kind: [] for kind in CELL_KINDS}
    if kinds_needed:
        for workload in workload_names:
            graph.add(Job(compile_id(workload), "compile", workload, inline=True))
        for workload in workload_names:
            profiles = []
            for run_index in range(context.training_runs):
                job = graph.add(
                    Job(
                        profile_id(workload, run_index),
                        "profile",
                        workload,
                        params=(run_index,),
                        deps=(compile_id(workload),),
                    )
                )
                profiles.append(job.job_id)
            cell_ids["profile"].extend(profiles)
            if not kinds_needed - {"profile"}:
                continue
            annotates = []
            for threshold in THRESHOLDS:
                job = graph.add(
                    Job(
                        annotate_id(workload, threshold),
                        "annotate",
                        workload,
                        params=(threshold,),
                        deps=tuple(profiles),
                    )
                )
                annotates.append(job.job_id)
            cell_ids["annotate"].extend(annotates)
            if "classify" in kinds_needed:
                job = graph.add(
                    Job(
                        classify_id(workload),
                        "classify",
                        workload,
                        deps=tuple(annotates),
                    )
                )
                cell_ids["classify"].append(job.job_id)
            if "finite" in kinds_needed:
                job = graph.add(
                    Job(
                        finite_id(workload, TABLE_ENTRIES, TABLE_WAYS),
                        "finite",
                        workload,
                        params=(TABLE_ENTRIES, TABLE_WAYS),
                        deps=tuple(annotates),
                    )
                )
                cell_ids["finite"].append(job.job_id)
            if "ilp" in kinds_needed:
                job = graph.add(
                    Job(
                        ilp_id(workload, TABLE_ENTRIES, TABLE_WAYS),
                        "ilp",
                        workload,
                        params=(TABLE_ENTRIES, TABLE_WAYS),
                        deps=tuple(annotates),
                    )
                )
                cell_ids["ilp"].append(job.job_id)

    for name in names:
        deps: List[str] = []
        for kind in experiment_cells(MODULES[name]):
            for closure_kind in KIND_CLOSURE[kind]:
                deps.extend(cell_ids[closure_kind])
        graph.add(
            Job(
                experiment_id(name),
                "experiment",
                name,
                deps=tuple(dict.fromkeys(deps)),
            )
        )
    return graph
