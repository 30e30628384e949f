"""The experiment job graph.

The suite decomposes into independent *cells* with explicit
dependencies::

    compile(w)                                   [inline: parent process]
      └─ profile(w, run)                         one per training run
           └─ annotate(w, threshold)             merge + directive insertion
                └─ grid(w)                       Figs 5.1-5.4, Tables 5.1/5.2
    experiment(id)                               one per requested table

The edges, the params of each kind's jobs and their labels come from
the cell-kind table (:data:`repro.experiments.cells.KINDS`); this
module knows no kind by name but ``experiment``.  Each experiment
module declares which cell kinds it consumes in a module-level
``CELLS`` tuple (e.g. ``CELLS = ("grid",)`` for Figure 5.1); the
builder instantiates the union of the requested cells across the
Table 4.1 benchmarks and makes each experiment job depend on every
cell of its kinds' closure, so a pool worker running the experiment
receives every primed artifact it needs and recomputes nothing.
Experiments with ``CELLS = ()`` (bespoke studies like the ablations) run
self-contained in their own worker.

Inline jobs (compile) run in the parent: it needs every program text
anyway to compute cache keys, and compilation is memoized per process,
so shipping it to a worker would only add overhead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``name`` is the workload name for cell jobs and the experiment id
    for experiment jobs; ``params`` carries kind-specific values (run
    index, threshold).  Jobs are immutable and picklable — they travel
    to pool workers alongside their dependency payloads.  ``label`` is
    the human-readable form for progress lines (default ``kind(name)``).
    """

    job_id: str
    kind: str
    name: str
    params: Tuple = ()
    deps: Tuple[str, ...] = ()
    inline: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", f"{self.kind}({self.name})")

    def cell(self) -> Tuple:
        """The context cell this job computes: ``(kind, name, *params)``."""
        return (self.kind, self.name) + self.params


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


def job_id(kind: str, name: str, *params) -> str:
    """``kind:name[:param...]``, numbers in ``%g`` form (``annotate:w:90``)."""
    return ":".join([kind, name, *(f"{param:g}" for param in params)])


def experiment_cells(module, kinds) -> Tuple[str, ...]:
    """The ``CELLS`` declaration of an experiment module (default none)."""
    cells = tuple(getattr(module, "CELLS", ()))
    known = tuple(kind for kind, spec in kinds.items() if spec.fan_out is not None)
    unknown = [kind for kind in cells if kind not in known]
    if unknown:
        raise ValueError(
            f"{module.__name__}: unknown cell kind(s) {unknown}; known: {known}"
        )
    return cells


def build_experiment_graph(
    names: Sequence[str],
    context,
    workload_names: Optional[Sequence[str]] = None,
) -> JobGraph:
    """Express the requested experiments as a job graph.

    ``context`` is an :class:`~repro.experiments.context.ExperimentContext`
    — only its configuration (training-run count) shapes the graph.
    ``workload_names`` defaults to the Table 4.1 benchmark set shared by
    every paper experiment.  Inline jobs come first, for every workload;
    then each workload's chain, in table order.
    """
    # Imported here: the experiments layer imports this package at the
    # module level, so the dependency must stay one-way at import time.
    from ..experiments.cells import KINDS, closure
    from ..experiments.runner import EXPERIMENTS, MODULES
    from ..workloads import TABLE_4_1_NAMES

    if workload_names is None:
        workload_names = TABLE_4_1_NAMES

    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        raise SystemExit(f"unknown experiment {unknown[0]!r}; known: {known}")

    declared = {name: experiment_cells(MODULES[name], KINDS) for name in names}
    needed = {
        kind for cells in declared.values() for cell in cells for kind in closure(cell)
    }

    graph = JobGraph()
    #: (kind, workload) -> that workload's job ids of the kind.
    made: Dict[Tuple[str, str], List[str]] = {}
    for inline in (True, False):
        for workload in workload_names:
            for kind, spec in KINDS.items():
                if kind not in needed or spec.inline is not inline:
                    continue
                deps = tuple(
                    dep_id for dep in spec.deps for dep_id in made[dep, workload]
                )
                made[kind, workload] = [
                    graph.add(
                        Job(
                            job_id(kind, workload, *params),
                            kind,
                            workload,
                            params=tuple(params),
                            deps=deps,
                            inline=spec.inline,
                            label=f"{kind}({spec.label.format(workload, *params)})",
                        )
                    ).job_id
                    for params in spec.fan_out(context)
                ]

    for name in names:
        deps = [
            dep_id
            for cell in declared[name]
            for kind in closure(cell)
            if not KINDS[kind].inline
            for workload in workload_names
            for dep_id in made[kind, workload]
        ]
        graph.add(
            Job(
                job_id("experiment", name),
                "experiment",
                name,
                deps=tuple(dict.fromkeys(deps)),
            )
        )
    return graph
