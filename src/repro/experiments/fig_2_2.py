"""Figure 2.2 — the spread of instructions by prediction accuracy.

Paper: per benchmark, the percentage of (register-writing) instructions
whose stride-predictor accuracy falls in each of the ten intervals [0,10],
(10,20], ..., (90,100].  Floating-point benchmarks appear twice — the
initialization phase (#1, reading input data) and the computation phase
(#2) — matching the paper's presentation.

Expected shape: bimodal — roughly 30% of instructions above 90% accuracy
and roughly 40% below 10%, with little mass in the middle.  The FP
initialization phases are tiny input-reading loops, so their few static
instructions sit almost entirely in the extreme intervals; the
computation phases show the fuller spread.
"""

from __future__ import annotations

from ..profiling import (
    HISTOGRAM_LABELS,
    collect_phase_profiles,
    interval_percentages,
)
from ..workloads import all_workloads
from .context import ExperimentContext
from .tables import ExperimentTable

EXPERIMENT_ID = "fig-2.2"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("profile",)


def _accuracies(image) -> list:
    return [
        profile.accuracy
        for profile in image.instructions.values()
        if profile.attempts > 0
    ]


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="% of instructions per prediction-accuracy interval",
        headers=["benchmark"] + HISTOGRAM_LABELS,
    )
    for workload in all_workloads():
        if workload.suite == "fp":
            # Phase-split presentation, as in the paper's SPEC-FP panel.
            images = collect_phase_profiles(
                workload.compile(),
                workload.test_inputs(scale=context.scale),
                store=context.traces,
            )
            for phase in sorted(images):
                if phase == 0:
                    continue
                table.add_row(
                    f"{workload.name}#{phase}",
                    *interval_percentages(_accuracies(images[phase])),
                )
        else:
            image = context.merged_profile(workload.name)
            table.add_row(workload.name, *interval_percentages(_accuracies(image)))
    table.notes.append(
        "int benchmarks: merged training profile; FP benchmarks: test run "
        "split into #1 init / #2 computation phases (unbounded stride "
        "predictor)"
    )
    return table
