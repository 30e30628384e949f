"""Table 2.1 — value prediction accuracy by predictor and category.

Paper: aggregate prediction accuracy of the last-value (L) and stride (S)
predictors over the integer suite (ALU instructions and loads) and the FP
suite (FP computation instructions and FP loads, separately for the
initialization and computation phases).

Expected shape: a substantial fraction of values is predictable; the
stride predictor matches or beats last-value on integer ALU instructions;
the FP computation phase shows the strongest stride behaviour.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..isa import Category
from ..profiling import GroupStats
from ..workloads import all_workloads
from .context import ExperimentContext
from .tables import ExperimentTable

EXPERIMENT_ID = "table-2.1"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ()


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="Value prediction accuracy [%] (S = stride, L = last-value)",
        headers=["suite", "phase", "category", "S", "L"],
    )
    # (suite, phase, category, predictor) -> aggregated attempts/correct.
    totals: Dict[Tuple[str, int, Category, str], GroupStats] = {}

    for workload in all_workloads():
        profile = context.read(("test-profile", workload.name), EXPERIMENT_ID)
        for predictor_name, images in profile.items():
            for image in images.values():
                for (category, phase), group in image.groups.items():
                    # Integer benchmarks are single-phase; fold them to phase 0.
                    effective_phase = phase if workload.suite == "fp" else 0
                    key = (workload.suite, effective_phase, category, predictor_name)
                    into = totals.setdefault(key, GroupStats())
                    into.executions += group.executions
                    into.attempts += group.attempts
                    into.correct += group.correct

    def accuracy(suite: str, phase: int, category: Category, predictor: str) -> float:
        group = totals.get((suite, phase, category, predictor))
        return 0.0 if group is None else group.accuracy

    for category, label in (
        (Category.INT_ALU, "ALU instructions"),
        (Category.INT_LOAD, "load instructions"),
    ):
        table.add_row(
            "Spec-int95",
            "-",
            label,
            accuracy("int", 0, category, "S"),
            accuracy("int", 0, category, "L"),
        )
    for phase, phase_label in ((1, "init"), (2, "comp")):
        for category, label in (
            (Category.FP_ALU, "FP computation"),
            (Category.FP_LOAD, "FP loads"),
        ):
            table.add_row(
                "Spec-fp95",
                phase_label,
                label,
                accuracy("fp", phase, category, "S"),
                accuracy("fp", phase, category, "L"),
            )
    table.notes.append(
        "accuracies aggregated over the suite; measured on the held-out "
        "test input with unbounded tables"
    )
    return table
