"""Extension — workload characterization (the paper's Table 4.1 context).

The paper introduces its benchmarks with one-line descriptions
(Table 4.1); a reproduction built on stand-in workloads owes the reader
the numbers behind the claims made about them: dynamic instruction mix,
value-prediction-candidate density, and the *candidate footprint* — the
number of distinct candidate instructions competing for the 512-entry
prediction table, which drives the Figures 5.3/5.4 pressure results.
"""

from __future__ import annotations

from ..isa import Category
from ..machine import collect_statistics
from ..workloads import all_workloads
from .context import ExperimentContext
from .tables import ExperimentTable

EXPERIMENT_ID = "characterization"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ()


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="Workload characterization (test input)",
        headers=[
            "benchmark",
            "dynamic",
            "alu%",
            "fp%",
            "load%",
            "store%",
            "branch%",
            "cand%",
            "cand fp",
            "data fp",
        ],
    )
    for workload in all_workloads():
        program = workload.compile()
        stats = collect_statistics(
            program, workload.test_inputs(scale=context.scale), store=context.traces
        )
        loads = stats.category_fraction(Category.INT_LOAD) + stats.category_fraction(
            Category.FP_LOAD
        )
        table.add_row(
            workload.name,
            stats.instructions,
            stats.category_fraction(Category.INT_ALU),
            stats.category_fraction(Category.FP_ALU),
            loads,
            stats.category_fraction(Category.STORE),
            stats.category_fraction(Category.BRANCH),
            stats.candidate_fraction,
            stats.candidate_footprint,
            stats.data_footprint,
        )
    table.notes.append(
        "cand fp = distinct candidate instructions executed (prediction-table "
        "working set); data fp = distinct data words touched"
    )
    return table
