"""Figure 5.4 — increase in incorrect predictions over the hardware scheme.

Paper: the companion of Figure 5.3 — the percent change in *taken
incorrect* predictions (mispredictions) of the profile scheme relative to
the saturating counters, same finite table.

Expected shape: large *reductions* (negative changes) at tight
thresholds; the reduction shrinks as the threshold loosens.
"""

from __future__ import annotations

from ..workloads import TABLE_4_1_NAMES
from .context import THRESHOLDS, ExperimentContext
from .shared import FSM_LABEL, finite_table_stats, threshold_label
from .tables import ExperimentTable, percent_change

EXPERIMENT_ID = "fig-5.4"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("grid",)


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="% increase in incorrect predictions vs saturating counters "
        "(512-entry 2-way stride table)",
        headers=["benchmark"] + [f"th={t:g}%" for t in THRESHOLDS],
    )
    for name in TABLE_4_1_NAMES:
        stats = finite_table_stats(context, name)
        baseline = stats[FSM_LABEL].mispredictions
        table.add_row(
            name,
            *[
                percent_change(stats[threshold_label(t)].mispredictions, baseline)
                for t in THRESHOLDS
            ],
        )
    return table
