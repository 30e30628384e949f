"""Figure 5.3 — increase in correct predictions over the hardware scheme.

Paper: with a finite 512-entry 2-way stride table, the percent change in
*taken correct* predictions of the profile scheme (thresholds 90..50)
relative to the saturating-counter scheme.

Expected shape: positive gains in the large-working-set benchmarks (go,
gcc, li, perl, vortex) where keeping unpredictable instructions out of
the table prevents useful entries from being evicted; little or negative
change in the small-working-set benchmarks (m88ksim, compress, ijpeg,
mgrid).
"""

from __future__ import annotations

from ..workloads import TABLE_4_1_NAMES
from .context import THRESHOLDS, ExperimentContext
from .shared import FSM_LABEL, finite_table_stats, threshold_label
from .tables import ExperimentTable, percent_change

EXPERIMENT_ID = "fig-5.3"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("ilp",)


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="% increase in correct predictions vs saturating counters "
        "(512-entry 2-way stride table)",
        headers=["benchmark"] + [f"th={t:g}%" for t in THRESHOLDS],
    )
    for name in TABLE_4_1_NAMES:
        stats = finite_table_stats(context, name)
        baseline = stats[FSM_LABEL].correct_predictions
        table.add_row(
            name,
            *[
                percent_change(stats[threshold_label(t)].correct_predictions, baseline)
                for t in THRESHOLDS
            ],
        )
    return table
