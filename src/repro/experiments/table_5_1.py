"""Table 5.1 — allocation candidates relative to the hardware classifier.

Paper: the fraction (in percent) of potential prediction-table candidates
the profile-guided scheme admits, out of those the saturating-counter
scheme would allocate (i.e. every executed candidate instruction).

Expected shape: monotone growth as the threshold loosens — the paper
reports 24% at threshold 90 rising to 47% at threshold 50.
"""

from __future__ import annotations

from ..workloads import TABLE_4_1_NAMES
from .context import THRESHOLDS, ExperimentContext
from .shared import FSM_LABEL, classification_accuracy_stats
from .tables import ExperimentTable

EXPERIMENT_ID = "table-5.1"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("grid",)


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="% of allocation candidates admitted vs saturating counters",
        headers=["benchmark"] + [f"th={t:g}%" for t in THRESHOLDS],
    )
    sums = [0.0] * len(THRESHOLDS)
    for name in TABLE_4_1_NAMES:
        # Executed candidate addresses on the evaluation input: exactly the
        # instructions the hardware scheme would allocate.
        stats = classification_accuracy_stats(context, name)
        executed = {
            address
            for address, per_address in stats[FSM_LABEL].per_address.items()
            if per_address.executions > 0
        }
        row = []
        for position, threshold in enumerate(THRESHOLDS):
            tagged = set(context.annotated(name, threshold).directives())
            fraction = (
                100.0 * len(tagged & executed) / len(executed) if executed else 0.0
            )
            row.append(fraction)
            sums[position] += fraction
        table.add_row(name, *row)
    table.add_row("average", *[total / len(TABLE_4_1_NAMES) for total in sums])
    table.notes.append("paper average: 24 / 32 / 35 / 39 / 47 (thresholds 90..50)")
    return table
