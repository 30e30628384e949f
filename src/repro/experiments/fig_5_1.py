"""Figure 5.1 — % of mispredictions classified correctly.

Paper: with unbounded predictor state, how many of the stride predictor's
would-be mispredictions does each classification mechanism suppress?
Compared: the saturating-counter FSM vs. the profile-guided scheme at
thresholds 90/80/70/60/50.

Expected shape: profile@90 eliminates the most mispredictions; accuracy
decreases as the threshold loosens; only below ~60% does the FSM win on
average.
"""

from __future__ import annotations

from ..workloads import TABLE_4_1_NAMES
from .context import THRESHOLDS, ExperimentContext
from .shared import FSM_LABEL, classification_accuracy_stats, threshold_label
from .tables import ExperimentTable

EXPERIMENT_ID = "fig-5.1"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("grid",)

_HEADERS = ["benchmark", "FSM"] + [f"Prof th={t:g}%" for t in THRESHOLDS]


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="% of mispredictions classified correctly",
        headers=_HEADERS,
    )
    sums = [0.0] * (1 + len(THRESHOLDS))
    for name in TABLE_4_1_NAMES:
        stats = classification_accuracy_stats(context, name)
        values = [stats[FSM_LABEL].misprediction_classification_accuracy]
        values += [
            stats[threshold_label(t)].misprediction_classification_accuracy
            for t in THRESHOLDS
        ]
        sums = [total + value for total, value in zip(sums, values)]
        table.add_row(name, *values)
    table.add_row("average", *[total / len(TABLE_4_1_NAMES) for total in sums])
    table.notes.append("unbounded stride predictor; take/avoid decisions only")
    return table
