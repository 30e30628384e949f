"""Figure 5.2 — % of correct predictions classified correctly.

Paper: the other side of the classification trade-off — of the stride
predictor's would-be *correct* predictions, how many does each mechanism
actually take?

Expected shape: the hardware FSM is slightly better at keeping correct
predictions (it only loses a few while counters warm up); the profile
scheme improves as the threshold loosens.
"""

from __future__ import annotations

from ..workloads import TABLE_4_1_NAMES
from .context import THRESHOLDS, ExperimentContext
from .shared import FSM_LABEL, classification_accuracy_stats, threshold_label
from .tables import ExperimentTable

EXPERIMENT_ID = "fig-5.2"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("grid",)

_HEADERS = ["benchmark", "FSM"] + [f"Prof th={t:g}%" for t in THRESHOLDS]


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="% of correct predictions classified correctly",
        headers=_HEADERS,
    )
    sums = [0.0] * (1 + len(THRESHOLDS))
    for name in TABLE_4_1_NAMES:
        stats = classification_accuracy_stats(context, name)
        values = [stats[FSM_LABEL].correct_classification_accuracy]
        values += [
            stats[threshold_label(t)].correct_classification_accuracy
            for t in THRESHOLDS
        ]
        sums = [total + value for total, value in zip(sums, values)]
        table.add_row(name, *values)
    table.add_row("average", *[total / len(TABLE_4_1_NAMES) for total in sums])
    table.notes.append("unbounded stride predictor; take/avoid decisions only")
    return table
