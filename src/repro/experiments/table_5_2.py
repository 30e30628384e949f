"""Table 5.2 — ILP increase under different classification mechanisms.

Paper: on the abstract machine (40-entry window, unlimited execution
units, perfect branch prediction, 1-cycle value-misprediction penalty),
the percent ILP increase of value prediction with saturating counters
(VP+SC) and with profile classification at thresholds 90..50 (VP+Prof),
all relative to no value prediction.

Expected shape: VP+Prof can be tuned (by threshold) to match or beat
VP+SC in most benchmarks; within the profile columns, ILP mostly grows as
the threshold drops from 90 to 50 (extra correct predictions outweigh the
extra mispredictions); m88ksim shows by far the largest gain.
"""

from __future__ import annotations

from ..ilp import ilp_increase
from ..workloads import TABLE_4_1_NAMES
from .context import THRESHOLDS, ExperimentContext
from .shared import FSM_LABEL, ilp_results, threshold_label
from .tables import ExperimentTable

EXPERIMENT_ID = "table-5.2"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("grid",)

_HEADERS = ["benchmark", "VP+SC"] + [f"VP+Prof {t:g}%" for t in THRESHOLDS]


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="ILP increase [%] relative to no value prediction",
        headers=_HEADERS,
    )
    for name in TABLE_4_1_NAMES:
        results = ilp_results(context, name)
        baseline = results["novp"]
        row = [ilp_increase(results[FSM_LABEL], baseline)]
        row += [
            ilp_increase(results[threshold_label(t)], baseline) for t in THRESHOLDS
        ]
        table.add_row(name, *row)
    table.notes.append(
        "40-entry window, unlimited FUs, perfect branch prediction, "
        "1-cycle misprediction penalty"
    )
    return table
