"""Ablation — sensitivity of Table 5.2 to the abstract machine parameters.

The paper fixes a 40-entry instruction window and a 1-cycle value-
misprediction penalty.  This ablation sweeps both around those choices
for profile-classified value prediction (threshold 70) on three
representative benchmarks, reporting the percent ILP increase over the
matching no-VP baseline.

Expected shape: the VP gain *grows* with window size — without value
prediction the window fills with stalled dependence chains, while
collapsed dependences keep a large window fed — and raising the penalty
erodes the gain roughly in proportion to the (classification-suppressed)
misprediction rate.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import PredictionEngine, ProfileClassification
from ..ilp import IlpConfig, ilp_increase, measure_ilp_many
from ..predictors import StridePredictor
from .context import TABLE_ENTRIES, TABLE_WAYS, ExperimentContext
from .tables import ExperimentTable

EXPERIMENT_ID = "ablation-ilp-machine"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).
CELLS = ("annotate",)

THRESHOLD = 70.0
WINDOWS = (8, 16, 40, 128)
PENALTIES = (0, 1, 3)
BENCHMARKS = ("126.gcc", "129.compress", "134.perl")


def run(context: ExperimentContext) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="ILP increase [%] of VP+Prof(70) by window size and penalty",
        headers=["benchmark", "sweep"]
        + [f"w={w}" for w in WINDOWS]
        + [f"p={p}" for p in PENALTIES],
    )
    for name in BENCHMARKS:
        annotated = context.annotated(name, THRESHOLD)
        engines: Dict[str, Optional[PredictionEngine]] = {}
        configs: Dict[str, IlpConfig] = {}

        def fresh_engine() -> PredictionEngine:
            return PredictionEngine(
                annotated,
                predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
                scheme=ProfileClassification(annotated),
            )

        for window in WINDOWS:
            configs[f"base-w{window}"] = IlpConfig(window_size=window)
            configs[f"vp-w{window}"] = IlpConfig(window_size=window)
            engines[f"base-w{window}"] = None
            engines[f"vp-w{window}"] = fresh_engine()
        for penalty in PENALTIES:
            configs[f"base-p{penalty}"] = IlpConfig(misprediction_penalty=penalty)
            configs[f"vp-p{penalty}"] = IlpConfig(misprediction_penalty=penalty)
            engines[f"base-p{penalty}"] = None
            engines[f"vp-p{penalty}"] = fresh_engine()

        results = measure_ilp_many(
            annotated,
            context.test_inputs(name),
            engines,
            configs=configs,
            store=context.traces,
        )
        window_gains = [
            ilp_increase(results[f"vp-w{w}"], results[f"base-w{w}"]) for w in WINDOWS
        ]
        penalty_gains = [
            ilp_increase(results[f"vp-p{p}"], results[f"base-p{p}"])
            for p in PENALTIES
        ]
        table.add_row(name, "gain", *window_gains, *penalty_gains)
    table.notes.append(
        "window sweep uses penalty=1; penalty sweep uses window=40 "
        "(the paper's machine is w=40, p=1)"
    )
    return table
