"""The Section-5 ``grid`` cell: both grids from one live walk.

Each Table 4.1 workload's ``("grid", w)`` cell runs the infinite-table
classification engines (Figures 5.1/5.2) as observers of the ILP run
(Table 5.2, Figures 5.3/5.4); its halves must equal the two studies run
on their own.  The paper tables keep no trace: they run their test runs
live.
"""

from __future__ import annotations

import io

import pytest

from repro.core import (
    HardwareClassification,
    PredictionEngine,
    ProbeScheme,
    ProfileClassification,
    simulate_prediction_many,
)
from repro.experiments.cells import FSM_LABEL, TABLE_ENTRIES, TABLE_WAYS, THRESHOLDS
from repro.experiments.cells import threshold_label
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import run_experiments
from repro.ilp import measure_ilp_many
from repro.predictors import StridePredictor
from repro.telemetry import Telemetry, use_registry


def separate_grids(context, name):
    """The two grids as two runs: one simulation, one ILP measurement."""
    program = context.program(name)
    inputs = context.test_inputs(name)
    probes = {
        FSM_LABEL: PredictionEngine(
            program, StridePredictor(), ProbeScheme(HardwareClassification())
        )
    }
    engines = {
        "novp": None,
        FSM_LABEL: PredictionEngine(
            program, StridePredictor(TABLE_ENTRIES, TABLE_WAYS), HardwareClassification()
        ),
    }
    for threshold in THRESHOLDS:
        annotated = context.annotated(name, threshold)
        label = threshold_label(threshold)
        probes[label] = PredictionEngine(
            program, StridePredictor(), ProbeScheme(ProfileClassification(annotated))
        )
        engines[label] = PredictionEngine(
            annotated,
            StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
            ProfileClassification(annotated),
        )
    return (
        simulate_prediction_many(program, inputs, probes),
        measure_ilp_many(program, inputs, engines),
    )


def as_dicts(results):
    return {label: result.to_dict() for label, result in results.items()}


@pytest.mark.parametrize("name", ["129.compress", "107.mgrid"])
def test_grid_halves_equal_separate_runs(name):
    context = ExperimentContext(scale=0.01, training_runs=2)
    grid = context.cell(("grid", name))
    classify, ilp = separate_grids(context, name)
    assert set(grid) == {"classify", "ilp"}
    assert as_dicts(grid["classify"]) == as_dicts(classify)
    assert as_dicts(grid["ilp"]) == as_dicts(ilp)


def test_paper_tables_capture_and_replay_nothing():
    registry = Telemetry()
    with use_registry(registry):
        run_experiments(
            ["table-2.1", "fig-2.2", "fig-5.1", "table-5.2"],
            ExperimentContext(scale=0.01, training_runs=2),
            stream=io.StringIO(),
            jobs=1,
        )
    counters = registry.snapshot()["counters"]
    assert counters["runner.jobs"] > 0
    assert counters.get("machine.trace.captures", 0) == 0
    assert counters.get("machine.trace.replays", 0) == 0
