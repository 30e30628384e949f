"""Computations shared between experiment modules.

Figures 5.1/5.2 are two views of one simulation, and Figures 5.3/5.4 and
the columns of Table 5.2 are three views of another — so the heavy work
lives here.  Each grid is one cell of
:class:`~repro.experiments.context.ExperimentContext` (``("classify",
name)``, ``("ilp", name, entries, ways)``): the context serves it from
``memo`` or the disk cache, and only a miss runs the engines built
below.  The parallel engine computes the same cells in pool workers and
primes them into the parent context under the same tuples.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import (
    HardwareClassification,
    PredictionEngine,
    PredictionStats,
    ProbeScheme,
    ProfileClassification,
    simulate_prediction_many,
)
from ..ilp import IlpConfig, IlpResult, measure_ilp_many
from ..predictors import StridePredictor
from .context import TABLE_ENTRIES, TABLE_WAYS, THRESHOLDS, ExperimentContext

#: Engine label for the saturating-counter baseline.
FSM_LABEL = "fsm"


def threshold_label(threshold: float) -> str:
    return f"prof{threshold:g}"


# -- the two shared grids ----------------------------------------------------


def classification_accuracy_stats(
    context: ExperimentContext, name: str
) -> Dict[str, PredictionStats]:
    """Infinite-table take/avoid study for one benchmark (Figs 5.1/5.2).

    Every scheme sees the identical, fully allocated unbounded stride
    predictor (via :class:`ProbeScheme`); only the take decision differs.
    """

    def compute() -> Dict[str, PredictionStats]:
        program = context.program(name)
        engines: Dict[str, PredictionEngine] = {
            FSM_LABEL: PredictionEngine(
                program,
                predictor=StridePredictor(),
                scheme=ProbeScheme(HardwareClassification()),
            )
        }
        for threshold in THRESHOLDS:
            annotated = context.annotated(name, threshold)
            engines[threshold_label(threshold)] = PredictionEngine(
                program,
                predictor=StridePredictor(),
                scheme=ProbeScheme(ProfileClassification(annotated)),
            )
        return simulate_prediction_many(
            program, context.test_inputs(name), engines, store=context.traces
        )

    return context.cell(("classify", name), compute)


def ilp_results(
    context: ExperimentContext,
    name: str,
    config: Optional[IlpConfig] = None,
    entries: int = TABLE_ENTRIES,
    ways: int = TABLE_WAYS,
) -> Dict[str, IlpResult]:
    """Abstract-machine ILP for one benchmark (Table 5.2).

    Labels: ``novp`` (baseline), ``fsm`` (VP+SC) and ``profX`` per
    threshold — all scheduled against a single execution.  ``None`` and
    an explicit default :class:`IlpConfig` name the same cell.
    """

    def compute() -> Dict[str, IlpResult]:
        program = context.program(name)
        engines: Dict[str, Optional[PredictionEngine]] = {
            "novp": None,
            FSM_LABEL: PredictionEngine(
                program,
                predictor=StridePredictor(entries, ways),
                scheme=HardwareClassification(),
            ),
        }
        for threshold in THRESHOLDS:
            annotated = context.annotated(name, threshold)
            engines[threshold_label(threshold)] = PredictionEngine(
                annotated,
                predictor=StridePredictor(entries, ways),
                scheme=ProfileClassification(annotated),
            )
        return measure_ilp_many(
            program, context.test_inputs(name), engines, config=config,
            store=context.traces,
        )

    cell = ("ilp", name, entries, ways)
    if config is not None and config != IlpConfig():
        cell += (config,)
    return context.cell(cell, compute)


def finite_table_stats(context: ExperimentContext, name: str) -> Dict[str, IlpResult]:
    """Finite-table pressure study for one benchmark (Figs 5.3/5.4).

    The hardware scheme allocates every candidate; the profile schemes
    allocate only directive-tagged instructions, in the same 512-entry
    2-way stride table.  Those are the engines of :func:`ilp_results`
    over the same test trace, so each label's ``correct_predictions``
    and ``mispredictions`` are its taken-correct and taken-wrong counts:
    read from the ILP cell, not walked again.  It stays a module
    attribute because perfbench wraps it by name; once perfbench reads
    the program's own spans (ROADMAP item 5) the figures can inline it.
    """
    return ilp_results(context, name)
