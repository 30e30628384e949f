"""Experiment harness: one module per paper table/figure, plus ablations.

Paper results (see DESIGN.md for the full index):

========================  ==============================================
``table-2.1``             prediction accuracy by predictor and category
``fig-2.2``               per-instruction accuracy distribution
``fig-2.3``               stride-efficiency-ratio distribution
``fig-4.1`` / ``fig-4.2``  M(V)max / M(V)average input-similarity metrics
``fig-4.3``               M(S)average stride-pattern similarity
``fig-5.1`` / ``fig-5.2``  classification accuracy (mispredictions / correct)
``table-5.1``             allocation candidates vs saturating counters
``fig-5.3`` / ``fig-5.4``  finite-table correct/incorrect prediction deltas
``table-5.2``             ILP increase on the abstract machine
========================  ==============================================

Ablations: ``ablation-hybrid``, ``ablation-table-geometry``,
``ablation-fsm-bits``, ``ablation-stride-threshold``.

Run everything with ``python -m repro experiments all`` or
programmatically::

    from repro.experiments import ExperimentContext, run_experiments
    context = ExperimentContext(scale=0.5)
    run_experiments(["table-5.2"], context)
"""

from .context import TABLE_ENTRIES, TABLE_WAYS, THRESHOLDS, ExperimentContext
from .tables import ExperimentTable, percent_change

__all__ = [
    "ExperimentContext",
    "ExperimentTable",
    "TABLE_ENTRIES",
    "TABLE_WAYS",
    "THRESHOLDS",
    "percent_change",
    "run_experiments",
    "EXPERIMENTS",
]


def __getattr__(name: str):
    # runner imports every experiment module; import it lazily so that
    # `import repro.experiments` stays cheap.
    if name in ("run_experiments", "EXPERIMENTS"):
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
