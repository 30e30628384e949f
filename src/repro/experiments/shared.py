"""The two Section-5 grids shared between experiment modules.

Figures 5.1/5.2 and Table 5.1 are views of the infinite-table
simulation of each benchmark; Figures 5.3/5.4 and the columns of Table
5.2 are views of its ILP run.  Both halves come from one walk of the
test run, the ``("grid", name)`` cell, computed, held and cached by
:class:`~repro.experiments.context.ExperimentContext` as the cell-kind
table (:mod:`repro.experiments.cells`) declares; these accessors name
the halves for the experiment modules.
"""

from __future__ import annotations

from typing import Dict

from ..core import PredictionStats
from ..ilp import IlpResult
from .cells import FSM_LABEL, threshold_label
from .context import ExperimentContext

__all__ = [
    "FSM_LABEL",
    "classification_accuracy_stats",
    "finite_table_stats",
    "ilp_results",
    "threshold_label",
]


def classification_accuracy_stats(
    context: ExperimentContext, name: str
) -> Dict[str, PredictionStats]:
    """Infinite-table take/avoid study for one benchmark (Figs 5.1/5.2):
    ``fsm`` and ``profX`` per threshold on one unbounded stride table."""
    return context.cell(("grid", name))["classify"]


def ilp_results(context: ExperimentContext, name: str) -> Dict[str, IlpResult]:
    """Abstract-machine ILP for one benchmark (Table 5.2): ``novp``,
    ``fsm`` and ``profX`` per threshold on the 512-entry 2-way table."""
    return context.cell(("grid", name))["ilp"]


def finite_table_stats(context: ExperimentContext, name: str) -> Dict[str, IlpResult]:
    """Finite-table pressure study for one benchmark (Figs 5.3/5.4).

    The hardware scheme allocates every candidate; the profile schemes
    allocate only directive-tagged instructions, in the same 512-entry
    2-way stride table.  Those are the engines of :func:`ilp_results`
    over the same test trace, so each label's ``correct_predictions``
    and ``mispredictions`` are its taken-correct and taken-wrong counts:
    read from the grid's ILP half, not walked again.  It stays a module
    attribute because perfbench wraps it by name; once perfbench reads
    the program's own spans (ROADMAP item 9) the figures can inline it.
    """
    return ilp_results(context, name)
