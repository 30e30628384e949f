"""Computations shared between experiment modules.

Figures 5.1/5.2 are two views of one simulation, as are Figures 5.3/5.4
and the columns of Table 5.2 — so the heavy work lives here, memoized in
the typed ``memo`` mapping on
:class:`~repro.experiments.context.ExperimentContext` and, when the
context has a ``cache_dir``, persisted in the content-addressed artifact
cache so reruns and sibling experiments skip the simulation entirely.

The memo keys (:func:`classification_memo_key` and friends) are part of
the contract with the parallel engine: pool workers compute these grids
remotely and :mod:`repro.runner.worker` primes them into the parent
context under the same keys.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

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
from ..runner import keys, serialize
from .context import TABLE_ENTRIES, TABLE_WAYS, THRESHOLDS, ExperimentContext

#: Engine label for the saturating-counter baseline.
FSM_LABEL = "fsm"


def threshold_label(threshold: float) -> str:
    return f"prof{threshold:g}"


# -- memo keys ---------------------------------------------------------------


def classification_memo_key(name: str) -> Tuple:
    return ("classification", name)


def finite_memo_key(name: str, entries: int, ways: int) -> Tuple:
    return ("finite", name, entries, ways)


def ilp_memo_key(
    name: str, config: Optional[IlpConfig], entries: int, ways: int
) -> Tuple:
    """Memo key for an ILP grid.

    ``config`` is normalized so that ``None`` and an explicitly
    constructed default :class:`IlpConfig` — or any two equal custom
    configs — share one entry.
    """
    return ("ilp", name, config or IlpConfig(), entries, ways)


# -- cache plumbing ----------------------------------------------------------


def _cached_grid(
    context: ExperimentContext, kind: str, cache_key: Optional[str]
):
    if context.artifacts is None or cache_key is None:
        return None
    payload = context.artifacts.load(kind, cache_key)
    if payload is None:
        return None
    try:
        return serialize.decode(kind, payload)
    except serialize.PayloadError:
        context.artifacts.discard(kind, cache_key)
        return None


def _store_grid(
    context: ExperimentContext, kind: str, cache_key: Optional[str], grid
) -> None:
    if context.artifacts is not None and cache_key is not None:
        context.artifacts.store(kind, cache_key, serialize.encode(kind, grid))


def _finish(
    context: ExperimentContext,
    memo_key: Hashable,
    kind: str,
    cache_key: Optional[str],
    grid,
):
    _store_grid(context, kind, cache_key, grid)
    context.memo[memo_key] = grid
    return grid


# -- the three shared grids --------------------------------------------------


def classification_accuracy_stats(
    context: ExperimentContext, name: str
) -> Dict[str, PredictionStats]:
    """Infinite-table take/avoid study for one benchmark (Figs 5.1/5.2).

    Every scheme sees the identical, fully allocated unbounded stride
    predictor (via :class:`ProbeScheme`); only the take decision differs.
    """
    memo_key = classification_memo_key(name)
    if memo_key in context.memo:
        return context.memo[memo_key]
    cache_key = None
    if context.artifacts is not None:
        cache_key = keys.classify_key(
            name,
            context.scale,
            context.training_runs,
            THRESHOLDS,
            context.stride_threshold,
        )
    cached = _cached_grid(context, "classify", cache_key)
    if cached is not None:
        context.memo[memo_key] = cached
        return cached
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
    stats = simulate_prediction_many(
        program, context.test_inputs(name), engines, store=context.traces
    )
    return _finish(context, memo_key, "classify", cache_key, stats)


def finite_table_stats(
    context: ExperimentContext,
    name: str,
    entries: int = TABLE_ENTRIES,
    ways: int = TABLE_WAYS,
) -> Dict[str, PredictionStats]:
    """Finite-table pressure study for one benchmark (Figs 5.3/5.4).

    The hardware scheme allocates every candidate; the profile schemes
    allocate only directive-tagged instructions.  Same 512-entry 2-way
    stride table geometry for everyone.
    """
    memo_key = finite_memo_key(name, entries, ways)
    if memo_key in context.memo:
        return context.memo[memo_key]
    cache_key = None
    if context.artifacts is not None:
        cache_key = keys.finite_key(
            name,
            context.scale,
            context.training_runs,
            THRESHOLDS,
            context.stride_threshold,
            entries,
            ways,
        )
    cached = _cached_grid(context, "finite", cache_key)
    if cached is not None:
        context.memo[memo_key] = cached
        return cached
    program = context.program(name)
    engines: Dict[str, PredictionEngine] = {
        FSM_LABEL: PredictionEngine(
            program,
            predictor=StridePredictor(entries, ways),
            scheme=HardwareClassification(),
        )
    }
    for threshold in THRESHOLDS:
        annotated = context.annotated(name, threshold)
        engines[threshold_label(threshold)] = PredictionEngine(
            program,
            predictor=StridePredictor(entries, ways),
            scheme=ProfileClassification(annotated),
        )
    stats = simulate_prediction_many(
        program, context.test_inputs(name), engines, store=context.traces
    )
    return _finish(context, memo_key, "finite", cache_key, stats)


def ilp_results(
    context: ExperimentContext,
    name: str,
    config: Optional[IlpConfig] = None,
    entries: int = TABLE_ENTRIES,
    ways: int = TABLE_WAYS,
) -> Dict[str, IlpResult]:
    """Abstract-machine ILP for one benchmark (Table 5.2).

    Labels: ``novp`` (baseline), ``fsm`` (VP+SC) and ``profX`` per
    threshold — all scheduled against a single execution.
    """
    memo_key = ilp_memo_key(name, config, entries, ways)
    if memo_key in context.memo:
        return context.memo[memo_key]
    cache_key = None
    if context.artifacts is not None:
        cache_key = keys.ilp_key(
            name,
            context.scale,
            context.training_runs,
            THRESHOLDS,
            context.stride_threshold,
            entries,
            ways,
            config,
        )
    cached = _cached_grid(context, "ilp", cache_key)
    if cached is not None:
        context.memo[memo_key] = cached
        return cached
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
    results = measure_ilp_many(
        program, context.test_inputs(name), engines, config=config,
        store=context.traces,
    )
    return _finish(context, memo_key, "ilp", cache_key, results)
