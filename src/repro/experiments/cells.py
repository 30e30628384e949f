"""The experiment engine's cell kinds, each declared once.

A *cell* is one artifact of the paper's pipeline, named by a tuple
``(kind, name, *params)``: ``("compile", w)``, ``("profile", w, run)``,
``("merged", w)``, ``("annotate", w, threshold)``, ``("test-profile",
w)``, ``("grid", w)`` or ``("experiment", id)``.  :data:`KINDS` holds
one :class:`CellKind` per kind, and that entry is everything the engine
knows about the kind: the context computes, holds, keys and encodes a
cell through it, and the job graph takes its edges from it.

The cells a paper table reads run their test runs live, with no trace
store: a workload's ``grid`` cell feeds both Section-5 grids from one
walk, and its ``test-profile`` cell profiles the run once for Table 2.1
and Figure 2.2.  The store (``context.traces``) serves the studies that
replay a run many times: the ablations and the corpus studies.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from ..annotate import annotate_program
from ..core import (
    HardwareClassification,
    PredictionEngine,
    PredictionStats,
    ProbeScheme,
    ProfileClassification,
)
from ..ilp import IlpResult, measure_ilp_many
from ..isa import assemble, disassemble
from ..predictors import LastValuePredictor, StridePredictor
from ..profiling import collect_profile, dumps_profile, loads_profile, merge_profiles
from ..profiling.phases import collect_phase_images
from ..runner import keys
from ..workloads import REGISTRY, TEST_INDEX, get_workload
from .tables import ExperimentTable

#: The five classification thresholds swept in Section 5.
THRESHOLDS = (90.0, 80.0, 70.0, 60.0, 50.0)

#: The finite prediction-table geometry of Sections 5.2-5.3.
TABLE_ENTRIES = 512
TABLE_WAYS = 2

#: Engine label for the saturating-counter baseline.
FSM_LABEL = "fsm"

#: Memory tiers of :attr:`CellKind.tier`.
MEMO = "memo"
SESSION = "session"


def threshold_label(threshold: float) -> str:
    return f"prof{threshold:g}"


class Codec(NamedTuple):
    """A kind's exact text form: file extension, encoder, decoder."""

    extension: str
    encode: Callable[[Any], str]
    decode: Callable[[str], Any]


@dataclasses.dataclass(frozen=True)
class CellKind:
    """One kind of cell.

    ``compute(context, name, *params)`` runs on a miss.  ``deps`` are
    the kinds whose jobs of the same workload a job of this kind waits
    for, and ``fan_out(context)`` lists the params of its jobs per
    workload (none: never a job of its own).  ``tier`` is where the
    context holds a value: ``memo`` (cleared by ``memo.clear()``),
    ``session`` or nowhere.  ``key(context, name, *params)`` lists the
    parts its content address digests (none: never on disk), and
    ``codec`` its exact text form between processes and on disk.
    ``label`` formats a job's progress label from ``(name, *params)``;
    ``inline`` jobs run in the parent and never cross processes.
    ``readers(name, *params)`` names the experiments that read a cell
    through :meth:`~repro.experiments.ExperimentContext.read`; once each
    has, the cell leaves memory.
    """

    compute: Callable[..., Any]
    deps: Tuple[str, ...] = ()
    fan_out: Optional[Callable[[Any], Iterable[Tuple]]] = None
    tier: Optional[str] = None
    key: Optional[Callable[..., Tuple[str, ...]]] = None
    codec: Optional[Codec] = None
    label: str = "{}"
    inline: bool = False
    readers: Optional[Callable[..., Tuple[str, ...]]] = None


# -- computes ----------------------------------------------------------------


def _compile(context, name: str):
    return context.program(name)


def _profile(context, name: str, run_index: int):
    """Profile image of one training run (unbounded stride predictor)."""
    workload = get_workload(name)
    return collect_profile(
        workload.compile(),
        workload.input_set(run_index, scale=context.scale),
        run_label=f"train-{run_index}",
    )


def _merged(context, name: str):
    """All training runs merged into one profile image."""
    return merge_profiles(context.training_profiles(name), program_name=name)


def _annotate(context, name: str, threshold: float):
    """The phase-3 binary for one benchmark at one threshold."""
    return annotate_program(
        context.program(name), context.merged_profile(name), context.policy(threshold)
    )


def _test_profile(context, name: str):
    """The test run profiled once, phase-split, under an unbounded
    stride (``S``) and last-value (``L``) predictor: ``{predictor:
    {phase: image}}``, read by Table 2.1 (both, all phases) and Figure
    2.2 (``S``'s phases of the FP benchmarks)."""
    return collect_phase_images(
        context.program(name),
        context.test_inputs(name),
        {"S": StridePredictor(), "L": LastValuePredictor()},
    )


def _test_profile_readers(name: str) -> Tuple[str, ...]:
    """Table 2.1 reads every test profile, Figure 2.2 the FP ones."""
    if get_workload(name).suite == "fp":
        return ("table-2.1", "fig-2.2")
    return ("table-2.1",)


def _grid(context, name: str) -> Dict[str, Dict[str, Any]]:
    """Both Section-5 grids of one benchmark, from one live walk of its
    test run: ``{"classify": {label: PredictionStats}, "ilp": {label:
    IlpResult}}``.

    ``classify`` is the infinite-table take/avoid study (Figs 5.1/5.2):
    ``fsm`` and ``profX`` per threshold, every scheme over the identical,
    fully allocated unbounded stride predictor (via :class:`ProbeScheme`),
    so only the take decision differs.  ``ilp`` is the abstract-machine
    study (Table 5.2, and the taken counts of Figs 5.3/5.4): ``novp``,
    ``fsm`` and ``profX`` on the paper's finite stride table and default
    machine.  The probe engines ride the ILP run as observers.
    """
    program = context.program(name)
    probes: Dict[str, PredictionEngine] = {
        FSM_LABEL: PredictionEngine(
            program,
            predictor=StridePredictor(),
            scheme=ProbeScheme(HardwareClassification()),
        )
    }
    engines: Dict[str, Optional[PredictionEngine]] = {
        "novp": None,
        FSM_LABEL: PredictionEngine(
            program,
            predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
            scheme=HardwareClassification(),
        ),
    }
    for threshold in THRESHOLDS:
        annotated = context.annotated(name, threshold)
        label = threshold_label(threshold)
        probes[label] = PredictionEngine(
            program,
            predictor=StridePredictor(),
            scheme=ProbeScheme(ProfileClassification(annotated)),
        )
        engines[label] = PredictionEngine(
            annotated,
            predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
            scheme=ProfileClassification(annotated),
        )
    ilp = measure_ilp_many(
        program, context.test_inputs(name), engines, observers=probes
    )
    return {
        "classify": {label: engine.stats for label, engine in probes.items()},
        "ilp": ilp,
    }


def _experiment(context, identifier: str) -> ExperimentTable:
    # Through the registry, which a caller may rebind (e.g. to trace).
    from .runner import EXPERIMENTS

    return EXPERIMENTS[identifier](context)


# -- key parts ---------------------------------------------------------------


def _profile_key(context, name: str, run_index: int) -> Tuple[str, ...]:
    return (
        keys.program_text(name),
        str(run_index),
        keys.input_digest(name, run_index, context.scale),
    )


def _merged_key(context, name: str) -> Tuple[str, ...]:
    return (keys.program_text(name),) + keys.training_digests(
        name, context.scale, context.training_runs
    )


def _grid_key(context, name: str) -> Tuple[str, ...]:
    """A grid is a function of the annotations and the test input."""
    return (
        _merged_key(context, name)
        + tuple(repr(threshold) for threshold in THRESHOLDS)
        + (repr(context.stride_threshold),)
        + (keys.input_digest(name, TEST_INDEX, context.scale),)
    )


def _experiment_key(context, identifier: str) -> Tuple[str, ...]:
    """The experiment module's own source (editing an experiment
    invalidates only that experiment), the configuration, and the
    fingerprint of every registered workload it could touch."""
    from .runner import MODULES

    return (
        identifier,
        inspect.getsource(MODULES[identifier]),
        repr(context.scale),
        str(context.training_runs),
        repr(context.stride_threshold),
    ) + tuple(
        keys.workload_fingerprint(name, context.scale, context.training_runs)
        for name in REGISTRY.names()
    )


# -- codecs ------------------------------------------------------------------


#: The result type of each half of a grid cell.
_GRID_HALVES = {"classify": PredictionStats, "ilp": IlpResult}


def _encode_grid(grid) -> str:
    """Each half's ``{label: result}`` as sorted JSON of ``to_dict``."""
    return json.dumps(
        {
            half: {label: result.to_dict() for label, result in results.items()}
            for half, results in grid.items()
        },
        sort_keys=True,
    )


def _decode_grid(payload: str):
    halves = json.loads(payload)
    return {
        half: {
            label: result_type.from_dict(result)
            for label, result in halves[half].items()
        }
        for half, result_type in _GRID_HALVES.items()
    }


def _load_table(payload: str) -> ExperimentTable:
    table = ExperimentTable.from_tsv(payload)
    # from_tsv is lenient; a payload we wrote always names its
    # experiment, so a blank id means the entry is corrupt.
    if not table.experiment_id:
        raise ValueError("experiment payload has no id header")
    return table


_PROFILE_CODEC = Codec("profile", dumps_profile, loads_profile)


def _one_job(context) -> Iterable[Tuple]:
    return [()]


# -- the table ---------------------------------------------------------------

KINDS: Dict[str, CellKind] = {
    "compile": CellKind(_compile, fan_out=_one_job, inline=True),
    "profile": CellKind(
        _profile,
        deps=("compile",),
        fan_out=lambda context: [(run,) for run in range(context.training_runs)],
        tier=SESSION,
        key=_profile_key,
        codec=_PROFILE_CODEC,
        label="{}, run {}",
    ),
    # Derived inside the annotate jobs' processes, never a job of its own.
    "merged": CellKind(
        _merged, deps=("profile",), tier=SESSION, key=_merged_key, codec=_PROFILE_CODEC
    ),
    "annotate": CellKind(
        _annotate,
        deps=("profile",),
        fan_out=lambda context: [(threshold,) for threshold in THRESHOLDS],
        tier=SESSION,
        codec=Codec("asm", disassemble, assemble),
        label="{}, th={:g}",
    ),
    # Shared by the experiments of one process, never a job of its own.
    "test-profile": CellKind(_test_profile, tier=MEMO, readers=_test_profile_readers),
    "grid": CellKind(
        _grid,
        deps=("annotate",),
        fan_out=_one_job,
        tier=MEMO,
        key=_grid_key,
        codec=Codec("json", _encode_grid, _decode_grid),
    ),
    "experiment": CellKind(
        _experiment,
        key=_experiment_key,
        codec=Codec("tsv", ExperimentTable.to_tsv, _load_table),
    ),
}


def closure(kind: str) -> Tuple[str, ...]:
    """``kind`` after every kind it transitively depends on."""
    kinds: Dict[str, None] = {}
    for dep in KINDS[kind].deps:
        kinds.update(dict.fromkeys(closure(dep)))
    kinds[kind] = None
    return tuple(kinds)
