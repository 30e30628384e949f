"""repro — a reproduction of Gabbay & Mendelson, "Can Program Profiling
Support Value Prediction?" (MICRO-30, 1997).

Subpackages
-----------

* :mod:`repro.isa` — the RISC-like instruction set (SPARC stand-in),
  including the ``stride``/``last-value`` opcode directives.
* :mod:`repro.lang` — the mini-C compiler (gcc stand-in).
* :mod:`repro.machine` — the tracing functional simulator (SHADE stand-in).
* :mod:`repro.predictors` — last-value / stride / hybrid predictors and
  the saturating-counter classifier.
* :mod:`repro.profiling` — profile collection, the profile-image file
  format, multi-run merging, and the Section-4 similarity metrics.
* :mod:`repro.annotate` — phase-3 directive insertion.
* :mod:`repro.classify` — learned predictability classification: static
  feature extraction and a seed-deterministic model trained on
  profile-labeled corpus programs.
* :mod:`repro.core` — the classified value-prediction simulation drivers
  and the end-to-end three-phase methodology.
* :mod:`repro.ilp` — the 40-entry-window abstract ILP machine.
* :mod:`repro.workloads` — the 13 SPEC95-idiom workloads and their input
  generators.
* :mod:`repro.experiments` — one harness per paper table/figure.
* :mod:`repro.runner` — the parallel experiment engine and its
  content-addressed artifact cache.
* :mod:`repro.telemetry` — counters/timers/spans threaded through every
  layer above.

This module is the stable facade: everything in ``__all__`` is supported
API, re-exported from the subpackages above.  Prefer ``from repro import
compile_source`` over reaching into submodules.

Quickstart::

    from repro import ProfileScheme, evaluate_scheme, run_methodology
    from repro.workloads import get_workload

    workload = get_workload("129.compress")
    program = workload.compile()
    result = run_methodology(program, workload.training_inputs())
    stats = evaluate_scheme(ProfileScheme(result), workload.test_inputs())
    print(stats.taken_accuracy)

Or drive the full experiment suite programmatically::

    from repro import ExperimentContext, run_experiments

    context = ExperimentContext(scale=0.1, cache_dir="~/.cache/repro")
    run_experiments(["fig-2.2", "table-5.2"], context, jobs=4)
"""

from .annotate import AnnotationPolicy, annotate_program
from .core import (
    EvaluationScheme,
    HardwareClassification,
    HardwareScheme,
    LearnedClassification,
    LearnedScheme,
    PredictionEngine,
    PredictionStats,
    ProfileClassification,
    ProfileScheme,
    evaluate_scheme,
    run_methodology,
    simulate_prediction,
)
from .ilp import IlpConfig, IlpResult, measure_ilp
from .isa import Directive, Program, assemble, disassemble
from .lang import compile_source
from .machine import run_program, trace_program
from .predictors import (
    FsmClassifier,
    HybridPredictor,
    LastValuePredictor,
    StridePredictor,
)
from .profiling import (
    ProfileImage,
    collect_profile,
    merge_profiles,
    read_profile,
    save_profile,
)

__version__ = "1.0.0"

#: Facade names resolved lazily — the experiments layer (and with it the
#: parallel engine) loads only when first touched, keeping plain
#: ``import repro`` cheap and the import graph cycle-free.
_LAZY = {
    "PredictabilityModel": ("repro.classify", "PredictabilityModel"),
    "train_model": ("repro.classify", "train_model"),
    "extract_features": ("repro.classify", "extract_features"),
    "dumps_model": ("repro.classify", "dumps_model"),
    "loads_model": ("repro.classify", "loads_model"),
    "ExperimentContext": ("repro.experiments.context", "ExperimentContext"),
    "run_experiments": ("repro.experiments.runner", "run_experiments"),
    "ArtifactCache": ("repro.runner.cache", "ArtifactCache"),
    "default_cache_dir": ("repro.runner.cache", "default_cache_dir"),
    "Telemetry": ("repro.telemetry", "Telemetry"),
    "Span": ("repro.telemetry", "Span"),
    "get_registry": ("repro.telemetry", "get_registry"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AnnotationPolicy",
    "ArtifactCache",
    "Directive",
    "EvaluationScheme",
    "ExperimentContext",
    "FsmClassifier",
    "HardwareClassification",
    "HardwareScheme",
    "HybridPredictor",
    "IlpConfig",
    "IlpResult",
    "LastValuePredictor",
    "LearnedClassification",
    "LearnedScheme",
    "PredictabilityModel",
    "PredictionEngine",
    "PredictionStats",
    "ProfileClassification",
    "ProfileImage",
    "ProfileScheme",
    "Program",
    "Span",
    "StridePredictor",
    "Telemetry",
    "annotate_program",
    "assemble",
    "collect_profile",
    "compile_source",
    "default_cache_dir",
    "disassemble",
    "dumps_model",
    "evaluate_scheme",
    "extract_features",
    "get_registry",
    "loads_model",
    "measure_ilp",
    "train_model",
    "merge_profiles",
    "read_profile",
    "run_experiments",
    "run_methodology",
    "run_program",
    "save_profile",
    "simulate_prediction",
    "trace_program",
    "__version__",
]
