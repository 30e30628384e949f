"""Extension — profile fidelity under record sampling, on a generated corpus.

The paper's phase 2 profiles every retired instruction.  Real profilers
rarely can: they sample.  This study measures what classification
fidelity survives when the profiler keeps only every k-th dynamic record
(:func:`~repro.profiling.collector.collect_profile` ``sample_every``),
sweeping k over a seeded slice of the generated mini-C corpus
(:mod:`repro.workloads.corpus`) rather than the 13 paper workloads — the
corpus gives a controlled idiom mix and as many programs as the sweep
needs.

Per sampling rate k, aggregated over the corpus slice:

* **records kept** — dynamic records surviving the sampler, relative to
  the full profile;
* **classifier agreement** — candidate instructions assigned the *same*
  directive (stride / last-value / none) by the sampled profile as by
  the full profile, under the paper's 90% threshold policy;
* **M(V)max / M(S)max** — the Section 4 max-distance metrics between
  the full and sampled images' accuracy and stride-efficiency vectors
  (0 = the sampled profile tells the same story);
* **end ILP** — the abstract machine's ILP increase over no value
  prediction when phase 3 is driven by the sampled profile.

Expected shape: k=1 matches the full profile exactly (the byte-identity
the ``profile-sampled`` oracle pair enforces), and fidelity degrades
gracefully — agreement stays high well past k=10 because the corpus
idioms are stationary, while M(V)max grows as rarely executed
instructions lose their samples.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..annotate import AnnotationPolicy, plan_directives
from ..annotate.annotator import annotate_program
from ..core import PredictionEngine, ProfileClassification
from ..ilp import ilp_increase, measure_ilp_many
from ..predictors import StridePredictor
from ..profiling import collect_profile, merge_profiles
from ..profiling.metrics import (
    accuracy_vectors,
    max_distance_metric,
    stride_efficiency_vectors,
)
from ..workloads.corpus import generate_corpus
from .context import TABLE_ENTRIES, TABLE_WAYS, ExperimentContext
from .tables import ExperimentTable

EXPERIMENT_ID = "corpus-sampling"

#: Shared cells this experiment consumes; the parallel engine
#: precomputes them across benchmarks (see repro.runner.jobs).  This
#: study is self-contained: its corpus programs are not registry
#: workloads, so no shared cells apply.
CELLS = ()

#: Sampling rates swept (k=1 is the full-profile control).
SAMPLE_RATES = (1, 2, 5, 10, 25, 50)

#: The corpus slice: seed pins the programs, count sizes the study.
CORPUS_SEED = 1997
CORPUS_COUNT = 8

_POLICY_THRESHOLD = 90.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _metric_mean(metric_of, images) -> float:
    """Mean coordinate of a Section 4 distance metric, 0 if no overlap."""
    vectors = metric_of(images)
    if not vectors[0]:
        return 0.0
    return _mean(max_distance_metric(vectors))


def run(context: ExperimentContext) -> ExperimentTable:
    policy = AnnotationPolicy(
        accuracy_threshold=_POLICY_THRESHOLD,
        stride_threshold=context.stride_threshold,
    )
    workloads = generate_corpus(CORPUS_SEED, CORPUS_COUNT)
    per_rate: Dict[int, Dict[str, List[float]]] = {
        rate: {"kept": [], "agree": [], "mv": [], "ms": [], "ilp": []}
        for rate in SAMPLE_RATES
    }
    for workload in workloads:
        program = workload.compile()
        training_sets = workload.training_inputs(
            count=context.training_runs, scale=context.scale
        )
        merged: Dict[int, object] = {}
        for rate in SAMPLE_RATES:
            merged[rate] = merge_profiles(
                [
                    collect_profile(
                        program,
                        inputs,
                        run_label=f"train-{index}",
                        sample_every=rate,
                        store=context.traces,
                    )
                    for index, inputs in enumerate(training_sets)
                ]
            )
        full = merged[1]
        full_records = sum(
            profile.executions for profile in full.instructions.values()
        )
        full_plan = plan_directives(program, full, policy)
        engines: Dict[str, Optional[PredictionEngine]] = {"novp": None}
        for rate in SAMPLE_RATES:
            image = merged[rate]
            kept = sum(
                profile.executions for profile in image.instructions.values()
            )
            slots = per_rate[rate]
            slots["kept"].append(
                100.0 * kept / full_records if full_records else 0.0
            )
            plan = plan_directives(program, image, policy)
            if full_plan:
                agree = sum(
                    1
                    for address, directive in full_plan.items()
                    if plan.get(address) == directive
                )
                slots["agree"].append(100.0 * agree / len(full_plan))
            slots["mv"].append(_metric_mean(accuracy_vectors, [full, image]))
            slots["ms"].append(
                _metric_mean(stride_efficiency_vectors, [full, image])
            )
            annotated = annotate_program(program, image, policy)
            engines[f"k{rate}"] = PredictionEngine(
                annotated,
                predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
                scheme=ProfileClassification(annotated),
            )
        results = measure_ilp_many(
            program,
            workload.test_inputs(scale=context.scale),
            engines,
            store=context.traces,
        )
        baseline = results["novp"]
        for rate in SAMPLE_RATES:
            per_rate[rate]["ilp"].append(
                ilp_increase(results[f"k{rate}"], baseline)
            )
    table = ExperimentTable(
        experiment_id=EXPERIMENT_ID,
        title="Classification fidelity vs profile sampling rate "
        f"(corpus seed {CORPUS_SEED}, {CORPUS_COUNT} programs)",
        headers=[
            "sample every",
            "records%",
            "agreement%",
            "M(V)max",
            "M(S)max",
            "ILP gain%",
        ],
    )
    for rate in SAMPLE_RATES:
        slots = per_rate[rate]
        table.add_row(
            f"k={rate}",
            _mean(slots["kept"]),
            _mean(slots["agree"]),
            _mean(slots["mv"]),
            _mean(slots["ms"]),
            _mean(slots["ilp"]),
        )
    table.notes.append(
        f"threshold {_POLICY_THRESHOLD:g}%; metrics vs the k=1 profile over "
        "common instructions; ILP on the abstract machine "
        f"({TABLE_ENTRIES}-entry {TABLE_WAYS}-way stride table)"
    )
    return table
