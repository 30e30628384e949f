"""One batch measurement in a fresh process: ``paper-cold`` or ``sweep-warm``.

Run by ``perfbench/run.py``; prints one JSON object as its last line::

    python3 perfbench/batch.py paper-cold --seconds 10 --trace 0 --workdir .perfbench
    python3 perfbench/batch.py sweep-warm --seconds 10 --trace 1 --workdir .perfbench
    python3 perfbench/batch.py probe --workdir .perfbench   # set-up time only

The program is driven only through ``run_experiments`` and
``ExperimentContext``.  ``paper-cold`` rebuilds the twelve paper tables
once from nothing (artifact cache off, empty trace store, serial runner);
its process is fresh, so nothing is memoized from an earlier rebuild.
``sweep-warm`` first warms a context (compile, training profiles, merge,
annotations, test-trace captures) and then repeats the four ablations on
it.  With ``--trace 1`` one rep runs untraced and one traced, and the
traced rep reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: Pinned workload size: inputs are clamped at their minimum sizes below
#: ~0.05, so this is the smallest rebuild of the full paper suite.
SCALE = 0.01
TRAINING_RUNS = 5

PAPER_TABLES = (
    "table-2.1", "fig-2.2", "fig-2.3", "fig-4.1", "fig-4.2", "fig-4.3",
    "fig-5.1", "fig-5.2", "table-5.1", "fig-5.3", "fig-5.4", "table-5.2",
)
SWEEP_TABLES = (
    "ablation-hybrid", "ablation-table-geometry", "ablation-fsm-bits",
    "ablation-predictors",
)

#: The layers time is attributed to (``service`` only on serve-sessions).
LAYERS = ("lang", "machine", "profiling", "annotate", "core", "ilp", "runner",
          "experiments", "service")

#: Simulated statistics: exact across runs and commits of the same semantics.
STATISTICS = ("core.candidates", "core.taken_correct", "predictors.lookups",
              "ilp.cycles", "ilp.scheduled_records", "profiling.records")


def layer_targets(tracer):
    """``(module, function, span name, iterator span, on_result)`` per layer."""

    def keep_ilp(results):
        tracer.ilp_results.extend(results.values())

    profiling_analysis = (
        "accuracy_vectors", "stride_efficiency_vectors", "interval_percentages",
        "interval_histogram", "average_distance_metric", "max_distance_metric",
    )
    return [
        ("repro.lang.compiler", "compile_source", "lang.compile_source", None, None),
        ("repro.machine.executor", "trace_program", "machine.trace_program",
         "machine.execute", None),
        ("repro.machine.executor", "trace_batches", "machine.trace_batches",
         "machine.execute", None),
        ("repro.machine.executor", "run_program", "machine.execute", None, None),
        ("repro.machine.stats", "collect_statistics", "machine.execute", None, None),
        ("repro.profiling.collector", "collect_profiles", "profiling.collect", None, None),
        ("repro.profiling.collector", "collect_profile", "profiling.collect", None, None),
        ("repro.profiling.phases", "collect_phase_profiles", "profiling.collect",
         None, None),
        ("repro.profiling.merge", "merge_profiles", "profiling.merge", None, None),
        *[("repro.profiling", name, "profiling.analyze", None, None)
          for name in profiling_analysis],
        ("repro.annotate.annotator", "annotate_program", "annotate.annotate_program",
         None, None),
        ("repro.annotate.annotator", "annotation_report", "annotate.report", None, None),
        ("repro.annotate.annotator", "plan_directives", "annotate.plan", None, None),
        ("repro.core.simulate", "simulate_prediction_many", "core.simulate", None, None),
        ("repro.core.simulate", "simulate_prediction", "core.simulate", None, None),
        ("repro.core.pipeline", "evaluate_scheme", "core.simulate", None, None),
        ("repro.core.pipeline", "run_methodology", "core.simulate", None, None),
        ("repro.ilp.model", "measure_ilp_many", "ilp.schedule", None, keep_ilp),
        ("repro.runner.executor", "execute_graph", "runner.execute_graph", None, None),
        ("repro.runner.jobs", "build_experiment_graph", "runner.build_graph", None, None),
        ("repro.runner.worker", "compute_value", "runner.compute", None, None),
        ("repro.experiments.runner", "run_experiments", "experiments.run_experiments",
         None, None),
        *[("repro.experiments.shared", name, "experiments.grid", None, None)
          for name in ("classification_accuracy_stats", "finite_table_stats",
                       "ilp_results")],
    ]


def install_tracer():
    """Wrap every layer entry point; returns the live tracer."""
    from tracer import Tracer

    from repro.experiments import runner as experiments_runner
    from repro.machine import TraceStore

    tracer = Tracer()
    targets = layer_targets(tracer)
    targets += [
        (module.__name__, "run", "experiments.table", None, None)
        for module in experiments_runner.MODULES.values()
    ]
    tracer.patch_functions(targets)
    # The runner calls tables through this registry, not module attributes.
    for identifier, module in experiments_runner.MODULES.items():
        experiments_runner.EXPERIMENTS[identifier] = module.run
    tracer.patch_method(TraceStore, "batches", "machine.batches", iterate="machine.trace")
    return tracer


def run_tables(names, context, workdir):
    """One rep: ``{wall_s, cpu_s, jobs, tables: {table id: tsv sha256}}``."""
    from repro.experiments.runner import run_experiments

    report_path = os.path.join(workdir, f"runner-report-{os.getpid()}.json")
    cpu = time.process_time()
    started = time.perf_counter()
    tables = run_experiments(list(names), context, stream=io.StringIO(), jobs=1,
                             report_path=report_path)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    with open(report_path, encoding="utf-8") as handle:
        jobs = len(json.load(handle)["jobs"])
    os.remove(report_path)
    digests = {
        table.experiment_id: hashlib.sha256(table.to_tsv().encode("utf-8")).hexdigest()
        for table in tables
    }
    return {"wall_s": wall, "cpu_s": cpu, "jobs": jobs, "tables": digests}


def layer_metrics(tracer, snapshot, wall):
    """Per-layer metrics of one traced rep (self times, counts, rates)."""
    counters = snapshot["counters"]
    timers = snapshot["timers"]

    def self_of(*prefixes):
        return sum(span.self_time for span in tracer.spans
                   if span.name.startswith(prefixes))

    def spans(name):
        return [span for span in tracer.spans if span.name == name]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    capture_s = self_of("machine.capture")
    captured = sum(span.items for span in spans("machine.capture"))
    replays = spans("machine.replay")
    replay_s = sum(span.end - span.start for span in replays)
    replayed = sum(span.items for span in replays)
    core_walked = sum(
        span.items for span in tracer.spans
        if span.name in ("machine.capture", "machine.replay")
        and span.parent is not None and span.parent.layer == "core"
    )
    collect_s = self_of("profiling.collect")
    simulate_s = self_of("core.")
    schedule_s = self_of("ilp.")
    scheduled = sum(result.instructions for result in tracer.ilp_results)
    lookups = counters.get("predictor.lookups", 0)
    candidates = counters.get("core.candidates", 0)
    profiled = counters.get("profiling.records", 0)
    metrics = {
        "ilp.schedule_s": schedule_s,
        "ilp.scheduled_records": scheduled,
        "ilp.records_per_s": rate(scheduled, schedule_s),
        "ilp.cycles": sum(result.cycles for result in tracer.ilp_results),
        "profiling.collect_s": collect_s,
        "profiling.records": profiled,
        "profiling.records_per_s": rate(profiled, collect_s),
        "profiling.merge_s": self_of("profiling.merge"),
        "core.simulate_s": simulate_s,
        "core.candidates": candidates,
        "core.candidates_per_s": rate(candidates, simulate_s),
        "core.vec_share": rate(counters.get("simulate.vec.records", 0), core_walked),
        "core.taken_correct": counters.get("core.taken_correct", 0),
        "predictors.lookups": lookups,
        "predictors.hit_ratio": rate(counters.get("predictor.hits", 0), lookups),
        "machine.execute_s": self_of("machine.execute", "machine.trace_program",
                                     "machine.trace_batches", "machine.batches"),
        "machine.capture_s": capture_s,
        "machine.capture_records_per_s": rate(captured, capture_s),
        "machine.replay_s": replay_s,
        "machine.replay_records_per_s": rate(replayed, replay_s),
        "lang.compile_s": self_of("lang."),
        "lang.compile_calls": len(spans("lang.compile_source")),
        "annotate.annotate_s": self_of("annotate."),
        "annotate.calls": len(spans("annotate.annotate_program")),
        "runner.queue_wait_s": timers.get("runner.queue_wait", {}).get("seconds", 0.0),
        "runner.jobs": counters.get("runner.jobs", 0),
        "experiments.emit_s": self_of("experiments.run_experiments"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = self_of(layer + ".") / wall
    metrics["trace.coverage"] = sum(span.self_time for span in tracer.spans) / wall
    return metrics


def warm(context):
    """sweep-warm set-up: every artifact the four ablations read."""
    from repro.experiments.context import THRESHOLDS
    from repro.workloads import TABLE_4_1_NAMES

    for name in TABLE_4_1_NAMES:
        program = context.program(name)
        context.merged_profile(name)
        for threshold in THRESHOLDS:
            context.annotated(name, threshold)
        for _ in context.traces.batches(program, context.test_inputs(name)):
            pass


def traced_rep(names, context, workdir, chrome_path, untraced_wall):
    from repro.telemetry import Telemetry, use_registry

    tracer = install_tracer()
    registry = Telemetry()
    with use_registry(registry):
        rep = run_tables(names, context, workdir)
    rep["layers"] = layer_metrics(tracer, registry.snapshot(), rep["wall_s"])
    rep["layers"]["trace.overhead_ratio"] = rep["wall_s"] / untraced_wall
    tracer.write_chrome_trace(chrome_path, {"tables": list(names)})
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("probe", "paper-cold", "sweep-warm"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untraced-wall", type=float, default=0.0,
                        help="untraced wall_s the traced paper-cold rep is compared to")
    parser.add_argument("--workdir", required=True)
    arguments = parser.parse_args(argv)

    import repro.experiments.runner  # noqa: F401  (import cost is set-up)
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext(scale=SCALE, training_runs=TRAINING_RUNS, cache_dir=None)
    chrome = os.path.join(arguments.workdir, f"trace-{arguments.mode}.json")
    if arguments.mode == "sweep-warm":
        warm(context)
    result = {"setup_s": time.perf_counter() - STARTED, "reps": []}
    if arguments.mode == "paper-cold":
        if arguments.trace:
            result["traced"] = traced_rep(PAPER_TABLES, context, arguments.workdir,
                                          chrome, arguments.untraced_wall)
        else:
            result["reps"].append(run_tables(PAPER_TABLES, context, arguments.workdir))
    elif arguments.mode == "sweep-warm":
        measured = time.perf_counter()
        while not result["reps"] or (
            not arguments.trace and time.perf_counter() - measured < arguments.seconds
        ):
            context.memo.clear()
            result["reps"].append(run_tables(SWEEP_TABLES, context, arguments.workdir))
        if arguments.trace:
            context.memo.clear()
            result["traced"] = traced_rep(SWEEP_TABLES, context, arguments.workdir,
                                          chrome, result["reps"][0]["wall_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
