"""Command-line experiment runner.

Usage::

    python -m repro experiments all               # every table and figure
    python -m repro experiments table-5.2 fig-5.3 --jobs 4
    python -m repro experiments all --scale 0.3   # quicker, smaller runs
    python -m repro experiments list              # what exists

Each experiment prints a plain-text table mirroring the paper's table or
figure, with a note on provenance.

The suite runs on the parallel experiment engine (:mod:`repro.runner`):
``--jobs N`` fans independent cells — compile, per-run profiling,
annotation, per-benchmark simulation grids, whole experiments — across a
process pool, and every expensive artifact is persisted in a
content-addressed cache (``--cache-dir``, default ``~/.cache/repro``) so
a repeated run is nearly free.  ``--no-cache`` opts out.

Every cell gets one attempt; a cell is a pure function of its inputs,
so a retry would fail the same way.  A run that loses cells degrades:
the failed cells' dependents are skipped, every completed table is
still emitted, the rest appear in a structured run report
(``--report-json``) and the exit status is 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..telemetry import get_registry

from . import (
    ablation_fsm_bits,
    ablation_hybrid,
    ablation_ilp_machine,
    ablation_predictors,
    ablation_stride_threshold,
    ablation_table_geometry,
    fig_2_2,
    fig_2_3,
    fig_4_1,
    fig_4_2,
    fig_4_3,
    fig_5_1,
    fig_5_2,
    characterization,
    corpus_sampling,
    extension_critical_path,
    fig_5_3,
    fig_5_4,
    learned_classifier,
    table_2_1,
    table_5_1,
    table_5_2,
)
from ..runner import build_experiment_graph, default_cache_dir
from ..runner.executor import execute_graph
from ..runner.report import CACHED, RunFailure
from .context import ExperimentContext
from .tables import ExperimentTable

_MODULES = (
    table_2_1,
    fig_2_2,
    fig_2_3,
    fig_4_1,
    fig_4_2,
    fig_4_3,
    fig_5_1,
    fig_5_2,
    table_5_1,
    fig_5_3,
    fig_5_4,
    table_5_2,
    ablation_hybrid,
    ablation_table_geometry,
    ablation_fsm_bits,
    ablation_stride_threshold,
    ablation_predictors,
    ablation_ilp_machine,
    extension_critical_path,
    characterization,
    corpus_sampling,
    learned_classifier,
)

#: Experiment id -> module (the engine reads ``CELLS`` declarations here).
MODULES = {module.EXPERIMENT_ID: module for module in _MODULES}

EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentTable]] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}


def run_experiments(
    names: List[str],
    context: ExperimentContext,
    stream=None,
    output_dir=None,
    chart: bool = False,
    jobs: int = 1,
    progress=None,
    report_path=None,
) -> List[ExperimentTable]:
    """Run the named experiments, printing each table as it completes.

    With ``jobs > 1`` the underlying cells run on a process pool; the
    tables are still emitted in the requested order and are byte-for-byte
    identical to a serial run.  With ``output_dir``, each table is also
    written there as ``<id>.txt`` (formatted) and ``<id>.tsv``
    (machine-readable, see :meth:`ExperimentTable.to_tsv`).  With
    ``chart=True``, an ASCII chart of the table follows it on the stream.
    ``progress`` may be a stream for per-job progress/timing lines,
    including each table's ``[<id> finished in Xs]`` line.

    The run's :class:`~repro.runner.report.RunReport` is written to
    ``report_path`` as JSON when given.  A degraded run — any cell
    failed — still emits every table that completed, writes the report,
    prints its summary to ``progress``, and then raises
    :class:`~repro.runner.report.RunFailure` carrying the report.
    """
    stream = stream or sys.stdout
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    telemetry = get_registry()
    with telemetry.span("suite"):
        with telemetry.span("build"):
            graph = build_experiment_graph(names, context)
        with telemetry.span("execute"):
            outcome = execute_graph(graph, context, jobs=jobs, progress=progress)
        report = outcome.report
        results = []
        with telemetry.span("emit"):
            for name in names:
                table = outcome.tables.get(name)
                if table is None:
                    # Failed or skipped — accounted for in the report.
                    continue
                record = outcome.record_for(f"experiment:{name}")
                print(table.format(), file=stream)
                if chart:
                    from ..viz import chart_table

                    try:
                        print(chart_table(table), file=stream)
                    except ValueError:
                        pass
                print(file=stream)
                if progress is not None:
                    # Wall-clock, so on the progress stream: ``stream``
                    # stays byte-deterministic.
                    suffix = " (cached)" if record.status == CACHED else ""
                    print(
                        f"[{name} finished in {record.seconds:.1f}s{suffix}]",
                        file=progress,
                    )
                if output_dir is not None:
                    stem = name.replace(".", "_")
                    (output_dir / f"{stem}.txt").write_text(
                        table.format() + "\n", encoding="utf-8"
                    )
                    (output_dir / f"{stem}.tsv").write_text(
                        table.to_tsv(), encoding="utf-8"
                    )
                results.append(table)
    if telemetry.enabled:
        telemetry.counter("experiments.tables").add(len(results))
        telemetry.gauge("experiments.wall_seconds").set(time.time() - started)
    if report_path is not None:
        Path(report_path).write_text(report.to_json(), encoding="utf-8")
    if progress is not None:
        print(
            f"[suite: {len(graph)} jobs, {outcome.cached_jobs} cached, "
            f"{outcome.computed_seconds:.1f}s job time, "
            f"{time.time() - started:.1f}s wall]",
            file=progress,
        )
    if not report.ok:
        if progress is not None:
            print(report.format(), file=progress)
        raise RunFailure(report, tables=results)
    return results


def positive_int(text: str) -> int:
    """An argparse type: an integer >= 1 (``--training-runs``,
    ``profile --sample-every``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def _scale(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text}")
    return value


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the experiment-runner options on ``parser``.

    Shared with the ``python -m repro experiments`` subcommand, which
    installs the same options on its own subparser.
    """
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (e.g. table-5.2), 'all', 'list', or 'report' "
        "(render saved --output-dir results as markdown)",
    )
    parser.add_argument(
        "--scale",
        type=_scale,
        default=1.0,
        help="workload input scale, > 0 (default 1.0; smaller = faster)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for independent cells (default 1 = serial; "
        "0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=str(default_cache_dir()),
        help="content-addressed artifact cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk artifact cache for this run",
    )
    parser.add_argument(
        "--training-runs",
        type=positive_int,
        default=5,
        help="number of training input sets to profile, >= 1 (default 5)",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="write the structured RunReport (per-job status, seconds, "
        "causes) here as JSON",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also write each result as <id>.txt and <id>.tsv here",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="follow each table with an ASCII chart",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress and timing lines",
    )


def run_from_arguments(
    arguments: argparse.Namespace, stdout=None, stderr=None, traces=None
) -> int:
    """Dispatch a parsed namespace (see :func:`add_arguments`).

    Tables go to ``stdout`` and progress to ``stderr`` (default: the
    process's streams); ``traces`` replaces the run's own
    :class:`~repro.machine.TraceStore` (the service shares one).
    """
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    names = list(arguments.experiments)
    if names == ["list"]:
        for identifier in EXPERIMENTS:
            print(identifier, file=stdout)
        return 0
    if names == ["report"]:
        from .report import build_markdown_report

        if arguments.output_dir is None:
            raise SystemExit("report requires --output-dir with saved .tsv results")
        print(build_markdown_report(arguments.output_dir), file=stdout)
        return 0
    if names == ["all"]:
        names = list(EXPERIMENTS)

    context = ExperimentContext(
        scale=arguments.scale,
        training_runs=arguments.training_runs,
        cache_dir=None if arguments.no_cache else arguments.cache_dir,
    )
    if traces is not None:
        context.traces = traces
    try:
        run_experiments(
            names,
            context,
            stream=stdout,
            output_dir=arguments.output_dir,
            chart=arguments.chart,
            jobs=arguments.jobs,
            progress=None if arguments.quiet else stderr,
            report_path=arguments.report_json,
        )
    except RunFailure as failure:
        # The report is the primary output of a degraded run; no traceback.
        if arguments.quiet:
            print(failure.report.format(), file=stderr)
        print(f"run failed: {failure}", file=stderr)
        return 1
    return 0


def build_parser(prog: str = "python -m repro experiments") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Reproduce the tables and figures of Gabbay & Mendelson, "
        "MICRO-30 1997.",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Programmatic entry point (``python -m repro experiments`` dispatches
    straight to :func:`run_from_arguments`; this wrapper parses ``argv``)."""
    return run_from_arguments(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
