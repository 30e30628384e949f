"""Job execution: the batch CLI, in-process, against the shared stores.

One :class:`ServiceEngine` owns what every tenant shares: the
content-addressed :class:`~repro.machine.TraceStore` (capture a trace
once, every later job replays it) and the artifact-cache directory that
experiment jobs use.  Each job runs once: a job is deterministic, so a
failure is reported, never retried.

A job is a batch command line plus its files
(:class:`~repro.service.api.Job`).  :meth:`ServiceEngine.admit` parses
it with the batch parser (:func:`repro.cli.build_parser`, built once per
engine), and :meth:`ServiceEngine.execute` runs the handler that
``python -m repro`` would run, with a :class:`~repro.cli.CommandIO`
over the job's files, two string buffers and the shared trace store.  A
result's output and log are therefore the batch command's stdout and
stderr, byte for byte.

Admission is the sandbox: only :data:`COMMANDS` run, every file the
command line names must be among the job's files, and options that
touch the server's disk, fan out processes or write binary output are
refused.  Execution happens on worker threads (the server calls
:meth:`execute` through an executor); a handler writes only to its
``CommandIO``, and the trace store locks its LRU.
"""

from __future__ import annotations

import argparse
import io
import time
from pathlib import Path
from typing import Optional, Tuple

from .. import cli
from ..lang import CompileError
from ..machine import TraceStore
from ..profiling import ProfileFormatError
from ..telemetry import get_registry
from .api import EXECUTION_ERROR, INVALID_JOB, ApiError, Job

#: Exceptions that mean the *job* is wrong, not the server.
_JOB_FAULTS = (CompileError, ProfileFormatError, SyntaxError, ValueError, KeyError)

#: The batch commands a service job may run.
COMMANDS = (
    "compile", "trace", "profile", "annotate", "fuse", "classify predict", "experiments",
)

#: Options a job may not set, by namespace attribute: they read or write
#: the server's disk.
_DENIED = {
    "store": "--store",
    "output_dir": "--output-dir",
    "report_json": "--report-json",
}


class _JobParser(argparse.ArgumentParser):
    """The batch parser, raising usage errors and help as ``invalid-job``."""

    def error(self, message: str):
        raise ApiError(INVALID_JOB, f"{self.format_usage()}{self.prog}: error: {message}")

    def print_help(self, file=None):
        raise ApiError(INVALID_JOB, self.format_help().rstrip("\n"))


class ServiceEngine:
    """Admits and executes jobs against the shared tenant-wide resources.

    Args:
        store_dir: on-disk root for the shared trace store (``None``
            keeps traces memory-only).
        cache_dir: on-disk root of the artifact cache shared by
            experiment jobs (``None`` disables it).
    """

    def __init__(
        self,
        store_dir: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
    ) -> None:
        self.store_dir = Path(store_dir) if store_dir else None
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.traces = TraceStore(self.store_dir)
        # Built once: building takes milliseconds, parsing microseconds.
        self.parser = cli.build_parser(_JobParser)
        self._default_cache_dir = self.parser.parse_args(["experiments"]).cache_dir

    def admit(self, job: Job) -> argparse.Namespace:
        """Parse and vet one job; raises an ``invalid-job`` :class:`ApiError`."""
        arguments = self.parser.parse_args(job.argv)
        command = arguments.command
        if command == "classify":
            command += f" {arguments.classify_command}"
        if command not in COMMANDS:
            raise ApiError(
                INVALID_JOB,
                f"the service runs {', '.join(COMMANDS)}; not {command!r}",
            )
        denied = [flag for name, flag in _DENIED.items() if getattr(arguments, name, None)]
        if getattr(arguments, "jobs", 1) != 1:
            denied.append("--jobs")
        if (getattr(arguments, "output", None) or "").endswith(".gz"):
            denied.append("-o *.gz")
        if command == "experiments":
            if arguments.cache_dir != self._default_cache_dir:
                denied.append("--cache-dir")
            # Experiment jobs share the daemon's artifact cache.
            arguments.cache_dir = self.cache_dir
            arguments.no_cache = arguments.no_cache or self.cache_dir is None
        if denied:
            raise ApiError(INVALID_JOB, f"{command}: the service refuses {', '.join(denied)}")
        for value in cli.input_files(arguments):
            if value.path not in job.files:
                raise ApiError(INVALID_JOB, f"{value.path!r} is not among the job's files")
        return arguments

    def execute(self, job: Job, arguments: argparse.Namespace) -> Tuple[str, str]:
        """Run one admitted job; returns ``(output, log)``.

        Raises :class:`ApiError`: ``invalid-job`` for a job that can never
        succeed (exit status 2, a ``SystemExit`` message, or one of
        ``_JOB_FAULTS``), ``execution-error`` for any other non-zero exit
        status or a run the machine terminated.  The error message is
        the command's log.  Any other exception propagates; the server
        fails the job as ``internal-error``.
        """
        telemetry = get_registry()
        started = time.perf_counter()
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            try:
                status = cli.run_command(
                    arguments, cli.CommandIO(job.files, stdout, stderr, self.traces)
                )
            except SystemExit as exit:
                status = exit.code
                if isinstance(status, str):
                    print(status, file=stderr)
                    status = 2
            except _JOB_FAULTS as error:
                raise ApiError(INVALID_JOB, f"{type(error).__name__}: {error}") from error
            if status:
                raise ApiError(
                    INVALID_JOB if status == 2 else EXECUTION_ERROR,
                    stderr.getvalue().rstrip("\n") or f"{job.kind} exited with status {status}",
                )
        except ApiError:
            telemetry.counter("serve.jobs_failed").add(1)
            raise
        finally:
            elapsed = time.perf_counter() - started
            telemetry.timer("serve.job_latency").add(elapsed)
            telemetry.timer(f"serve.job.{job.kind}").add(elapsed)
        telemetry.counter("serve.jobs").add(1)
        return stdout.getvalue(), stderr.getvalue()


__all__ = ["COMMANDS", "ServiceEngine"]
