"""CLI front ends: ``python -m repro serve`` and ``python -m repro client``.

``serve`` runs the daemon in the foreground until drained (SIGINT/
SIGTERM or a client ``shutdown``), then prints the session's
:class:`~repro.runner.report.RunReport` summary and exits with its
status.  ``client`` takes a batch command line — ``repro client
[--host --port --tenant --priority --timeout] compile demo.mc -o
demo.asm`` — uploads the files it names, and writes the job's output
and log where the batch command would write them; the daemon shares
one trace store across every caller.  ``status``, ``result``,
``stats``, ``health`` and ``shutdown`` talk to the daemon itself.

Both sides speak exclusively through :mod:`repro.service.api` types.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cli import CommandIO, build_parser, input_files
from ..runner.cache import default_cache_dir
from ..telemetry import enable as enable_telemetry
from .api import INVALID_JOB, ApiError, Job
from .client import ServiceClient
from .engine import ServiceEngine
from .server import ServiceServer

DEFAULT_PORT = 8750


# -- serve -------------------------------------------------------------------


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job slots (default 2)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="maximum queued jobs before 429 queue-full (default 64)",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=8,
        help="maximum in-flight jobs per tenant before 429 quota-exceeded "
        "(default 8)",
    )
    parser.add_argument(
        "--cache-dir", default=str(default_cache_dir()),
        help="shared artifact-cache root; traces live under <dir>/traces "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--store-dir", default=None,
        help="override the shared trace-store directory",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="keep traces and artifacts memory-only",
    )
    parser.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the drain RunReport here as JSON",
    )


def run_serve(arguments: argparse.Namespace) -> int:
    enable_telemetry()
    cache_dir = None if arguments.no_cache else Path(arguments.cache_dir)
    if arguments.store_dir is not None:
        store_dir: Optional[Path] = Path(arguments.store_dir)
    else:
        store_dir = (cache_dir / "traces") if cache_dir is not None else None
    engine = ServiceEngine(store_dir=store_dir, cache_dir=cache_dir)
    server = ServiceServer(
        engine=engine,
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        queue_depth=arguments.queue_depth,
        tenant_quota=arguments.tenant_quota,
    )

    async def main() -> int:
        loop = asyncio.get_running_loop()

        def request_drain() -> None:
            if server.state == "serving":
                asyncio.ensure_future(server.drain())

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        serve_task = asyncio.ensure_future(server.serve())
        await asyncio.sleep(0)
        while not server.ready.is_set() and not serve_task.done():
            await asyncio.sleep(0.01)
        print(f"serving on {server.host}:{server.port}", file=sys.stderr, flush=True)
        report = await serve_task
        print(report.format(), file=sys.stderr)
        if arguments.report_json:
            Path(arguments.report_json).write_text(
                report.to_json(), encoding="utf-8"
            )
        return report.exit_code

    return asyncio.run(main())


# -- client ------------------------------------------------------------------

#: ``repro client`` actions that talk to the daemon rather than run a command.
_ACTIONS = ("status", "result", "stats", "health", "shutdown")


def add_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="server port"
    )
    parser.add_argument(
        "--tenant", default="default", help="tenant name for quota accounting"
    )
    parser.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher dispatches first)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, help="per-request timeout"
    )
    parser.add_argument(
        "argv", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="a batch command line (compile, trace, profile, annotate, fuse, "
        "classify predict, experiments), or one of: status JOB_ID, "
        "result JOB_ID [-o PATH], stats, health, shutdown",
    )


def _action_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro client")
    actions = parser.add_subparsers(dest="action", required=True)
    actions.add_parser("status", help="one job's lifecycle state").add_argument("job_id")
    result_parser = actions.add_parser(
        "result", help="stream one job's result (blocks until terminal)"
    )
    result_parser.add_argument("job_id")
    result_parser.add_argument("-o", "--output", help="output file (default stdout)")
    actions.add_parser("stats", help="queue/tenant snapshot")
    actions.add_parser("health", help="liveness probe")
    actions.add_parser("shutdown", help="drain the server and print its session RunReport")
    return parser


def build_job(argv: List[str]) -> Tuple[Job, argparse.Namespace]:
    """The service job for a batch command line, and its parsed arguments.

    Each file the command line names is uploaded under its base name, and
    the command line is rewritten to match; a glob (``fuse``) uploads
    every file it matches.
    """
    arguments = build_parser().parse_args(argv)
    files: Dict[str, str] = {}
    renamed: Dict[str, List[str]] = {}
    for value in input_files(arguments):
        paths = sorted(glob.glob(value.path)) if glob.has_magic(value.path) else [value.path]
        names = []
        for path in paths:
            name = Path(path).name
            # Bytes that are not UTF-8 travel as surrogate escapes, so a
            # garbage profile reaches the command's typed format error.
            contents = Path(path).read_bytes().decode("utf-8", "surrogateescape")
            if files.setdefault(name, contents) != contents:
                raise ValueError(f"two input files are named {name!r}")
            names.append(value.prefix + name)
        renamed[value] = names or [value]
    rewritten: List[str] = []
    for token in argv:
        flag, equals, value = token.partition("=")
        if token in renamed:
            rewritten.extend(renamed[token])
        elif equals and flag.startswith("-") and value in renamed:
            rewritten.append(f"{flag}={renamed[value][0]}")
        else:
            rewritten.append(token)
    return Job(tuple(rewritten), files), arguments


def run_client(arguments: argparse.Namespace) -> int:
    if not arguments.argv:
        print("repro client: give a command line or an action", file=sys.stderr)
        return 2
    client = ServiceClient(
        host=arguments.host, port=arguments.port, timeout=arguments.timeout
    )
    try:
        if arguments.argv[0] in _ACTIONS:
            return _run_action(client, _action_parser().parse_args(arguments.argv))
        try:
            job, command = build_job(arguments.argv)
        except (OSError, ValueError) as error:
            print(f"repro client: {error}", file=sys.stderr)
            return 2
        result = client.run(job, tenant=arguments.tenant, priority=arguments.priority)
        CommandIO().write_output(result.output, getattr(command, "output", None))
        sys.stderr.write(result.log)
        return 0
    except ApiError as error:
        print(f"error [{error.code}]: {error.message}", file=sys.stderr)
        return 2 if error.code == INVALID_JOB else 1
    except ConnectionError as error:
        print(f"cannot reach {client.host}:{client.port}: {error}", file=sys.stderr)
        return 1


def _run_action(client: ServiceClient, arguments: argparse.Namespace) -> int:
    action = arguments.action
    if action == "health":
        payload = client.health()
        print(f"ok state={payload.get('state')}")
        return 0
    if action == "stats":
        stats = client.stats()
        print(
            f"state={stats.state} queued={stats.queued} "
            f"running={stats.running} finished={stats.finished}"
        )
        for tenant, count in sorted(stats.tenants.items()):
            print(f"  tenant {tenant}: {count} in flight")
        return 0
    if action == "status":
        status = client.status(arguments.job_id)
        line = f"{status.job_id} {status.state}"
        if status.error is not None:
            line += f" ({status.error.code}: {status.error.message})"
        print(line)
        return 0
    if action == "result":
        result = client.result(arguments.job_id)
        CommandIO().write_output(result.output, arguments.output)
        sys.stderr.write(result.log)
        return 0
    report = client.shutdown()
    print(report.format())
    return report.exit_code


__all__ = [
    "DEFAULT_PORT",
    "add_client_arguments",
    "add_serve_arguments",
    "build_job",
    "run_client",
    "run_serve",
]
