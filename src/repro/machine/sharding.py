"""Sharded multi-process trace capture into one shared TraceStore.

Capturing a workload's training and test runs is embarrassingly
parallel — each (program, input set) pair is an independent execution —
and the directory-backed :class:`~repro.machine.TraceStore` is already
concurrent-writer safe (content-addressed keys, write-temp + atomic
rename, idempotent duplicate publishes).  :func:`capture_sharded`
exploits both: it splits the input sets across worker processes, each
writing into the same store directory, and the resulting directory tree
is byte-identical to a serial capture of the same sets (the
``capture-shard-vs-serial`` oracle pair holds the two against each
other).

Pool discipline mirrors the experiment runner: a broken pool (worker
OOM-killed, interpreter crash) is not fatal — the affected shards
degrade to in-process capture, which is always correct, just serial.  An :class:`~repro.machine.errors.ExecutionError` inside a run
is *data*, not a failure: the store commits errored traces (they replay
their fault exactly), and the shard result records the error string.

:func:`parallel_runs` is the same pool applied to bare verification
runs (no store) — the ``repro corpus --jobs N`` passthrough.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from concurrent.futures import BrokenExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..isa import Number, Program
from ..telemetry import get_registry
from .batch import DEFAULT_CHUNK
from .errors import ExecutionError
from .executor import DEFAULT_BUDGET, Executor
from .tracestore import TraceStore, trace_key


def __getattr__(name: str):
    # ``ProcessPoolExecutor`` is imported when a pool is first built: it
    # loads ``multiprocessing``, which a serial run never needs.  The
    # pool is built through this module attribute, so a test can patch
    # in a stand-in.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pool_map(function: Callable, payloads: List[Tuple], workers: int) -> list:
    """``[function(payload) for payload in payloads]`` over ``workers``.

    A broken pool is not fatal: every payload whose result the pool lost
    runs again in-process, which is always correct, just serial.
    """
    results: list = [None] * len(payloads)
    if workers > 1 and len(payloads) > 1:
        try:
            with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
                for position, result in enumerate(pool.map(function, payloads)):
                    results[position] = result
        except BrokenExecutor:
            pass
    return [
        function(payload) if result is None else result
        for payload, result in zip(payloads, results)
    ]


@dataclasses.dataclass(frozen=True)
class ShardResult:
    """Outcome of capturing one (program, input set) shard."""

    index: int
    key: str
    records: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass
class ShardReport:
    """Everything one sharded capture produced, in input-set order."""

    results: List[ShardResult]
    jobs: int
    elapsed: float = 0.0

    @property
    def records(self) -> int:
        return sum(result.records for result in self.results)

    @property
    def failures(self) -> List[ShardResult]:
        return [result for result in self.results if not result.ok]


def _capture_shard(
    index: int,
    program: Program,
    inputs: List[Number],
    directory: Optional[str],
    max_instructions: Optional[int],
    chunk_size: int,
) -> ShardResult:
    """Capture one input set into the (shared) store; runs in a worker.

    Draining ``store.batches`` either replays an existing entry or
    executes and commits a fresh one; either way the store ends up
    holding this run's trace.  Without a directory the capture is a bare
    verification run (nothing persists beyond the process).
    """
    store = TraceStore(directory=directory)
    key = trace_key(program, inputs, max_instructions)
    records = 0
    error: Optional[str] = None
    try:
        for batch in store.batches(
            program, inputs, max_instructions=max_instructions,
            chunk_size=chunk_size,
        ):
            records += len(batch)
    except ExecutionError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return ShardResult(index=index, key=key, records=records, error=error)


def _capture_shard_star(payload: Tuple) -> ShardResult:
    """Top-level unpacking adapter (bound methods don't pickle)."""
    return _capture_shard(*payload)


def capture_sharded(
    program: Program,
    input_sets: Iterable[Sequence[Number]],
    directory: Optional[Union[str, "object"]] = None,
    jobs: int = 1,
    max_instructions: Optional[int] = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK,
) -> ShardReport:
    """Capture every input set of ``program`` into one TraceStore.

    Args:
        program: the binary to trace.
        input_sets: one input stream per run; each becomes a shard.
        directory: the shared store directory (``None`` captures without
            persisting — useful only for verification).
        jobs: worker processes; ``1`` captures serially in-process.
        max_instructions: per-run dynamic-instruction budget.
        chunk_size: trace batch size (affects packing granularity only).

    Returns a :class:`ShardReport` whose results are in input-set order
    regardless of worker scheduling.
    """
    sets = [list(inputs) for inputs in input_sets]
    directory_str = str(directory) if directory is not None else None
    payloads = [
        (index, program, inputs, directory_str, max_instructions, chunk_size)
        for index, inputs in enumerate(sets)
    ]
    started = time.perf_counter()
    workers = max(1, min(jobs, len(sets)))
    # The store's idempotent commits make re-capturing a shard the pool
    # lost harmless, even if the worker had committed it.
    report = ShardReport(
        results=_pool_map(_capture_shard_star, payloads, workers),
        jobs=workers,
        elapsed=time.perf_counter() - started,
    )
    telemetry = get_registry()
    if telemetry.enabled:
        telemetry.counter("capture.shard.runs").add(1)
        telemetry.counter("capture.shard.jobs").add(workers)
        telemetry.counter("capture.shard.shards").add(len(report.results))
        telemetry.counter("capture.shard.records").add(report.records)
        telemetry.timer("capture.shard.capture").add(report.elapsed)
    return report


def _run_shard(
    index: int,
    program: Program,
    inputs: List[Number],
    max_instructions: Optional[int],
) -> Tuple[int, int, Optional[str]]:
    """One bare verification run; returns (index, instructions, error)."""
    try:
        result = Executor(
            program, inputs=inputs, max_instructions=max_instructions
        ).run_to_completion()
        return (index, result.instruction_count, None)
    except ExecutionError as exc:
        return (index, 0, f"{type(exc).__name__}: {exc}")


def _run_shard_star(payload: Tuple) -> Tuple[int, int, Optional[str]]:
    return _run_shard(*payload)


def parallel_runs(
    cases: Sequence[Tuple[Program, Sequence[Number]]],
    jobs: int = 1,
    max_instructions: Optional[int] = DEFAULT_BUDGET,
) -> List[Tuple[int, Optional[str]]]:
    """Execute ``(program, inputs)`` cases across worker processes.

    Returns, in case order, ``(instruction_count, error)`` per case —
    ``error`` is ``None`` for a clean halt.  Used by ``repro corpus
    --jobs N`` to verify workloads in parallel; falls back to in-process
    execution if the pool breaks.
    """
    payloads = [
        (index, program, list(inputs), max_instructions)
        for index, (program, inputs) in enumerate(cases)
    ]
    workers = max(1, min(jobs, len(payloads)))
    return [
        (count, error)
        for _, count, error in _pool_map(_run_shard_star, payloads, workers)
    ]
