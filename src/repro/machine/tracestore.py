"""Content-addressed trace store: capture a trace once, replay it many times.

The paper's methodology (and SHADE, its tracing tool) separates trace
*generation* from trace *consumption*: a (program, inputs) pair is
interpreted once and every analysis pass replays the recorded trace.
:class:`TraceStore` gives the reproduction the same split at batch
granularity:

- the key is ``(program digest, inputs digest, instruction budget)``.
  The program digest covers only execution-relevant state — opcodes,
  operands and the initial data image — and deliberately *excludes*
  classification directives, which are metadata the machine never reads;
  an annotated binary therefore replays its base program's trace.
- a miss executes the program through
  :meth:`~repro.machine.executor.Executor.run_batches`, streams the live
  batches to the consumer, and packs them in flight; the packed trace is
  committed to an in-memory LRU and (optionally) to disk only when the
  run finishes — a consumer that abandons the trace mid-stream commits
  nothing.
- a hit replays the packed batches without touching the interpreter.
  A stored trace that ended in an :class:`ExecutionError` (a budget
  overrun, say) re-raises the same error type and message after its last
  batch, so replay is observationally identical to fresh execution.

The packed format is the only stored trace format (the textual
``# repro-trace v1`` of :mod:`repro.machine.tracefile` is export only):
addresses and effective addresses are stored as raw ``array('q')`` bytes,
produced values as an ``array('q')``/``array('d')`` when the batch is uniformly
int64/float (the overwhelmingly common case), and as a tagged
int64/float/bigint section otherwise, so arbitrary-precision integers
and exact float identity survive the round trip.  Batches carry no
per-record ``None`` value slots or memory addresses at all — both are
static program properties (see
:func:`~repro.machine.executor.value_flags` and
:func:`~repro.machine.executor.mem_flags`), and the all-int64 kind
replays by wrapping the stored ``array('q')`` into a
:class:`~repro.machine.columns.ValueColumn` without creating a single
per-record Python object.

Telemetry: capture publishes the ``machine.trace.capture`` timer and
``machine.trace.captures``/``machine.trace.captured_records`` counters;
replay the ``machine.trace.replay`` timer and matching ``replays``/
``replayed_records`` counters.  Like ``machine.run``, the timers span
the generator's lifetime and therefore include consumer time between
batches.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..isa import Number, Program
from ..telemetry import get_registry
from .batch import DEFAULT_CHUNK, TraceBatch
from .columns import ValueColumn
from .errors import (
    DivisionByZero,
    ExecutionError,
    InputExhausted,
    InstructionBudgetExceeded,
    InvalidMemoryAccess,
)
from .executor import DEFAULT_BUDGET, Executor, mem_flags, value_flags

_MAGIC = b"# repro-trace-pack v1\n"

_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        ExecutionError,
        DivisionByZero,
        InputExhausted,
        InstructionBudgetExceeded,
        InvalidMemoryAccess,
    )
}

#: One packed batch: (addresses, packed values, phase_runs, mems).
_PackedBatch = Tuple[array, tuple, List[Tuple[int, int]], array]


def program_digest(program: Program) -> str:
    """SHA-256 over the program's execution-relevant state.

    Covers opcodes, operands, immediates, branch targets and the initial
    data image; excludes directives (metadata the machine never reads),
    labels, symbols and the program name.  Memoized on the program
    object — ``Program`` is frozen but not slotted, so the digest rides
    along with the instance.
    """
    cached = getattr(program, "_trace_digest", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for instruction in program.instructions:
        hasher.update(
            (
                f"{instruction.opcode.value}|{instruction.dest}|"
                f"{instruction.srcs}|{instruction.imm!r}|{instruction.target}\n"
            ).encode()
        )
    hasher.update(b"--data--\n")
    for address in sorted(program.data):
        hasher.update(f"{address}:{program.data[address]!r}\n".encode())
    digest = hasher.hexdigest()
    try:
        object.__setattr__(program, "_trace_digest", digest)
    except AttributeError:  # pragma: no cover - Program is not slotted
        pass
    return digest


def inputs_digest(inputs: Sequence[Number]) -> str:
    """SHA-256 over an input stream; ``repr`` keeps floats/ints exact."""
    hasher = hashlib.sha256()
    for value in inputs:
        hasher.update(repr(value).encode())
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def trace_key(
    program: Program,
    inputs: Sequence[Number],
    max_instructions: Optional[int],
) -> str:
    """The store key for one (program, inputs, budget) execution."""
    budget = "none" if max_instructions is None else str(max_instructions)
    hasher = hashlib.sha256()
    hasher.update(program_digest(program).encode())
    hasher.update(b"\x1e")
    hasher.update(inputs_digest(inputs).encode())
    hasher.update(b"\x1e")
    hasher.update(budget.encode())
    return hasher.hexdigest()


def _pack_values(column: ValueColumn) -> tuple:
    """Pack a batch's produced-value column into a typed tuple."""
    if not len(column):
        return ("0", 0)
    if column.is_pure_int:
        # The capture-time column *is* the packed representation.
        return ("q", column.ints)
    produced = column.tolist()
    if all(type(value) is float for value in produced):
        return ("d", array("d", produced))
    tags = bytearray()
    ints = array("q")
    floats = array("d")
    bigints: List[int] = []
    for value in produced:
        if type(value) is float:
            tags.append(1)
            floats.append(value)
        else:
            try:
                ints.append(value)
                tags.append(0)
            except OverflowError:
                tags.append(2)
                bigints.append(value)
    return ("x", bytes(tags), ints, floats, bigints)


def _unpack_values(packed: tuple) -> ValueColumn:
    """Rebuild the produced-value column from its packed form.

    The hot all-int64 kind wraps the stored ``array('q')`` directly —
    replay touches no per-record Python objects; only float/bigint
    batches pay an escape-map rebuild.
    """
    kind = packed[0]
    if kind == "0":
        return ValueColumn(array("q"), {})
    if kind == "q":
        return ValueColumn(packed[1], {})
    if kind == "d":
        floats = packed[1]
        return ValueColumn(
            array("q", bytes(8 * len(floats))),
            dict(enumerate(floats)),
        )
    _, tags, ints, floats, bigints = packed
    column = array("q", bytes(8 * len(tags)))
    escapes: "dict[int, Number]" = {}
    int_iter = iter(ints)
    float_iter = iter(floats)
    big_iter = iter(bigints)
    for position, tag in enumerate(tags):
        if tag == 0:
            column[position] = next(int_iter)
        elif tag == 1:
            escapes[position] = next(float_iter)
        else:
            escapes[position] = next(big_iter)
    return ValueColumn(column, escapes)


class PackedTrace:
    """One fully captured trace in packed columnar form."""

    __slots__ = (
        "batches",
        "records",
        "instruction_count",
        "outputs",
        "halted",
        "error",
    )

    def __init__(
        self,
        batches: List[_PackedBatch],
        records: int,
        instruction_count: int,
        outputs: List[Number],
        halted: bool,
        error: Optional[Tuple[str, str]],
    ) -> None:
        self.batches = batches
        self.records = records
        self.instruction_count = instruction_count
        self.outputs = outputs
        self.halted = halted
        self.error = error

    def raise_stored_error(self) -> None:
        """Re-raise the capture's terminal error, if it had one."""
        if self.error is not None:
            kind, message = self.error
            raise _ERROR_TYPES.get(kind, ExecutionError)(message)

    def replay(self, program: Program) -> Iterator[TraceBatch]:
        """Decode the packed batches back into :class:`TraceBatch` chunks.

        ``program`` must be (execution-equivalent to) the captured
        program: its static flag bitmaps drive the reconstruction of the
        ``None`` value slots and per-record memory addresses.
        """
        vflags = value_flags(program)
        mflags = mem_flags(program)
        for addresses, packed_values, phase_runs, mems in self.batches:
            values = _unpack_values(packed_values)
            yield TraceBatch(
                addresses, values, vflags, list(phase_runs), mems, mflags
            )
        self.raise_stored_error()

    def to_bytes(self) -> bytes:
        """Serialize to the on-disk packed format."""
        meta_batches = []
        payload: List[bytes] = []
        for addresses, packed_values, phase_runs, mems in self.batches:
            kind = packed_values[0]
            descriptor = {
                "n": len(addresses),
                "phases": [list(run) for run in phase_runs],
                "vk": kind,
                "nm": len(mems),
            }
            payload.append(addresses.tobytes())
            if kind == "q" or kind == "d":
                descriptor["pv"] = len(packed_values[1])
                payload.append(packed_values[1].tobytes())
            elif kind == "x":
                _, tags, ints, floats, bigints = packed_values
                blob = ",".join(map(repr, bigints)).encode()
                descriptor["pv"] = len(tags)
                descriptor["ni"] = len(ints)
                descriptor["nf"] = len(floats)
                descriptor["bb"] = len(blob)
                payload.append(tags)
                payload.append(ints.tobytes())
                payload.append(floats.tobytes())
                payload.append(blob)
            payload.append(mems.tobytes())
            meta_batches.append(descriptor)
        meta = {
            "byteorder": sys.byteorder,
            "records": self.records,
            "instruction_count": self.instruction_count,
            "outputs": self.outputs,
            "halted": self.halted,
            "error": list(self.error) if self.error else None,
            "batches": meta_batches,
        }
        return b"".join(
            [_MAGIC, json.dumps(meta, separators=(",", ":")).encode(), b"\n"]
            + payload
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedTrace":
        """Deserialize; raises ``ValueError`` on a malformed payload."""
        if not blob.startswith(_MAGIC):
            raise ValueError("not a packed trace")
        header_end = blob.index(b"\n", len(_MAGIC))
        meta = json.loads(blob[len(_MAGIC) : header_end])
        if meta.get("byteorder") != sys.byteorder:
            raise ValueError("packed trace has foreign byte order")
        offset = header_end + 1

        def take(size: int) -> bytes:
            nonlocal offset
            chunk = blob[offset : offset + size]
            if len(chunk) != size:
                raise ValueError("truncated packed trace")
            offset += size
            return chunk

        batches: List[_PackedBatch] = []
        for descriptor in meta["batches"]:
            n = descriptor["n"]
            addresses = array("q")
            addresses.frombytes(take(n * 8))
            kind = descriptor["vk"]
            if kind == "q" or kind == "d":
                produced = array(kind)
                produced.frombytes(take(descriptor["pv"] * 8))
                packed_values: tuple = (kind, produced)
            elif kind == "x":
                tags = take(descriptor["pv"])
                ints = array("q")
                ints.frombytes(take(descriptor["ni"] * 8))
                floats = array("d")
                floats.frombytes(take(descriptor["nf"] * 8))
                blob_bytes = take(descriptor["bb"])
                bigints = (
                    [int(part) for part in blob_bytes.decode().split(",")]
                    if blob_bytes
                    else []
                )
                packed_values = ("x", tags, ints, floats, bigints)
            else:
                packed_values = ("0", 0)
            mems = array("q")
            mems.frombytes(take(descriptor["nm"] * 8))
            phase_runs = [tuple(run) for run in descriptor["phases"]]
            batches.append((addresses, packed_values, phase_runs, mems))
        error = tuple(meta["error"]) if meta["error"] else None
        return cls(
            batches=batches,
            records=meta["records"],
            instruction_count=meta["instruction_count"],
            outputs=meta["outputs"],
            halted=meta["halted"],
            error=error,
        )


def replay_or_run(
    program: Program,
    inputs: Iterable[Number] = (),
    max_instructions: Optional[int] = None,
    store: Optional["TraceStore"] = None,
) -> Iterator[TraceBatch]:
    """One run's trace batches for an analysis layer.

    Replayed from ``store`` when it holds the run (captured into it on a
    miss); executed by :meth:`Executor.run_batches` when no store is
    given.  ``max_instructions=None`` means :data:`DEFAULT_BUDGET`, so
    both sources key and bound the run the same way.
    """
    budget = max_instructions if max_instructions is not None else DEFAULT_BUDGET
    if store is not None:
        return store.batches(program, inputs, max_instructions=budget)
    return Executor(program, inputs=inputs, max_instructions=budget).run_batches()


class TraceStore:
    """LRU of packed traces, optionally backed by an on-disk directory.

    Safe for concurrent writers: the in-memory LRU is guarded by a lock
    (the service daemon shares one store across worker threads), and
    disk publishes are content-keyed write-to-temp + atomic rename —
    two processes capturing the same (program, inputs, budget) race to
    an identical file, and a publish that finds its key already
    committed is an idempotent no-op.  A reader never observes a torn
    entry: either the rename happened (complete bytes) or it didn't
    (miss), and an entry corrupted by other means fails decoding and is
    dropped as a miss.

    Args:
        directory: where packed traces persist (shared by parallel
            workers); ``None`` keeps the store memory-only.
        max_entries: in-memory LRU capacity, in traces.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_entries: int = 64,
    ) -> None:
        self.directory = Path(directory).expanduser() if directory else None
        self.max_entries = max_entries
        self._cache: "OrderedDict[str, PackedTrace]" = OrderedDict()
        self._lock = threading.Lock()

    # -- lookup ------------------------------------------------------

    def fetch(
        self,
        program: Program,
        inputs: Sequence[Number] = (),
        max_instructions: Optional[int] = DEFAULT_BUDGET,
    ) -> Optional[PackedTrace]:
        """The stored trace for this execution, or ``None`` on a miss."""
        return self._lookup(trace_key(program, list(inputs), max_instructions))

    def batches(
        self,
        program: Program,
        inputs: Iterable[Number] = (),
        max_instructions: Optional[int] = DEFAULT_BUDGET,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> Iterator[TraceBatch]:
        """The trace of one execution, replayed if stored, captured if not.

        Raises exactly what fresh execution raises, at the same point in
        the record stream — including on replay of a stored errored
        trace.
        """
        inputs = list(inputs)
        key = trace_key(program, inputs, max_instructions)
        packed = self._lookup(key)
        if packed is not None:
            return self._replay_batches(packed, program)
        return self._capture_batches(key, program, inputs, max_instructions, chunk_size)

    # -- internals ---------------------------------------------------

    def _replay_batches(
        self, packed: PackedTrace, program: Program
    ) -> Iterator[TraceBatch]:
        telemetry = get_registry()
        started = time.perf_counter()
        try:
            yield from packed.replay(program)
        finally:
            telemetry.counter("machine.trace.replays").add(1)
            telemetry.counter("machine.trace.replayed_records").add(packed.records)
            telemetry.timer("machine.trace.replay").add(time.perf_counter() - started)

    def _capture_batches(
        self,
        key: str,
        program: Program,
        inputs: List[Number],
        max_instructions: Optional[int],
        chunk_size: int,
    ) -> Iterator[TraceBatch]:
        telemetry = get_registry()
        executor = Executor(program, inputs=inputs, max_instructions=max_instructions)
        packed_batches: List[_PackedBatch] = []
        records = 0
        error: Optional[Tuple[str, str]] = None
        started = time.perf_counter()
        try:
            try:
                for batch in executor.run_batches(chunk_size):
                    packed_batches.append(
                        (
                            batch.addresses,
                            _pack_values(batch.values),
                            batch.phase_runs,
                            array("q", batch.mems),
                        )
                    )
                    records += len(batch)
                    yield batch
            except ExecutionError as exc:
                error = (type(exc).__name__, str(exc))
                raise
            finally:
                # Commit only finished captures: a clean halt, or a run the
                # machine itself terminated with an ExecutionError.  A
                # consumer that abandons the generator mid-trace (closing
                # it raises GeneratorExit here) stores nothing.
                finished = executor.state.halted or error is not None
                if finished:
                    state = executor.state
                    packed = PackedTrace(
                        batches=packed_batches,
                        records=records,
                        instruction_count=(
                            executor.instruction_count
                            if state.halted
                            else records
                        ),
                        outputs=list(state.outputs),
                        halted=state.halted,
                        error=error,
                    )
                    self._commit(key, packed)
        finally:
            telemetry.counter("machine.trace.captures").add(1)
            telemetry.counter("machine.trace.captured_records").add(records)
            telemetry.timer("machine.trace.capture").add(time.perf_counter() - started)

    def _lookup(self, key: str) -> Optional[PackedTrace]:
        with self._lock:
            packed = self._cache.get(key)
            if packed is not None:
                self._cache.move_to_end(key)
                return packed
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            packed = PackedTrace.from_bytes(blob)
        except (ValueError, KeyError):
            # Corrupt entry (truncated write, version skew): treat as a
            # miss and drop the file so the next capture rewrites it.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._insert(key, packed)
        return packed

    def _commit(self, key: str, packed: PackedTrace) -> None:
        self._insert(key, packed)
        if self.directory is None:
            return
        path = self._path(key)
        if path.exists():
            # Content-addressed: an existing entry for this key holds the
            # same bytes, so a duplicate publish is an idempotent no-op.
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = packed.to_bytes()
        handle, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".trace-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(blob)
            os.replace(tmp_name, path)
        except OSError:  # pragma: no cover - disk trouble degrades to memory-only
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    def _insert(self, key: str, packed: PackedTrace) -> None:
        with self._lock:
            self._cache[key] = packed
            self._cache.move_to_end(key)
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.trace"
