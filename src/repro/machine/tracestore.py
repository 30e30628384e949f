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

Every stored column is an array in the narrowest typecode that holds it
exactly, and replay hands the arrays to the batch unchanged, creating no
per-value Python object:

- static addresses keep the live batch's array, whose unsigned typecode
  the executor picks once per program from its size (``'B'``, ``'H'``,
  else ``'I'``);
- each batch's two value columns — the candidates' ``values`` and the
  ``others`` of ``call``/``in``/``fin`` — are packed once at capture:
  an ``array('i')`` when every value fits int32, else an ``array('q')``
  when every value fits int64, else an ``array('d')`` when every value
  is a float, else a tagged form whose int section is narrowed the same
  way, so arbitrary-precision integers and exact float identity survive
  the round trip;
- effective addresses are packed the same way, but try ``array('I')``
  before ``array('q')``: they are never negative.

Each column is built narrow first and widened on ``OverflowError``, so
the common case makes no pass over the values beyond the build itself.
Batches carry no per-record ``None`` value slots or memory addresses:
which records own an entry in which column is static per program (see
:func:`~repro.machine.executor.machine_tables`).

The packed format, ``# repro-trace-pack v3``, is the only stored trace
format (the textual ``# repro-trace v1`` of :mod:`repro.machine.tracefile`
is export only).  A JSON header line describes the batches, each
column's typecode and item size included; the columns' raw bytes
follow.  A file in another format, an older version included, with a
header of the wrong shape, an unknown typecode or an item size this
platform does not share fails decoding with ``ValueError`` and is
dropped as a miss.

Telemetry: capture publishes the ``machine.trace.capture`` timer and
``machine.trace.captures``/``machine.trace.captured_records`` counters,
and a committed capture adds its packed column bytes to
``machine.trace.stored_bytes``; replay publishes the
``machine.trace.replay`` timer and matching ``replays``/
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
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..isa import Number, Program
from ..telemetry import get_registry
from .batch import DEFAULT_CHUNK, TraceBatch
from .errors import (
    DivisionByZero,
    ExecutionError,
    InputExhausted,
    InstructionBudgetExceeded,
    InvalidMemoryAccess,
)
from .executor import ADDRESS_TYPECODES, DEFAULT_BUDGET, Executor, machine_tables

_MAGIC = b"# repro-trace-pack v3\n"

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


#: Tag of a value in a mixed column, by type; an integer beyond int64
#: is re-tagged 2.
_TYPE_TAGS = {int: 0, float: 1}
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: The typecodes a value column's integers are tried in, narrowest first;
#: effective addresses, never negative, try an unsigned one first.
_INT_CODES = ("i", "q")
_MEM_CODES = ("I", "q")

#: A packed column: the array itself, or the tagged form
#: ``(tags, ints, floats, bigints)`` for a mixed column.
_Packed = Union[array, Tuple[bytes, array, array, List[int]]]

#: One packed batch: (addresses, values, others, phase_runs, mems).
_PackedBatch = Tuple[array, _Packed, _Packed, List[Tuple[int, int]], _Packed]


def _narrowest(values: Sequence[int], typecodes: Tuple[str, ...]) -> array:
    """``values`` in the first of ``typecodes`` that holds each exactly.

    Narrow first, widened on ``OverflowError``: no scan for the range.
    Past the last typecode the ``OverflowError`` propagates, and a float
    raises ``TypeError`` at the first typecode.
    """
    for typecode in typecodes[:-1]:
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    return array(typecodes[-1], values)


def _pack(values: Sequence[Number], codes: Tuple[str, ...] = _INT_CODES) -> _Packed:
    """Pack one value column.

    An array in the first of ``codes`` that holds every value when all
    are integers, else an ``array('d')`` when every value is a float,
    else the tagged form: one tag per value (0 int64, 1 float, 2 beyond
    int64) and a section per tag, its ints in ``'i'`` or ``'q'``, so
    ``3.0`` stays a float and arbitrary-precision integers survive.  A
    list of Python objects is never stored: it costs several times the
    memory.
    """
    try:
        return _narrowest(values, codes)
    except (OverflowError, TypeError):
        pass
    tags = bytes(map(_TYPE_TAGS.__getitem__, map(type, values)))
    if 0 not in tags:
        return array("d", values)
    try:
        ints = _narrowest(list(_section(values, tags, 0)), _INT_CODES)
    except OverflowError:
        tags = bytes(
            2 if tag == 0 and not _INT64_MIN <= value <= _INT64_MAX else tag
            for value, tag in zip(values, tags)
        )
        ints = _narrowest(list(_section(values, tags, 0)), _INT_CODES)
    floats = array("d", _section(values, tags, 1))
    return (tags, ints, floats, list(_section(values, tags, 2)))


def _section(values: Sequence[Number], tags: bytes, tag: int) -> Iterator[Number]:
    """The values of one tag, in order."""
    return compress(values, map(tag.__eq__, tags))


def _unpack(packed: _Packed) -> Sequence[Number]:
    """A packed column as a batch reads it: an array is handed over as
    is, and a tagged column merges its sections back in tag order."""
    if type(packed) is array:
        return packed
    tags, ints, floats, bigints = packed
    sections = (iter(ints), iter(floats), iter(bigints))
    return list(map(next, map(sections.__getitem__, tags)))


def _stored_bytes(packed: _Packed) -> int:
    """The bytes of a packed column's buffers; integers past int64, kept
    as Python ints, are not counted."""
    if type(packed) is array:
        return len(packed) * packed.itemsize
    tags, ints, floats, _bigints = packed
    return len(tags) + _stored_bytes(ints) + _stored_bytes(floats)


def _array_meta(column: array, payload: List[bytes]) -> dict:
    """Append an array's bytes to ``payload``; its typecode descriptor."""
    payload.append(column.tobytes())
    return {"k": column.typecode, "w": column.itemsize}


def _column_meta(packed: _Packed, payload: List[bytes]) -> dict:
    """Append one packed column's bytes to ``payload``; its descriptor."""
    if type(packed) is array:
        return {**_array_meta(packed, payload), "n": len(packed)}
    tags, ints, floats, bigints = packed
    payload.append(tags)
    ints_meta = _array_meta(ints, payload)
    floats_meta = _array_meta(floats, payload)
    # Hex, because decimal conversion refuses integers past 4300 digits.
    blob = ",".join(map(hex, bigints)).encode()
    payload.append(blob)
    return {
        "k": "x",
        "n": len(tags),
        "ints": ints_meta,
        "floats": floats_meta,
        "bb": len(blob),
    }


def _read_array(
    meta: object, count: int, kinds: Tuple[str, ...], take: Callable[[int], bytes]
) -> array:
    """Decode ``count`` items of an array described by ``meta``;
    ``ValueError`` for a typecode outside ``kinds`` or an item size this
    platform does not share."""
    kind = _field(meta, "k", str)
    if kind not in kinds:
        raise ValueError(f"packed trace: unknown typecode {kind!r}")
    column = array(kind)
    if _field(meta, "w", int) != column.itemsize:
        raise ValueError(
            f"packed trace: {kind!r} items are {column.itemsize} bytes here"
        )
    column.frombytes(take(column.itemsize * count))
    return column


def _read_column(
    meta: object, take: Callable[[int], bytes], codes: Tuple[str, ...] = _INT_CODES
) -> _Packed:
    """Decode one column packed by ``_pack(values, codes)`` and described
    by ``meta``; ``ValueError`` if the descriptor or the bytes are
    malformed."""
    n = _count(meta, "n")
    if _field(meta, "k", str) != "x":
        return _read_array(meta, n, codes + ("d",), take)
    tags = take(n)
    ints = _read_array(meta.get("ints"), tags.count(0), _INT_CODES, take)
    floats = _read_array(meta.get("floats"), tags.count(1), ("d",), take)
    blob = take(_count(meta, "bb"))
    bigints = [int(part, 16) for part in blob.decode().split(",")] if blob else []
    if len(bigints) != tags.count(2) or len(ints) + len(floats) + len(bigints) != n:
        raise ValueError("packed trace: tagged column does not match its tags")
    return (tags, ints, floats, bigints)


def _field(meta: object, name: str, kind: type):
    """``meta[name]`` when ``meta`` is a JSON object and the value has type
    ``kind``; ``ValueError`` otherwise."""
    value = meta.get(name) if type(meta) is dict else None
    if type(value) is not kind:
        raise ValueError(f"packed trace: {name!r} is not a {kind.__name__}")
    return value


def _count(meta: object, name: str) -> int:
    value = _field(meta, name, int)
    if value < 0:
        raise ValueError(f"packed trace: {name!r} is negative")
    return value


def _pairs(runs: object) -> List[Tuple[int, int]]:
    """Decoded ``phase_runs``: a list of ``[offset, phase]`` int pairs."""
    if type(runs) is not list or not all(
        type(run) is list and len(run) == 2 and all(type(v) is int for v in run)
        for run in runs
    ):
        raise ValueError("packed trace: 'phases' is not a list of int pairs")
    return [tuple(run) for run in runs]


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

    def stored_bytes(self) -> int:
        """The bytes of the packed columns' buffers, every batch's
        addresses, value columns and effective addresses."""
        return sum(
            _stored_bytes(addresses)
            + _stored_bytes(values)
            + _stored_bytes(others)
            + _stored_bytes(mems)
            for addresses, values, others, _phase_runs, mems in self.batches
        )

    def raise_stored_error(self) -> None:
        """Re-raise the capture's terminal error, if it had one."""
        if self.error is not None:
            kind, message = self.error
            raise _ERROR_TYPES.get(kind, ExecutionError)(message)

    def replay(self, program: Program) -> Iterator[TraceBatch]:
        """Decode the packed batches back into :class:`TraceBatch` chunks.

        ``program`` must be (execution-equivalent to) the captured
        program: its static flag bitmaps say which records own an entry
        in which column.
        """
        tables = machine_tables(program)
        for addresses, values, others, phase_runs, mems in self.batches:
            yield TraceBatch(
                addresses,
                _unpack(values),
                _unpack(others),
                list(phase_runs),
                _unpack(mems),
                tables,
            )
        self.raise_stored_error()

    def to_bytes(self) -> bytes:
        """Serialize to the on-disk packed format."""
        meta_batches = []
        payload: List[bytes] = []
        for addresses, values, others, phase_runs, mems in self.batches:
            # Built in payload order: addresses, values, others, mems.
            meta_batches.append(
                {
                    "n": len(addresses),
                    "phases": [list(run) for run in phase_runs],
                    "addresses": _array_meta(addresses, payload),
                    "values": _column_meta(values, payload),
                    "others": _column_meta(others, payload),
                    "mems": _column_meta(mems, payload),
                }
            )
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
        """Deserialize; raises ``ValueError`` on a malformed payload,
        including a header of the wrong shape and an older format."""
        if not blob.startswith(_MAGIC):
            raise ValueError("not a packed trace")
        header_end = blob.index(b"\n", len(_MAGIC))
        meta = json.loads(blob[len(_MAGIC) : header_end])
        if _field(meta, "byteorder", str) != sys.byteorder:
            raise ValueError("packed trace has foreign byte order")
        outputs = _field(meta, "outputs", list)
        if not all(type(value) in (int, float) for value in outputs):
            raise ValueError("packed trace: 'outputs' holds a non-number")
        error = meta.get("error")
        if error is not None and not (
            type(error) is list
            and len(error) == 2
            and all(type(part) is str for part in error)
        ):
            raise ValueError("packed trace: 'error' is not a [type, message] pair")
        offset = header_end + 1

        def take(size: int) -> bytes:
            nonlocal offset
            chunk = blob[offset : offset + size]
            if len(chunk) != size:
                raise ValueError("truncated packed trace")
            offset += size
            return chunk

        batches: List[_PackedBatch] = []
        for descriptor in _field(meta, "batches", list):
            # _count first: it checks that the descriptor is a JSON object.
            records = _count(descriptor, "n")
            addresses = _read_array(
                descriptor.get("addresses"), records, ADDRESS_TYPECODES, take
            )
            phase_runs = _pairs(descriptor.get("phases"))
            values = _read_column(descriptor.get("values"), take)
            others = _read_column(descriptor.get("others"), take)
            mems = _read_column(descriptor.get("mems"), take, _MEM_CODES)
            batches.append((addresses, values, others, phase_runs, mems))
        return cls(
            batches=batches,
            records=_count(meta, "records"),
            instruction_count=_count(meta, "instruction_count"),
            outputs=outputs,
            halted=_field(meta, "halted", bool),
            error=tuple(error) if error else None,
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
                            _pack(batch.values),
                            _pack(batch.others),
                            batch.phase_runs,
                            _pack(batch.mems, _MEM_CODES),
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
                    telemetry.counter("machine.trace.stored_bytes").add(
                        packed.stored_bytes()
                    )
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
        except ValueError:
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
