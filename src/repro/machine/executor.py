"""The trace-generating functional simulator (the paper's SHADE stand-in).

:class:`Executor` interprets a :class:`~repro.isa.program.Program`.  Like
SHADE, it translates each static instruction once per program: the
factories of :mod:`~repro.machine.closures` bind one closure per
instruction to a run's registers, memory, state and column appends, and
the interpreter loop is ``for count in range(...): pc = code[pc]()`` —
each closure executes its instruction, records it and returns the next
pc.  The loop's bound is the chunk and the instruction budget; ``halt``
ends it with a private exception.

The native emission path is :meth:`Executor.run_batches`, which retires
instructions in fixed-size chunks and fills the parallel columns of a
:class:`~repro.machine.batch.TraceBatch` — an array of static addresses
in the narrowest unsigned typecode for the program's size (see
:func:`address_typecode`), the prediction candidates' values, the other
producers' values, run-length-encoded phases and a dense
effective-address column.
Each closure appends to the value column its opcode belongs to, so the
candidates' values need no later pass over the records.
:func:`machine_tables` builds the batches' static flag bitmaps, once per
program.  :meth:`Executor.run_profiled` runs the profile-mode closures,
which append no column: each prediction candidate plays an unbounded
stride table over its own values, and phase changes fold the counts.

The classic per-record iterator, :meth:`Executor.run`, survives as a
thin adapter that re-materialises one
:class:`~repro.machine.trace.TraceRecord` per column entry.  Both views
observe the identical trace: same records, same exceptions at the same
points, same machine end-state.  :mod:`repro.check.stepper` is an
independent per-record interpreter the ``batch-vs-record`` oracle pair
holds this one to.

Fault timing: an instruction that faults raises before it records
anything; control flow leaving the code segment — a fall-through past
the last instruction, or a ``jr`` to a bad target — raises right after
the record of the instruction that leaves; a run past its budget raises
once the budget's last instruction has retired.  Across a batch
boundary, the partial batch of successfully retired instructions is
yielded first and the :class:`ExecutionError` is raised when the
consumer requests the *next* batch — so record-level consumers (via the
adapter) see exactly the prefix a record-at-a-time machine produces
before the same exception.

Instruction accounting: ``machine.instructions`` counts instructions the
interpreter *executed*, a faulting one and the fetch past the budget
included.  The batched path executes up to one chunk ahead of what a
record-level consumer has pulled, so a generator abandoned mid-batch
reports the executed count (a clean halt, a budget overrun or a fully
drained trace report identical numbers on both paths).
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..isa import Number, Opcode, Program
from ..telemetry import get_registry
from .batch import DEFAULT_CHUNK, TraceBatch
from .closures import PROFILE, TRACE, Halt, checkin, checkout, left
from .errors import ExecutionError, InstructionBudgetExceeded
from .state import MachineState
from .trace import RunResult, TraceRecord

#: Default cap on dynamic instructions per run.
DEFAULT_BUDGET = 50_000_000

_MEM_OPCODES = frozenset((Opcode.LD, Opcode.ST, Opcode.FLD, Opcode.FST))

#: Opcodes whose trace records carry ``value=None`` — everything else
#: writes a produced value into its record.
_SILENT_OPCODES = frozenset(
    (
        Opcode.ST,
        Opcode.FST,
        Opcode.BEQZ,
        Opcode.BNEZ,
        Opcode.JMP,
        Opcode.JR,
        Opcode.OUT,
        Opcode.PHASE,
        Opcode.NOP,
        Opcode.HALT,
    )
)


class MachineTables(NamedTuple):
    """The static per-program bitmaps of a run's batches.

    Indexed by static address, they say which records have an entry in
    which batch column: ``mem_flags`` marks loads and stores (``mems``),
    ``value_flags`` every value producer (``values`` or ``others``) and
    ``candidate_flags`` the prediction candidates (``values``).  All
    three are opcode properties, so a run carries no per-record ``None``
    slot for them.
    """

    mem_flags: bytes
    value_flags: bytes
    candidate_flags: bytes


#: The unsigned typecodes of a batch's address array, narrowest first.
ADDRESS_TYPECODES = ("B", "H", "I", "Q")


def address_typecode(size: int) -> str:
    """The narrowest of :data:`ADDRESS_TYPECODES` holding every static
    address of a program of ``size`` instructions."""
    return next(
        typecode
        for typecode in ADDRESS_TYPECODES
        if size <= 1 << 8 * array(typecode).itemsize
    )


def machine_tables(program: Program) -> MachineTables:
    """The program's :class:`MachineTables`, built once per program.

    Memoized on the program object, as its ``candidate_mask`` is;
    ``Program`` leaves the memo out of its pickled state.
    """
    tables = getattr(program, "_machine_tables", None)
    if tables is None:
        instructions = program.instructions
        tables = MachineTables(
            bytes(i.opcode in _MEM_OPCODES for i in instructions),
            bytes(i.opcode not in _SILENT_OPCODES for i in instructions),
            bytes(program.candidate_mask),
        )
        object.__setattr__(program, "_machine_tables", tables)
    return tables


class Executor:
    """Runs a program and produces its dynamic trace.

    Args:
        program: the binary to execute.
        inputs: the run's input stream, consumed by ``in``/``fin``.
        max_instructions: dynamic-instruction budget; exceeding it raises
            :class:`InstructionBudgetExceeded`.  ``None`` means unbounded.
    """

    def __init__(
        self,
        program: Program,
        inputs: Iterable[Number] = (),
        max_instructions: Optional[int] = DEFAULT_BUDGET,
    ) -> None:
        self.program = program
        self.state = MachineState(program, inputs=inputs)
        self.max_instructions = max_instructions
        self.instruction_count = 0
        self.tables = machine_tables(program)

    def _retire(self, code, pc: int, count: int, stop: int):
        """Retire the instructions at run positions ``count`` to ``stop``
        (the budget bounds ``stop``) through the closures ``code``.

        Returns ``(pc, count, end)``: the next pc, the instructions
        executed so far — one that faulted or halted included, and the
        fetch past the budget, as it faults — and ``None`` when ``stop``
        was reached within the budget, :class:`Halt` after ``halt``, or
        the :class:`ExecutionError` that ends the run.
        """
        budget = self.max_instructions
        if budget is not None and stop > budget:
            stop = budget
        if not 0 <= pc < len(code):
            return pc, count, left(pc)
        start = count
        try:
            for count in range(start, stop):
                pc = code[pc]()
        except Halt:
            self.instruction_count = count + 1
            return pc, count + 1, Halt
        except ExecutionError as exc:
            return pc, count + 1, exc
        if budget is not None and stop >= budget:
            return pc, stop + 1, InstructionBudgetExceeded(
                f"exceeded budget of {budget} dynamic instructions"
            )
        return pc, stop, None

    def _bind_run(self, closures) -> None:
        state = self.state
        closures.bind(
            regs=state.registers,
            memory=state.memory,
            load=state.memory.get,
            state=state,
            put_output=state.outputs.append,
            phase=state.phase,
        )

    def run_batches(self, chunk_size: int = DEFAULT_CHUNK) -> Iterator[TraceBatch]:
        """Execute to completion, yielding columnar chunks of the trace.

        Raises:
            ExecutionError: on division by zero, bad memory access, input
                exhaustion, budget overrun or control flow falling off the
                end of the code segment.  A fault mid-chunk first yields
                the partial batch of retired instructions, then raises on
                the next request.
        """
        program = self.program
        tables = self.tables
        typecode = address_typecode(len(program.instructions))
        translation, closures = checkout(program, TRACE)
        self._bind_run(closures)
        code = closures.code
        phase = closures.cells["phase"]
        pc = self.state.pc
        count = initial_count = self.instruction_count
        telemetry = get_registry()
        produced_total = 0
        started = time.perf_counter()
        try:
            end = None
            while end is None:
                addresses: List[int] = []
                values: List[Number] = []
                others: List[Number] = []
                mems: List[int] = []
                phase_runs: List[Tuple[int, int]] = [(0, phase.cell_contents)]
                closures.bind(
                    addresses=addresses,
                    put_address=addresses.append,
                    put_value=values.append,
                    put_other=others.append,
                    put_mem=mems.append,
                    put_phase_run=phase_runs.append,
                )
                pc, count, end = self._retire(code, pc, count, count + chunk_size)
                if addresses:
                    produced_total += len(values) + len(others)
                    yield TraceBatch(
                        array(typecode, addresses),
                        values,
                        others,
                        phase_runs,
                        mems,
                        tables,
                    )
                if end is not None and end is not Halt:
                    raise end
        finally:
            checkin(translation, closures)
            # Bulk-publish however far the run got — a clean halt, a budget
            # overrun, or an abandoned trace generator alike.  One counter
            # add and one timer add per run keeps the loop itself clean.
            telemetry.counter("machine.instructions").add(count - initial_count)
            telemetry.counter("machine.columns.values").add(produced_total)
            telemetry.timer("machine.run").add(time.perf_counter() - started)

    def run_profiled(self, rows: Dict[int, list], fold: Callable[[int], None]) -> None:
        """Execute to completion, profiling inside the closures.

        Each prediction candidate's closure plays an unbounded stride
        table that starts empty over its own values, counting into its
        row of ``rows`` (:func:`~repro.predictors.stride.walk_take_all`'s
        layout and first-execution order).  ``fold(phase)`` runs when a
        ``phase`` instruction changes the phase, with the phase it
        leaves, and once more with the last phase when the run ends —
        even when it raises, so the counts up to a fault are folded.  No
        column is built.

        Raises:
            ExecutionError: as :meth:`run_batches` does, after the fold.
        """
        program = self.program
        translation, closures = checkout(program, PROFILE)
        self._bind_run(closures)
        closures.bind(rows=rows, fold=fold)
        count = initial_count = self.instruction_count
        started = time.perf_counter()
        try:
            _pc, count, end = self._retire(closures.code, self.state.pc, count, sys.maxsize)
            if end is not Halt:
                raise end
        finally:
            fold(closures.cells["phase"].cell_contents)
            checkin(translation, closures)
            telemetry = get_registry()
            telemetry.counter("machine.instructions").add(count - initial_count)
            telemetry.timer("machine.run").add(time.perf_counter() - started)

    def run(self) -> Iterator[TraceRecord]:
        """Execute to completion, yielding a record per retired instruction.

        This is the compatibility adapter over :meth:`run_batches`; see
        the module docstring for the (identical) error semantics.

        Raises:
            ExecutionError: on division by zero, bad memory access, input
                exhaustion, budget overrun or control flow falling off the
                end of the code segment.
        """
        for batch in self.run_batches():
            yield from batch.records()

    def run_to_completion(self) -> RunResult:
        """Execute without retaining the trace; return the run summary."""
        for _batch in self.run_batches():
            pass
        return RunResult(
            instruction_count=self.instruction_count,
            outputs=list(self.state.outputs),
            halted=self.state.halted,
        )


def run_program(
    program: Program,
    inputs: Iterable[Number] = (),
    max_instructions: Optional[int] = DEFAULT_BUDGET,
) -> RunResult:
    """Execute ``program`` and return its :class:`RunResult`."""
    return Executor(
        program, inputs=inputs, max_instructions=max_instructions
    ).run_to_completion()


def trace_program(
    program: Program,
    inputs: Iterable[Number] = (),
    max_instructions: Optional[int] = DEFAULT_BUDGET,
) -> Iterator[TraceRecord]:
    """Execute ``program``, yielding its dynamic trace."""
    return Executor(program, inputs=inputs, max_instructions=max_instructions).run()


def trace_batches(
    program: Program,
    inputs: Iterable[Number] = (),
    max_instructions: Optional[int] = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[TraceBatch]:
    """Execute ``program``, yielding its dynamic trace in columnar batches."""
    return Executor(
        program, inputs=inputs, max_instructions=max_instructions
    ).run_batches(chunk_size=chunk_size)
