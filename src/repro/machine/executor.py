"""The trace-generating functional simulator (the paper's SHADE stand-in).

:class:`Executor` interprets a :class:`~repro.isa.program.Program`.  The
native emission path is :meth:`Executor.run_batches`, which retires
instructions in fixed-size chunks and fills the parallel columns of a
:class:`~repro.machine.batch.TraceBatch` — an ``array('q')`` of static
addresses, the prediction candidates' values, the other producers'
values, run-length-encoded phases and a dense effective-address column.
Each handler appends to the value column its opcode belongs to, so the
candidates' values need no later pass over the records.  Dispatch is one
call through the pre-decoded instruction: :func:`machine_tables` decodes
the program into fixed-shape operand tuples that carry their handler
(from :data:`~repro.machine.handlers.HANDLERS`) and builds the batches'
static flag bitmaps, once per program.

The classic per-record iterator, :meth:`Executor.run`, survives as a
thin adapter that re-materialises one
:class:`~repro.machine.trace.TraceRecord` per column entry.  Both views
observe the identical trace: same records, same exceptions at the same
points, same machine end-state.

Error timing across a batch boundary: when an instruction faults
mid-chunk, the partial batch of successfully retired instructions is
yielded first and the :class:`ExecutionError` is raised when the
consumer requests the *next* batch — so record-level consumers (via the
adapter) see exactly the prefix the old per-record generator produced
before the same exception.

Instruction accounting: ``machine.instructions`` counts instructions the
interpreter *executed*.  The batched path executes up to one chunk ahead
of what a record-level consumer has pulled, so a generator abandoned
mid-batch reports the executed count (a clean halt, a budget overrun or
a fully drained trace report identical numbers on both paths).
"""

from __future__ import annotations

import time
from array import array
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..isa import Instruction, Number, Opcode, Program
from ..telemetry import get_registry
from .batch import DEFAULT_CHUNK, TraceBatch
from .errors import ExecutionError, InstructionBudgetExceeded
from .handlers import HANDLERS, ORDINALS, BatchContext
from .state import MachineState
from .trace import RunResult, TraceRecord

#: Default cap on dynamic instructions per run.
DEFAULT_BUDGET = 50_000_000

#: Decoded shape: (handler, dest, src1, src2, imm, target).  The handler
#: is resolved through :data:`~repro.machine.handlers.HANDLERS` at decode
#: time, so the hot loop dispatches with one tuple unpack and one call.
_Decoded = Tuple[object, int, int, int, Optional[Number], int]

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


def _decode(instruction: Instruction) -> _Decoded:
    """Flatten an instruction into a fixed-shape tuple for the hot loop."""
    srcs = instruction.srcs
    src1 = srcs[0] if len(srcs) > 0 else 0
    src2 = srcs[1] if len(srcs) > 1 else 0
    dest = instruction.dest if instruction.dest is not None else 0
    target = instruction.target if instruction.target is not None else 0
    handler = HANDLERS[ORDINALS[instruction.opcode]]
    return (handler, dest, src1, src2, instruction.imm, target)


class MachineTables(NamedTuple):
    """The static per-program tables of the interpreter and its batches.

    ``decoded`` holds one :data:`_Decoded` tuple per instruction.  The
    three bitmaps, indexed by static address, say which records have an
    entry in which batch column: ``mem_flags`` marks loads and stores
    (``mems``), ``value_flags`` every value producer (``values`` or
    ``others``) and ``candidate_flags`` the prediction candidates
    (``values``).  All four are opcode properties, so a run carries no
    per-record ``None`` slot for them.
    """

    decoded: Tuple[_Decoded, ...]
    mem_flags: bytes
    value_flags: bytes
    candidate_flags: bytes


def machine_tables(program: Program) -> MachineTables:
    """The program's :class:`MachineTables`, built once per program.

    Memoized on the program object, as its ``candidate_mask`` is;
    ``Program`` leaves the memo out of its pickled state, because the
    decoded handlers do not pickle.
    """
    tables = getattr(program, "_machine_tables", None)
    if tables is None:
        instructions = program.instructions
        tables = MachineTables(
            tuple(_decode(instruction) for instruction in instructions),
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

    def run_batches(self, chunk_size: int = DEFAULT_CHUNK) -> Iterator[TraceBatch]:
        """Execute to completion, yielding columnar chunks of the trace.

        Raises:
            ExecutionError: on division by zero, bad memory access, input
                exhaustion, budget overrun or control flow falling off the
                end of the code segment.  A fault mid-chunk first yields
                the partial batch of retired instructions, then raises on
                the next request.
        """
        # Hot-loop local bindings.
        tables = self.tables
        decoded = tables.decoded
        state = self.state
        code_size = len(decoded)
        budget = (
            self.max_instructions
            if self.max_instructions is not None
            else float("inf")
        )
        count = self.instruction_count

        ctx = BatchContext()
        ctx.pc = state.pc
        ctx.phase = state.phase
        ctx.regs = state.registers
        ctx.memory = state.memory
        ctx.state = state

        telemetry = get_registry()
        initial_count = count
        produced_total = 0
        started = time.perf_counter()
        try:
            halted = False
            while not halted:
                addresses: List[int] = []
                values: List[Number] = []
                others: List[Number] = []
                mems: List[int] = []
                phase_runs: List[Tuple[int, int]] = [(0, ctx.phase)]
                ctx.addresses = addresses
                ctx.values = values
                ctx.others = others
                ctx.mems = mems
                ctx.phase_runs = phase_runs
                error: Optional[ExecutionError] = None
                # ``count`` advances by exactly one per loop iteration, so
                # the chunk boundary folds into a single compare against a
                # precomputed stop mark instead of a len() call per record.
                stop = count + chunk_size
                try:
                    while count < stop:
                        pc = ctx.pc
                        if pc >= code_size or pc < 0:
                            raise ExecutionError(
                                f"control flow left the code segment (pc={pc})"
                            )
                        count += 1
                        if count > budget:
                            raise InstructionBudgetExceeded(
                                f"exceeded budget of {budget} dynamic instructions"
                            )
                        handler, dest, src1, src2, imm, target = decoded[pc]
                        ctx.pc = pc + 1
                        if handler(ctx, pc, dest, src1, src2, imm, target):
                            halted = True
                            self.instruction_count = count
                            break
                except ExecutionError as exc:
                    error = exc
                if addresses:
                    produced_total += len(values) + len(others)
                    yield TraceBatch(
                        array("q", addresses),
                        values,
                        others,
                        phase_runs,
                        mems,
                        tables,
                    )
                if error is not None:
                    raise error
        finally:
            # Bulk-publish however far the run got — a clean halt, a budget
            # overrun, or an abandoned trace generator alike.  One counter
            # add and one timer add per run keeps the loop itself clean.
            telemetry.counter("machine.instructions").add(count - initial_count)
            telemetry.counter("machine.columns.values").add(produced_total)
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
