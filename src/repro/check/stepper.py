"""An independent record-at-a-time interpreter: the machine's reference.

:class:`Stepper` executes a program one instruction at a time with one
``if``/``elif`` chain over the opcode and yields a
:class:`~repro.machine.TraceRecord` per retired instruction.  It shares
no code with the interpreter's closures (:mod:`repro.machine.closures`)
beyond the ISA and the error types — C division and remainder included
— so the ``batch-vs-record`` oracle pair, which holds the interpreter's
batches to it, catches a wrong opcode, a wrong fault or a wrong end
state.

The semantics it defines: before each fetch, a pc outside the code
segment faults (``control flow left the code segment``); then the
instruction counts against the budget (``exceeded budget``), executes,
and retires one record.  An instruction that faults retires nothing.
``halt`` retires its record and stores the pc after it and the phase in
the machine state; ``instruction_count`` is set at ``halt`` only.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional

from ..isa import Number, Opcode, Program, RA
from ..machine import MachineState, TraceRecord
from ..machine.errors import (
    DivisionByZero,
    ExecutionError,
    InputExhausted,
    InstructionBudgetExceeded,
    InvalidMemoryAccess,
)


def _remainder(a: Number, b: Number) -> Number:
    """C's ``a % b``: the magnitude of ``|a| mod |b|``, the sign of ``a``."""
    if b == 0:
        raise DivisionByZero("integer division by zero")
    if isinstance(a, int) and isinstance(b, int):
        magnitude = abs(a) % abs(b)
        return -magnitude if a < 0 else magnitude
    return a - _quotient(a, b) * b


def _quotient(a: Number, b: Number) -> Number:
    """C's ``a / b`` on integers: truncated toward zero."""
    if b == 0:
        raise DivisionByZero("integer division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return (a - _remainder(a, b)) // b
    magnitude = abs(a) // abs(b)
    return -magnitude if (a < 0) != (b < 0) else magnitude


def _flag(test):
    return lambda a, b: 1 if test(a, b) else 0


_TWO_OPERANDS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _quotient,
    "mod": _remainder,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
    "slt": _flag(operator.lt),
    "sle": _flag(operator.le),
    "seq": _flag(operator.eq),
    "sne": _flag(operator.ne),
}

#: Register-register ALU opcodes, and the register-immediate ones with
#: the operation they share (``addi`` → ``add``).
_REGISTER_OPS = {
    Opcode(name): op for name, op in _TWO_OPERANDS.items()
}
_REGISTER_OPS.update(
    {
        Opcode.FADD: operator.add,
        Opcode.FSUB: operator.sub,
        Opcode.FMUL: operator.mul,
        Opcode.FSLT: _flag(operator.lt),
        Opcode.FSLE: _flag(operator.le),
        Opcode.FSEQ: _flag(operator.eq),
        Opcode.FSNE: _flag(operator.ne),
    }
)
_IMMEDIATE_OPS = {
    Opcode(name + "i"): op
    for name, op in _TWO_OPERANDS.items()
}
_ONE_OPERAND = {
    Opcode.MOV: lambda a: a,
    Opcode.FMOV: lambda a: a,
    Opcode.NEG: operator.neg,
    Opcode.FNEG: operator.neg,
    Opcode.NOT: lambda a: 1 if a == 0 else 0,
    Opcode.CVTIF: float,
    Opcode.CVTFI: int,
}


class Stepper:
    """Executes ``program`` one record at a time.

    ``state`` and ``instruction_count`` hold the end state once
    :meth:`run` is drained (or raises).
    """

    def __init__(
        self,
        program: Program,
        inputs: Iterable[Number] = (),
        max_instructions: Optional[int] = None,
    ) -> None:
        self.program = program
        self.state = MachineState(program, inputs=inputs)
        self.max_instructions = max_instructions
        self.instruction_count = 0

    def run(self) -> Iterator[TraceRecord]:
        """Yield one record per retired instruction.

        Raises:
            ExecutionError: at the fault, after the records retired
                before it.
        """
        program = self.program
        state = self.state
        regs = state.registers
        memory = state.memory
        budget = self.max_instructions
        pc = state.pc
        phase = state.phase
        count = 0
        while True:
            if not 0 <= pc < len(program):
                raise ExecutionError(f"control flow left the code segment (pc={pc})")
            count += 1
            if budget is not None and count > budget:
                raise InstructionBudgetExceeded(
                    f"exceeded budget of {budget} dynamic instructions"
                )
            instruction = program[pc]
            op = instruction.opcode
            srcs = instruction.srcs
            imm = instruction.imm
            value = None
            location = None
            following = pc + 1
            if op in _REGISTER_OPS:
                value = _REGISTER_OPS[op](regs[srcs[0]], regs[srcs[1]])
            elif op in _IMMEDIATE_OPS:
                value = _IMMEDIATE_OPS[op](regs[srcs[0]], imm)
            elif op in _ONE_OPERAND:
                value = _ONE_OPERAND[op](regs[srcs[0]])
            elif op in (Opcode.LI, Opcode.FLI):
                value = imm
            elif op is Opcode.FDIV:
                if regs[srcs[1]] == 0:
                    raise DivisionByZero(f"@{pc}: FP division by zero")
                value = regs[srcs[0]] / regs[srcs[1]]
            elif op in (Opcode.LD, Opcode.FLD):
                location = regs[srcs[0]] + imm
                if location < 0:
                    raise InvalidMemoryAccess(f"@{pc}: load from {location}")
                value = memory.get(location, 0)
            elif op in (Opcode.ST, Opcode.FST):
                location = regs[srcs[1]] + imm
                if location < 0:
                    raise InvalidMemoryAccess(f"@{pc}: store to {location}")
                memory[location] = regs[srcs[0]]
            elif op in (Opcode.BEQZ, Opcode.BNEZ):
                if (regs[srcs[0]] == 0) == (op is Opcode.BEQZ):
                    following = instruction.target
            elif op is Opcode.JMP:
                following = instruction.target
            elif op is Opcode.CALL:
                value = pc + 1
                regs[RA] = value
                following = instruction.target
            elif op is Opcode.JR:
                following = regs[srcs[0]]
            elif op in (Opcode.IN, Opcode.FIN):
                raw = state.next_input()
                if raw is None:
                    raise InputExhausted(f"@{pc}: input stream exhausted")
                value = int(raw) if op is Opcode.IN else float(raw)
            elif op is Opcode.OUT:
                state.outputs.append(regs[srcs[0]])
            elif op is Opcode.PHASE:
                phase = int(imm)
            elif op is Opcode.HALT:
                state.halted = True
                state.pc = pc + 1
                state.phase = phase
                self.instruction_count = count
            elif op is not Opcode.NOP:  # pragma: no cover - the opcode set is closed
                raise AssertionError(f"the stepper lacks {op}")
            if value is not None and instruction.dest:
                regs[instruction.dest] = value
            yield TraceRecord(pc, value, phase, location)
            if op is Opcode.HALT:
                return
            pc = following
