"""Opcode handler table for the functional simulator.

The interpreter's old ~45-way ``if/elif`` chain is replaced by
:data:`HANDLERS`, a tuple of per-opcode functions indexed by the
opcode's *ordinal* (its position in the :class:`~repro.isa.opcodes.Opcode`
definition order).  Pre-decoding stores the ordinal, so dispatch in the
record-at-a-time path is a single tuple index instead of a linear scan.

Each handler executes exactly one decoded instruction against a
:class:`BatchContext`, appends that instruction's trace columns, and
returns ``True`` only for ``halt``.  Control-flow handlers overwrite
``ctx.pc`` (the caller has already advanced it to the fall-through).  A
produced value goes to ``values`` when the opcode is a prediction
candidate and to ``others`` otherwise: only ``call``, ``in`` and ``fin``
produce a value that is not predicted (see
:attr:`~repro.isa.opcodes.Opcode.is_prediction_candidate`).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa import Number, Opcode, RA
from .errors import DivisionByZero, InputExhausted, InvalidMemoryAccess

#: Opcode → position in definition order; decoded tuples store this index.
ORDINALS: Dict[Opcode, int] = {opcode: index for index, opcode in enumerate(Opcode)}


class BatchContext:
    """Mutable run state shared by the slow stepper and the fast path."""

    __slots__ = (
        "pc",
        "phase",
        "count",
        "pause",
        "regs",
        "memory",
        "state",
        "addresses",
        "values",
        "others",
        "mems",
        "phase_runs",
    )


def int_div(a: Number, b: Number) -> int:
    """C-style truncating division."""
    if b == 0:
        raise DivisionByZero("integer division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def int_mod(a: Number, b: Number) -> int:
    """C-style remainder (sign follows the dividend)."""
    return a - int_div(a, b) * b


# The ALU handlers are compiled from expression templates so the
# operation is inlined into the handler body — a closure over a lambda
# would cost a second Python call per retired instruction, which at
# trace scale is the difference between ~1.9 and ~2.5 simulated MIPS.
_ALU_TEMPLATE = """\
def handler(ctx, pc, dest, src1, src2, imm, target):
    regs = ctx.regs
    {bind}
    value = {expr}
    if dest:
        regs[dest] = value
    ctx.addresses.append(pc)
    ctx.values.append(value)
"""


def _compile_alu(bind: str, expr: str):
    namespace = {"int_div": int_div, "int_mod": int_mod}
    exec(_ALU_TEMPLATE.format(bind=bind, expr=expr), namespace)
    return namespace["handler"]


def _binary(expr: str):
    """Handler for ``dest = a <op> b`` with both operands in registers."""
    return _compile_alu("a = regs[src1]; b = regs[src2]", expr)


def _immediate(expr: str):
    """Handler for ``dest = a <op> b`` with an immediate second operand."""
    return _compile_alu("a = regs[src1]; b = imm", expr)


def _unary(expr: str):
    """Handler for single-source operations ``dest = f(a)``."""
    return _compile_alu("a = regs[src1]", expr)


def _op_li(ctx, pc, dest, src1, src2, imm, target):
    if dest:
        ctx.regs[dest] = imm
    ctx.addresses.append(pc)
    ctx.values.append(imm)


def _op_fdiv(ctx, pc, dest, src1, src2, imm, target):
    regs = ctx.regs
    divisor = regs[src2]
    if divisor == 0:
        raise DivisionByZero(f"@{pc}: FP division by zero")
    value = regs[src1] / divisor
    if dest:
        regs[dest] = value
    ctx.addresses.append(pc)
    ctx.values.append(value)


def _op_load(ctx, pc, dest, src1, src2, imm, target):
    mem_address = ctx.regs[src1] + imm
    if mem_address < 0:
        raise InvalidMemoryAccess(f"@{pc}: load from {mem_address}")
    value = ctx.memory.get(mem_address, 0)
    if dest:
        ctx.regs[dest] = value
    ctx.mems.append(mem_address)
    ctx.addresses.append(pc)
    ctx.values.append(value)


def _op_store(ctx, pc, dest, src1, src2, imm, target):
    regs = ctx.regs
    mem_address = regs[src2] + imm
    if mem_address < 0:
        raise InvalidMemoryAccess(f"@{pc}: store to {mem_address}")
    ctx.memory[mem_address] = regs[src1]
    ctx.mems.append(mem_address)
    ctx.addresses.append(pc)


def _op_beqz(ctx, pc, dest, src1, src2, imm, target):
    if ctx.regs[src1] == 0:
        ctx.pc = target
    ctx.addresses.append(pc)


def _op_bnez(ctx, pc, dest, src1, src2, imm, target):
    if ctx.regs[src1] != 0:
        ctx.pc = target
    ctx.addresses.append(pc)


def _op_jmp(ctx, pc, dest, src1, src2, imm, target):
    ctx.pc = target
    ctx.addresses.append(pc)


def _op_call(ctx, pc, dest, src1, src2, imm, target):
    value = pc + 1  # return address (fall-through)
    regs = ctx.regs
    regs[RA] = value
    if dest:
        regs[dest] = value
    ctx.pc = target
    ctx.addresses.append(pc)
    ctx.others.append(value)


def _op_jr(ctx, pc, dest, src1, src2, imm, target):
    ctx.pc = ctx.regs[src1]
    ctx.addresses.append(pc)


def _op_in(ctx, pc, dest, src1, src2, imm, target):
    raw = ctx.state.next_input()
    if raw is None:
        raise InputExhausted(f"@{pc}: input stream exhausted")
    value = int(raw)
    if dest:
        ctx.regs[dest] = value
    ctx.addresses.append(pc)
    ctx.others.append(value)


def _op_fin(ctx, pc, dest, src1, src2, imm, target):
    raw = ctx.state.next_input()
    if raw is None:
        raise InputExhausted(f"@{pc}: input stream exhausted")
    value = float(raw)
    if dest:
        ctx.regs[dest] = value
    ctx.addresses.append(pc)
    ctx.others.append(value)


def _op_out(ctx, pc, dest, src1, src2, imm, target):
    ctx.state.outputs.append(ctx.regs[src1])
    ctx.addresses.append(pc)


def _op_phase(ctx, pc, dest, src1, src2, imm, target):
    phase = int(imm)
    ctx.phase = phase
    # Phase-run offsets are *record* indices; addresses is the only
    # per-record column, and this record's address is appended below.
    ctx.phase_runs.append((len(ctx.addresses), phase))
    ctx.addresses.append(pc)


def _op_nop(ctx, pc, dest, src1, src2, imm, target):
    ctx.addresses.append(pc)


def _op_halt(ctx, pc, dest, src1, src2, imm, target):
    state = ctx.state
    state.halted = True
    state.pc = pc + 1
    state.phase = ctx.phase
    ctx.addresses.append(pc)
    return True


def _build_table():
    O = Opcode
    by_opcode = {
        O.ADD: _binary("a + b"),
        O.SUB: _binary("a - b"),
        O.MUL: _binary("a * b"),
        O.DIV: _binary("int_div(a, b)"),
        O.MOD: _binary("int_mod(a, b)"),
        O.AND: _binary("a & b"),
        O.OR: _binary("a | b"),
        O.XOR: _binary("a ^ b"),
        O.SHL: _binary("a << (b & 63)"),
        O.SHR: _binary("a >> (b & 63)"),
        O.SLT: _binary("1 if a < b else 0"),
        O.SLE: _binary("1 if a <= b else 0"),
        O.SEQ: _binary("1 if a == b else 0"),
        O.SNE: _binary("1 if a != b else 0"),
        O.ADDI: _immediate("a + b"),
        O.SUBI: _immediate("a - b"),
        O.MULI: _immediate("a * b"),
        O.DIVI: _immediate("int_div(a, b)"),
        O.MODI: _immediate("int_mod(a, b)"),
        O.ANDI: _immediate("a & b"),
        O.ORI: _immediate("a | b"),
        O.XORI: _immediate("a ^ b"),
        O.SHLI: _immediate("a << (b & 63)"),
        O.SHRI: _immediate("a >> (b & 63)"),
        O.SLTI: _immediate("1 if a < b else 0"),
        O.SLEI: _immediate("1 if a <= b else 0"),
        O.SEQI: _immediate("1 if a == b else 0"),
        O.SNEI: _immediate("1 if a != b else 0"),
        O.LI: _op_li,
        O.MOV: _unary("a"),
        O.NEG: _unary("-a"),
        O.NOT: _unary("1 if a == 0 else 0"),
        O.FADD: _binary("a + b"),
        O.FSUB: _binary("a - b"),
        O.FMUL: _binary("a * b"),
        O.FDIV: _op_fdiv,
        O.FNEG: _unary("-a"),
        O.FLI: _op_li,
        O.FMOV: _unary("a"),
        O.FSLT: _binary("1 if a < b else 0"),
        O.FSLE: _binary("1 if a <= b else 0"),
        O.FSEQ: _binary("1 if a == b else 0"),
        O.FSNE: _binary("1 if a != b else 0"),
        O.CVTIF: _unary("float(a)"),
        O.CVTFI: _unary("int(a)"),
        O.LD: _op_load,
        O.ST: _op_store,
        O.FLD: _op_load,
        O.FST: _op_store,
        O.BEQZ: _op_beqz,
        O.BNEZ: _op_bnez,
        O.JMP: _op_jmp,
        O.CALL: _op_call,
        O.JR: _op_jr,
        O.IN: _op_in,
        O.FIN: _op_fin,
        O.OUT: _op_out,
        O.PHASE: _op_phase,
        O.NOP: _op_nop,
        O.HALT: _op_halt,
    }
    table = [None] * len(ORDINALS)
    for opcode, handler in by_opcode.items():
        table[ORDINALS[opcode]] = handler
    missing = [opcode for opcode in Opcode if table[ORDINALS[opcode]] is None]
    if missing:  # pragma: no cover - the opcode set is closed
        raise AssertionError(f"opcodes without handlers: {missing}")
    return tuple(table)


#: Per-opcode handlers, indexed by opcode ordinal.
HANDLERS = _build_table()
