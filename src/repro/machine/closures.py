"""The interpreter's translation of a program into per-instruction closures.

Each static instruction is decoded once per program into a *factory*: a
compiled template for its opcode shape and the tuple of its static
operands.  A template is the code of one small function whose body
executes the instruction, records it and returns the next pc; its static
operands (``pc``, ``nxt`` = ``pc + 1``, registers, immediate, target)
are the function's defaults, so the body reads them as locals.  Each
distinct template body is compiled once per process.

A :class:`ClosureSet` is one function per instruction, built from the
factories.  Every function of a set closes over the same run cells —
registers, memory, the machine state, the column appends — and a run
binds them by writing the cells, so a run allocates no closure: a set
is kept for the program's next run when its run ends, and only runs of
one program that are alive at once build a second set.  Translations
are memoized for the program run last (:func:`checkout`), so the
training runs of a program translate it once and a program no longer
run keeps no closures alive.

Two modes share the opcode semantics:

* ``trace`` — every closure appends its record to the batch columns:
  its address, a candidate's value to ``values``, the other producers'
  (``call``, ``in``, ``fin``) to ``others``, a load's or store's
  effective address to ``mems``; ``phase`` opens a phase run.
* ``profile`` — no column is appended.  A prediction candidate's closure
  plays an unbounded stride table that started empty over its own
  values, in :func:`~repro.predictors.stride.walk_take_all`'s row layout:
  the closure holds its row, created on its first execution and entered
  into the run's ``rows`` dict then.  ``phase`` calls the run's ``fold``
  with the phase it leaves when the phase changes.

Faults keep the per-record timing of a record-at-a-time machine: an
instruction that faults (division by zero, a negative effective address,
an exhausted input) raises before it records anything; a static
successor outside the code segment raises right after the record of the
instruction that leads there, and ``jr`` checks its dynamic target the
same way.  ``halt`` records itself and raises :class:`Halt`, which ends
the interpreter's loop.
"""

from __future__ import annotations

import re
from types import CellType, FunctionType
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..isa import Instruction, Number, Opcode, Program, RA
from ..predictors.stride import take_all_update
from .errors import DivisionByZero, ExecutionError, InputExhausted, InvalidMemoryAccess

TRACE = "trace"
PROFILE = "profile"


class Halt(Exception):
    """Raised by ``halt``'s closure to end the interpreter loop."""


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


def left(pc: int) -> ExecutionError:
    """The fault of control flow leaving the code segment for ``pc``."""
    return ExecutionError(f"control flow left the code segment (pc={pc})")


#: The cells every closure of a set shares; a run binds them.
RUN_CELLS = (
    "regs",
    "memory",
    "load",
    "state",
    "put_output",
    "phase",
    # trace mode, rebound per batch
    "addresses",
    "put_address",
    "put_value",
    "put_other",
    "put_mem",
    "put_phase_run",
    # profile mode
    "rows",
    "fold",
)

#: Static operands, in the order a template's defaults list them.
_STATICS = ("pc", "nxt", "dest", "src1", "src2", "imm", "target", "size")

_GLOBALS = {
    "int_div": int_div,
    "int_mod": int_mod,
    "left": left,
    "Halt": Halt,
    "DivisionByZero": DivisionByZero,
    "InputExhausted": InputExhausted,
    "InvalidMemoryAccess": InvalidMemoryAccess,
}

# ``dest = f(a, b)``: operands from registers (rr), a register and the
# immediate (ri) or one register (r).  The operands are substituted
# into the expression, so the body evaluates it in one statement.
_ALU = {
    Opcode.ADD: ("rr", "a + b"),
    Opcode.SUB: ("rr", "a - b"),
    Opcode.MUL: ("rr", "a * b"),
    Opcode.DIV: ("rr", "int_div(a, b)"),
    Opcode.MOD: ("rr", "int_mod(a, b)"),
    Opcode.AND: ("rr", "a & b"),
    Opcode.OR: ("rr", "a | b"),
    Opcode.XOR: ("rr", "a ^ b"),
    Opcode.SHL: ("rr", "a << (b & 63)"),
    Opcode.SHR: ("rr", "a >> (b & 63)"),
    Opcode.SLT: ("rr", "1 if a < b else 0"),
    Opcode.SLE: ("rr", "1 if a <= b else 0"),
    Opcode.SEQ: ("rr", "1 if a == b else 0"),
    Opcode.SNE: ("rr", "1 if a != b else 0"),
    Opcode.ADDI: ("ri", "a + b"),
    Opcode.SUBI: ("ri", "a - b"),
    Opcode.MULI: ("ri", "a * b"),
    Opcode.DIVI: ("ri", "int_div(a, b)"),
    Opcode.MODI: ("ri", "int_mod(a, b)"),
    Opcode.ANDI: ("ri", "a & b"),
    Opcode.ORI: ("ri", "a | b"),
    Opcode.XORI: ("ri", "a ^ b"),
    Opcode.SHLI: ("ri", "a << (b & 63)"),
    Opcode.SHRI: ("ri", "a >> (b & 63)"),
    Opcode.SLTI: ("ri", "1 if a < b else 0"),
    Opcode.SLEI: ("ri", "1 if a <= b else 0"),
    Opcode.SEQI: ("ri", "1 if a == b else 0"),
    Opcode.SNEI: ("ri", "1 if a != b else 0"),
    Opcode.MOV: ("r", "a"),
    Opcode.NEG: ("r", "-a"),
    Opcode.NOT: ("r", "1 if a == 0 else 0"),
    Opcode.FADD: ("rr", "a + b"),
    Opcode.FSUB: ("rr", "a - b"),
    Opcode.FMUL: ("rr", "a * b"),
    Opcode.FNEG: ("r", "-a"),
    Opcode.FMOV: ("r", "a"),
    Opcode.FSLT: ("rr", "1 if a < b else 0"),
    Opcode.FSLE: ("rr", "1 if a <= b else 0"),
    Opcode.FSEQ: ("rr", "1 if a == b else 0"),
    Opcode.FSNE: ("rr", "1 if a != b else 0"),
    Opcode.CVTIF: ("r", "float(a)"),
    Opcode.CVTFI: ("r", "int(a)"),
}

_OPERANDS = {
    "rr": ("regs[src1]", "regs[src2]"),
    "ri": ("regs[src1]", "imm"),
    "r": ("regs[src1]", None),
}

# The take-all row update, on the closure's own row.
_SINK = take_all_update("pc")


class Template(NamedTuple):
    """One compiled template: its code and the statics its defaults list."""

    code: object
    statics: Tuple[str, ...]


_TEMPLATES: Dict[str, Template] = {}


def _template(body: str) -> Template:
    """The compiled template of ``body``, compiled once per process."""
    template = _TEMPLATES.get(body)
    if template is None:
        statics = tuple(
            name for name in _STATICS if re.search(rf"\b{name}\b", body)
        )
        nonlocal_names = [
            name for name in ("phase", "row") if re.search(rf"^\s*{name} = ", body, re.M)
        ]
        lines = ["def outer():", f"    {' = '.join(RUN_CELLS)} = row = None"]
        lines.append(f"    def step({', '.join(f'{name}=0' for name in statics)}):")
        if nonlocal_names:
            lines.append(f"        nonlocal {', '.join(nonlocal_names)}")
        lines.extend("        " + line for line in body.splitlines())
        lines.append("    return step")
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)
        template = Template(namespace["outer"]().__code__, statics)
        _TEMPLATES[body] = template
    return template


def _body(instruction: Instruction, pc: int, size: int, mode: str) -> str:
    """The body of ``instruction``'s closure at ``pc``."""
    opcode = instruction.opcode
    tracing = mode == TRACE
    dest = instruction.dest or 0

    def goto(name: str, value: int) -> str:
        return f"return {name}" if 0 <= value < size else f"raise left({name})"

    def produce(compute: List[str], kind: str, mem: bool = False) -> List[str]:
        """``compute`` binds ``value``; write it, record it, fall through."""
        lines = list(compute)
        if dest:
            lines.append("regs[dest] = value")
        if tracing:
            if mem:
                lines.append("put_mem(location)")
            lines.append("put_address(pc)")
            lines.append(f"put_{kind}(value)")
        elif kind == "value":
            lines.extend(_SINK.splitlines())
        lines.append(goto("nxt", pc + 1))
        return lines

    def valueless(lines: List[str], mem: bool = False) -> List[str]:
        """A record with no value: the address (and ``mems`` entry)."""
        if not tracing:
            return lines
        return lines + (["put_mem(location)"] if mem else []) + ["put_address(pc)"]

    if opcode in _ALU:
        shape, expression = _ALU[opcode]
        first, second = _OPERANDS[shape]
        expression = re.sub(r"\ba\b", first, expression)
        if second is not None:
            expression = re.sub(r"\bb\b", second, expression)
        return "\n".join(produce([f"value = {expression}"], "value"))
    if opcode in (Opcode.LI, Opcode.FLI):
        return "\n".join(produce(["value = imm"], "value"))
    if opcode is Opcode.FDIV:
        return "\n".join(produce([
            "divisor = regs[src2]",
            "if divisor == 0:",
            '    raise DivisionByZero(f"@{pc}: FP division by zero")',
            "value = regs[src1] / divisor",
        ], "value"))
    if opcode in (Opcode.LD, Opcode.FLD):
        return "\n".join(produce([
            "location = regs[src1] + imm",
            "if location < 0:",
            '    raise InvalidMemoryAccess(f"@{pc}: load from {location}")',
            "value = load(location, 0)",
        ], "value", mem=True))
    if opcode in (Opcode.IN, Opcode.FIN):
        convert = "int" if opcode is Opcode.IN else "float"
        return "\n".join(produce([
            "raw = state.next_input()",
            "if raw is None:",
            '    raise InputExhausted(f"@{pc}: input stream exhausted")',
            f"value = {convert}(raw)",
        ], "other"))
    if opcode in (Opcode.ST, Opcode.FST):
        lines = valueless([
            "location = regs[src2] + imm",
            "if location < 0:",
            '    raise InvalidMemoryAccess(f"@{pc}: store to {location}")',
            "memory[location] = regs[src1]",
        ], mem=True)
        return "\n".join(lines + [goto("nxt", pc + 1)])
    if opcode in (Opcode.BEQZ, Opcode.BNEZ):
        test = "==" if opcode is Opcode.BEQZ else "!="
        lines = valueless([])
        lines += [f"if regs[src1] {test} 0:", "    " + goto("target", instruction.target)]
        return "\n".join(lines + [goto("nxt", pc + 1)])
    if opcode is Opcode.JMP:
        return "\n".join(valueless([]) + [goto("target", instruction.target)])
    if opcode is Opcode.CALL:
        lines = [f"regs[{RA}] = nxt"]
        if dest:
            lines.append("regs[dest] = nxt")
        if tracing:
            lines += ["put_address(pc)", "put_other(nxt)"]
        return "\n".join(lines + [goto("target", instruction.target)])
    if opcode is Opcode.JR:
        return "\n".join(valueless(["to = regs[src1]"]) + [
            "if 0 <= to < size:",
            "    return to",
            "raise left(to)",
        ])
    if opcode is Opcode.OUT:
        return "\n".join(valueless(["put_output(regs[src1])"]) + [goto("nxt", pc + 1)])
    if opcode is Opcode.PHASE:
        if tracing:
            # Phase-run offsets are record indices; this record's address
            # is appended after the run opens.
            lines = ["phase = imm", "put_phase_run((len(addresses), imm))",
                     "put_address(pc)"]
        else:
            lines = ["if imm != phase:", "    fold(phase)", "    phase = imm"]
        return "\n".join(lines + [goto("nxt", pc + 1)])
    if opcode is Opcode.NOP:
        return "\n".join(valueless([]) + [goto("nxt", pc + 1)])
    if opcode is Opcode.HALT:
        lines = ["state.halted = True", "state.pc = nxt", "state.phase = phase"]
        return "\n".join(valueless(lines) + ["raise Halt"])
    raise AssertionError(f"no template for {opcode}")  # pragma: no cover


#: One instruction's factory: its template and the defaults it binds.
Factory = Tuple[Template, Tuple]


_BY_SHAPE: Dict[Tuple, Template] = {}


def _factory(
    instruction: Instruction, pc: int, size: int, mode: str, ints: List[int]
) -> Factory:
    """``instruction``'s factory at ``pc``; ``ints`` are the addresses as
    shared int objects."""
    target = instruction.target
    shape = (
        instruction.opcode,
        bool(instruction.dest),
        pc + 1 < size,
        target is None or 0 <= target < size,
        mode,
    )
    template = _BY_SHAPE.get(shape)
    if template is None:
        template = _BY_SHAPE[shape] = _template(_body(instruction, pc, size, mode))
    srcs = instruction.srcs
    operands = {
        "pc": ints[pc],
        "nxt": ints[pc + 1],
        "dest": instruction.dest or 0,
        "src1": srcs[0] if len(srcs) > 0 else 0,
        "src2": srcs[1] if len(srcs) > 1 else 0,
        "imm": int(instruction.imm) if instruction.opcode is Opcode.PHASE else instruction.imm,
        "target": target if target is None or not 0 <= target < size else ints[target],
        "size": size,
    }
    return template, tuple(operands[name] for name in template.statics)


class ClosureSet:
    """One closure per instruction, over one set of shared run cells.

    ``code[pc]()`` executes the instruction at ``pc`` and returns the
    next pc.  ``cells`` maps each name of :data:`RUN_CELLS` to its cell;
    ``row_cells`` are the candidates' own rows in profile mode.
    """

    __slots__ = ("code", "cells", "row_cells")

    def __init__(self, factories: Tuple[Factory, ...]) -> None:
        cells = {name: CellType(None) for name in RUN_CELLS}
        row_cells: List[CellType] = []
        # The closures of one template share a closure tuple, but for
        # the profiling candidates' own rows.
        shared: Dict[object, Tuple[CellType, ...]] = {}
        code = []
        for template, defaults in factories:
            closure = shared.get(template.code)
            if closure is None:
                names = template.code.co_freevars
                closure = tuple(
                    CellType(None) if name == "row" else cells[name] for name in names
                )
                if "row" in names:
                    row_cells.append(closure[names.index("row")])
                else:
                    shared[template.code] = closure
            code.append(FunctionType(template.code, _GLOBALS, None, defaults, closure))
        self.code = code
        self.cells = cells
        self.row_cells = row_cells

    def bind(self, **values) -> None:
        """Write run cells by name."""
        cells = self.cells
        for name, value in values.items():
            cells[name].cell_contents = value

    def clear(self) -> None:
        """Drop every reference the cells hold into a finished run."""
        for cell in self.cells.values():
            cell.cell_contents = None
        for cell in self.row_cells:
            cell.cell_contents = None


class Translation:
    """A program's factories in one mode, and a spare closure set."""

    __slots__ = ("factories", "free")

    def __init__(self, program: Program, mode: str) -> None:
        size = len(program.instructions)
        ints = list(range(size + 1))
        self.factories = tuple(
            _factory(instruction, pc, size, mode, ints)
            for pc, instruction in enumerate(program.instructions)
        )
        self.free: List[ClosureSet] = []


#: ``(program, mode, translation)`` of the program run last.  One slot
#: suffices: a program's runs come one after another (paper-cold's 58
#: runs translate 22 times, serve-sessions' 1,920 runs 384 times, the
#: same as with any larger memo), and a program no longer run keeps no
#: closures alive.
_last: Optional[Tuple[Program, str, Translation]] = None


def checkout(program: Program, mode: str) -> Tuple[Translation, ClosureSet]:
    """A closure set of ``program`` in ``mode`` for one run, with its
    translation: the translation's spare set, or a new one while another
    run of the program is alive."""
    global _last
    last = _last
    if last is None or last[0] is not program or last[1] != mode:
        last = _last = (program, mode, Translation(program, mode))
    translation = last[2]
    try:
        return translation, translation.free.pop()
    except IndexError:
        return translation, ClosureSet(translation.factories)


def checkin(translation: Translation, closures: ClosureSet) -> None:
    """Keep ``closures`` as ``translation``'s spare set after its run."""
    closures.clear()
    if not translation.free:
        translation.free.append(closures)
