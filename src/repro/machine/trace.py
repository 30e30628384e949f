"""Dynamic-trace records emitted by the functional simulator.

A trace is the reproduction's equivalent of a SHADE instruction trace: one
record per retired instruction, in program order.  Records carry only the
*dynamic* facts (value produced, effective address, phase); static facts
(opcode, category, sources, directive) are looked up in the
:class:`~repro.isa.program.Program` by the record's address.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional

from ..isa import Number, Program


@dataclasses.dataclass(slots=True)
class TraceRecord:
    """One retired dynamic instruction.

    Attributes:
        address: static instruction address.
        value: destination value produced, or ``None`` if the instruction
            writes no register.
        phase: execution phase at retirement (0 until the program executes
            a ``phase`` instruction; the FP workloads use 1=initialization,
            2=computation, following the paper's split).
        mem_address: effective data address for loads/stores, else ``None``.
    """

    address: int
    value: Optional[Number]
    phase: int
    mem_address: Optional[int]


@dataclasses.dataclass(slots=True)
class RunResult:
    """Summary of one complete program execution."""

    instruction_count: int
    outputs: List[Number]
    halted: bool


def candidate_records(
    program: Program, trace: Iterable[TraceRecord]
) -> Iterator[TraceRecord]:
    """Filter ``trace`` down to value-prediction candidate instructions.

    These are the records the predictors and the profiler consume: dynamic
    instances of instructions that write a computed value to a destination
    register.
    """
    is_candidate = program.candidate_mask
    for record in trace:
        if is_candidate[record.address]:
            yield record


def trace_to_list(trace: Iterable[TraceRecord]) -> List[TraceRecord]:
    """Materialize a trace generator (test convenience)."""
    return list(trace)
