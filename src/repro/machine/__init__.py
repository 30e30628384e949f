"""Functional architectural simulator (the paper's SHADE stand-in).

Executes :class:`~repro.isa.program.Program` binaries and produces dynamic
instruction traces that the value predictors, the profiler and the ILP
model consume.  Traces are emitted natively as columnar
:class:`TraceBatch` chunks (with a per-record adapter on top) and can be
captured once and replayed many times through :class:`TraceStore`.
"""

from .batch import DEFAULT_CHUNK, TraceBatch
from .columns import ValueColumn
from .errors import (
    DivisionByZero,
    ExecutionError,
    InputExhausted,
    InstructionBudgetExceeded,
    InvalidMemoryAccess,
)
from .executor import (
    DEFAULT_BUDGET,
    Executor,
    mem_flags,
    run_program,
    trace_batches,
    trace_program,
    value_flags,
)
from .sharding import ShardReport, ShardResult, capture_sharded, parallel_runs
from .state import MachineState
from .stats import RunStatistics, collect_statistics
from .tracefile import save_trace, write_trace
from .tracestore import (
    PackedTrace,
    TraceStore,
    inputs_digest,
    program_digest,
    trace_key,
)
from .trace import RunResult, TraceRecord, candidate_records, trace_to_list

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_CHUNK",
    "DivisionByZero",
    "ExecutionError",
    "Executor",
    "InputExhausted",
    "InstructionBudgetExceeded",
    "InvalidMemoryAccess",
    "MachineState",
    "PackedTrace",
    "RunResult",
    "RunStatistics",
    "ShardReport",
    "ShardResult",
    "TraceBatch",
    "TraceRecord",
    "TraceStore",
    "ValueColumn",
    "candidate_records",
    "capture_sharded",
    "collect_statistics",
    "inputs_digest",
    "mem_flags",
    "parallel_runs",
    "program_digest",
    "run_program",
    "save_trace",
    "trace_batches",
    "trace_key",
    "trace_program",
    "trace_to_list",
    "value_flags",
    "write_trace",
]
