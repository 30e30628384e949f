"""The abstract ILP machine of the paper's Section 5.3.

"Our experiments consider an abstract machine with a finite instruction
window of 40 entries, unlimited number of execution units and a perfect
branch prediction mechanism. ... In case of value-misprediction, the
penalty in our abstract machine is 1 clock cycle."

:class:`WindowScheduler` walks the dynamic trace once and assigns each
instruction:

* an *enter* cycle — bounded by the 40-entry window (an instruction enters
  when the instruction 40 positions earlier retires);
* an *issue* cycle — when its operands are ready (unit execution latency,
  unlimited execution units, so issue = ready);
* a *retire* cycle — in order.

Value prediction changes when a producer's destination value becomes
visible to consumers: a correctly predicted (and taken) value is available
the moment the producer enters the window — the true-data dependence is
collapsed; a mispredicted taken value is available only after the producer
executes plus the misprediction penalty; an unpredicted value after the
producer executes.

Branches constrain nothing (perfect branch prediction).  Loads optionally
depend on the last store to the same address (perfect memory
disambiguation with store-to-load forwarding); disable
``track_memory_dependencies`` to treat memory as unconstrained, closer to
a pure register-dataflow limit study.

:func:`measure_ilp_many` schedules several machine configurations (e.g.
no-VP, VP+SC, VP+Prof at five thresholds) against a *single* trace, in
columnar batches — replayed from a :class:`~repro.machine.TraceStore`
when one is passed (the simulation studies have usually captured the
same run already), executed otherwise.  Per batch, each engine runs
once over the batch's candidates through the same consumers as
:func:`~repro.core.simulate.simulate_prediction_many` and leaves one
outcome code per candidate; each machine then schedules the batch in one
tight loop over its columns.  No engine reads scheduler state, so an
engine's (taken, correct) outcomes depend on the candidate stream alone
and running it a batch ahead of the scheduler changes no result.
:class:`WindowScheduler` is the per-record reference the
``ilp-batch-vs-record`` oracle pair holds the batch path to.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import NUM_REGISTERS, Number, Opcode, Program, RA, ZERO
from ..machine import TraceRecord, TraceStore
from ..machine.tracestore import replay_or_run
from ..core.simulate import (
    PredictionEngine,
    _candidate_pairs,
    check_distinct_engines,
    engine_consumer,
)
from ..telemetry import get_registry


@dataclasses.dataclass(frozen=True)
class IlpConfig:
    """Machine parameters (defaults = the paper's abstract machine)."""

    window_size: int = 40
    misprediction_penalty: int = 1
    track_memory_dependencies: bool = True

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if self.misprediction_penalty < 0:
            raise ValueError("misprediction_penalty must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "IlpConfig":
        return cls(
            window_size=int(payload["window_size"]),
            misprediction_penalty=int(payload["misprediction_penalty"]),
            track_memory_dependencies=bool(payload["track_memory_dependencies"]),
        )


@dataclasses.dataclass(frozen=True)
class IlpResult:
    """Outcome of one scheduled run."""

    instructions: int
    cycles: int
    taken_predictions: int
    correct_predictions: int
    mispredictions: int

    @property
    def ilp(self) -> float:
        """Retired instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def to_dict(self) -> dict:
        """Exact, JSON-compatible encoding for caching/pool transport."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "IlpResult":
        return cls(
            instructions=int(payload["instructions"]),
            cycles=int(payload["cycles"]),
            taken_predictions=int(payload["taken_predictions"]),
            correct_predictions=int(payload["correct_predictions"]),
            mispredictions=int(payload["mispredictions"]),
        )


_Decoded = Tuple[Tuple[int, ...], Optional[int], bool, bool, bool]


def _decode_for_scheduling(program: Program) -> List[_Decoded]:
    decoded: List[_Decoded] = []
    for instruction in program.instructions:
        dest = instruction.dest
        if instruction.opcode is Opcode.CALL:
            dest = RA  # call writes the return-address register
        decoded.append(
            (
                instruction.srcs,
                dest,
                instruction.opcode.reads_memory,
                instruction.opcode.writes_memory,
                instruction.is_prediction_candidate,
            )
        )
    return decoded


class WindowScheduler:
    """Schedules one dynamic instruction stream on the abstract machine.

    Feed it records in program order via :meth:`feed`, then read
    :meth:`result`.  This is the per-record reference implementation;
    :func:`measure_ilp_many` computes the same results from trace
    batches.
    """

    def __init__(
        self,
        program: Program,
        engine: Optional[PredictionEngine] = None,
        config: Optional[IlpConfig] = None,
        decoded: Optional[List[_Decoded]] = None,
    ) -> None:
        self.config = config or IlpConfig()
        self.engine = engine
        self._decoded = decoded if decoded is not None else _decode_for_scheduling(program)
        self._register_ready = [0] * NUM_REGISTERS
        self._memory_ready: Dict[int, int] = {}
        self._window: deque[int] = deque()
        self._retire_prev = 0
        self._instruction_count = 0
        self._taken = 0
        self._correct = 0
        self._mispredicted = 0

    def feed(self, record: TraceRecord) -> None:
        """Schedule one retired dynamic instruction."""
        srcs, dest, reads_memory, writes_memory, is_candidate = self._decoded[
            record.address
        ]
        self._instruction_count += 1
        config = self.config
        register_ready = self._register_ready

        window = self._window
        if len(window) >= config.window_size:
            enter = window.popleft()
        else:
            enter = 0

        ready = enter
        for source in srcs:
            source_ready = register_ready[source]
            if source_ready > ready:
                ready = source_ready
        if (
            config.track_memory_dependencies
            and reads_memory
            and record.mem_address is not None
        ):
            memory_time = self._memory_ready.get(record.mem_address, 0)
            if memory_time > ready:
                ready = memory_time

        complete = ready + 1

        taken = False
        correct = False
        if self.engine is not None and is_candidate:
            taken, correct = self.engine.step(record.address, record.value)
            if taken:
                self._taken += 1
                if correct:
                    self._correct += 1
                else:
                    self._mispredicted += 1

        if dest is not None and dest != ZERO:
            if taken and correct:
                # Collapsed dependence: consumers see the predicted value
                # as soon as the producer is in flight.
                register_ready[dest] = enter
            elif taken:
                register_ready[dest] = complete + config.misprediction_penalty
            else:
                register_ready[dest] = complete
        if (
            config.track_memory_dependencies
            and writes_memory
            and record.mem_address is not None
        ):
            self._memory_ready[record.mem_address] = complete

        retire = complete if complete > self._retire_prev else self._retire_prev
        self._retire_prev = retire
        window.append(retire)

    def result(self) -> IlpResult:
        return IlpResult(
            instructions=self._instruction_count,
            cycles=self._retire_prev,
            taken_predictions=self._taken,
            correct_predictions=self._correct,
            mispredictions=self._mispredicted,
        )


def measure_ilp(
    program: Program,
    inputs: Iterable[Number] = (),
    engine: Optional[PredictionEngine] = None,
    config: Optional[IlpConfig] = None,
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> IlpResult:
    """Schedule one run on the abstract machine and measure its ILP.

    Args:
        program: the binary to execute.
        inputs: the run's input stream.
        engine: value-prediction engine (predictor + classification
            scheme); ``None`` disables value prediction entirely — the
            pure dataflow baseline the paper's Table 5.2 normalizes to.
        config: machine parameters.
        max_instructions: optional dynamic-instruction cap.
        store: optional trace store for capture-once/replay-many runs.
    """
    results = measure_ilp_many(
        program,
        inputs,
        engines={"only": engine},
        config=config,
        max_instructions=max_instructions,
        store=store,
    )
    return results["only"]


#: One static instruction as the batch scheduler sees it:
#: ``(src1, src2, dest, memory, candidate)``.  Missing sources are
#: padded with ``ZERO``, whose ready cycle is never written; ``dest`` is
#: 0 when the instruction writes no register (or writes ``ZERO``);
#: ``memory`` is 1 for a load, 2 for a store (the records carrying a
#: ``mems`` entry) and 0 otherwise — or 0 throughout when memory
#: dependencies are not tracked; ``candidate`` marks instructions whose
#: outcome code the engine wrote.
_Slot = Tuple[int, int, int, int, bool]


def _scheduling_table(
    decoded: List[_Decoded], track_memory: bool, predicting: bool
) -> List[_Slot]:
    table: List[_Slot] = []
    for srcs, dest, reads_memory, writes_memory, is_candidate in decoded:
        src1, src2 = (tuple(srcs) + (ZERO, ZERO))[:2]
        memory = 0
        if track_memory:
            memory = 1 if reads_memory else 2 if writes_memory else 0
        table.append(
            (
                src1,
                src2,
                dest if dest is not None else ZERO,
                memory,
                predicting and is_candidate,
            )
        )
    return table


class _BatchMachine:
    """One machine configuration scheduling a trace batch by batch.

    Holds the :class:`WindowScheduler` state between batches; the
    per-record work is :meth:`schedule`, one loop over a batch's columns
    with that state in locals.  ``window`` starts full of zeros, so
    ``window[0]`` is the retire cycle of the instruction ``window_size``
    positions earlier — or 0 while the window is filling — exactly the
    reference's pop-when-full rule, since retire cycles are never
    negative.
    """

    __slots__ = (
        "table",
        "penalty",
        "register_ready",
        "memory_ready",
        "window",
        "retire",
        "instructions",
        "taken",
        "correct",
        "mispredicted",
    )

    def __init__(self, table: List[_Slot], config: IlpConfig) -> None:
        self.table = table
        self.penalty = config.misprediction_penalty
        self.register_ready = [0] * NUM_REGISTERS
        self.memory_ready: Dict[int, int] = {}
        self.window = deque([0] * config.window_size, maxlen=config.window_size)
        self.retire = 0
        self.instructions = 0
        self.taken = 0
        self.correct = 0
        self.mispredicted = 0

    def schedule(self, addresses, mems, outcomes) -> None:
        """Schedule one batch; ``outcomes`` holds its candidates' codes."""
        table = self.table
        penalty = self.penalty
        register_ready = self.register_ready
        memory_ready = self.memory_ready
        memory_get = memory_ready.get
        window = self.window
        append = window.append
        retire = self.retire
        mem_cursor = 0
        candidate_cursor = 0
        for address in addresses:
            src1, src2, dest, memory, candidate = table[address]
            enter = window[0]
            ready = enter
            source_ready = register_ready[src1]
            if source_ready > ready:
                ready = source_ready
            source_ready = register_ready[src2]
            if source_ready > ready:
                ready = source_ready
            if memory:
                location = mems[mem_cursor]
                mem_cursor += 1
                if memory == 1:
                    source_ready = memory_get(location, 0)
                    if source_ready > ready:
                        ready = source_ready
            complete = ready + 1
            if candidate:
                code = outcomes[candidate_cursor]
                candidate_cursor += 1
                if dest:
                    if code == 1:
                        # Collapsed dependence: consumers see the predicted
                        # value as soon as the producer is in flight.
                        register_ready[dest] = enter
                    elif code == 2:
                        register_ready[dest] = complete + penalty
                    else:
                        register_ready[dest] = complete
            elif dest:
                register_ready[dest] = complete
            if memory == 2:
                memory_ready[location] = complete
            if complete > retire:
                retire = complete
            append(retire)
        self.retire = retire
        self.instructions += len(addresses)
        if candidate_cursor:
            correct = outcomes.count(1)
            mispredicted = outcomes.count(2)
            self.correct += correct
            self.mispredicted += mispredicted
            self.taken += correct + mispredicted

    def result(self) -> IlpResult:
        return IlpResult(
            instructions=self.instructions,
            cycles=self.retire,
            taken_predictions=self.taken,
            correct_predictions=self.correct,
            mispredictions=self.mispredicted,
        )


def measure_ilp_many(
    program: Program,
    inputs: Iterable[Number] = (),
    engines: Optional[Mapping[str, Optional[PredictionEngine]]] = None,
    config: Optional[IlpConfig] = None,
    configs: Optional[Mapping[str, IlpConfig]] = None,
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> Dict[str, IlpResult]:
    """Schedule several machine configurations against one execution.

    ``engines`` maps a label to a :class:`PredictionEngine` or ``None``
    (no value prediction); each label needs its own engine object
    (``ValueError`` otherwise).  All schedulers consume the same trace,
    so the program executes at most once — and not at all when
    ``store`` already holds the trace.  ``configs`` optionally overrides
    the shared ``config`` per label — e.g. to sweep window sizes or
    penalties in the same pass.

    Results equal feeding every record to a :class:`WindowScheduler`
    per label; an :class:`~repro.machine.ExecutionError` raised by the
    run propagates after the engines have observed every retired
    candidate, as it does there.
    """
    if engines is None:
        engines = {"baseline": None}
    check_distinct_engines(engines)
    configs = configs or {}
    decoded = _decode_for_scheduling(program)
    is_candidate = [slot[4] for slot in decoded]
    tables: Dict[Tuple[bool, bool], List[_Slot]] = {}
    machines: Dict[str, _BatchMachine] = {}
    lanes = []  # (machine, consume or None), one per label
    finishers = []
    for label, engine in engines.items():
        machine_config = configs.get(label, config) or IlpConfig()
        variant = (machine_config.track_memory_dependencies, engine is not None)
        table = tables.get(variant)
        if table is None:
            table = tables[variant] = _scheduling_table(decoded, *variant)
        machine = machines[label] = _BatchMachine(table, machine_config)
        consume = None
        if engine is not None:
            consume, finish = engine_consumer(engine)
            if finish is not None:
                finishers.append(finish)
        lanes.append((machine, consume))
    predicting = any(consume is not None for _, consume in lanes)
    started = time.perf_counter()
    batches = replay_or_run(program, inputs, max_instructions, store)
    try:
        for batch in batches:
            addresses = batch.addresses
            mems = batch.mems
            pairs = _candidate_pairs(batch, is_candidate) if predicting else ()
            for machine, consume in lanes:
                outcomes = None
                if consume is not None:
                    outcomes = bytearray(len(pairs))
                    if pairs:
                        consume(pairs, outcomes)
                machine.schedule(addresses, mems, outcomes)
    finally:
        for finish in finishers:
            finish()
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.timer("ilp.schedule").add(time.perf_counter() - started)
            telemetry.counter("ilp.runs").add(1)
            telemetry.counter("ilp.records").add(
                sum(machine.instructions for machine in machines.values())
            )
    return {label: machine.result() for label, machine in machines.items()}


def ilp_increase(with_prediction: IlpResult, baseline: IlpResult) -> float:
    """Percent ILP increase of ``with_prediction`` over ``baseline`` (Table 5.2)."""
    if baseline.ilp == 0:
        return 0.0
    return 100.0 * (with_prediction.ilp - baseline.ilp) / baseline.ilp
