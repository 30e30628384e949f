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
when one is passed, executed otherwise.  Per batch, each engine runs
once over the batch's candidates
(:meth:`~repro.machine.TraceBatch.candidates`) through the same
consumers as :func:`~repro.core.simulate.simulate_prediction_many`,
planned the same way, and an engine that feeds a machine leaves one
outcome code per candidate: 1 a taken correct prediction, 2 a taken
wrong one, 0 otherwise.  An engine that follows a leader's walk does
not walk: its codes are the leader's per-pair hit codes (1 correct hit,
2 wrong hit, 0 miss) masked with its take set, so a Table 5.2 grid whose
FSM table cannot evict walks once for its six engines.  Each label
schedules on its own machine, a *lane*; which engines walk and which
follow is decided in :mod:`repro.core.simulate` alone.  *Observers* are
engines that drive no machine: they join the same plan, may lead the
lane engines or follow them, and leave no codes, so the Section-5 grid
runs its six infinite-table engines in the ILP run's walk.  Every lane
that shares a scheduling table (equal
``track_memory_dependencies``) schedules the batch in one loop
(:func:`_scheduler`): a record's table lookup, shape test and ``mems``
and candidate cursors run once, then each lane's ready, window and
retire updates follow in locals.  No engine reads
scheduler state, so an engine's (taken, correct) outcomes depend on the
candidate stream alone and running it a batch ahead of the scheduler
changes no result.  Every engine's statistics, the observers' too, are
published once under ``core.*`` and ``predictor.*`` as a simulation's
are; Figures 5.3/5.4 read their taken counts from these results rather
than simulating the same engines again.
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
from ..core.simulate import PredictionEngine, check_distinct_engines
from ..core.simulate import _build_consumers, _publish_engine_metrics
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
    for instruction, is_candidate in zip(program.instructions, program.candidate_mask):
        dest = instruction.dest
        if instruction.opcode is Opcode.CALL:
            dest = RA  # call writes the return-address register
        decoded.append(
            (
                instruction.srcs,
                dest,
                instruction.opcode.reads_memory,
                instruction.opcode.writes_memory,
                is_candidate,
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
#: ``(src1, src2, dest, shape)``.  Missing sources are padded with
#: ``ZERO``, whose ready cycle is never written; ``dest`` is 0 when the
#: instruction writes no register (or writes ``ZERO``).  ``shape`` sums
#: the record's static flags: :data:`_DEST` when ``dest`` is set,
#: :data:`_LOAD` or :data:`_STORE` for the records carrying a ``mems``
#: entry — neither when memory dependencies are not tracked — and
#: :data:`_CANDIDATE` for the prediction candidates, whose outcome codes
#: the engines write.
_Slot = Tuple[int, int, int, int]

_DEST, _LOAD, _STORE, _CANDIDATE = 1, 2, 4, 8

#: Every shape a record can have, the common ones first: a scheduling
#: loop tests them in this order.
_SHAPES = (
    _DEST | _CANDIDATE,
    0,
    _DEST | _LOAD | _CANDIDATE,
    _STORE,
    _DEST,
    _CANDIDATE,
    _LOAD | _CANDIDATE,
    _DEST | _LOAD,
    _LOAD,
    _DEST | _STORE,
    _STORE | _CANDIDATE,
    _DEST | _STORE | _CANDIDATE,
)


def _scheduling_table(decoded: List[_Decoded], track_memory: bool) -> List[_Slot]:
    table: List[_Slot] = []
    for srcs, dest, reads_memory, writes_memory, is_candidate in decoded:
        src1, src2 = (tuple(srcs) + (ZERO, ZERO))[:2]
        dest = dest if dest is not None else ZERO
        shape = _CANDIDATE if is_candidate else 0
        if dest != ZERO:
            shape |= _DEST
        if track_memory:
            shape |= _LOAD if reads_memory else _STORE if writes_memory else 0
        table.append((src1, src2, dest, shape))
    return table


class _BatchMachine:
    """One machine configuration's scheduling state between batches.

    The per-record work is a scheduling loop (:func:`_scheduler`) that
    keeps this state in locals.  ``window`` starts full of zeros, so
    ``window[0]`` is the retire cycle of the instruction ``window_size``
    positions earlier — or 0 while the window is filling — exactly the
    reference's pop-when-full rule, since retire cycles are never
    negative.
    """

    __slots__ = (
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

    def __init__(self, config: IlpConfig) -> None:
        self.penalty = config.misprediction_penalty
        self.register_ready = [0] * NUM_REGISTERS
        self.memory_ready: Dict[int, int] = {}
        self.window = deque([0] * config.window_size, maxlen=config.window_size)
        self.retire = 0
        self.instructions = 0
        self.taken = 0
        self.correct = 0
        self.mispredicted = 0

    def count(self, records: int, outcomes: Optional[bytearray]) -> None:
        """Count a scheduled batch; ``outcomes`` holds its candidates' codes."""
        self.instructions += records
        if outcomes:
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


def _lane_code(lane: int, shape: int, predicting: bool) -> List[str]:
    """One lane's scheduling of one record of ``shape``, as source lines."""
    i = lane
    lines = [
        f"e = w{i}[0]",
        f"r = rr{i}[src1]",
        "if e > r: r = e",
        f"x = rr{i}[src2]",
        "if x > r: r = x",
    ]
    if shape & _LOAD:
        lines += [f"x = mg{i}(location, 0)", "if x > r: r = x"]
    lines.append("c = r + 1")
    if shape & _DEST:
        if shape & _CANDIDATE and predicting:
            # Collapsed dependence: a correct taken prediction is visible
            # as soon as the producer is in flight.
            lines += [
                f"k = k{i}[cursor]",
                f"if k == 1: rr{i}[dest] = e",
                f"elif k == 2: rr{i}[dest] = c + pen{i}",
                f"else: rr{i}[dest] = c",
            ]
        else:
            lines.append(f"rr{i}[dest] = c")
    if shape & _STORE:
        lines.append(f"mr{i}[location] = c")
    lines += [f"if c > ret{i}: ret{i} = c", f"a{i}(ret{i})"]
    return lines


_SCHEDULERS: Dict[Tuple[bool, ...], object] = {}


def _scheduler(predicting: Tuple[bool, ...]):
    """The scheduling loop of one lane tuple, compiled once per process.

    ``predicting[i]`` says whether lane ``i`` reads outcome codes.  The
    loop is ``schedule(table, addresses, mems, machines, outcomes)``: it
    looks each record up once, branches on its shape, advances the
    ``mems`` and candidate cursors once, and schedules the record on
    every lane (``machines[i]``, with ``outcomes[i]`` its codes).
    """
    schedule = _SCHEDULERS.get(predicting)
    if schedule is not None:
        return schedule
    lanes = range(len(predicting))
    lines = ["def schedule(table, addresses, mems, machines, outcomes):"]
    lines.append(f"    {''.join(f'm{i}, ' for i in lanes)}= machines")
    for i in lanes:
        lines += [
            f"    rr{i} = m{i}.register_ready",
            f"    mr{i} = m{i}.memory_ready",
            f"    mg{i} = mr{i}.get",
            f"    w{i} = m{i}.window",
            f"    a{i} = w{i}.append",
            f"    ret{i} = m{i}.retire",
            f"    pen{i} = m{i}.penalty",
        ]
        if predicting[i]:
            lines.append(f"    k{i} = outcomes[{i}]")
    lines += ["    cursor = 0", "    mem_cursor = 0", "    for address in addresses:"]
    lines.append("        src1, src2, dest, shape = table[address]")
    for index, shape in enumerate(_SHAPES):
        lines.append(f"        {'if' if index == 0 else 'elif'} shape == {shape}:")
        body = []
        if shape & (_LOAD | _STORE):
            body += ["location = mems[mem_cursor]", "mem_cursor += 1"]
        for i in lanes:
            body += _lane_code(i, shape, predicting[i])
        if shape & _CANDIDATE and any(predicting):
            body.append("cursor += 1")
        lines += ["            " + line for line in body]
    lines += [f"    m{i}.retire = ret{i}" for i in lanes]
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)
    schedule = _SCHEDULERS[predicting] = namespace["schedule"]
    return schedule


def measure_ilp_many(
    program: Program,
    inputs: Iterable[Number] = (),
    engines: Optional[Mapping[str, Optional[PredictionEngine]]] = None,
    config: Optional[IlpConfig] = None,
    configs: Optional[Mapping[str, IlpConfig]] = None,
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
    observers: Optional[Mapping[str, PredictionEngine]] = None,
) -> Dict[str, IlpResult]:
    """Schedule several machine configurations against one execution.

    ``engines`` maps a label to a :class:`PredictionEngine` or ``None``
    (no value prediction); each label needs its own engine object
    (``ValueError`` otherwise).  All schedulers consume the same trace,
    so the program executes at most once — and not at all when
    ``store`` already holds the trace.  ``configs`` optionally overrides
    the shared ``config`` per label — e.g. to sweep window sizes or
    penalties in the same pass.  ``observers`` maps labels to engines
    that see the same candidate stream but drive no machine, as
    :func:`~repro.core.simulate.simulate_prediction_many` would run
    them; they get no result here, and the caller reads each one's
    statistics from its engine.

    Results equal feeding every record to a :class:`WindowScheduler`
    per label; an :class:`~repro.machine.ExecutionError` raised by the
    run propagates after the engines have observed every retired
    candidate, as it does there.
    """
    if engines is None:
        engines = {"baseline": None}
    observers = observers or {}
    check_distinct_engines(
        list(engines.items())
        + [(f"observer {label}", engine) for label, engine in observers.items()]
    )
    configs = configs or {}
    decoded = _decode_for_scheduling(program)
    labels: Dict[str, _BatchMachine] = {}
    # One scheduling loop per table (memory tracked or not): its lanes,
    # one machine per label, with the index of each one's engine's codes.
    groups: Dict[bool, List[Tuple[_BatchMachine, Optional[int]]]] = {}
    lane_engines: List[PredictionEngine] = []
    for label, engine in engines.items():
        machine_config = configs.get(label, config) or IlpConfig()
        machine = labels[label] = _BatchMachine(machine_config)
        index = None
        if engine is not None:
            index = len(lane_engines)
            lane_engines.append(engine)
        track = machine_config.track_memory_dependencies
        groups.setdefault(track, []).append((machine, index))
    loops = [
        (
            _scheduling_table(decoded, track),
            _scheduler(tuple(index is not None for _machine, index in lanes)),
            tuple(machine for machine, _index in lanes),
            [index for _machine, index in lanes],
        )
        for track, lanes in groups.items()
    ]
    # One code slot per lane engine; the observers after them get none.
    codes: List[Optional[bytearray]] = [None] * len(lane_engines)
    engine_list = lane_engines + list(observers.values())
    consumers, finishers, paths = _build_consumers(engine_list, codes)
    started = time.perf_counter()
    batches = replay_or_run(program, inputs, max_instructions, store)
    try:
        for batch in batches:
            # Lists index faster than the batch's arrays; the candidate
            # walk reuses the address list.
            addresses = batch.addresses.tolist()
            if consumers:
                pairs = batch.candidates(addresses=addresses)[0]
                for consume in consumers:
                    consume(pairs)
            mems = list(batch.mems)
            records = len(addresses)
            for table, schedule, lane_machines, indexes in loops:
                outcomes = [None if index is None else codes[index] for index in indexes]
                schedule(table, addresses, mems, lane_machines, outcomes)
                for machine, lane_outcomes in zip(lane_machines, outcomes):
                    machine.count(records, lane_outcomes)
    finally:
        for finish in finishers:
            finish()
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.timer("ilp.schedule").add(time.perf_counter() - started)
            telemetry.counter("ilp.runs").add(1)
            telemetry.counter("ilp.records").add(
                sum(machine.instructions for machine in labels.values())
            )
            if engine_list:
                _publish_engine_metrics(telemetry, engine_list, paths)
    return {label: machine.result() for label, machine in labels.items()}


def ilp_increase(with_prediction: IlpResult, baseline: IlpResult) -> float:
    """Percent ILP increase of ``with_prediction`` over ``baseline`` (Table 5.2)."""
    if baseline.ilp == 0:
        return 0.0
    return 100.0 * (with_prediction.ilp - baseline.ilp) / baseline.ilp
