"""The classified value-prediction simulation driver.

Walks a program's dynamic trace and, for every value-prediction candidate,
plays one step of the predictor + classification-scheme protocol:

1. look the instruction up in the prediction table;
2. on a hit, judge the suggestion against the actual outcome value
   (``would_correct``), ask the scheme whether the suggestion is *taken*,
   and let the scheme learn from the outcome;
3. on a miss, allocate a new entry iff the scheme permits it
   (``may_allocate`` — this is where profile-guided classification keeps
   unpredictable instructions from polluting the table).

The same driver serves the infinite-table classification-accuracy study
(Figures 5.1/5.2), the finite-table pressure study (Figures 5.3/5.4,
Table 5.1) and, through :func:`engine_consumer`, the ILP model, which
reads each candidate's (taken, correct) outcome back from the same
batch consumers.

The trace is consumed in columnar batches
(:meth:`~repro.machine.Executor.run_batches`, optionally captured
into / replayed from a :class:`~repro.machine.TraceStore`).  Engines
whose predictor is a plain :class:`~repro.predictors.StridePredictor`
driven by one of the stock classification schemes run an inlined
batch-walking loop that replicates :meth:`PredictionEngine.step` —
including table LRU/eviction order and the scheme call sequence —
without per-record object allocation; everything else falls back to
``step`` per candidate.  Results are bit-identical either way, with two
deliberate internal-only divergences on the fast path: ``may_allocate``
is consulted only on misses (the stock schemes are pure, so skipping the
unconditional call is unobservable) and LRU positions are not refreshed
in infinite tables (which never evict).

Engines whose predictor evolution is a pure function of the candidate
stream — an infinite table with unconditional allocation, as in the
:class:`~repro.core.schemes.ProbeScheme` classification-accuracy study —
additionally *share* that evolution: one leader engine walks the stream,
and every sibling whose take policy is static (a constant or an address
membership test, with a no-op learning rule) folds its statistics from
the leader's per-address accumulators at the end and clones the final
table state, paying zero per-record cost.  The six-engine Figure 5.1/5.2
grid therefore does one predictor's work per record, not six.

:meth:`PredictionEngine.step` is the reference semantics and the inlined
consumer, with its shared fold, is the only fast path; the
``simulate-fast-vs-step`` pair of ``repro check`` holds one against the
other.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple, Union

from ..isa import Directive, Number, Program
from ..machine import TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import HybridPredictor, StridePredictor, ValuePredictor
from ..predictors.stride import StrideEntry
from ..telemetry import get_registry
from .results import PredictionStats
from .schemes import (
    AlwaysClassification,
    ClassificationScheme,
    HardwareClassification,
    ProbeScheme,
    ProfileClassification,
)

Predictor = Union[ValuePredictor, HybridPredictor]


class PredictionEngine:
    """Stateful per-dynamic-instance prediction pipeline.

    Drives one (predictor, scheme) pair record by record; usable both for
    whole-trace simulation (:func:`simulate_prediction`) and interleaved
    with another consumer (the ILP scheduler).
    """

    def __init__(
        self,
        program: Program,
        predictor: Optional[Predictor] = None,
        scheme: Optional[ClassificationScheme] = None,
    ) -> None:
        self.program = program
        self.predictor: Predictor = predictor if predictor is not None else StridePredictor()
        self.scheme = scheme or AlwaysClassification()
        self.stats = PredictionStats(candidates=len(program.candidate_addresses))
        self._is_candidate = [
            instruction.is_prediction_candidate for instruction in program.instructions
        ]
        self._is_hybrid = isinstance(self.predictor, HybridPredictor)

    def is_candidate(self, address: int) -> bool:
        return self._is_candidate[address]

    def step(self, address: int, value: Number) -> Tuple[bool, bool]:
        """Process one dynamic candidate; return ``(taken, correct)``.

        ``taken`` means the machine used the suggested value;
        ``correct`` qualifies the suggestion (meaningful when taken).
        """
        scheme = self.scheme
        stats = self.stats
        allocate = scheme.may_allocate(address)
        if self._is_hybrid:
            kind = scheme.directive_of(address) or Directive.LAST_VALUE
            result = self.predictor.access(
                address, value, kind, allocate=allocate, on_evict=scheme.on_evict
            )
        else:
            result = self.predictor.access(
                address, value, allocate=allocate, on_evict=scheme.on_evict
            )

        address_stats = stats.address_stats(address)
        stats.executions += 1
        address_stats.executions += 1
        if result.allocated:
            stats.allocations += 1
            address_stats.allocations += 1
            if result.evicted_address is not None:
                stats.evictions += 1
        if not result.hit:
            return (False, False)

        stats.attempts += 1
        address_stats.attempts += 1
        if result.correct:
            stats.would_correct += 1
            address_stats.would_correct += 1
        taken = scheme.should_take(address)
        if taken:
            stats.taken += 1
            address_stats.taken += 1
            if result.correct:
                stats.taken_correct += 1
                address_stats.taken_correct += 1
        scheme.record(address, result.correct)
        return (taken, result.correct)


def simulate_prediction(
    program: Program,
    inputs: Iterable[Number] = (),
    predictor: Optional[Predictor] = None,
    scheme: Optional[ClassificationScheme] = None,
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> PredictionStats:
    """Run the full classified value-prediction protocol over one run.

    Args:
        program: the binary to execute (for profile classification, the
            *annotated* binary — though only the scheme reads directives).
        inputs: the run's input stream.
        predictor: defaults to an unbounded stride predictor.
        scheme: defaults to :class:`AlwaysClassification`.
        max_instructions: optional dynamic-instruction cap.
        store: optional trace store for capture-once/replay-many runs.
    """
    engine = PredictionEngine(program, predictor=predictor, scheme=scheme)
    results = simulate_prediction_many(
        program, inputs, {"only": engine}, max_instructions=max_instructions,
        store=store,
    )
    return results["only"]


def simulate_prediction_many(
    program: Program,
    inputs: Iterable[Number],
    engines: "dict[str, PredictionEngine]",
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> "dict[str, PredictionStats]":
    """Evaluate several (predictor, scheme) pairs against one execution.

    The program runs exactly once; every engine observes the same dynamic
    candidate stream.  This is how the experiment harness compares the
    hardware classifier against five profile thresholds without paying
    for six simulations.  Engines consume the stream batch by batch (the
    per-candidate order within each engine is unchanged), so engines must
    not share mutable scheme or predictor state with one another.
    """
    if not engines:
        raise ValueError("need at least one engine")
    check_distinct_engines(engines)
    engine_list = list(engines.values())
    is_candidate = engine_list[0]._is_candidate
    consumers, finishers = _build_consumers(engine_list)
    started = time.perf_counter()
    batches = replay_or_run(program, inputs, max_instructions, store)
    try:
        for batch in batches:
            pairs = _candidate_pairs(batch, is_candidate)
            if not pairs:
                continue
            for consume in consumers:
                consume(pairs)
    finally:
        # Fold the fast paths' accumulators even when the trace raised
        # mid-run, matching the step path's behaviour of keeping every
        # observation up to the fault.
        for finish in finishers:
            finish()
    telemetry = get_registry()
    if telemetry.enabled:
        telemetry.timer("core.simulate").add(time.perf_counter() - started)
        _publish_engine_metrics(telemetry, engine_list)
    return {label: engine.stats for label, engine in engines.items()}


def _candidate_pairs(batch, is_candidate):
    """The batch's ``(address, value)`` candidate stream as a list.

    Prediction candidates are always value producers, so a cursor walk
    over the packed produced-value column recovers each candidate's
    value without materialising the legacy one-slot-per-record list.
    """
    flags = batch.value_flags
    column = batch.values
    produced = column.ints if column.is_pure_int else column.tolist()
    pairs: list = []
    append = pairs.append
    cursor = 0
    for address in batch.addresses:
        if flags[address]:
            if is_candidate[address]:
                append((address, produced[cursor]))
            cursor += 1
    return pairs


def _build_consumers(engine_list):
    """Plan one batch consumer per engine plus the end-of-trace finishers.

    Fast-path engines whose predictor evolution is stream-determined (see
    :class:`_SharedStride`) are grouped: one leader keeps its inlined
    consumer, and every *static* sibling (membership take policy, no-op
    learning rule) is planned as a finisher-only fold over the leader's
    accumulators.  A dynamic engine (FSM learning) is preferred as leader
    since its per-record scheme calls must run anyway.  Follower
    finishers are ordered before the leader's, which zeroes the shared
    accumulators when it folds.
    """
    plans = [(engine, _fast_stride_consumer(engine)) for engine in engine_list]
    shareable = [
        (engine, plan) for engine, plan in plans if plan is not None and plan[2]
    ]
    leader_plan = None
    follower_ids = set()
    if len(shareable) >= 2:
        statics = [(e, p) for e, p in shareable if p[2].static]
        dynamics = [(e, p) for e, p in shareable if not p[2].static]
        if statics and (dynamics or len(statics) >= 2):
            leader_engine, leader_plan = dynamics[0] if dynamics else statics[0]
            follower_ids = {
                id(engine) for engine, _ in statics if engine is not leader_engine
            }
    consumers = []
    finishers = []
    leader_finish = None
    for engine, plan in plans:
        if plan is None:
            consumers.append(_generic_consumer(engine))
            continue
        consume, finish, shared = plan
        if plan is leader_plan:
            consumers.append(consume)
            leader_finish = finish
        elif id(engine) in follower_ids:
            finishers.append(_follower_finisher(engine, shared, leader_plan[2]))
        else:
            consumers.append(consume)
            finishers.append(finish)
    if leader_finish is not None:
        finishers.append(leader_finish)
    return consumers, finishers


def _generic_consumer(engine: PredictionEngine):
    """Batch consumer for arbitrary engines: one ``step`` per candidate.

    Like the inlined consumers, it writes each candidate's outcome code
    into ``outcomes`` when given (see :func:`engine_consumer`).
    """

    def consume(pairs, outcomes=None) -> None:
        step = engine.step
        if outcomes is None:
            for address, value in pairs:
                step(address, value)
            return
        for index, (address, value) in enumerate(pairs):
            taken, correct = step(address, value)
            if taken:
                outcomes[index] = 1 if correct else 2

    return consume


def engine_consumer(engine: PredictionEngine):
    """``(consume, finish)`` driving one engine on its own.

    ``consume(pairs, outcomes)`` walks a batch's candidate pairs and
    writes one code per candidate into the zero-filled ``outcomes``
    bytearray: 0 = not taken, 1 = taken and correct, 2 = taken and
    wrong.  Eligible engines run the inlined stride consumer that
    :func:`simulate_prediction_many` uses; the rest fall back to
    ``step``.  ``finish`` (``None`` for the fallback) folds the inlined
    consumer's accumulators into the engine's statistics and must run
    once after the last batch, even when the trace raised.
    """
    plan = _fast_stride_consumer(engine)
    if plan is None:
        return _generic_consumer(engine), None
    return plan[0], plan[1]


def check_distinct_engines(engines) -> None:
    """Reject one engine object registered under two labels.

    Every label steps its own engine once per candidate, so a shared
    engine would be stepped twice and report wrong statistics for both
    labels.  ``None`` (no value prediction) may repeat.
    """
    seen = {}
    for label, engine in engines.items():
        if engine is None:
            continue
        other = seen.setdefault(id(engine), label)
        if other != label:
            raise ValueError(
                f"labels {other!r} and {label!r} share one PredictionEngine; "
                "give each label its own engine"
            )


class _SharedStride:
    """Share handle exposed by a fast consumer whose table evolution is a
    pure function of the candidate stream: infinite table, unconditional
    allocation, starting empty.  ``static`` additionally marks a take
    policy with no per-record state (a constant or ``take_members``
    membership, no-op ``record``) — the whole engine is then a pure
    function of the stream and can fold from a leader's accumulators.
    """

    __slots__ = ("acc", "meters", "entries", "static", "take_members")

    def __init__(self, acc, meters, entries, static, take_members) -> None:
        self.acc = acc
        self.meters = meters
        self.entries = entries
        self.static = static
        self.take_members = take_members


def _follower_finisher(engine: PredictionEngine, shared, leader):
    """Fold one static engine's results from the ``leader`` engine's run.

    The leader observed the identical candidate stream with the identical
    (unconditional-allocation, infinite-table) predictor evolution, so
    this engine's executions/attempts/would_correct/allocations equal the
    leader's per-address accumulators verbatim; its taken/taken_correct
    are the attempts/would_correct of the addresses its static policy
    takes; and its final table state is a clone of the leader's.
    """
    table = engine.predictor.table
    stats = engine.stats
    take_members = shared.take_members

    def finish() -> None:
        executions = attempts = would = taken_n = taken_c = allocs = 0
        address_stats = stats.address_stats
        for address, slot in leader.acc.items():
            entry_stats = address_stats(address)
            entry_stats.executions += slot[0]
            entry_stats.attempts += slot[1]
            entry_stats.would_correct += slot[2]
            entry_stats.allocations += slot[5]
            executions += slot[0]
            attempts += slot[1]
            would += slot[2]
            allocs += slot[5]
            if take_members is None or address in take_members:
                entry_stats.taken += slot[1]
                entry_stats.taken_correct += slot[2]
                taken_n += slot[1]
                taken_c += slot[2]
        stats.executions += executions
        stats.attempts += attempts
        stats.would_correct += would
        stats.taken += taken_n
        stats.taken_correct += taken_c
        stats.allocations += allocs
        table.lookups += leader.meters[0]
        table.hits += leader.meters[1]
        entries = table._set_for(0)
        for address, entry in leader.entries.items():
            clone = entries.get(address)
            if clone is None:
                entries[address] = StrideEntry(entry.last_value, entry.stride)
            else:
                clone.last_value = entry.last_value
                clone.stride = entry.stride

    return finish


_STOCK_SCHEMES = (AlwaysClassification, HardwareClassification, ProfileClassification)


def _fast_stride_consumer(engine: PredictionEngine):
    """Inlined batch consumer for stride-predictor engines, or ``None``.

    Eligibility requires a plain :class:`StridePredictor` and a stock
    scheme (optionally wrapped in :class:`ProbeScheme`): those schemes'
    ``may_allocate``/``should_take`` are pure and statically known, so the
    loop can skip no-op ``record`` calls and miss-only allocation checks
    while preserving the exact call order ``step`` produces for the calls
    that remain (FSM learning, eviction callbacks).

    Returns ``(consume, finish, shared)`` where ``shared`` is a
    :class:`_SharedStride` handle when the engine qualifies for
    leader/follower sharing, else ``None``.  ``consume(pairs, outcomes)``
    also writes each taken candidate's outcome code into ``outcomes``
    when one is passed (see :func:`engine_consumer`).
    """
    if type(engine.predictor) is not StridePredictor:
        return None
    scheme = engine.scheme
    inner = scheme.inner if type(scheme) is ProbeScheme else scheme
    if type(scheme) not in _STOCK_SCHEMES + (ProbeScheme,):
        return None
    if type(inner) not in _STOCK_SCHEMES:
        return None

    table = engine.predictor.table
    stats = engine.stats

    # Allocation policy: every stock scheme but ProfileClassification
    # (unwrapped) allocates unconditionally.
    alloc_members = (
        scheme._directives if type(scheme) is ProfileClassification else None
    )
    # Take policy: constant, membership, or the FSM consult.
    if type(inner) is AlwaysClassification:
        take_members = None
        take_call = None
    elif type(inner) is ProfileClassification:
        take_members = inner._directives
        take_call = None
    else:
        take_members = None
        take_call = scheme.should_take  # preserves ProbeScheme delegation
    # Learning rule: skip when the effective ``record`` is the ABC no-op.
    record_call = (
        None
        if type(inner).record is ClassificationScheme.record
        else scheme.record
    )
    on_evict = scheme.on_evict

    acc: "dict[int, List[int]]" = {}
    totals = [0, 0, 0, 0, 0, 0, 0]
    meters = [0, 0, 0]  # table lookups, hits, evictions
    shared = None

    if table.is_infinite:
        entries = table._set_for(0)
        if alloc_members is None and not entries:
            shared = _SharedStride(
                acc,
                meters,
                entries,
                static=take_call is None and record_call is None,
                take_members=take_members,
            )

        def consume(pairs, outcomes=None) -> None:
            executions = attempts = would = taken_n = taken_c = allocs = 0
            hits = 0
            get_entry = entries.get
            get_slot = acc.get
            for position, (address, value) in enumerate(pairs):
                slot = get_slot(address)
                if slot is None:
                    slot = acc[address] = [0, 0, 0, 0, 0, 0]
                executions += 1
                slot[0] += 1
                entry = get_entry(address)
                if entry is None:
                    if alloc_members is None or address in alloc_members:
                        entries[address] = StrideEntry(value)
                        allocs += 1
                        slot[5] += 1
                    continue
                hits += 1
                last = entry.last_value
                stride = entry.stride
                correct = last + stride == value
                entry.stride = value - last
                entry.last_value = value
                attempts += 1
                slot[1] += 1
                if correct:
                    would += 1
                    slot[2] += 1
                if take_members is None:
                    took = True if take_call is None else take_call(address)
                else:
                    took = address in take_members
                if took:
                    taken_n += 1
                    slot[3] += 1
                    if correct:
                        taken_c += 1
                        slot[4] += 1
                    if outcomes is not None:
                        outcomes[position] = 1 if correct else 2
                if record_call is not None:
                    record_call(address, correct)
            totals[0] += executions
            totals[1] += attempts
            totals[2] += would
            totals[3] += taken_n
            totals[4] += taken_c
            totals[5] += allocs
            meters[0] += executions
            meters[1] += hits

    else:
        num_sets = table.num_sets
        ways = table.ways
        sets = table._sets

        def consume(pairs, outcomes=None) -> None:
            executions = attempts = would = taken_n = taken_c = allocs = 0
            hits = evictions = 0
            get_slot = acc.get
            for position, (address, value) in enumerate(pairs):
                slot = get_slot(address)
                if slot is None:
                    slot = acc[address] = [0, 0, 0, 0, 0, 0]
                executions += 1
                slot[0] += 1
                index = address % num_sets
                table_set = sets.get(index)
                if table_set is None:
                    table_set = sets[index] = OrderedDict()
                    entry = None
                else:
                    entry = table_set.get(address)
                if entry is None:
                    if alloc_members is None or address in alloc_members:
                        if len(table_set) >= ways:
                            evicted, _ = table_set.popitem(last=False)
                            evictions += 1
                            on_evict(evicted)
                            totals[6] += 1
                        table_set[address] = StrideEntry(value)
                        allocs += 1
                        slot[5] += 1
                    continue
                hits += 1
                table_set.move_to_end(address)
                last = entry.last_value
                stride = entry.stride
                correct = last + stride == value
                entry.stride = value - last
                entry.last_value = value
                attempts += 1
                slot[1] += 1
                if correct:
                    would += 1
                    slot[2] += 1
                if take_members is None:
                    took = True if take_call is None else take_call(address)
                else:
                    took = address in take_members
                if took:
                    taken_n += 1
                    slot[3] += 1
                    if correct:
                        taken_c += 1
                        slot[4] += 1
                    if outcomes is not None:
                        outcomes[position] = 1 if correct else 2
                if record_call is not None:
                    record_call(address, correct)
            totals[0] += executions
            totals[1] += attempts
            totals[2] += would
            totals[3] += taken_n
            totals[4] += taken_c
            totals[5] += allocs
            meters[0] += executions
            meters[1] += hits
            meters[2] += evictions

    def finish() -> None:
        table.lookups += meters[0]
        table.hits += meters[1]
        table.evictions += meters[2]
        meters[0] = meters[1] = meters[2] = 0
        stats.executions += totals[0]
        stats.attempts += totals[1]
        stats.would_correct += totals[2]
        stats.taken += totals[3]
        stats.taken_correct += totals[4]
        stats.allocations += totals[5]
        stats.evictions += totals[6]
        for index in range(7):
            totals[index] = 0
        address_stats = stats.address_stats
        for address, slot in acc.items():
            entry_stats = address_stats(address)
            entry_stats.executions += slot[0]
            entry_stats.attempts += slot[1]
            entry_stats.would_correct += slot[2]
            entry_stats.taken += slot[3]
            entry_stats.taken_correct += slot[4]
            entry_stats.allocations += slot[5]
        acc.clear()

    return consume, finish, shared


def _publish_engine_metrics(telemetry, engine_list) -> None:
    """Bulk-publish prediction and table statistics after a simulation.

    Per-record work stays telemetry-free; everything here is already
    accumulated in :class:`PredictionStats` and the prediction tables.
    """
    lookups = hits = evictions = 0
    for engine in engine_list:
        stats = engine.stats
        telemetry.counter("core.candidates").add(stats.executions)
        telemetry.counter("core.attempts").add(stats.attempts)
        telemetry.counter("core.taken").add(stats.taken)
        telemetry.counter("core.taken_correct").add(stats.taken_correct)
        telemetry.counter("core.would_correct").add(stats.would_correct)
        telemetry.counter("core.allocations").add(stats.allocations)
        for table in engine.predictor.tables():
            lookups += table.lookups
            hits += table.hits
            evictions += table.evictions
    telemetry.counter("predictor.lookups").add(lookups)
    telemetry.counter("predictor.hits").add(hits)
    telemetry.counter("predictor.evictions").add(evictions)
    telemetry.counter("core.simulations").add(len(engine_list))
