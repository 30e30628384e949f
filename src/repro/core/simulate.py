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
(Figures 5.1/5.2), the predictor and table ablations and, through
:func:`engine_consumer`, the ILP model, which reads each candidate's
(taken, correct) outcome back from the same batch consumers.  The
finite-table pressure study (Figures 5.3/5.4) is read from that ILP
pass: its engines are the same 512-entry 2-way tables under the same
schemes, so the stream is walked once for both.

The trace is consumed in columnar batches
(:meth:`~repro.machine.Executor.run_batches`, optionally captured
into / replayed from a :class:`~repro.machine.TraceStore`), each read
through :meth:`~repro.machine.TraceBatch.candidates`, the candidate
walk profiling and the ILP model share.  Engines whose predictor is a
plain :class:`~repro.predictors.StridePredictor` or
:class:`~repro.predictors.LastValuePredictor` driven by one of the
stock classification schemes reduce the scheme to membership policies
(or, for the hardware scheme, to saturating counters kept as ints in
the kernel) and run the stride kernel of :mod:`repro.predictors.stride`
— the unbounded or the set-associative table walk, the same code
phase-2 profiling runs — which replicates :meth:`PredictionEngine.step`,
including table LRU/eviction order and the FSM counters' end state,
without a per-record Python call; everything else falls back to
``step`` per candidate.  The kernel counts into address-keyed slots
that one fold adds to the engine's statistics and table meters after
the last batch.  Results are bit-identical either way, with two
deliberate internal-only divergences on the fast path: ``may_allocate``
is consulted only on misses (the stock schemes are pure, so skipping the
unconditional call is unobservable) and LRU positions are not refreshed
in infinite tables (which never evict).

Engines whose predictor evolution is a pure function of the candidate
stream — an infinite table with unconditional allocation, as in the
:class:`~repro.core.schemes.ProbeScheme` classification-accuracy study —
additionally *share* that evolution: one leader engine walks the stream,
and every stride sibling whose take policy is static (a constant or an
address membership test, no FSM) folds its statistics from the leader's
slots at the end and clones the final table state, paying zero
per-record cost.  The six-engine Figure 5.1/5.2 grid therefore does one
predictor's work per record, not six.

:meth:`PredictionEngine.step` is the reference semantics and the kernel
consumer, with its shared fold, is the only fast path; the
``simulate-fast-vs-step`` pair of ``repro check`` holds one against the
other.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import partial
from typing import Iterable, List, Optional, Tuple, Union

from ..isa import Directive, Number, Program
from ..machine import TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import HybridPredictor, StridePredictor, ValuePredictor
from ..predictors.fsm import SaturatingCounter
from ..predictors.stride import KERNEL_PREDICTORS, StrideEntry
from ..predictors.stride import walk_set_associative, walk_unbounded
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
            pairs, _ = batch.candidates(is_candidate)
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


def _build_consumers(engine_list):
    """Plan one batch consumer per engine plus the end-of-trace finishers.

    Fast-path engines whose predictor evolution is stream-determined (see
    :class:`_SharedStride`) are grouped: one leader keeps its inlined
    consumer, and every *static* sibling (membership take policy, no FSM)
    is planned as a finisher-only fold over the leader's accumulators.  A
    dynamic engine (FSM counters) is preferred as leader since its walk
    must run anyway.  Follower finishers are ordered before the leader's,
    which zeroes the shared accumulators when it folds.
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
        for index, (address, value) in enumerate(pairs):
            taken, correct = step(address, value)
            if taken and outcomes is not None:
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


#: Share handle exposed by a fast consumer whose table evolution is a pure
#: function of the candidate stream: infinite table, unconditional
#: allocation, starting empty.  ``static`` additionally marks a take policy
#: with no per-record state (a constant or ``take_members`` membership, no
#: FSM) — the whole engine is then a pure function of the stream and can
#: fold from a leader's slots.
_SharedStride = namedtuple("_SharedStride", "acc entries static take_members")


#: The engine statistics behind a kernel slot's first six counters.
_SLOT_FIELDS = (
    "executions", "attempts", "would_correct", "taken", "taken_correct", "allocations"
)


def _fold_slots(engine: PredictionEngine, acc, evictions: int = 0) -> None:
    """Add a kernel's address-keyed slots (see :mod:`repro.predictors.stride`)
    to ``engine``'s statistics and its table's meters."""
    stats = engine.stats
    sums = [0] * len(_SLOT_FIELDS)
    for address, slot in acc.items():
        entry_stats = stats.address_stats(address)
        for index, name in enumerate(_SLOT_FIELDS):
            setattr(entry_stats, name, getattr(entry_stats, name) + slot[index])
            sums[index] += slot[index]
    for name, total in zip(_SLOT_FIELDS, sums):
        setattr(stats, name, getattr(stats, name) + total)
    stats.evictions += evictions
    table = engine.predictor.table
    table.lookups += sums[0]
    table.hits += sums[1]
    table.evictions += evictions


def _follower_finisher(engine: PredictionEngine, shared, leader):
    """Fold one static engine's results from the ``leader`` engine's run.

    The leader observed the identical candidate stream with the identical
    (unconditional-allocation, infinite-table) predictor evolution, so
    this engine's slots equal the leader's verbatim except taken and
    taken_correct, which are the attempts and would_correct of the
    addresses its static policy takes; and its final table state is a
    clone of the leader's.
    """
    take_members = shared.take_members

    def finish() -> None:
        acc = {}
        for address, slot in leader.acc.items():
            took = take_members is None or address in take_members
            acc[address] = slot[:3] + (slot[1:3] if took else [0, 0]) + slot[5:]
        _fold_slots(engine, acc)
        # Sharing requires an empty table, so every entry is a new clone.
        entries = engine.predictor.table._set_for(0)
        for address, entry in leader.entries.items():
            entries[address] = StrideEntry(entry.last_value, entry.stride)

    return finish


_STOCK_SCHEMES = (AlwaysClassification, HardwareClassification, ProfileClassification)


def _fast_stride_consumer(engine: PredictionEngine):
    """Batch consumer running ``engine`` on the shared stride kernel, or
    ``None``.

    Eligibility requires a plain :class:`StridePredictor` or
    :class:`~repro.predictors.LastValuePredictor` (the kernel with the
    stride held at 0) and a stock scheme (optionally wrapped in
    :class:`ProbeScheme`): those schemes' ``may_allocate``/``should_take``
    are pure and statically known, so they reduce to the kernel's
    membership policies, and a :class:`HardwareClassification`'s counters
    run inside the kernel as ints, written back into its
    :class:`~repro.predictors.FsmClassifier` by ``finish``.  The kernel
    checks allocation on misses only and skips the no-op ``record`` and
    ``on_evict`` calls of the other stock schemes.

    Returns ``(consume, finish, shared)`` where ``shared`` is a
    :class:`_SharedStride` handle when the engine qualifies for
    leader/follower sharing, else ``None``.  ``consume(pairs, outcomes)``
    also writes each taken candidate's outcome code into ``outcomes``
    when one is passed (see :func:`engine_consumer`).
    """
    learns = KERNEL_PREDICTORS.get(type(engine.predictor))
    if learns is None:
        return None
    scheme = engine.scheme
    inner = scheme.inner if type(scheme) is ProbeScheme else scheme
    if type(scheme) not in _STOCK_SCHEMES + (ProbeScheme,):
        return None
    if type(inner) not in _STOCK_SCHEMES:
        return None

    table = engine.predictor.table
    # Allocation policy: every stock scheme but ProfileClassification
    # (unwrapped) allocates unconditionally.
    alloc_members = (
        scheme._directives if type(scheme) is ProfileClassification else None
    )
    # Take policy: constant (always), membership (profile), or the FSM
    # counters (hardware), which the kernel keeps as ints.
    take_members = inner._directives if type(inner) is ProfileClassification else None
    fsm = None
    if type(inner) is HardwareClassification:
        classifier = inner.fsm
        states = {address: c.value for address, c in classifier._counters.items()}
        maximum = (1 << classifier.bits) - 1
        fsm = (states, classifier.initial, classifier.take_threshold, maximum)

    acc: "dict[int, List[int]]" = {}
    evictions = [0]
    shared = None
    if table.is_infinite:
        entries = table._set_for(0)
        # Only stride engines share: the fold clones stride entries.
        if learns and alloc_members is None and not entries:
            shared = _SharedStride(acc, entries, fsm is None, take_members)
        consume = partial(
            walk_unbounded, entries, acc, alloc_members=alloc_members,
            take_members=take_members, fsm=fsm, learns=learns,
        )
    else:

        def consume(pairs, outcomes=None) -> None:
            evictions[0] += walk_set_associative(
                table, acc, pairs, outcomes,
                alloc_members, take_members, fsm, learns,
            )

    def finish() -> None:
        _fold_slots(engine, acc, evictions[0])
        evictions[0] = 0
        acc.clear()
        if fsm is not None:
            classifier._counters = {
                address: SaturatingCounter(classifier.bits, state)
                for address, state in states.items()
            }

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
