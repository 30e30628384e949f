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

The same driver serves the predictor and table ablations and, through
:func:`_build_consumers`, the ILP model, which reads each candidate's
(taken, correct) outcome back from the same batch consumers.  The
Section-5 grid rides the ILP pass: the infinite-table
classification-accuracy engines (Figures 5.1/5.2) observe the stream
beside the machines' engines, and the finite-table pressure study
(Figures 5.3/5.4) reads its taken counts from the machines' engines,
the same 512-entry 2-way tables under the same schemes.  So one walk
of the test run feeds all three.

The trace is consumed in columnar batches
(:meth:`~repro.machine.Executor.run_batches`, optionally captured
into / replayed from a :class:`~repro.machine.TraceStore`), each read
through :meth:`~repro.machine.TraceBatch.candidates`, the candidate
walk profiling and the ILP model share.  Engines whose predictor is a
plain :class:`~repro.predictors.StridePredictor` or
:class:`~repro.predictors.LastValuePredictor` driven by one of the
stock classification schemes reduce the scheme to membership policies
(or, for the hardware scheme, to saturating counters kept as ints in
the kernel's rows) and run the stride kernel
:func:`~repro.predictors.stride.walk_set_associative`, which replicates
:meth:`PredictionEngine.step`, including table LRU/eviction order and
the FSM counters' end state, without a per-record Python call;
everything else falls back to ``step`` per candidate.  A finite table
walks its own sets and ways, an infinite one one set with no way limit.
A kernel keeps one row per address; after the last batch one fold adds
the rows' counts to the engine's statistics and table meters, and the
rows become the table's entries again.  Results are bit-identical
either way, with one deliberate internal-only divergence on the fast
path: ``may_allocate`` is consulted only on misses (the stock schemes
are pure, so skipping the unconditional call is unobservable).

Engines whose predictor evolution is a pure function of the candidate
stream — a stride table that starts empty and never evicts (infinite,
or finite but unable to: none of its sets receives more than ``ways``
of the engine's allocatable addresses, every candidate or the profile's
directive members), so each address's entry evolves on its own —
additionally *share* that evolution.  One leader that allocates every
address walks the stream, and every stride sibling whose take policy is
static (a constant or an address membership test, no FSM) folds its
statistics from the leader's rows at the end and clones the final table
state, paying zero per-record cost.  A follower may allocate only its
members (the profile scheme): those addresses' entries are the
leader's, and its other addresses count executions only.  A
hardware-scheme engine leads when there is one, since its walk runs
anyway; otherwise a hidden take-all probe walks for two or more
followers.  The six Figure 5.1/5.2 engines therefore do one predictor's
work per record, not six, and the Table 5.2 engines whose finite tables
cannot evict follow the same leader.  Followers add two more
internal-only divergences: they refresh no LRU positions, and they
write their entries back in first-allocation order within each set, not
LRU order (safe because their sets never fill, so no victim is ever
chosen by that order).

:meth:`PredictionEngine.step` is the reference semantics and the kernel
consumer, with its shared fold, is the only fast path; the
``simulate-fast-vs-step`` pair of ``repro check`` holds one against the
other.
"""

from __future__ import annotations

import math
import time
from collections import Counter, OrderedDict, namedtuple
from functools import partial
from operator import mul
from typing import Iterable, Optional, Tuple, Union

from ..isa import Directive, Number, Program
from ..machine import TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import HybridPredictor, StridePredictor, ValuePredictor
from ..predictors.fsm import SaturatingCounter
from ..predictors.stride import (
    ALLOCATIONS,
    ATTEMPTS,
    CORRECT,
    KERNEL_PREDICTORS,
    MISSES,
    SET,
    STATE,
    TAKEN,
    TAKEN_CORRECT,
    table_rows,
    walk_set_associative,
    write_back,
)
from ..telemetry import get_registry
from .results import PredictionStats
from .schemes import (
    AlwaysClassification,
    ClassificationScheme,
    HardwareClassification,
    LearnedClassification,
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
        self._is_candidate = program.candidate_mask
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
    check_distinct_engines(engines.items())
    engine_list = list(engines.values())
    consumers, finishers, paths = _build_consumers(engine_list)
    started = time.perf_counter()
    batches = replay_or_run(program, inputs, max_instructions, store)
    try:
        for batch in batches:
            pairs, _ = batch.candidates()
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
        _publish_engine_metrics(telemetry, engine_list, paths)
    return {label: engine.stats for label, engine in engines.items()}


def _build_consumers(engine_list, codes=None):
    """Plan the batch consumers and end-of-trace finishers of ``engine_list``.

    Returns ``(consumers, finishers, paths)``: every batch's candidate
    pairs go to each consumer in order, every finisher runs once after the
    last batch (even when the trace raised), and ``paths`` counts the
    engines by route (``walked``, ``followed``, ``stepped``).

    Fast-path engines whose predictor evolution is stream-determined (see
    :class:`_SharedStride`) are grouped: one leader walks, and every
    *static* sibling (membership take policy, no FSM) is planned as a
    finisher-only fold over the leader's rows.  The leader must allocate
    unconditionally, so a follower that allocates only its members finds
    its members' entries in the leader's table.  A dynamic engine (FSM
    counters) is preferred as leader since its walk must run anyway; if no
    engine can lead, a hidden probe (an unbounded table that allocates
    every miss and takes every hit) leads two or more followers.  Every
    walk, the probe's included, runs
    :func:`~repro.predictors.stride.walk_set_associative`.  No finisher
    changes the rows another reads, so they run in any order.

    ``codes``, when given, holds one slot for each engine that feeds an
    ILP lane, the first ``len(codes)`` of ``engine_list``; the engines
    after them observe only.  The consumers leave each lane engine's
    outcome codes for the current batch in its slot (see
    :func:`~repro.ilp.model._scheduler`): walkers write them, and a
    follower's are the leader's hit codes masked with its take set.  The
    leader, a lane engine or an observer, leaves hit codes only when a
    follower feeds a lane, and no observer gets a slot or a coded
    consumer.
    """
    plans = [_fast_stride_consumer(engine) for engine in engine_list]
    shareable = [
        index for index, plan in enumerate(plans)
        if plan is not None and plan[2] is not None
    ]
    statics = [index for index in shareable if plans[index][2].static]
    leaders = [  # unconditional allocators, the dynamic ones first
        index for index in shareable
        if plans[index][2].alloc_members is None and index not in statics
    ] + [index for index in statics if plans[index][2].alloc_members is None]
    leader = leaders[0] if leaders else None
    followers = [index for index in statics if index != leader]
    if leader is not None and followers:
        lead = plans[leader][2]
    elif len(followers) >= 2:
        lead = _SharedStride({}, True, None, None)  # the hidden probe
    else:
        leader, followers, lead = None, [], None
    coded = 0 if codes is None else len(codes)
    hit_codes = [None] if any(index < coded for index in followers) else None

    consumers = []
    finishers = []
    paths = {"walked": 0, "followed": len(followers), "stepped": 0}
    if lead is not None and leader is None:
        probe = partial(walk_set_associative, {0: OrderedDict()}, math.inf, lead.rows)
        consumers.append(_coded_consumer(probe, codes, None, hit_codes))
        finishers.append(partial(_unlink, lead.rows))
    for index, (engine, plan) in enumerate(zip(engine_list, plans)):
        slot = index if index < coded else None
        if index in followers:
            finishers.append(_follower_finisher(engine, plan[2], lead))
            if slot is not None:
                consumers.append(_follower_consumer(
                    engine, plan[2].take_members, codes, slot, hit_codes
                ))
            continue
        if plan is None:
            paths["stepped"] += 1
            consume = _generic_consumer(engine)
        else:
            paths["walked"] += 1
            consume, finish, _shared = plan
            finishers.append(finish)
        if index == leader:
            # Followers read the leader's hit codes of the same batch.
            consumers.insert(0, _coded_consumer(consume, codes, slot, hit_codes))
        else:
            consumers.append(_coded_consumer(consume, codes, slot))
    return consumers, finishers, paths


def _coded_consumer(walk, codes, index, hit_codes=None):
    """``walk`` as a batch consumer that leaves its outcome codes in
    ``codes[index]`` unless ``index`` is ``None`` and, for a leader
    given ``hit_codes``, the batch's hit codes in ``hit_codes[0]``."""
    if hit_codes is not None:

        def consume(pairs) -> None:
            hits = hit_codes[0] = bytearray(len(pairs))
            outcomes = None
            if index is not None:
                outcomes = codes[index] = bytearray(len(pairs))
            walk(pairs, outcomes, hits=hits)

        return consume
    if index is None:
        return walk

    def consume(pairs) -> None:
        outcomes = codes[index] = bytearray(len(pairs))
        walk(pairs, outcomes)

    return consume


def _follower_consumer(engine, take_members, codes, index, hit_codes):
    """Leave a follower's outcome codes: the leader's hit codes of the
    pairs its take set holds, 0 elsewhere."""
    if take_members is None:

        def consume(pairs) -> None:
            codes[index] = hit_codes[0]

        return consume
    takes = bytes(
        address in take_members for address in range(len(engine.program.instructions))
    ).__getitem__

    def consume(pairs) -> None:
        codes[index] = bytearray(map(mul, hit_codes[0], map(takes, pairs.addresses)))

    return consume


def _generic_consumer(engine: PredictionEngine):
    """Batch consumer for arbitrary engines: one ``step`` per candidate.

    Like the inlined consumers, it writes each taken candidate's outcome
    code (1 correct, 2 wrong) into ``outcomes`` when given.
    """

    def consume(pairs, outcomes=None) -> None:
        step = engine.step
        for index, (address, value) in enumerate(pairs):
            taken, correct = step(address, value)
            if taken and outcomes is not None:
                outcomes[index] = 1 if correct else 2

    return consume


def check_distinct_engines(labelled) -> None:
    """Reject one engine object registered under two labels.

    ``labelled`` holds ``(label, engine)`` pairs.  Every label steps its
    own engine once per candidate, so a shared engine would be stepped
    twice and report wrong statistics for both labels.  ``None`` (no
    value prediction) may repeat.
    """
    seen = {}
    for label, engine in labelled:
        if engine is None:
            continue
        other = seen.setdefault(id(engine), label)
        if other != label:
            raise ValueError(
                f"labels {other!r} and {label!r} share one PredictionEngine; "
                "give each label its own engine"
            )


#: Share handle exposed by a fast consumer whose table evolution is a pure
#: function of the candidate stream: a stride table that starts empty and
#: never evicts (infinite, or see :func:`_cannot_evict`), so each address's
#: row evolves on its own.  ``static`` additionally marks a take policy
#: with no per-record state (a constant or ``take_members`` membership, no
#: FSM) — the whole engine is then a pure function of the stream and can
#: fold from the rows of a leader that allocates every address.
#: ``alloc_members`` is the allocation policy (``None`` = unconditional).
_SharedStride = namedtuple("_SharedStride", "rows static alloc_members take_members")


#: The engine statistics a fold adds, in the order of its count tuples.
_STAT_FIELDS = (
    "executions", "attempts", "would_correct", "taken", "taken_correct", "allocations"
)


def _row_counts(row):
    """A kernel row's counts in :data:`_STAT_FIELDS` order."""
    attempts = row[ATTEMPTS]
    return (
        row[MISSES] + attempts, attempts, row[CORRECT],
        row[TAKEN], row[TAKEN_CORRECT], row[ALLOCATIONS],
    )


def _fold_counts(engine: PredictionEngine, counts, evictions: int = 0) -> None:
    """Add ``counts``, ``(address, counts)`` pairs in :data:`_STAT_FIELDS`
    order, to ``engine``'s statistics and its table's meters.  An address
    that never executed is skipped, so it gets no statistics entry."""
    stats = engine.stats
    sums = [0] * len(_STAT_FIELDS)
    for address, values in counts:
        if not values[0]:
            continue
        entry_stats = stats.address_stats(address)
        for index, name in enumerate(_STAT_FIELDS):
            setattr(entry_stats, name, getattr(entry_stats, name) + values[index])
            sums[index] += values[index]
    for name, total in zip(_STAT_FIELDS, sums):
        setattr(stats, name, getattr(stats, name) + total)
    stats.evictions += evictions
    table = engine.predictor.table
    table.lookups += sums[0]
    table.hits += sums[1]
    table.evictions += evictions


def _follower_finisher(engine: PredictionEngine, shared, leader):
    """Fold one static engine's results from the ``leader``'s run.

    The leader observed the identical candidate stream in a table that
    never evicts and allocates every address, and so does this engine for
    the addresses it allocates: their counts equal the leader's except
    taken and taken_correct, which are the attempts and correct
    predictions of the addresses its static policy takes, and their
    final entries are the leader's.  An address it may not allocate
    never hits, so it counts executions only.
    """
    alloc_members = shared.alloc_members
    take_members = shared.take_members

    def counts(rows):
        for address, row in rows.items():
            attempts = row[ATTEMPTS]
            executions = row[MISSES] + attempts
            if alloc_members is not None and address not in alloc_members:
                yield address, (executions, 0, 0, 0, 0, 0)
                continue
            correct = row[CORRECT]
            took = take_members is None or address in take_members
            yield address, (
                executions, attempts, correct,
                attempts if took else 0, correct if took else 0, row[ALLOCATIONS],
            )

    def finish() -> None:
        _fold_counts(engine, counts(leader.rows))
        rows = leader.rows
        if alloc_members is not None:
            rows = {a: row for a, row in rows.items() if a in alloc_members}
        write_back(engine.predictor.table, rows, True)

    return finish


def _cannot_evict(table, allocatable) -> bool:
    """Whether each set of the finite ``table`` has a way for every one of
    the ``allocatable`` addresses that map to it.

    Such a table never evicts, so it evolves exactly as an unbounded one.
    """
    per_set = Counter(address % table.num_sets for address in allocatable)
    return max(per_set.values(), default=0) <= table.ways


_STOCK_SCHEMES = (
    AlwaysClassification,
    HardwareClassification,
    ProfileClassification,
    LearnedClassification,
)

#: What the kernels need of an engine: the stride flag, the membership
#: policies (``None`` = every address) and the hardware scheme's
#: :class:`~repro.predictors.FsmClassifier`, if any.
_KernelPolicy = namedtuple(
    "_KernelPolicy", "learns alloc_members take_members classifier"
)


def _kernel_policy(engine: PredictionEngine):
    """``engine``'s :class:`_KernelPolicy`, or ``None`` when the kernels
    cannot play it.

    Eligibility requires a plain :class:`StridePredictor` or
    :class:`~repro.predictors.LastValuePredictor` (the kernel with the
    stride held at 0) and a stock scheme (optionally wrapped in
    :class:`ProbeScheme`): those schemes' ``may_allocate``/``should_take``
    are pure and statically known, so they reduce to membership policies
    and, for :class:`HardwareClassification`, FSM counters that the
    kernel keeps as ints in its rows.  A counter of an address the table
    holds no entry for has no row to live in, so it sends the engine to
    ``step``.
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
    classifier = inner.fsm if type(inner) is HardwareClassification else None
    if classifier is not None and any(
        address not in engine.predictor.table for address in classifier._counters
    ):
        return None
    # Allocation policy: every stock scheme but a directive map
    # (ProfileClassification or its learned form, unwrapped) allocates
    # unconditionally.  Take policy: constant (always), membership
    # (profile), or the FSM counters (hardware).
    return _KernelPolicy(
        learns,
        scheme._directives if isinstance(scheme, ProfileClassification) else None,
        inner._directives if isinstance(inner, ProfileClassification) else None,
        classifier,
    )


def _fast_stride_consumer(engine: PredictionEngine):
    """Batch consumer running ``engine`` on the stride kernel, or ``None``
    (see :func:`_kernel_policy`).

    The kernel checks allocation on misses only and skips the no-op
    ``record`` and ``on_evict`` calls of the other stock schemes.  It
    walks :func:`~repro.predictors.stride.walk_set_associative` over the
    table's sets, an infinite table as one set with no way limit.
    ``finish`` folds the rows into the engine's statistics and writes
    their entries and FSM counters back into its table and classifier.

    Returns ``(consume, finish, shared)`` where ``shared`` is a
    :class:`_SharedStride` handle when the engine qualifies for
    leader/follower sharing — a stride table that starts empty and is
    infinite or cannot evict (:func:`_cannot_evict` over the engine's
    allocatable addresses: all candidates, or the profile's directive
    members) — else ``None``.  ``consume(pairs, outcomes, hits)`` also
    writes each taken candidate's outcome code (1 correct, 2 wrong) into
    ``outcomes`` and each hit's into ``hits`` when they are passed.
    """
    policy = _kernel_policy(engine)
    if policy is None:
        return None
    learns, alloc_members, take_members, classifier = policy
    table = engine.predictor.table
    fsm = None
    states = None
    if classifier is not None:
        fsm = (
            classifier.initial, classifier.take_threshold, (1 << classifier.bits) - 1
        )
        states = {address: c.value for address, c in classifier._counters.items()}
    rows = table_rows(table, states)
    shared = None
    # Only stride engines share: the fold clones stride entries.
    if learns and not rows and (table.is_infinite or _cannot_evict(
        table,
        engine.program.candidate_addresses if alloc_members is None else alloc_members,
    )):
        shared = _SharedStride(rows, fsm is None, alloc_members, take_members)
    sets = {index: OrderedDict() for index in range(table.num_sets)}
    for index, table_set in table._sets.items():
        for address in table_set:
            row = sets[index][address] = rows[address]
            row[SET] = sets[index]
    ways = math.inf if table.is_infinite else table.ways
    evictions = [0]

    def consume(pairs, outcomes=None, hits=None) -> None:
        evictions[0] += walk_set_associative(
            sets, ways, rows, pairs, outcomes, hits,
            alloc_members, take_members, fsm, learns,
        )

    def finish() -> None:
        _fold_counts(
            engine,
            ((address, _row_counts(row)) for address, row in rows.items()),
            evictions[0],
        )
        _unlink(rows)
        write_back(table, rows, learns, sets)
        if classifier is not None:
            classifier._counters = {
                address: SaturatingCounter(classifier.bits, row[STATE])
                for address, row in rows.items()
                if row[STATE] is not None
            }

    return consume, finish, shared


def _unlink(rows) -> None:
    """Clear the ``rows``' LRU sets after a walk.

    A row and its set refer to each other; breaking the cycle frees both
    with the table, not by the collector.
    """
    for row in rows.values():
        row[SET] = None


def _publish_engine_metrics(telemetry, engine_list, paths) -> None:
    """Bulk-publish prediction and table statistics after a simulation,
    and the engines' route counts ``paths`` (see :func:`_build_consumers`)
    as ``core.engines.*``.

    Per-record work stays telemetry-free; everything here is already
    accumulated in :class:`PredictionStats` and the prediction tables.
    """
    telemetry.counter("core.engines.walked").add(paths["walked"])
    telemetry.counter("core.engines.followed").add(paths["followed"])
    telemetry.counter("core.engines.stepped").add(paths["stepped"])
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
