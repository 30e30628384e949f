"""Profile collection: run a program under an emulated value predictor.

This is phase 2 of the paper's methodology.  The tracing simulator
(:mod:`repro.machine`) executes the program while a value predictor —
by default an *unbounded* stride predictor, so the profile reflects pure
value behaviour rather than table pressure — observes every dynamic
instance of every value-prediction candidate.  The result records, per
static instruction, its prediction accuracy and stride efficiency ratio,
and per (category, phase) the aggregate accuracies behind Table 2.1.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import Category, Number, Program
from ..machine import TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import StridePredictor, ValuePredictor
from ..predictors.stride import StrideEntry
from ..telemetry import get_registry


@dataclasses.dataclass(slots=True)
class InstructionProfile:
    """Per-static-instruction prediction statistics.

    ``attempts`` counts accesses where the predictor held an entry (its
    first dynamic instance only trains).  ``correct`` of those matched;
    ``nonzero_stride_correct`` matched using a non-zero stride.
    """

    address: int
    executions: int = 0
    attempts: int = 0
    correct: int = 0
    nonzero_stride_correct: int = 0

    @property
    def accuracy(self) -> float:
        """Prediction accuracy in percent (0 when never attempted)."""
        if self.attempts == 0:
            return 0.0
        return 100.0 * self.correct / self.attempts

    @property
    def stride_efficiency(self) -> float:
        """Stride efficiency ratio in percent (0 when never correct)."""
        if self.correct == 0:
            return 0.0
        return 100.0 * self.nonzero_stride_correct / self.correct


@dataclasses.dataclass(slots=True)
class GroupStats:
    """Aggregate accuracy for one (category, phase) group."""

    executions: int = 0
    attempts: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        if self.attempts == 0:
            return 0.0
        return 100.0 * self.correct / self.attempts


class ProfileImage:
    """The output of one profiling run (paper Section 3.2, Table 3.1).

    Maps instruction address -> :class:`InstructionProfile`, with program
    and run labels.  The (category, phase) aggregates ride along for the
    Table 2.1 measurements.

    Group accounting is stored at *per-address* granularity
    (:attr:`group_detail`: ``(category, phase) -> {address: [executions,
    attempts, correct]}``) and the coarse :attr:`groups` view is derived
    by summation.  The detail is what makes two operations exact that an
    aggregate-only image cannot support: filtering group counts to a
    subset of instructions (``merge_profiles(require_common=True)``) and
    the lossless save→load→merge round trip of
    :mod:`~repro.profiling.image_io`.
    """

    def __init__(self, program_name: str, run_label: str = "") -> None:
        self.program_name = program_name
        self.run_label = run_label
        self.instructions: Dict[int, InstructionProfile] = {}
        #: (category, phase) -> address -> [executions, attempts, correct]
        self.group_detail: Dict[Tuple[Category, int], Dict[int, List[int]]] = {}

    def profile_for(self, address: int) -> InstructionProfile:
        profile = self.instructions.get(address)
        if profile is None:
            profile = InstructionProfile(address)
            self.instructions[address] = profile
        return profile

    def group_slot(self, category: Category, phase: int, address: int) -> List[int]:
        """The mutable ``[executions, attempts, correct]`` accumulator for
        ``address`` within the ``(category, phase)`` group."""
        key = (category, phase)
        members = self.group_detail.get(key)
        if members is None:
            members = self.group_detail[key] = {}
        slot = members.get(address)
        if slot is None:
            slot = members[address] = [0, 0, 0]
        return slot

    @property
    def groups(self) -> Dict[Tuple[Category, int], GroupStats]:
        """The (category, phase) aggregates, summed from the detail."""
        aggregated: Dict[Tuple[Category, int], GroupStats] = {}
        for key, members in self.group_detail.items():
            stats = GroupStats()
            for executions, attempts, correct in members.values():
                stats.executions += executions
                stats.attempts += attempts
                stats.correct += correct
            aggregated[key] = stats
        return aggregated

    @property
    def addresses(self) -> list[int]:
        return sorted(self.instructions)

    def accuracy_of(self, address: int) -> float:
        profile = self.instructions.get(address)
        return 0.0 if profile is None else profile.accuracy

    def stride_efficiency_of(self, address: int) -> float:
        profile = self.instructions.get(address)
        return 0.0 if profile is None else profile.stride_efficiency

    def overall_accuracy(self, category: Optional[Category] = None) -> float:
        """Aggregate accuracy over all (or one category of) instructions."""
        attempts = 0
        correct = 0
        for (group_category, _phase), stats in self.groups.items():
            if category is not None and group_category is not category:
                continue
            attempts += stats.attempts
            correct += stats.correct
        return 0.0 if attempts == 0 else 100.0 * correct / attempts

    def __len__(self) -> int:
        return len(self.instructions)

    def __eq__(self, other: object) -> bool:
        """Exact equality: labels, per-instruction counts, group detail."""
        if not isinstance(other, ProfileImage):
            return NotImplemented
        return (
            self.program_name == other.program_name
            and self.run_label == other.run_label
            and self.instructions == other.instructions
            and self.group_detail == other.group_detail
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProfileImage({self.program_name!r}, run={self.run_label!r}, "
            f"{len(self.instructions)} instructions, "
            f"{len(self.group_detail)} groups)"
        )


def collect_profile(
    program: Program,
    inputs: Iterable[Number] = (),
    predictor: Optional[ValuePredictor] = None,
    run_label: str = "",
    max_instructions: Optional[int] = None,
    records=None,
    store: Optional[TraceStore] = None,
    sample_every: int = 1,
    address_buckets: int = 1,
    address_bucket: int = 0,
) -> ProfileImage:
    """Profile one run of ``program`` under ``predictor``.

    Args:
        program: the compiled binary.
        inputs: the run's input stream.
        predictor: predictor to emulate; default is an unbounded
            :class:`~repro.predictors.StridePredictor` (the paper profiles
            with the stride predictor so the stride efficiency ratio is
            also available).
        run_label: stored in the image for bookkeeping.
        max_instructions: optional dynamic-instruction cap.
        store: optional :class:`~repro.machine.TraceStore`; the trace is
            replayed from the store when present there, captured into it
            otherwise.
        sample_every: keep only every ``k``-th dynamic trace record
            (``k = 1`` keeps everything and is byte-identical to full
            profiling; see :func:`collect_profiles`).
        address_buckets / address_bucket: optionally restrict the profile
            to candidate addresses in one modulo bucket.
    """
    images = collect_profiles(
        program,
        inputs,
        predictors={"default": predictor or StridePredictor()},
        run_label=run_label,
        max_instructions=max_instructions,
        records=records,
        store=store,
        sample_every=sample_every,
        address_buckets=address_buckets,
        address_bucket=address_bucket,
    )
    return images["default"]


def collect_profiles(
    program: Program,
    inputs: Iterable[Number] = (),
    predictors: Optional[Mapping[str, ValuePredictor]] = None,
    run_label: str = "",
    max_instructions: Optional[int] = None,
    records=None,
    store: Optional[TraceStore] = None,
    sample_every: int = 1,
    address_buckets: int = 1,
    address_bucket: int = 0,
) -> Dict[str, ProfileImage]:
    """Profile one run under several predictors simultaneously.

    A single execution of the program feeds every predictor, so comparing
    last-value against stride (Table 2.1) costs one simulation, not two.

    The native consumption path walks the executor's columnar trace
    batches (optionally captured into / replayed from ``store``), with a
    batch-walking fast path for unbounded stride predictors that is
    bit-identical to driving ``predictor.access`` record by record.

    Pass ``records`` (an iterable of
    :class:`~repro.machine.trace.TraceRecord`, e.g. from
    :func:`repro.machine.read_trace`) to profile a *stored* trace instead
    of executing the program — the SHADE-style trace/analyze split.

    ``sample_every=k`` keeps only dynamic records whose 0-based position
    in the run's full trace is a multiple of ``k`` — the sampled phase-2
    mode.  The rule is applied to the *unfiltered* dynamic stream (before
    the candidate filter), identically across the ``records``, batch and
    fast-stride consumption paths, so profiling with ``sample_every=k``
    equals profiling ``records[::k]`` and ``k=1`` is byte-identical to
    full profiling (the ``profile-sampled-k1`` oracle pair enforces
    this).  ``address_buckets``/``address_bucket`` optionally restrict
    collection to candidate addresses with ``address % address_buckets
    == address_bucket`` — the bucketed profiles of one run partition the
    full profile.
    """
    if (
        isinstance(sample_every, bool)
        or not isinstance(sample_every, int)
        or sample_every < 1
    ):
        raise ValueError(f"sample_every must be an int >= 1, got {sample_every!r}")
    if (
        isinstance(address_buckets, bool)
        or not isinstance(address_buckets, int)
        or address_buckets < 1
    ):
        raise ValueError(
            f"address_buckets must be an int >= 1, got {address_buckets!r}"
        )
    if not 0 <= address_bucket < address_buckets:
        raise ValueError(
            f"address_bucket must be in [0, {address_buckets}), got {address_bucket!r}"
        )
    if predictors is None:
        predictors = {"stride": StridePredictor()}
    images = {
        name: ProfileImage(program.name, run_label=run_label) for name in predictors
    }
    is_candidate = [
        instruction.is_prediction_candidate for instruction in program.instructions
    ]
    if address_buckets > 1:
        is_candidate = [
            flag and address % address_buckets == address_bucket
            for address, flag in enumerate(is_candidate)
        ]
    categories = [instruction.category for instruction in program.instructions]
    pairs = [(name, predictor) for name, predictor in predictors.items()]

    started = time.perf_counter()
    if records is not None:
        for position, record in enumerate(records):
            if sample_every > 1 and position % sample_every:
                continue
            address = record.address
            if not is_candidate[address]:
                continue
            value = record.value
            phase = record.phase
            category = categories[address]
            for name, predictor in pairs:
                result = predictor.access(address, value)
                image = images[name]
                profile = image.profile_for(address)
                profile.executions += 1
                group = image.group_slot(category, phase, address)
                group[0] += 1
                if result.hit:
                    profile.attempts += 1
                    group[1] += 1
                    if result.correct:
                        profile.correct += 1
                        group[2] += 1
                        if result.nonzero_stride:
                            profile.nonzero_stride_correct += 1
    else:
        batches = replay_or_run(program, inputs, max_instructions, store)
        consumers = []
        finishers = []
        for name, predictor in pairs:
            fast = _fast_stride_profiler(predictor, images[name], categories)
            if fast is not None:
                consume, finish = fast
                consumers.append(consume)
                finishers.append(finish)
            else:
                consumers.append(
                    _generic_profiler(predictor, images[name], categories)
                )
        try:
            # 0-based position of the current batch's first record within
            # the run's full dynamic stream — the sampling rule is global,
            # not per batch, so a record boundary mid-batch cannot shift
            # which records a sampled profile keeps.
            offset = 0
            for batch in batches:
                addresses = batch.addresses
                triples: List[Tuple[int, Optional[Number], int]] = []
                if sample_every > 1:
                    # Sampling indexes records at arbitrary positions, so
                    # rebuild the aligned one-slot-per-record view (the
                    # sampled rows are a small fraction of the batch).
                    values = batch.record_values()
                    for start, end, phase in batch.phase_segments():
                        first = -(-(offset + start) // sample_every) * sample_every
                        triples.extend(
                            (addresses[position], values[position], phase)
                            for position in range(
                                first - offset, end, sample_every
                            )
                            if is_candidate[addresses[position]]
                        )
                else:
                    # Full profiling: cursor-walk the packed produced-value
                    # column (candidates are always producers).
                    vflags = batch.value_flags
                    column = batch.values
                    produced = (
                        column.ints if column.is_pure_int else column.tolist()
                    )
                    append = triples.append
                    cursor = 0
                    for start, end, phase in batch.phase_segments():
                        for position in range(start, end):
                            address = addresses[position]
                            if vflags[address]:
                                if is_candidate[address]:
                                    append((address, produced[cursor], phase))
                                cursor += 1
                offset += len(batch)
                if not triples:
                    continue
                for consume in consumers:
                    consume(triples)
        finally:
            # Fold the fast paths' accumulators even when the trace raised
            # mid-run, matching the record path's behaviour of keeping
            # every observation up to the fault.
            for finish in finishers:
                finish()
    telemetry = get_registry()
    if telemetry.enabled:
        # Candidate records observed = per-image executions (identical
        # across images, so read the first); records/sec derives from the
        # profiling.collect timer downstream.
        first = next(iter(images.values()))
        observed = sum(profile.executions for profile in first.instructions.values())
        telemetry.counter("profiling.records").add(observed)
        telemetry.counter("profiling.runs").add(1)
        telemetry.timer("profiling.collect").add(time.perf_counter() - started)
        if sample_every > 1 or address_buckets > 1:
            telemetry.counter("profiling.sampled.runs").add(1)
            telemetry.counter("profiling.sampled.records").add(observed)
    return images


def _generic_profiler(predictor, image: ProfileImage, categories):
    """Batch consumer for arbitrary predictors: one ``access`` per record."""

    def consume(triples) -> None:
        access = predictor.access
        profile_for = image.profile_for
        group_slot = image.group_slot
        for address, value, phase in triples:
            result = access(address, value)
            profile = profile_for(address)
            profile.executions += 1
            group = group_slot(categories[address], phase, address)
            group[0] += 1
            if result.hit:
                profile.attempts += 1
                group[1] += 1
                if result.correct:
                    profile.correct += 1
                    group[2] += 1
                    if result.nonzero_stride:
                        profile.nonzero_stride_correct += 1

    return consume


def _fast_stride_profiler(predictor, image: ProfileImage, categories):
    """Inlined batch consumer for an unbounded stride predictor.

    Operates directly on the predictor's (single, unbounded) table set
    with local counter accumulators, folding them into the profile image
    and the table's lookup/hit counters when finished.  Results are
    bit-identical to the generic path; the only divergence is internal —
    the table set's LRU order is not refreshed on hits, which is
    unobservable for a table that never evicts.
    """
    if type(predictor) is not StridePredictor or not predictor.table.is_infinite:
        return None
    table = predictor.table
    entries = table._set_for(0)
    counts: Dict[int, List[int]] = {}
    #: (address, phase) -> [executions, attempts, correct]; the category
    #: is static per address and re-attached when folding into the image.
    group_counts: Dict[Tuple[int, int], List[int]] = {}
    meters = [0, 0]  # lookups, hits

    def consume(triples) -> None:
        lookups = hits = 0
        get_entry = entries.get
        get_count = counts.get
        get_group = group_counts.get
        for address, value, phase in triples:
            slot = get_count(address)
            if slot is None:
                slot = counts[address] = [0, 0, 0, 0]
            group_key = (address, phase)
            group = get_group(group_key)
            if group is None:
                group = group_counts[group_key] = [0, 0, 0]
            slot[0] += 1
            group[0] += 1
            lookups += 1
            entry = get_entry(address)
            if entry is None:
                entries[address] = StrideEntry(value)
                continue
            hits += 1
            last = entry.last_value
            stride = entry.stride
            entry.stride = value - last
            entry.last_value = value
            slot[1] += 1
            group[1] += 1
            if last + stride == value:
                slot[2] += 1
                group[2] += 1
                if stride != 0:
                    slot[3] += 1
        meters[0] += lookups
        meters[1] += hits

    def finish() -> None:
        table.lookups += meters[0]
        table.hits += meters[1]
        meters[0] = meters[1] = 0
        for address, slot in counts.items():
            profile = image.profile_for(address)
            profile.executions += slot[0]
            profile.attempts += slot[1]
            profile.correct += slot[2]
            profile.nonzero_stride_correct += slot[3]
        counts.clear()
        for (address, phase), group in group_counts.items():
            stats = image.group_slot(categories[address], phase, address)
            stats[0] += group[0]
            stats[1] += group[1]
            stats[2] += group[2]
        group_counts.clear()

    return consume, finish
