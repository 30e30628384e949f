"""Profile collection: run a program under an emulated value predictor.

This is phase 2 of the paper's methodology.  The tracing simulator
(:mod:`repro.machine`) executes the program — or a
:class:`~repro.machine.TraceStore` replays it — while a value predictor,
by default an *unbounded* stride predictor so the profile reflects pure
value behaviour rather than table pressure, observes every dynamic
instance of every value-prediction candidate.  The result records, per
static instruction, its prediction accuracy and stride efficiency ratio,
and per (category, phase) the aggregate accuracies behind Table 2.1.

Candidates come from :meth:`~repro.machine.TraceBatch.candidates`, the
walk the classified simulation and the ILP model also use.  An unbounded
stride or last-value predictor plays them through the stride kernel of
:mod:`repro.predictors.stride`, the one the simulation's engines run;
any other predictor makes one ``access`` per candidate.  Both count
into address-keyed slots, and one fold per phase run adds them to the
images.  :func:`repro.check.profile_records` is the per-record reference
the ``profile-sampled`` and ``phase-profiles-batch-vs-record`` oracle
pairs hold this loop to.
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..isa import Category, Number, Program
from ..machine import TraceBatch, TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import StridePredictor, ValuePredictor
from ..predictors.stride import KERNEL_PREDICTORS, walk_unbounded
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
    store: Optional[TraceStore] = None,
    sample_every: int = 1,
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
    """
    images = collect_profiles(
        program,
        inputs,
        predictors={"default": predictor or StridePredictor()},
        run_label=run_label,
        max_instructions=max_instructions,
        store=store,
        sample_every=sample_every,
    )
    return images["default"]


def collect_profiles(
    program: Program,
    inputs: Iterable[Number] = (),
    predictors: Optional[Mapping[str, ValuePredictor]] = None,
    run_label: str = "",
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
    sample_every: int = 1,
) -> Dict[str, ProfileImage]:
    """Profile one run under several predictors simultaneously.

    A single execution of the program feeds every predictor, so comparing
    last-value against stride (Table 2.1) costs one simulation, not two.
    The run's columnar trace batches come from the executor, or from
    ``store`` (replayed on a hit, captured into it on a miss).

    ``sample_every=k`` keeps only dynamic records whose 0-based position
    in the run's full trace is a multiple of ``k`` — the sampled phase-2
    mode.  The rule is applied to the *unfiltered* dynamic stream (before
    the candidate filter), so profiling with ``sample_every=k`` equals
    profiling ``records[::k]`` record by record
    (:func:`repro.check.profile_records`), and ``k=1`` is byte-identical
    to full profiling.
    """
    _check_sample_every(sample_every)
    if predictors is None:
        predictors = {"stride": StridePredictor()}
    images = {
        name: ProfileImage(program.name, run_label=run_label) for name in predictors
    }
    is_candidate = [
        instruction.is_prediction_candidate for instruction in program.instructions
    ]
    started = time.perf_counter()
    _profile_run(
        program,
        replay_or_run(program, inputs, max_instructions, store),
        predictors,
        lambda name, phase: images[name],
        is_candidate,
        sample_every,
    )
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
        if sample_every > 1:
            telemetry.counter("profiling.sampled.runs").add(1)
            telemetry.counter("profiling.sampled.records").add(observed)
    return images


def _check_sample_every(sample_every) -> None:
    if (
        isinstance(sample_every, bool)
        or not isinstance(sample_every, int)
        or sample_every < 1
    ):
        raise ValueError(f"sample_every must be an int >= 1, got {sample_every!r}")


def _profile_run(
    program: Program,
    batches: Iterable[TraceBatch],
    predictors: Mapping[str, ValuePredictor],
    image_for: Callable[[str, int], ProfileImage],
    is_candidate: Sequence[bool],
    sample_every: int,
) -> None:
    """Feed one run's ``batches`` to every predictor; fold the counts.

    The one profiling loop behind :func:`collect_profiles` and
    :func:`~repro.profiling.phases.collect_phase_profiles`.  Each
    predictor's consumer counts into its own address-keyed slots (the
    layout of :mod:`repro.predictors.stride`'s kernels); at every change
    of phase, and once more at the end — even when the trace raises
    mid-run — one fold adds those counts into ``image_for(name, phase)``
    and empties them.  Candidates and the global-position
    ``sample_every`` rule come from :meth:`TraceBatch.candidates`.
    """
    categories = [instruction.category for instruction in program.instructions]
    profilers = [(name, _profiler(each)) for name, each in predictors.items()]

    def fold(phase: int) -> None:
        for name, (_consume, counts, table) in profilers:
            image = image_for(name, phase)
            for address, slot in counts.items():
                profile = image.profile_for(address)
                profile.executions += slot[0]
                profile.attempts += slot[1]
                profile.correct += slot[2]
                profile.nonzero_stride_correct += slot[6]
                group = image.group_slot(categories[address], phase, address)
                group[0] += slot[0]
                group[1] += slot[1]
                group[2] += slot[2]
                if table is not None:
                    table.lookups += slot[0]
                    table.hits += slot[1]
            counts.clear()

    phase = None
    offset = 0  # global position of the current batch's first record
    try:
        for batch in batches:
            pairs, runs = batch.candidates(is_candidate, sample_every, offset)
            offset += len(batch)
            for index, (start, run_phase) in enumerate(runs):
                if run_phase != phase:
                    if phase is not None:
                        fold(phase)
                    phase = run_phase
                end = runs[index + 1][0] if index + 1 < len(runs) else None
                chunk = pairs[start:end]
                for _name, (consume, _counts, _table) in profilers:
                    consume(chunk)
    finally:
        # Keep every observation up to a mid-run fault, as a record-by-
        # record profile of the same prefix would.
        if phase is not None:
            fold(phase)


def _profiler(predictor: ValuePredictor):
    """``(consume, counts, table)`` for one predictor.

    An unbounded :class:`StridePredictor` or
    :class:`~repro.predictors.LastValuePredictor` (its stride held at 0)
    runs the shared stride kernel — allocate on every miss, take every
    hit — and ``table`` is the table whose lookup and hit meters the fold
    keeps; any other predictor goes through :func:`_generic_profiler`,
    whose ``access`` calls keep their own meters (``table`` is ``None``).
    """
    counts: Dict[int, List[int]] = {}
    learns = KERNEL_PREDICTORS.get(type(predictor))
    if learns is not None and predictor.table.is_infinite:
        entries = predictor.table._set_for(0)
        consume = partial(walk_unbounded, entries, counts, learns=learns)
        return consume, counts, predictor.table
    return _generic_profiler(predictor, counts), counts, None


def _generic_profiler(predictor: ValuePredictor, counts):
    """Batch consumer for arbitrary predictors: one ``access`` per
    candidate, counted into the kernel's slot layout."""

    def consume(pairs) -> None:
        access = predictor.access
        get_slot = counts.get
        for address, value in pairs:
            slot = get_slot(address)
            if slot is None:
                slot = counts[address] = [0, 0, 0, 0, 0, 0, 0]
            slot[0] += 1
            result = access(address, value)
            if result.hit:
                slot[1] += 1
                if result.correct:
                    slot[2] += 1
                    if result.nonzero_stride:
                        slot[6] += 1

    return consume
