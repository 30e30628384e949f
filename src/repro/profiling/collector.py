"""Profile collection: run a program under an emulated value predictor.

This is phase 2 of the paper's methodology.  The tracing simulator
(:mod:`repro.machine`) executes the program — or a
:class:`~repro.machine.TraceStore` replays it — while a value predictor,
by default an *unbounded* stride predictor so the profile reflects pure
value behaviour rather than table pressure, observes every dynamic
instance of every value-prediction candidate.  The result records, per
static instruction, its prediction accuracy and stride efficiency ratio,
and per (category, phase) the aggregate accuracies behind Table 2.1.

A fresh, unsampled run under one unbounded stride predictor whose
table starts empty — every phase-2 training run — is profiled inside the
interpreter, as SHADE runs the predictor emulation inline: each
candidate's closure updates its own take-all row
(:meth:`~repro.machine.Executor.run_profiled`), and no batch is built.
Every other run walks batches.  Candidates come from
:meth:`~repro.machine.TraceBatch.candidates`, the walk the classified
simulation and the ILP model also use.  An unbounded
stride or last-value predictor whose table starts empty plays them
through the take-all kernel of :mod:`repro.predictors.stride`; any
other predictor makes one ``access`` per candidate.  Both count into
address-keyed rows, and one fold per phase run adds them to the images.
An unbounded last-value predictor beside an unbounded stride predictor
(both starting empty, as Table 2.1 profiles them) does not walk: it
allocates and hits where the stride table does, so its correct
predictions are the stride walk's held-value hits, which the kernel
counts when asked; its table gets the same meters and a
:class:`~repro.predictors.last_value.LastValueEntry` per stride row.
:func:`repro.check.profile_records` is the per-record reference
the ``profile-sampled`` and ``phase-profiles-batch-vs-record`` oracle
pairs hold both routes to.
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import Category, Number, Program
from ..machine import DEFAULT_BUDGET, Executor, TraceBatch, TraceStore
from ..machine.tracestore import replay_or_run
from ..predictors import LastValuePredictor, StridePredictor, ValuePredictor
from ..predictors.stride import (
    ATTEMPTS,
    CORRECT,
    HELD,
    KERNEL_PREDICTORS,
    MISSES,
    NONZERO,
    SET,
    ZERO_COUNTS,
    walk_take_all,
    write_back,
)
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


#: A ``(category, phase)`` group of :attr:`ProfileImage.group_detail`.
GroupKey = Tuple[Category, int]


class ProfileImage:
    """The output of one profiling run (paper Section 3.2, Table 3.1).

    Maps instruction address -> :class:`InstructionProfile`, with program
    and run labels.  The (category, phase) aggregates ride along for the
    Table 2.1 measurements.

    Group accounting is kept per address, and each count is stored once.
    An address whose only group slot equals its instruction's
    ``(executions, attempts, correct)`` — every address of a
    single-phase run — keeps just its shared ``(category, phase)`` key,
    its *home*, in :attr:`homes`.  Only the other addresses keep explicit
    ``[executions, attempts, correct]`` slots, in :attr:`splits`: one
    that ran in several phases, or one whose group rows, hand-made or
    loaded, disagree with its instruction row.  :attr:`group_detail`
    (``(category, phase) -> {address: [executions, attempts, correct]}``)
    and the coarse :attr:`groups` are views derived from both.  The
    per-address detail is what makes two operations exact that an
    aggregate-only image cannot support: filtering group counts to a
    subset of instructions (``merge_profiles(require_common=True)``) and
    the lossless save→load→merge round trip of
    :mod:`~repro.profiling.image_io`.
    """

    def __init__(self, program_name: str, run_label: str = "") -> None:
        self.program_name = program_name
        self.run_label = run_label
        self.instructions: Dict[int, InstructionProfile] = {}
        #: address -> its home, the one group its instruction counts fill
        self.homes: Dict[int, GroupKey] = {}
        #: address -> (category, phase) -> [executions, attempts, correct]
        self.splits: Dict[int, Dict[GroupKey, List[int]]] = {}
        # One key object per group, shared by every home and split slot.
        self._keys: Dict[GroupKey, GroupKey] = {}

    def profile_for(self, address: int) -> InstructionProfile:
        profile = self.instructions.get(address)
        if profile is None:
            profile = InstructionProfile(address)
            self.instructions[address] = profile
        return profile

    def add_counts(
        self,
        address: int,
        key: Optional[GroupKey],
        executions: int,
        attempts: int,
        correct: int,
        nonzero_stride_correct: int = 0,
    ) -> None:
        """Add counts to ``address``'s instruction row and, unless ``key``
        is ``None``, the same ``(executions, attempts, correct)`` to its
        ``key`` group.

        A new address takes ``key`` as its home; counts for any other
        group first turn the home into an explicit slot.
        """
        profile = self.instructions.get(address)
        if profile is None:
            profile = self.instructions[address] = InstructionProfile(address)
            if key is not None and address not in self.splits:
                self.homes[address] = self._keys.setdefault(key, key)
        if self.homes.get(address) != key:
            if key is not None:
                slot = self.group_slot(key[0], key[1], address)
                slot[0] += executions
                slot[1] += attempts
                slot[2] += correct
            else:
                self._split(address)
        profile.executions += executions
        profile.attempts += attempts
        profile.correct += correct
        profile.nonzero_stride_correct += nonzero_stride_correct

    def group_slot(self, category: Category, phase: int, address: int) -> List[int]:
        """The mutable ``[executions, attempts, correct]`` accumulator for
        ``address`` within the ``(category, phase)`` group.

        A homed address first gets its home back as an explicit slot.
        """
        slots = self._split(address)
        key = self._keys.setdefault((category, phase), (category, phase))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = [0, 0, 0]
        return slot

    def _split(self, address: int) -> Dict[GroupKey, List[int]]:
        """``address``'s explicit slots, its home turned into one."""
        slots = self.splits.get(address)
        if slots is None:
            slots = self.splits[address] = {}
            home = self.homes.pop(address, None)
            if home is not None:
                profile = self.instructions[address]
                slots[home] = [profile.executions, profile.attempts, profile.correct]
        return slots

    def discard(self, address: int) -> None:
        """Drop ``address``: its instruction row and its group counts."""
        self.instructions.pop(address, None)
        self.homes.pop(address, None)
        self.splits.pop(address, None)

    @property
    def group_detail(self) -> Dict[GroupKey, Dict[int, List[int]]]:
        """``(category, phase) -> {address: [executions, attempts,
        correct]}``, built afresh from the homes and the explicit slots;
        change counts through :meth:`group_slot` or :meth:`add_counts`."""
        detail: Dict[GroupKey, Dict[int, List[int]]] = {}
        for address, key in self.homes.items():
            profile = self.instructions[address]
            members = detail.get(key)
            if members is None:
                members = detail[key] = {}
            members[address] = [profile.executions, profile.attempts, profile.correct]
        for address, slots in self.splits.items():
            for key, counts in slots.items():
                members = detail.get(key)
                if members is None:
                    members = detail[key] = {}
                members[address] = list(counts)
        return detail

    @group_detail.setter
    def group_detail(self, detail: Mapping[GroupKey, Mapping[int, List[int]]]) -> None:
        """Replace the group accounting with ``detail``; each address
        whose only slot equals its instruction's counts is homed."""
        self.homes = {}
        self.splits = {}
        for key, members in detail.items():
            key = self._keys.setdefault(key, key)
            for address, counts in members.items():
                self.splits.setdefault(address, {})[key] = list(counts)
        for address, slots in list(self.splits.items()):
            profile = self.instructions.get(address)
            if profile is None or len(slots) != 1:
                continue
            (key, counts), = slots.items()
            if counts == [profile.executions, profile.attempts, profile.correct]:
                self.homes[address] = key
                del self.splits[address]

    @property
    def groups(self) -> Dict[GroupKey, GroupStats]:
        """The (category, phase) aggregates, summed from the detail."""
        aggregated: Dict[GroupKey, GroupStats] = {}

        def add(key: GroupKey, executions: int, attempts: int, correct: int) -> None:
            stats = aggregated.get(key)
            if stats is None:
                stats = aggregated[key] = GroupStats()
            stats.executions += executions
            stats.attempts += attempts
            stats.correct += correct

        for address, key in self.homes.items():
            profile = self.instructions[address]
            add(key, profile.executions, profile.attempts, profile.correct)
        for slots in self.splits.values():
            for key, (executions, attempts, correct) in slots.items():
                add(key, executions, attempts, correct)
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
            f"{len(self.groups)} groups)"
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
    started = time.perf_counter()
    inline = store is None and sample_every == 1 and _inline_eligible(predictors)
    if inline:
        _profile_inline(
            program, inputs, max_instructions, predictors, lambda name, phase: images[name]
        )
    else:
        _profile_run(
            program,
            replay_or_run(program, inputs, max_instructions, store),
            predictors,
            lambda name, phase: images[name],
            sample_every,
        )
    _publish_run([next(iter(images.values()))], started, sample_every, inline)
    return images


def _publish_run(
    images: Iterable[ProfileImage],
    started: float,
    sample_every: int,
    inline: bool = False,
) -> None:
    """Count one profiled run whose first predictor filled ``images``."""
    telemetry = get_registry()
    if telemetry.enabled:
        # Candidate records observed = one predictor's executions (the
        # same for every predictor); records/sec derives from the
        # profiling.collect timer downstream.
        observed = sum(
            profile.executions
            for image in images
            for profile in image.instructions.values()
        )
        telemetry.counter("profiling.records").add(observed)
        telemetry.counter("profiling.runs").add(1)
        if inline:
            telemetry.counter("profiling.runs.inline").add(1)
        telemetry.timer("profiling.collect").add(time.perf_counter() - started)
        if sample_every > 1:
            telemetry.counter("profiling.sampled.runs").add(1)
            telemetry.counter("profiling.sampled.records").add(observed)


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
    sample_every: int,
) -> None:
    """Feed one run's ``batches`` to every predictor; fold the counts.

    The one profiling loop behind :func:`collect_profiles` and
    :mod:`~repro.profiling.phases`.  Each predictor's consumer counts
    into its own address-keyed rows (the layout of
    :mod:`repro.predictors.stride`); at every change of phase, and once
    more at the end — even when the trace raises mid-run — one fold adds
    the counts of every row that executed since the last fold into
    ``image_for(name, phase)`` and zeroes them.  Candidates and the
    global-position ``sample_every`` rule come from
    :meth:`TraceBatch.candidates`.  An unbounded stride or last-value
    predictor whose table starts empty walks
    :func:`~repro.predictors.stride.walk_take_all`, and its table gets
    the rows' entries at the end; any other predictor makes one
    ``access`` per candidate.  A last-value predictor that
    :func:`_last_value_followers` pairs with a stride predictor has no
    consumer: the stride walk also counts held-value hits, and the fold
    reads the last-value counts from its rows.
    """
    profilers = {name: _profiler(each) for name, each in predictors.items()}
    followers = _last_value_followers(predictors, profilers)
    leader = next(iter(followers.values()), None)
    walks = [
        access or partial(walk_take_all, rows, learns=learns, held=name == leader)
        for name, (rows, _table, learns, access) in profilers.items()
        if name not in followers
    ]
    # A follower reads its stride leader's rows: its correct predictions
    # are the held-value hits, and it never uses a stride.
    fold = _folder(
        program,
        [
            (name, profilers[followers.get(name, name)][0], table, name in followers)
            for name, (_rows, table, _learns, _access) in profilers.items()
        ],
        image_for,
    )

    phase = None
    offset = 0  # global position of the current batch's first record
    try:
        for batch in batches:
            pairs, runs = batch.candidates(sample_every, offset)
            offset += len(batch)
            for index, (start, run_phase) in enumerate(runs):
                if run_phase != phase:
                    if phase is not None:
                        fold(phase)
                    phase = run_phase
                end = runs[index + 1][0] if index + 1 < len(runs) else None
                chunk = pairs[start:end]
                for consume in walks:
                    consume(chunk)
    finally:
        # Keep every observation up to a mid-run fault, as a record-by-
        # record profile of the same prefix would.
        if phase is not None:
            fold(phase)
        for name, (_rows, table, learns, _access) in profilers.items():
            if table is not None:
                write_back(table, profilers[followers.get(name, name)][0], learns)
    telemetry = get_registry()
    if telemetry.enabled and followers:
        telemetry.counter("profiling.predictors.followed").add(len(followers))


def _folder(program: Program, folds, image_for) -> Callable[[int], None]:
    """The fold of one profiled run.

    ``folds`` lists ``(name, rows, table, follows)``: the rows a
    predictor's image folds from, the table whose meters the fold keeps
    (``None``: its ``access`` calls keep them) and whether it follows a
    stride leader (its correct predictions are the held-value hits, and
    it never uses a stride).  ``fold(phase)`` adds the counts of every
    row that executed since the last fold into ``image_for(name,
    phase)``, which it asks for only when a row did, and zeroes them.
    """
    categories = [instruction.category for instruction in program.instructions]
    kinds = list(dict.fromkeys(categories))
    distinct = list({id(rows): rows for _name, rows, _table, _follows in folds}.values())

    def fold(phase: int) -> None:
        keys = {category: (category, phase) for category in kinds}
        for name, rows, table, follows in folds:
            image = None
            correct = HELD if follows else CORRECT
            for address, row in rows.items():
                attempts = row[ATTEMPTS]
                executions = row[MISSES] + attempts
                if not executions:
                    continue
                if image is None:
                    image = image_for(name, phase)
                image.add_counts(
                    address,
                    keys[categories[address]],
                    executions,
                    attempts,
                    row[correct],
                    0 if follows else row[NONZERO],
                )
                if table is not None:
                    table.lookups += executions
                    table.hits += attempts
        for rows in distinct:
            for row in rows.values():
                row[MISSES:SET] = ZERO_COUNTS

    return fold


def _inline_eligible(predictors: Mapping[str, ValuePredictor]) -> bool:
    """Whether a fresh, unsampled run profiles inside the closures.

    It does for one predictor that :func:`_profiler` walks take-all
    with a learning stride — an unbounded :class:`StridePredictor`
    whose table starts empty: the body the profile-mode closures of
    :mod:`repro.machine.closures` play per candidate.
    """
    if len(predictors) != 1:
        return False
    return _kernel_learns(next(iter(predictors.values()))) is True


def _profile_inline(
    program: Program,
    inputs: Iterable[Number],
    max_instructions: Optional[int],
    predictors: Mapping[str, ValuePredictor],
    image_for: Callable[[str, int], ProfileImage],
) -> None:
    """Profile one executed run inside the interpreter's closures.

    The counterpart of :func:`_profile_run` for the runs
    :func:`_inline_eligible` accepts: each candidate's closure updates
    its own take-all row, ``phase`` folds, and the run ends with a fold
    (even when it raises) and the table's write-back, as there.  No
    batch is built.
    """
    (name, predictor), = predictors.items()
    rows: Dict[int, List] = {}
    fold = _folder(program, [(name, rows, predictor.table, False)], image_for)
    budget = max_instructions if max_instructions is not None else DEFAULT_BUDGET
    try:
        Executor(program, inputs=inputs, max_instructions=budget).run_profiled(rows, fold)
    finally:
        write_back(predictor.table, rows, True)


def _profiler(predictor: ValuePredictor):
    """``(rows, table, learns, access)`` for one predictor.

    An unbounded :class:`StridePredictor` or
    :class:`~repro.predictors.LastValuePredictor` (``learns`` false: its
    stride held at 0) whose table starts empty walks
    :func:`~repro.predictors.stride.walk_take_all` over ``rows``;
    ``table`` is the table whose meters the fold keeps and whose entries
    the rows become, and ``access`` is ``None``.  Any other predictor
    counts into ``rows`` through ``access``, its
    :func:`_generic_profiler` consumer, whose calls keep the table's
    meters (``table`` and ``learns`` are ``None``).
    """
    rows: Dict[int, List] = {}
    learns = _kernel_learns(predictor)
    if learns is not None:
        return rows, predictor.table, learns, None
    return rows, None, None, _generic_profiler(predictor, rows)


def _kernel_learns(predictor: ValuePredictor) -> Optional[bool]:
    """The ``learns`` flag of a predictor the take-all walk plays, else
    ``None``: an unbounded predictor of :data:`KERNEL_PREDICTORS` whose
    table starts empty."""
    learns = KERNEL_PREDICTORS.get(type(predictor))
    if learns is not None and predictor.table.is_infinite and not len(predictor.table):
        return learns
    return None


def _last_value_followers(predictors, profilers) -> Dict[str, str]:
    """Map each last-value predictor that folds from a stride walk to the
    name of that stride predictor.

    An unbounded last-value table and an unbounded stride table that both
    start empty allocate every candidate on its first execution and keep
    its last value, so the last-value table's hits are the stride table's
    and its correct predictions are the stride walk's held-value hits.
    Both must take the kernel (``table`` is not ``None``).
    """

    def kernel(name, kind) -> bool:
        return type(predictors[name]) is kind and profilers[name][1] is not None

    leader = next((name for name in predictors if kernel(name, StridePredictor)), None)
    if leader is None:
        return {}
    return {
        name: leader for name in predictors if kernel(name, LastValuePredictor)
    }


def _generic_profiler(predictor: ValuePredictor, rows):
    """Batch consumer for arbitrary predictors: one ``access`` per
    candidate, counted into the kernel's row layout."""

    def consume(pairs) -> None:
        access = predictor.access
        get = rows.get
        for address, value in pairs:
            row = get(address)
            if row is None:
                row = rows[address] = [None, None, *ZERO_COUNTS, None, None]
            result = access(address, value)
            if not result.hit:
                row[MISSES] += 1
                continue
            row[ATTEMPTS] += 1
            if result.correct:
                row[CORRECT] += 1
                if result.nonzero_stride:
                    row[NONZERO] += 1

    return consume
