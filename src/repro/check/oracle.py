"""The differential oracle: every fast path against its reference path.

Each :class:`OraclePair` names one equivalence the codebase relies on:

``batch-vs-record``
    ``Executor.run_batches`` columns, decoded by hand, in default and
    tiny chunks, and the ``Executor.run`` per-record adapter, against
    :class:`~repro.check.stepper.Stepper`, an independent per-record
    interpreter: records, fault, end state.  Besides the case itself it
    runs the case at budgets one short of its length and exactly at it,
    and variants whose end faults or leaves the code segment: a
    fall-through past the last instruction, ``call``/``jr`` to the last
    instruction, past it and below 0, and a load and a store at a
    negative address.
``trace-replay-memory`` / ``trace-replay-disk``
    a trace replayed from a :class:`~repro.machine.TraceStore` (LRU /
    directory-backed) against a fresh capture.
``annotate-digest``
    an annotated binary must share the base binary's trace key (so it
    replays base traces) *and* execute identically record for record.
``profile-io-merge``
    ``merge_profiles`` over three training images with different address
    sets against an independent reference sum, for both
    ``require_common`` modes; the reversed fold order down to a
    byte-identical dump, ``save → load → merge`` against merging the
    in-memory images, and a round trip of the merged image itself.
``profile-sampled``
    ``collect_profiles`` of a fresh run under the default stride
    predictor, profiled inside the interpreter's closures — the case,
    the case cut by a budget and its faulting tail variants — against
    :func:`profile_records` over the records the stepper retired; and
    ``collect_profiles`` at ``sample_every`` 1, 2, 3 and 7 (and
    unsampled) under unbounded stride, finite stride and last-value
    predictors — the stride kernel, the last-value fold from the stride
    walk and the generic ``access`` batch consumer, freshly captured and
    replayed from tiny batches — against
    :func:`profile_records`, the per-record reference, down to dumped
    bytes.
``simulate-fast-vs-step``
    ``simulate_prediction_many`` over a nineteen-engine grid — freshly
    captured and replayed from a capture in tiny batches — against the
    same grid stepped with ``PredictionEngine.step`` on each candidate
    of a per-record walk.  The grid holds finite and infinite stride and
    last-value tables (the kernel with its FSM counters, evictions,
    finite tables that cannot evict, the shared leader/follower fold
    with member-only followers) and ``step``-fallback engines.
``ilp-batch-vs-record``
    ``measure_ilp_many`` scheduling from trace batches — freshly
    captured, captured into a store and replayed from it — against one
    :class:`~repro.ilp.WindowScheduler` per label fed record by record,
    over the simulate grid and no-VP machines; at the default machine, a
    narrow high-penalty machine without memory dependencies, and a
    budget overrun that must raise the same error.  Two more runs hand
    part of the grid to ``observers`` (lane-less engines, stepped per
    candidate in the reference): unbounded probe engines beside finite
    member-only lanes, and an unbounded FSM observer leading lanes whose
    finite tables cannot evict.  A replay of the run captured in tiny
    batches puts every batch boundary under test.
``phase-profiles-batch-vs-record``
    ``collect_phase_profiles`` over batch columns (fresh, replayed and
    replayed from tiny batches) against :func:`profile_records` with
    ``by_phase``, at ``sample_every`` 1 and 3, down to byte-identical
    profile dumps.
``capture-shard-vs-serial``
    ``capture_sharded`` at ``jobs=2`` against a serial capture of the
    same input sets, compared by store-directory fingerprint and
    per-shard outcomes.
``runner-parallel``
    the parallel engine at ``jobs=2`` against a serial walk of the same
    graph.
``classify-train-determinism``
    the learned predictability model trained on the same labeled corpus
    presented in reversed row order (canonical sorting must make input
    order irrelevant), byte-for-byte on the serialized model, plus a
    ``loads -> dumps`` round trip of the model file itself.

Program-consuming pairs draw seeded random programs from
:mod:`repro.check.generator`; the runner pairs run a pinned experiment
workload.  Observations are canonicalized before comparison (floats by
``repr`` so ``3`` never masquerades as ``3.0`` and NaN compares equal
to itself) and :func:`first_divergence` reports the first differing
path.  On a program-pair failure the case is shrunk by NOP substitution
and input truncation into a minimized reproducer.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..isa import Directive, Instruction, Opcode, disassemble
from ..machine import DEFAULT_CHUNK, Executor, TraceStore
from ..machine.errors import ExecutionError
from ..machine.tracestore import trace_key
from ..profiling import merge_profiles
from ..profiling.image_io import dumps_profile, loads_profile
from .generator import CheckCase, generate_case

DEFAULT_BUDGET = 20_000

_Obs = Tuple  # canonical observation; structural, compared by first_divergence


# -- canonical observations -------------------------------------------------


def _canon_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        if math.isnan(value):
            return "f:nan"
        return f"f:{value!r}"
    return f"i:{value}"


def _observe_records(record_iter) -> Dict[str, object]:
    """Drain a TraceRecord iterator into a canonical observation.

    An :class:`ExecutionError` is part of the observation, not a test
    failure: both sides of a pair must fault with the same error type
    and message after the same record prefix.
    """
    records: List[Tuple[int, str, int, object]] = []
    outcome: Tuple[str, ...] = ("halt",)
    try:
        for record in record_iter:
            records.append(
                (record.address, _canon_value(record.value), record.phase,
                 record.mem_address)
            )
    except ExecutionError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return {"records": records, "outcome": outcome}


def _observe_run(case: CheckCase, budget: int, program=None) -> Dict[str, object]:
    """Reference observation: a fresh ``Executor.run``."""
    executor = Executor(
        program if program is not None else case.program,
        inputs=list(case.inputs),
        max_instructions=budget,
    )
    return _observe_records(executor.run())


def _end_state(machine) -> Dict[str, object]:
    """The machine state a run leaves behind (executor or stepper)."""
    state = machine.state
    return {
        "instructions": machine.instruction_count,
        "registers": [_canon_value(value) for value in state.registers],
        "memory": {
            address: _canon_value(value) for address, value in sorted(state.memory.items())
        },
        "outputs": [_canon_value(value) for value in state.outputs],
        "halted": state.halted,
        "pc": state.pc,
        "phase": state.phase,
        "inputs_read": state.input_cursor,
    }


def _observe_stepper(program, inputs, budget: int) -> Dict[str, object]:
    """Reference observation: the independent :class:`Stepper`."""
    from .stepper import Stepper

    stepper = Stepper(program, inputs=list(inputs), max_instructions=budget)
    observed = _observe_records(stepper.run())
    observed["end"] = _end_state(stepper)
    return observed


def _observe_adapter(program, inputs, budget: int) -> Dict[str, object]:
    """``Executor.run``, the per-record adapter, with its end state."""
    executor = Executor(program, inputs=list(inputs), max_instructions=budget)
    observed = _observe_records(executor.run())
    observed["end"] = _end_state(executor)
    return observed


def _observe_batches_raw(
    program, inputs, budget: int, chunk_size: int = DEFAULT_CHUNK
) -> Dict[str, object]:
    """Fast-side observation: decode the columnar batches by hand.

    Deliberately re-implements the column walk (phase segments, dense
    ``mems`` cursor against the static ``mem_flags`` bitmap, the
    candidates' ``values`` cursor against ``candidate_flags`` and the
    other producers' ``others`` cursor against ``value_flags``) instead
    of calling ``TraceBatch.records`` — the adapter is under test too.
    """
    executor = Executor(program, inputs=list(inputs), max_instructions=budget)
    records: List[Tuple[int, str, int, object]] = []
    outcome: Tuple[str, ...] = ("halt",)
    try:
        for batch in executor.run_batches(chunk_size):
            flags = batch.mem_flags
            cflags = batch.candidate_flags
            vflags = batch.value_flags
            mems = batch.mems
            cursor = 0
            vcursor = 0
            ocursor = 0
            for start, end, phase in batch.phase_segments():
                for index in range(start, end):
                    address = batch.addresses[index]
                    if flags[address]:
                        mem_address = mems[cursor]
                        cursor += 1
                    else:
                        mem_address = None
                    if cflags[address]:
                        value = batch.values[vcursor]
                        vcursor += 1
                    elif vflags[address]:
                        value = batch.others[ocursor]
                        ocursor += 1
                    else:
                        value = None
                    records.append(
                        (address, _canon_value(value), phase, mem_address)
                    )
    except ExecutionError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return {"records": records, "outcome": outcome, "end": _end_state(executor)}


def _observe_image(image) -> Dict[str, object]:
    """Canonical view of a ProfileImage, exact counts and group detail."""
    return {
        "program": image.program_name,
        "run": image.run_label,
        "instructions": {
            address: (
                profile.executions,
                profile.attempts,
                profile.correct,
                profile.nonzero_stride_correct,
            )
            for address, profile in sorted(image.instructions.items())
        },
        "groups": {
            f"{category.value}/{phase}/{address}": tuple(counts)
            for (category, phase), members in sorted(
                image.group_detail.items(),
                key=lambda item: (item[0][0].value, item[0][1]),
            )
            for address, counts in sorted(members.items())
        },
    }


# -- structural diff --------------------------------------------------------


def first_divergence(fast, reference, path: str = "$") -> Optional[Tuple[str, str, str]]:
    """First ``(path, fast, reference)`` where the observations differ."""
    if isinstance(fast, dict) and isinstance(reference, dict):
        for key in sorted(set(fast) | set(reference), key=str):
            if key not in fast:
                return (f"{path}.{key}", "<missing>", repr(reference[key]))
            if key not in reference:
                return (f"{path}.{key}", repr(fast[key]), "<missing>")
            found = first_divergence(fast[key], reference[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(fast, (list, tuple)) and isinstance(reference, (list, tuple)):
        for index, (left, right) in enumerate(zip(fast, reference)):
            found = first_divergence(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        if len(fast) != len(reference):
            return (f"{path}.length", str(len(fast)), str(len(reference)))
        return None
    if type(fast) is not type(reference) or fast != reference:
        return (path, repr(fast), repr(reference))
    return None


@dataclasses.dataclass(frozen=True)
class Divergence:
    """One fast/reference disagreement, located to a record field."""

    pair: str
    seed: Optional[int]
    path: str
    fast: str
    reference: str

    def format(self) -> str:
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return (
            f"{self.pair}{seed}: diverged at {self.path}\n"
            f"  fast:      {self.fast}\n"
            f"  reference: {self.reference}"
        )


# -- the pairs --------------------------------------------------------------


def _tail_variants(program) -> Dict[str, object]:
    """Variants of ``program`` whose end faults or leaves the code segment.

    The generated programs end in ``halt``, never leave the segment nor
    call, and address memory inside their data regions; each variant
    replaces that ``halt``: with a ``nop`` (a fall-through past the
    end), with ``call`` into a ``jr ra`` tail that returns to a final
    ``halt``, with ``li``/``jr`` to that final ``halt``, one past it and
    -1, and with a load and a store at a negative address.
    """
    from ..isa import RA, build_program

    code = list(program.instructions)
    if not code or code[-1].opcode is not Opcode.HALT:
        return {}
    body = code[:-1]
    size = len(body) + 3
    target = 20  # no generated program writes it

    def variant(*tail):
        return build_program(body + list(tail), data=program.data, name=program.name)

    variants = {
        "fall-through": variant(Instruction(Opcode.NOP)),
        "call-return": variant(
            Instruction(Opcode.CALL, target=size - 1),
            Instruction(Opcode.HALT),
            Instruction(Opcode.JR, srcs=(RA,)),
        ),
    }
    for name, to in (("jr-last", size - 1), ("jr-past", size), ("jr-negative", -1)):
        variants[name] = variant(
            Instruction(Opcode.LI, dest=target, imm=to),
            Instruction(Opcode.JR, srcs=(target,)),
            Instruction(Opcode.HALT),
        )
    variants["load-fault"] = variant(
        Instruction(Opcode.LI, dest=target, imm=-3),
        Instruction(Opcode.LD, dest=target, srcs=(target,), imm=1),
        Instruction(Opcode.HALT),
    )
    variants["store-fault"] = variant(
        Instruction(Opcode.LI, dest=target, imm=-3),
        Instruction(Opcode.ST, srcs=(target, target), imm=1),
        Instruction(Opcode.HALT),
    )
    return variants


#: Records per batch of the small-batch runs and of
#: :func:`_small_batch_store`'s capture: small enough that every
#: generated run spans many batches.
_SMALL_CHUNK = 7


def _check_batch_vs_record(
    case: CheckCase, budget: int, small_chunk: int = _SMALL_CHUNK
):
    """The batches, in the default and in ``small_chunk``-record chunks,
    and the ``Executor.run`` adapter against the stepper: the case, the
    case cut one record short of and exactly at its length, and its tail
    variants."""
    inputs = list(case.inputs)
    reference = _observe_stepper(case.program, inputs, budget)
    length = len(reference["records"])
    runs = [("case", case.program, budget)]
    if reference["outcome"] == ("halt",):
        runs += [
            ("budget-short", case.program, length - 1),
            ("budget-exact", case.program, length),
        ]
    runs += [
        (name, program, budget)
        for name, program in _tail_variants(case.program).items()
    ]
    for name, program, run_budget in runs:
        expected = _observe_stepper(program, inputs, run_budget)
        sides = (
            ("batches", _observe_batches_raw(program, inputs, run_budget)),
            ("small-batches", _observe_batches_raw(
                program, inputs, run_budget, small_chunk
            )),
            ("records", _observe_adapter(program, inputs, run_budget)),
        )
        for side, observed in sides:
            found = first_divergence(observed, expected, f"${name}.{side}")
            if found is not None:
                return found
    return None


def _check_trace_replay(case: CheckCase, budget: int, directory=None):
    store = TraceStore(directory=directory)
    captured = _observe_records(
        record
        for batch in store.batches(case.program, case.inputs, budget)
        for record in batch.records()
    )
    replayed = _observe_records(
        record
        for batch in store.batches(case.program, case.inputs, budget)
        for record in batch.records()
    )
    fresh = _observe_run(case, budget)
    found = first_divergence(captured, fresh, "$capture")
    if found is not None:
        return found
    return first_divergence(replayed, fresh, "$replay")


def _check_trace_replay_memory(case: CheckCase, budget: int):
    return _check_trace_replay(case, budget)


def _check_trace_replay_disk(case: CheckCase, budget: int):
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        return _check_trace_replay(case, budget, directory=tmp)


def _check_annotate_digest(case: CheckCase, budget: int):
    directive_map = {
        address: Directive.STRIDE if address % 2 == 0 else Directive.LAST_VALUE
        for address in case.program.candidate_addresses
    }
    annotated = case.program.with_directives(directive_map)
    base_key = trace_key(case.program, list(case.inputs), budget)
    annotated_key = trace_key(annotated, list(case.inputs), budget)
    if annotated_key != base_key:
        return ("$trace_key", annotated_key, base_key)
    store = TraceStore()
    base_obs = _observe_records(
        record
        for batch in store.batches(case.program, case.inputs, budget)
        for record in batch.records()
    )
    replay_obs = _observe_records(
        record
        for batch in store.batches(annotated, case.inputs, budget)
        for record in batch.records()
    )
    fresh_obs = _observe_run(case, budget, program=annotated)
    found = first_divergence(replay_obs, fresh_obs, "$annotated_replay")
    if found is not None:
        return found
    return first_divergence(fresh_obs, base_obs, "$annotated_fresh")


def _drain_records(case: CheckCase, inputs: Sequence, budget: int) -> List:
    """Records retired before a clean halt *or* a legitimate fault."""
    executor = Executor(case.program, inputs=list(inputs), max_instructions=budget)
    records: List = []
    try:
        for record in executor.run():
            records.append(record)
    except ExecutionError:
        pass
    return records


def profile_records(
    program,
    records: Iterable,
    predictor=None,
    *,
    run_label: str = "",
    sample_every: int = 1,
    by_phase: bool = False,
):
    """Reference phase-2 profile: one ``predictor.access`` per record.

    The per-record definition that the batch consumers behind
    :func:`~repro.profiling.collect_profiles` and
    :func:`~repro.profiling.collect_phase_profiles` are differenced
    against.  ``records`` is any ``TraceRecord`` iterable — a live
    ``trace_program`` walk, a drained fault prefix, an address-filtered
    list.  Records whose 0-based position is not a multiple of
    ``sample_every`` are skipped before the candidate filter.  The
    default predictor is an unbounded stride predictor.  Group counts go
    through :meth:`~repro.profiling.ProfileImage.group_slot`, so every
    address keeps explicit slots: the reference never takes the homes
    that the collector's fold and the merge store.

    Returns one :class:`~repro.profiling.ProfileImage`, or with
    ``by_phase`` a phase -> image dict (labelled
    ``f"{run_label}#{phase}"``, in first-seen phase order).
    """
    from ..predictors import StridePredictor
    from ..profiling import ProfileImage

    predictor = predictor or StridePredictor()
    is_candidate = [
        instruction.is_prediction_candidate for instruction in program.instructions
    ]
    images: Dict[Optional[int], ProfileImage] = {}
    if not by_phase:
        images[None] = ProfileImage(program.name, run_label=run_label)
    for position, record in enumerate(records):
        if position % sample_every:
            continue
        address = record.address
        if not is_candidate[address]:
            continue
        phase = record.phase
        key = phase if by_phase else None
        image = images.get(key)
        if image is None:
            image = images[key] = ProfileImage(
                program.name, run_label=f"{run_label}#{phase}"
            )
        result = predictor.access(address, record.value)
        profile = image.profile_for(address)
        profile.executions += 1
        group = image.group_slot(program[address].category, phase, address)
        group[0] += 1
        if result.hit:
            profile.attempts += 1
            group[1] += 1
            if result.correct:
                profile.correct += 1
                group[2] += 1
                if result.nonzero_stride:
                    profile.nonzero_stride_correct += 1
    return images if by_phase else images[None]


def _reference_merge_obs(images, require_common: bool) -> Dict[str, object]:
    """Independent first-principles merge, as a canonical observation.

    Deliberately *not* a call into :func:`merge_profiles` — this is the
    reference model the production merge is differenced against, so a
    regression in merge.py itself (e.g. dropping the ``require_common``
    filter from group accumulation) diverges here.
    """
    keep = None
    if require_common:
        address_sets = [set(image.instructions) for image in images]
        keep = set.intersection(*address_sets) if address_sets else set()
    instructions: Dict[int, List[int]] = {}
    groups: Dict[str, List[int]] = {}
    for image in images:
        for address, profile in image.instructions.items():
            if keep is not None and address not in keep:
                continue
            slot = instructions.setdefault(address, [0, 0, 0, 0])
            slot[0] += profile.executions
            slot[1] += profile.attempts
            slot[2] += profile.correct
            slot[3] += profile.nonzero_stride_correct
        for (category, phase), members in image.group_detail.items():
            for address, counts in members.items():
                if keep is not None and address not in keep:
                    continue
                slot = groups.setdefault(f"{category.value}/{phase}/{address}", [0, 0, 0])
                slot[0] += counts[0]
                slot[1] += counts[1]
                slot[2] += counts[2]
    return {
        "instructions": {
            address: tuple(slot) for address, slot in sorted(instructions.items())
        },
        "groups": {name: tuple(slot) for name, slot in sorted(groups.items())},
    }


def _check_profile_io_merge(case: CheckCase, budget: int):
    # Three training images with genuinely different address sets (the
    # full run, the low half of a run on reversed inputs, the high half
    # of the full run), so the ``require_common`` intersection both
    # shrinks and has survivors: a regression in the fold's incremental
    # pruning or in the group filter cannot hide behind identical inputs.
    records_full = _drain_records(case, list(case.inputs), budget)
    addresses = sorted({record.address for record in records_full})
    cutoff = addresses[len(addresses) // 2] if addresses else 0
    records_low = [
        record
        for record in _drain_records(case, list(reversed(case.inputs)), budget)
        if record.address <= cutoff
    ]
    records_high = [record for record in records_full if record.address >= cutoff]
    images = [
        profile_records(case.program, records, run_label=f"train-{index}")
        for index, records in enumerate((records_full, records_low, records_high))
    ]
    reloaded = [loads_profile(dumps_profile(image)) for image in images]
    for require_common in (False, True):
        label = f"$merge[require_common={require_common}]"
        merged = merge_profiles(images, require_common=require_common)
        merged_obs = _observe_image(merged)
        found = first_divergence(
            {key: merged_obs[key] for key in ("instructions", "groups")},
            _reference_merge_obs(images, require_common),
            f"{label}.model",
        )
        if found is not None:
            return found
        backward = merge_profiles(images[::-1], require_common=require_common)
        found = first_divergence(
            _observe_image(backward), merged_obs, f"{label}.reversed"
        )
        if found is not None:
            return found
        if dumps_profile(backward) != dumps_profile(merged):
            return (f"{label}.reversed.dump_bytes", "<differs>", "<forward dump>")
        via_disk = merge_profiles(reloaded, require_common=require_common)
        found = first_divergence(_observe_image(via_disk), merged_obs, label)
        if found is not None:
            return found
        round_trip = loads_profile(dumps_profile(merged))
        found = first_divergence(
            _observe_image(round_trip), merged_obs, f"{label}.round_trip"
        )
        if found is not None:
            return found
    return None


def _observe_images(collect) -> Dict[str, object]:
    """``collect()``'s fault, or its key -> image dict in order, exactly."""
    try:
        images = collect()
    except ExecutionError as exc:
        return {"outcome": ("error", type(exc).__name__, str(exc))}
    return {
        "outcome": ("halt",),
        "keys": list(images),
        "images": {
            key: {"image": _observe_image(image), "dump": dumps_profile(image)}
            for key, image in images.items()
        },
    }


def _table_state(table) -> Dict[str, object]:
    """An unbounded stride table's entries (whose order no observer of a
    table that never evicts can see) and its meters."""
    return {
        "entries": sorted(
            (address, _canon_value(entry.last_value), _canon_value(entry.stride))
            for address, entry in table
        ),
        "meters": (table.lookups, table.hits),
    }


def _check_profile_inline(case: CheckCase, budget: int):
    """A fresh, unsampled run under the default stride predictor takes
    the in-closure route, and equals :func:`profile_records` over the
    records the run retired: the image when it halts, the table's
    entries and meters (the counts folded up to a fault) either way.
    Runs: the case, the case cut by a budget, and its tail variants."""
    from ..predictors import StridePredictor
    from ..profiling import collect_profiles
    from ..telemetry import Telemetry, use_registry
    from .stepper import Stepper

    runs = [("case", case.program, budget), ("overrun", case.program, 64)]
    runs += [
        (name, program, budget)
        for name, program in _tail_variants(case.program).items()
    ]
    for name, program, run_budget in runs:
        inputs = list(case.inputs)
        predictor = StridePredictor()
        registry = Telemetry()
        fast: Dict[str, object] = {"outcome": ("halt",)}
        try:
            with use_registry(registry):
                fast["image"] = _observe_image(
                    collect_profiles(
                        program, inputs, {"p": predictor}, run_label="train",
                        max_instructions=run_budget,
                    )["p"]
                )
        except ExecutionError as exc:
            fast["outcome"] = ("error", type(exc).__name__, str(exc))
        else:
            counters = registry.snapshot()["counters"]
            fast["route"] = counters.get("profiling.runs.inline", 0)
        fast["table"] = _table_state(predictor.table)

        records = []
        expected: Dict[str, object] = {"outcome": ("halt",)}
        try:
            records.extend(Stepper(program, inputs, run_budget).run())
        except ExecutionError as exc:
            expected["outcome"] = ("error", type(exc).__name__, str(exc))
        reference_predictor = StridePredictor()
        image = profile_records(program, records, reference_predictor, run_label="train")
        if expected["outcome"] == ("halt",):
            expected["image"] = _observe_image(image)
            expected["route"] = 1
        expected["table"] = _table_state(reference_predictor.table)
        found = first_divergence(fast, expected, f"$inline[{name}]")
        if found is not None:
            return found
    return None


def _check_profile_sampled(case: CheckCase, budget: int):
    # The sampling rule is defined over the *full* dynamic stream
    # (global record position modulo k, before the candidate filter).
    # For every k the batch consumers — the inlined stride consumer and
    # the generic ``access`` consumer, fed by a fresh capture and by a
    # replay of tiny batches — must equal the per-record reference over
    # a live record walk, down to dumped bytes; and with no
    # ``sample_every`` at all the image must be the k=1 reference.
    from ..machine import trace_program
    from ..predictors import LastValuePredictor, StridePredictor
    from ..profiling import collect_profiles

    def predictors():
        return {
            "stride": StridePredictor(),
            "finite": StridePredictor(entries=8, ways=2),
            "lv": LastValuePredictor(),
        }

    def reference(k):
        # Draining the walk first raises the run's fault, if any.
        records = list(
            trace_program(case.program, list(case.inputs), max_instructions=budget)
        )
        return {
            name: profile_records(
                case.program, records, predictor, run_label="train", sample_every=k
            )
            for name, predictor in predictors().items()
        }

    def batched(store, **sampling):
        return collect_profiles(
            case.program,
            list(case.inputs),
            predictors(),
            run_label="train",
            max_instructions=budget,
            store=store,
            **sampling,
        )

    found = _check_profile_inline(case, budget)
    if found is not None:
        return found
    small = _small_batch_store(case, budget)
    for k in (1, 2, 3, 7):
        expected = _observe_images(lambda: reference(k))
        sides = {
            "executor": lambda: batched(None, sample_every=k),
            "small-batches": lambda: batched(small, sample_every=k),
        }
        if k == 1:
            sides["unsampled"] = lambda: batched(None)
        for side, collect in sides.items():
            found = first_divergence(
                _observe_images(collect), expected, f"$sampled[k={k}].{side}"
            )
            if found is not None:
                return found
    return None


def _engine_grid(program):
    """A predictor/scheme grid covering every simulate code path.

    Infinite stride tables under unconditional, FSM, profile and probe
    schemes take the inlined consumer, and the static ones among them
    (always, profile, probe-always, probe-profile) fold from the FSM
    leader's slots; the profile one allocates its members only.  Roomy
    1024-entry 2-way stride tables, whose 512 sets hold every candidate
    of a generated program, cannot evict: the FSM one walks its own
    sets, the always and profile ones follow the leader.  Finite 8-entry
    set-associative stride tables evict, which must drop an evicted
    address's FSM counter.
    Last-value engines take the kernel with the stride held at 0
    (``finite-lv/profile`` is ablation-hybrid's shape); two-delta and
    hybrid engines fall back to ``step``.  Every third candidate stays
    untagged, so profile allocation filters and membership take policies
    have addresses to reject.
    """
    from ..core.schemes import (
        AlwaysClassification,
        HardwareClassification,
        ProbeScheme,
        ProfileClassification,
    )
    from ..core.simulate import PredictionEngine
    from ..predictors import (
        HybridPredictor,
        LastValuePredictor,
        StridePredictor,
        TwoDeltaStridePredictor,
    )

    directives = {
        address: Directive.STRIDE if address % 2 == 0 else Directive.LAST_VALUE
        for address in program.candidate_addresses
        if address % 3
    }

    def profile():
        return ProfileClassification.from_directives(directives)

    def finite():
        return StridePredictor(entries=8, ways=2)

    def roomy():
        return StridePredictor(entries=1024, ways=2)

    return {
        "stride/always": PredictionEngine(
            program, StridePredictor(), AlwaysClassification()
        ),
        "stride/fsm": PredictionEngine(
            program, StridePredictor(), HardwareClassification()
        ),
        "stride/profile": PredictionEngine(program, StridePredictor(), profile()),
        "stride/probe-always": PredictionEngine(
            program, StridePredictor(), ProbeScheme(AlwaysClassification())
        ),
        "stride/probe-profile": PredictionEngine(
            program, StridePredictor(), ProbeScheme(profile())
        ),
        "stride/probe-fsm": PredictionEngine(
            program, StridePredictor(), ProbeScheme(HardwareClassification())
        ),
        "roomy/always": PredictionEngine(program, roomy(), AlwaysClassification()),
        "roomy/fsm": PredictionEngine(program, roomy(), HardwareClassification()),
        "roomy/profile": PredictionEngine(program, roomy(), profile()),
        "finite/always": PredictionEngine(
            program, finite(), AlwaysClassification()
        ),
        "finite/fsm": PredictionEngine(
            program, finite(), HardwareClassification()
        ),
        "finite/profile": PredictionEngine(program, finite(), profile()),
        "lv/always": PredictionEngine(
            program, LastValuePredictor(), AlwaysClassification()
        ),
        "lv/fsm": PredictionEngine(
            program, LastValuePredictor(), HardwareClassification()
        ),
        "finite-lv/profile": PredictionEngine(
            program, LastValuePredictor(entries=8, ways=2), profile()
        ),
        "2d/always": PredictionEngine(
            program, TwoDeltaStridePredictor(), AlwaysClassification()
        ),
        "2d/fsm": PredictionEngine(
            program, TwoDeltaStridePredictor(), HardwareClassification()
        ),
        "hybrid/profile": PredictionEngine(program, HybridPredictor(), profile()),
        "hybrid/probe-fsm": PredictionEngine(
            program, HybridPredictor(), ProbeScheme(HardwareClassification())
        ),
    }


def _observe_engine(engine) -> Dict[str, object]:
    """Canonical engine end-state: stats, tables, entries, FSM counters.

    Entries are keyed by sorted address (a follower's within-set order
    is an internal detail the fold and step paths disagree on); values
    go through :func:`_canon_value` so a float-valued entry can never
    masquerade as its int twin.
    """
    from ..predictors.last_value import LastValueEntry
    from ..predictors.stride import StrideEntry
    from ..predictors.two_delta import TwoDeltaEntry

    def canon_entry(entry):
        if isinstance(entry, StrideEntry):
            return (
                "stride",
                _canon_value(entry.last_value),
                _canon_value(entry.stride),
            )
        if isinstance(entry, TwoDeltaEntry):
            return (
                "two-delta",
                _canon_value(entry.last_value),
                _canon_value(entry.candidate_stride),
                _canon_value(entry.committed_stride),
            )
        if isinstance(entry, LastValueEntry):
            return ("last-value", _canon_value(entry.last_value))
        return ("?", repr(entry))  # pragma: no cover - closed entry set

    tables = {}
    for index, table in enumerate(engine.predictor.tables()):
        tables[f"table{index}"] = {
            "meters": (table.lookups, table.hits, table.evictions),
            "entries": {
                address: canon_entry(entry)
                for address, entry in sorted(table)
            },
        }
    scheme = engine.scheme
    inner = getattr(scheme, "inner", scheme)
    counters = {}
    fsm = getattr(inner, "fsm", None)
    if fsm is not None:
        counters = {
            address: counter.value
            for address, counter in sorted(fsm._counters.items())
        }
    return {
        "stats": engine.stats.to_dict(),
        "tables": tables,
        "fsm": counters,
    }


def _simulate_observation(case: CheckCase, run) -> Dict[str, object]:
    """``run`` a fresh grid; its fault (if any) plus every engine's state."""
    engines = _engine_grid(case.program)
    outcome: Tuple[str, ...] = ("halt",)
    try:
        run(engines)
    except ExecutionError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return {
        "outcome": outcome,
        "engines": {
            label: _observe_engine(engine) for label, engine in engines.items()
        },
    }


def _check_simulate_fast(case: CheckCase, budget: int):
    from ..core.simulate import simulate_prediction_many
    from ..machine import trace_program

    program = case.program
    is_candidate = [
        instruction.is_prediction_candidate for instruction in program.instructions
    ]

    def by_step(engines):
        steps = [engine.step for engine in engines.values()]
        for record in trace_program(
            program, list(case.inputs), max_instructions=budget
        ):
            if is_candidate[record.address]:
                for step in steps:
                    step(record.address, record.value)

    reference = _simulate_observation(case, by_step)
    sides = (
        ("capture", None),
        ("small-batches", _small_batch_store(case, budget)),
    )
    for side, store in sides:
        fast = _simulate_observation(
            case,
            lambda engines: simulate_prediction_many(
                program, list(case.inputs), engines,
                max_instructions=budget, store=store,
            ),
        )
        found = first_divergence(fast, reference, f"$simulate.{side}")
        if found is not None:
            return found
    return None


def _ilp_grid(program):
    """The ILP pair's machines: the simulate grid plus two no-VP labels.

    Stride and last-value engines (infinite and finite) take the kernel;
    the two-delta and hybrid engines fall back to ``step``.
    """
    engines = dict(_engine_grid(program))
    engines["novp"] = None
    engines["novp-2"] = None
    return engines


#: The labels of :func:`_ilp_grid` that ride an ILP run as lane-less
#: observers, per split.  ``probes`` is the Section-5 grid's mix:
#: unbounded probe engines, the FSM one among them, observe beside
#: lanes with finite member-only tables and follow a lane's walk
#: (``stride/fsm`` leads).  In ``unbounded`` the infinite stride engines
#: and ``roomy/fsm`` observe, so an observer (``stride/fsm``) leads the
#: lanes whose finite tables cannot evict (``roomy/always`` and the
#: member-only ``roomy/profile``), and ``finite/*`` lanes that evict run
#: before it in the plan.
_OBSERVER_SPLITS = {
    "none": (),
    "probes": (
        "stride/probe-always", "stride/probe-profile", "stride/probe-fsm",
        "hybrid/probe-fsm",
    ),
    "unbounded": (
        "stride/always", "stride/fsm", "stride/profile", "stride/probe-always",
        "stride/probe-profile", "stride/probe-fsm", "roomy/fsm",
    ),
}


def _ilp_observation(measure, case: CheckCase, budget: int, config, configs, split):
    """One ILP run over a fresh grid, the ``split`` labels observing:
    the lanes' results (or the error) + every engine's state."""
    engines = _ilp_grid(case.program)
    observers = {label: engines.pop(label) for label in _OBSERVER_SPLITS[split]}
    outcome: Tuple[str, ...] = ("halt",)
    results = {}
    try:
        results = {
            label: result.to_dict()
            for label, result in measure(
                engines, observers, list(case.inputs), budget, config, configs
            ).items()
        }
    except ExecutionError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return {
        "outcome": outcome,
        "results": results,
        "engines": {
            label: _observe_engine(engine)
            for label, engine in {**engines, **observers}.items()
            if engine is not None
        },
    }


def _ilp_by_record(case: CheckCase):
    """Reference: one ``WindowScheduler.feed`` per record per label, and
    one ``step`` per candidate per observer."""
    from ..ilp.model import WindowScheduler
    from ..machine import trace_program

    is_candidate = case.program.candidate_mask

    def measure(engines, observers, inputs, budget, config, configs):
        schedulers = {
            label: WindowScheduler(
                case.program, engine=engine, config=configs.get(label, config)
            )
            for label, engine in engines.items()
        }
        steps = [engine.step for engine in observers.values()]
        for record in trace_program(case.program, inputs, max_instructions=budget):
            for scheduler in schedulers.values():
                scheduler.feed(record)
            if is_candidate[record.address]:
                for step in steps:
                    step(record.address, record.value)
        return {label: scheduler.result() for label, scheduler in schedulers.items()}

    return measure


def _ilp_by_batch(case: CheckCase, store=None):
    from ..ilp import measure_ilp_many

    def measure(engines, observers, inputs, budget, config, configs):
        return measure_ilp_many(
            case.program,
            inputs,
            engines,
            config=config,
            configs=configs,
            max_instructions=budget,
            store=store,
            observers=observers,
        )

    return measure


def _small_batch_store(case: CheckCase, budget: int) -> TraceStore:
    """A store holding the case's run captured in tiny batches.

    Replay yields the stored batches as captured, so consumers replaying
    from it see state carried across many batch boundaries.
    """
    store = TraceStore()
    try:
        for _batch in store.batches(
            case.program,
            list(case.inputs),
            max_instructions=budget,
            chunk_size=_SMALL_CHUNK,
        ):
            pass
    except ExecutionError:
        pass
    return store


def _check_ilp_batch_vs_record(case: CheckCase, budget: int):
    # Machines: the paper's default; a narrow, high-penalty machine that
    # ignores memory dependencies, with per-label overrides; and a budget
    # small enough that most runs overrun it and must fault identically.
    from ..ilp import IlpConfig

    custom = IlpConfig(
        window_size=3, misprediction_penalty=4, track_memory_dependencies=False
    )
    machines = (
        ("default", budget, None, {}, "none"),
        ("custom", budget, custom, {"novp": IlpConfig(window_size=1)}, "none"),
        ("overrun", 64, None, {}, "none"),
        ("probes", budget, None, {}, "probes"),
        ("unbounded", budget, custom, {}, "unbounded"),
    )
    for name, run_budget, config, configs, split in machines:
        reference = _ilp_observation(
            _ilp_by_record(case), case, run_budget, config, configs, split
        )
        store = TraceStore()
        sides = (
            ("capture", _ilp_by_batch(case)),
            ("store-capture", _ilp_by_batch(case, store)),
            ("store-replay", _ilp_by_batch(case, store)),
            (
                "small-batches",
                _ilp_by_batch(case, _small_batch_store(case, run_budget)),
            ),
        )
        for side, measure in sides:
            fast = _ilp_observation(
                measure, case, run_budget, config, configs, split
            )
            found = first_divergence(fast, reference, f"$ilp[{name}].{side}")
            if found is not None:
                return found
    return None


def _check_phase_profiles(case: CheckCase, budget: int):
    from ..machine import trace_program
    from ..profiling import collect_phase_profiles

    store = TraceStore()
    stores = {
        "capture": None,
        "store-capture": store,
        "store-replay": store,
        "small-batches": _small_batch_store(case, budget),
    }
    for k in (1, 3):
        reference = _observe_images(
            lambda: profile_records(
                case.program,
                trace_program(case.program, list(case.inputs), max_instructions=budget),
                run_label="test",
                sample_every=k,
                by_phase=True,
            )
        )
        for side, side_store in stores.items():
            fast = _observe_images(
                lambda: collect_phase_profiles(
                    case.program,
                    list(case.inputs),
                    run_label="test",
                    max_instructions=budget,
                    sample_every=k,
                    store=side_store,
                )
            )
            found = first_divergence(fast, reference, f"$phases[k={k}].{side}")
            if found is not None:
                return found
    return None


def _store_fingerprint(directory) -> Dict[str, str]:
    """Relative path -> content hash for every file under ``directory``."""
    import hashlib
    from pathlib import Path

    root = Path(directory)
    fingerprint = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        fingerprint[str(path.relative_to(root))] = digest
    return fingerprint


def _check_capture_shard(case: CheckCase, budget: int):
    from ..machine.sharding import capture_sharded

    input_sets = [
        list(case.inputs),
        list(reversed(case.inputs)),
        [value + 1 for value in case.inputs],
        list(case.inputs)[: max(1, len(case.inputs) // 2)],
    ]

    def observe(jobs: int) -> Dict[str, object]:
        with tempfile.TemporaryDirectory(prefix="repro-shard-") as tmp:
            report = capture_sharded(
                case.program,
                input_sets,
                directory=tmp,
                jobs=jobs,
                max_instructions=budget,
            )
            return {
                "store": _store_fingerprint(tmp),
                "shards": [
                    (result.key, result.records, result.error)
                    for result in report.results
                ],
            }

    return first_divergence(observe(jobs=2), observe(jobs=1), "$shard[jobs=2]")


_RUNNER_EXPERIMENT = "fig-4.2"


def _runner_outcome(jobs: int) -> str:
    from ..experiments.context import ExperimentContext
    from ..runner import build_experiment_graph
    from ..runner.executor import execute_graph

    context = ExperimentContext(scale=0.02, training_runs=2)
    graph = build_experiment_graph([_RUNNER_EXPERIMENT], context)
    outcome = execute_graph(graph, context, jobs=jobs)
    return outcome.tables[_RUNNER_EXPERIMENT].to_tsv()


def _check_runner_parallel(case: None, budget: int):
    return first_divergence(
        {"table": _runner_outcome(jobs=2)},
        {"table": _runner_outcome(jobs=1)},
        "$runner[jobs=2]",
    )


def _check_classify_determinism(case: None, budget: int):
    from ..classify import (
        build_dataset,
        dataset_rows,
        dumps_model,
        loads_model,
        train_model,
    )
    from ..workloads.corpus import DEFAULT_MIX, generate_corpus

    workloads = generate_corpus(1997, 6, DEFAULT_MIX)
    rows = dataset_rows(build_dataset(workloads, training_runs=2, scale=0.1))
    reference = dumps_model(train_model(rows, seed=1997))
    reordered = dumps_model(train_model(list(reversed(rows)), seed=1997))
    if reordered != reference:
        return ("$classify.row_order", "<differs>", "<canonical model bytes>")
    round_trip = dumps_model(loads_model(reference))
    if round_trip != reference:
        return ("$classify.round_trip", "<differs>", "<original model bytes>")
    return None


@dataclasses.dataclass(frozen=True)
class OraclePair:
    """One fast/reference equivalence the oracle exercises."""

    name: str
    description: str
    uses_program: bool
    check: Callable[[Optional[CheckCase], int], Optional[Tuple[str, str, str]]]


_PAIRS: Tuple[OraclePair, ...] = (
    OraclePair(
        "batch-vs-record",
        "run_batches columns and the run() adapter vs the independent Stepper",
        True, _check_batch_vs_record,
    ),
    OraclePair(
        "trace-replay-memory",
        "TraceStore replay (in-memory LRU) vs fresh capture",
        True, _check_trace_replay_memory,
    ),
    OraclePair(
        "trace-replay-disk",
        "TraceStore replay (directory-backed) vs fresh capture",
        True, _check_trace_replay_disk,
    ),
    OraclePair(
        "annotate-digest",
        "annotated binary: same trace key, same execution as the base",
        True, _check_annotate_digest,
    ),
    OraclePair(
        "profile-io-merge",
        "merge (any order, via save->load) vs a reference sum",
        True, _check_profile_io_merge,
    ),
    OraclePair(
        "profile-sampled",
        "sampled batch consumers (stride, finite, last-value) vs profile_records",
        True, _check_profile_sampled,
    ),
    OraclePair(
        "simulate-fast-vs-step",
        "stride kernel (stride, last-value, FSM) and shared fold vs step",
        True, _check_simulate_fast,
    ),
    OraclePair(
        "ilp-batch-vs-record",
        "batch ILP scheduler (capture and replay) vs WindowScheduler.feed",
        True, _check_ilp_batch_vs_record,
    ),
    OraclePair(
        "phase-profiles-batch-vs-record",
        "phase-split profiles over batch columns vs profile_records(by_phase)",
        True, _check_phase_profiles,
    ),
    OraclePair(
        "capture-shard-vs-serial",
        "sharded multi-process capture vs a serial capture of the same sets",
        True, _check_capture_shard,
    ),
    OraclePair(
        "runner-parallel",
        "experiment engine at jobs=2 vs a serial walk",
        False, _check_runner_parallel,
    ),
    OraclePair(
        "classify-train-determinism",
        "model trained on reversed row order vs canonical, byte-for-byte",
        False, _check_classify_determinism,
    ),
)


def all_pairs() -> Tuple[OraclePair, ...]:
    """Every registered fast/reference pair, in run order."""
    return _PAIRS


# -- minimization -----------------------------------------------------------


def _case_with(case: CheckCase, code, inputs) -> CheckCase:
    from ..isa import build_program

    program = case.program
    return CheckCase(
        seed=case.seed,
        program=build_program(
            code, data=dict(program.data), name=f"{program.name}-min"
        ),
        inputs=tuple(inputs),
    )


def minimize_case(
    case: CheckCase,
    still_diverges: Callable[[CheckCase], bool],
) -> CheckCase:
    """Shrink ``case`` while the pair still diverges.

    NOP substitution keeps addresses (and therefore branch targets)
    stable, so any subset of instructions can be blanked without
    re-validating control flow; spans shrink from coarse to single
    instructions, then the input stream is truncated from the tail.
    """
    code = list(case.program.instructions)
    inputs = list(case.inputs)
    nop = Instruction(Opcode.NOP)

    span = max(1, len(code) // 4)
    while span >= 1:
        index = 0
        while index < len(code):
            stop = min(index + span, len(code))
            if any(code[i].opcode is not Opcode.NOP for i in range(index, stop)):
                trial = list(code)
                trial[index:stop] = [nop] * (stop - index)
                try:
                    diverges = still_diverges(_case_with(case, trial, inputs))
                except Exception:
                    diverges = False
                if diverges:
                    code = trial
            index = stop
        span //= 2

    while inputs:
        trial = inputs[:-1]
        try:
            diverges = still_diverges(_case_with(case, code, trial))
        except Exception:
            diverges = False
        if not diverges:
            break
        inputs = trial

    return _case_with(case, code, inputs)


def render_reproducer(case: CheckCase, divergence: Divergence) -> str:
    """Self-contained text artifact: the divergence plus the program."""
    lines = [
        f"# repro check reproducer: pair {divergence.pair}",
        f"# seed: {case.seed}",
        f"# diverged at: {divergence.path}",
        f"# fast:      {divergence.fast}",
        f"# reference: {divergence.reference}",
        f"# inputs: {list(case.inputs)!r}",
        f"# data: {dict(case.program.data)!r}",
        "",
        disassemble(case.program),
    ]
    return "\n".join(lines)


# -- the driver -------------------------------------------------------------


@dataclasses.dataclass
class PairResult:
    """Outcome of running one pair over the generated cases."""

    pair: OraclePair
    cases: int = 0
    divergence: Optional[Divergence] = None
    reproducer: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.divergence is None


@dataclasses.dataclass
class OracleReport:
    """Everything one oracle run produced."""

    results: List[PairResult]
    seeds: Tuple[int, ...]
    budget: int

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> List[PairResult]:
        return [result for result in self.results if not result.passed]

    def format_text(self) -> str:
        lines = []
        for result in self.results:
            status = "ok" if result.passed else "DIVERGED"
            suffix = f"{result.cases} cases" if result.pair.uses_program else "1 run"
            lines.append(f"  {result.pair.name:<30} {status:<8} ({suffix})")
            if result.divergence is not None:
                lines.append("    " + result.divergence.format().replace("\n", "\n    "))
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"oracle: {verdict} — {len(self.results)} pairs, "
            f"{len(self.seeds)} seeds, budget {self.budget}"
        )
        return "\n".join(lines)


def run_oracle(
    seeds: Iterable[int] = range(1, 13),
    budget: int = DEFAULT_BUDGET,
    pairs: Optional[Sequence[str]] = None,
    minimize: bool = True,
) -> OracleReport:
    """Run every (selected) pair; stop each pair at its first divergence."""
    seeds = tuple(seeds)
    selected = [
        pair for pair in _PAIRS if pairs is None or pair.name in pairs
    ]
    unknown = set(pairs or ()) - {pair.name for pair in _PAIRS}
    if unknown:
        raise ValueError(f"unknown oracle pairs: {sorted(unknown)}")
    cases = [generate_case(seed) for seed in seeds]
    results = []
    for pair in selected:
        result = PairResult(pair=pair)
        if not pair.uses_program:
            result.cases = 1
            found = pair.check(None, budget)
            if found is not None:
                path, fast, reference = found
                result.divergence = Divergence(pair.name, None, path, fast, reference)
        else:
            for case in cases:
                result.cases += 1
                found = pair.check(case, budget)
                if found is None:
                    continue
                if minimize:
                    case = minimize_case(
                        case,
                        lambda trial: pair.check(trial, budget) is not None,
                    )
                    found = pair.check(case, budget) or found
                path, fast, reference = found
                result.divergence = Divergence(
                    pair.name, case.seed, path, fast, reference
                )
                result.reproducer = render_reproducer(case, result.divergence)
                break
        results.append(result)
    return OracleReport(results=results, seeds=seeds, budget=budget)


__all__ = [
    "DEFAULT_BUDGET",
    "Divergence",
    "OraclePair",
    "OracleReport",
    "PairResult",
    "all_pairs",
    "first_divergence",
    "minimize_case",
    "render_reproducer",
    "run_oracle",
]
