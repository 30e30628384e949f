"""Differential tests for the batch value columns and the candidate walk.

A batch stores the prediction candidates' values in ``values`` and the
other producers' (``call``, ``in``, ``fin``) in ``others``; the trace
store packs each column as ``array('i')``, ``array('q')``,
``array('d')`` or a tagged form (``tests/test_tracestore.py`` holds the
typecode edges).  Every test here holds the column walk against a
per-record reference:

* ``TraceBatch.candidates()`` — the candidate walk every batch consumer
  shares — must equal ``TraceBatch.records()`` filtered by candidate
  flag and sampled global position, for live, captured, memory-replayed
  and disk-replayed batches of every packing kind, values compared by
  type as well as by value (``3.0`` is not ``3``, ``-0.0`` is not
  ``0.0``);
* the oracle pairs, in-process, on a hand-written program that has
  every awkward case at once: ``call``/``in``/``fin`` records, floats,
  integers beyond int64, a phase segment without candidates and a fault
  in the middle of a batch;
* ``simulate_prediction_many`` over seeded random programs, against
  ``PredictionEngine.step`` (the ``simulate-fast-vs-step`` pair).
"""

from __future__ import annotations

import math
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generator import CheckCase, generate_case
from repro.check.oracle import (
    _check_batch_vs_record,
    _check_ilp_batch_vs_record,
    _check_phase_profiles,
    _check_profile_sampled,
    _check_simulate_fast,
    _check_trace_replay_disk,
    _check_trace_replay_memory,
)
from repro.isa import assemble
from repro.machine import (
    DivisionByZero,
    ExecutionError,
    MachineTables,
    TraceBatch,
    TraceStore,
    machine_tables,
    trace_batches,
    trace_key,
)
from repro.machine.batch import DEFAULT_CHUNK
from repro.telemetry import Telemetry, use_registry

#: Every awkward value and record kind in one run: ``in``/``fin``/``call``
#: values (not candidates), ``3`` beside ``3.0``, ``-0.0``, a product
#: that leaves int64, a phase-1 segment holding no candidate (``phase``
#: and ``nop`` produce nothing), and a division by zero that faults in
#: the middle of the run's only default-sized batch.
AWKWARD_ASM = """
.text
    in r1
    fin r2
    li r3, 3
    fli r4, 3.0
    fli r5, 0.0
    fneg r6, r5
    li r7, 0
loop:
    call fn
    phase 1
    nop
    phase 2
    mul r1, r1, r1
    fadd r2, r2, r4
    addi r7, r7, 1
    slti r8, r7, 6
    bnez r8, loop
    li r9, 0
    div r10, r3, r9
    halt
fn:
    addi r11, r11, 1
    jr ra
"""

AWKWARD_INPUTS = (1_000_003, 1.5)

BUDGET = 5_000


def _same_value(left, right) -> bool:
    """Exact identity: type-aware, sign-of-zero-aware, NaN-tolerant."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left):
            return math.isnan(right)
        return math.copysign(1.0, left) == math.copysign(1.0, right) and left == right
    return left == right


def _kind(packed) -> str:
    return packed.typecode if type(packed) is array else "x"


def _drain(batches):
    """The batches of a run, up to and without its fault."""
    kept = []
    try:
        for batch in batches:
            kept.append(batch)
    except ExecutionError:
        pass  # a faulting run still yields its prefix batches first
    return kept


def _walk(batches, k):
    """``candidates(k, offset)`` over a run, as (address, value, phase)."""
    found = []
    offset = 0
    for batch in batches:
        pairs, runs = batch.candidates(k, offset)
        _check_run_shape(runs, len(pairs))
        assert list(pairs) == list(pairs)  # the view re-iterates
        found.extend(
            (address, value, phase)
            for (address, value), phase in zip(pairs, _pair_phases(runs, len(pairs)))
        )
        offset += len(batch)
    return found


def _reference(batches, k):
    """``records()`` filtered by candidate flag and global position."""
    expected = []
    offset = 0
    for batch in batches:
        is_candidate = batch.candidate_flags
        expected.extend(
            (record.address, record.value, record.phase)
            for position, record in enumerate(batch.records(), offset)
            if is_candidate[record.address] and position % k == 0
        )
        offset += len(batch)
    return expected


def _records(batches):
    return [(r.address, r.value, r.phase) for b in batches for r in b.records()]


def _assert_same_walk(found, expected):
    assert len(found) == len(expected)
    for (address, value, phase), (e_address, e_value, e_phase) in zip(found, expected):
        assert (address, phase) == (e_address, e_phase)
        assert _same_value(value, e_value), (address, value, e_value)


def _pair_phases(runs, count):
    """Expand ``(pair index, phase)`` runs into one phase per pair."""
    phases = []
    for index, (start, phase) in enumerate(runs):
        end = runs[index + 1][0] if index + 1 < len(runs) else count
        phases.extend([phase] * (end - start))
    return phases


def _check_run_shape(runs, count):
    starts = [start for start, _ in runs]
    assert starts == sorted(set(starts))
    assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
    assert (starts[:1] == [0]) if count else runs == []
    assert all(start < count for start in starts)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_batch_records_reproduce_produced_values(seed):
    """records() must interleave ``values`` and ``others`` by the flags:
    each column is consumed exactly, and in order."""
    case = generate_case(seed)
    batches = trace_batches(case.program, case.inputs, max_instructions=BUDGET)
    for batch in _drain(batches):
        rebuilt = {"values": [], "others": []}
        for record in batch.records():
            if batch.candidate_flags[record.address]:
                rebuilt["values"].append(record.value)
            elif batch.value_flags[record.address]:
                rebuilt["others"].append(record.value)
            else:
                assert record.value is None
        for name, column in rebuilt.items():
            stored = list(getattr(batch, name))
            assert len(column) == len(stored)
            assert all(_same_value(a, b) for a, b in zip(column, stored))


@pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_batch_candidates_match_filtered_records(chunk, seed):
    """candidates() == records() filtered by candidate flag and global
    position, with the offset carried across batches."""
    case = generate_case(seed)
    batches = _drain(
        trace_batches(
            case.program, case.inputs, max_instructions=BUDGET, chunk_size=chunk
        )
    )
    for k in (1, 2, 3, 7):
        _assert_same_walk(_walk(batches, k), _reference(batches, k))


def _awkward_sources(tmp_path, chunk):
    """The awkward run's batches from every source, and the packed trace."""
    program = assemble(AWKWARD_ASM)
    inputs = list(AWKWARD_INPUTS)
    store = TraceStore(tmp_path)
    sources = {
        "live": _drain(
            trace_batches(program, inputs, max_instructions=BUDGET, chunk_size=chunk)
        ),
        "capture": _drain(store.batches(program, inputs, BUDGET, chunk_size=chunk)),
        "memory": _drain(store.batches(program, inputs, BUDGET)),
        "disk": _drain(TraceStore(tmp_path).batches(program, inputs, BUDGET)),
    }
    return sources, store.fetch(program, inputs, BUDGET)


def test_awkward_run_walks_match_records_from_every_source(tmp_path):
    kinds = set()
    for chunk in (1, 7, DEFAULT_CHUNK):
        sources, packed = _awkward_sources(tmp_path / str(chunk), chunk)
        kinds.update(_kind(column) for batch in packed.batches for column in batch[1:3])
        live = sources["live"]
        reference = _records(live)
        for name, batches in sources.items():
            _assert_same_walk(_records(batches), reference)
            for k in (1, 2, 3, 7):
                _assert_same_walk(_walk(batches, k), _reference(live, k))
    # Replay handed over every packing kind: int32 (the one-value batches
    # of small ints), int64, all-float and tagged.
    assert kinds == {"i", "q", "d", "x"}


def test_awkward_run_has_every_awkward_case():
    """The fixture really holds what the walk tests rely on."""
    program = assemble(AWKWARD_ASM)
    batches = _drain(trace_batches(program, AWKWARD_INPUTS, max_instructions=BUDGET))
    with pytest.raises(DivisionByZero):
        list(trace_batches(program, AWKWARD_INPUTS, max_instructions=BUDGET))
    (batch,) = batches  # the fault ends the first, partial batch
    assert 0 < len(batch) < DEFAULT_CHUNK
    others = list(batch.others)
    assert {type(value) for value in others} == {int, float}
    assert len(others) == 2 + 6  # in, fin, and one call per iteration
    values = list(batch.values)
    assert any(type(v) is int and v == 3 for v in values)
    assert any(type(v) is float and v == 3.0 for v in values)
    assert any(_same_value(v, -0.0) for v in values)
    assert any(type(v) is int and v > (1 << 63) for v in values)
    # Some phase-1 segment is non-empty but holds no candidate.
    pairs, runs = batch.candidates()
    assert [phase for _, phase in runs] == [0, 2]
    segments = [(s, e) for s, e, phase in batch.phase_segments() if phase == 1]
    assert segments and not any(
        batch.candidate_flags[a] for s, e in segments for a in batch.addresses[s:e]
    )


@pytest.mark.parametrize(
    "check",
    [
        _check_batch_vs_record,
        _check_trace_replay_memory,
        _check_trace_replay_disk,
        _check_profile_sampled,
        _check_phase_profiles,
        _check_simulate_fast,
        _check_ilp_batch_vs_record,
    ],
)
def test_awkward_run_passes_the_oracle_pairs(check):
    case = CheckCase(seed=0, program=assemble(AWKWARD_ASM), inputs=AWKWARD_INPUTS)
    assert check(case, BUDGET) is None


def test_version_1_trace_file_is_a_miss(tmp_path):
    """A file of the old packed format is dropped and captured again."""
    program = assemble(AWKWARD_ASM)
    inputs = list(AWKWARD_INPUTS)
    key = trace_key(program, inputs, BUDGET)
    path = tmp_path / key[:2] / f"{key}.trace"
    path.parent.mkdir(parents=True)
    path.write_bytes(b'# repro-trace-pack v1\n{"batches":[]}\n')
    registry = Telemetry()
    with use_registry(registry):
        replayed = _drain(TraceStore(tmp_path).batches(program, inputs, BUDGET))
    assert registry.snapshot()["counters"]["machine.trace.captures"] == 1
    assert path.read_bytes().startswith(b"# repro-trace-pack v3\n")
    live = _drain(trace_batches(program, inputs, max_instructions=BUDGET))
    _assert_same_walk(_walk(replayed, 1), _walk(live, 1))


def test_batch_candidates_keep_escaped_values_and_phases():
    """Floats and bigints come back as themselves, across phase runs; a
    sampled walk ranks positions by the candidate flags."""
    produced = [1 << 70, 3.0, -(1 << 65), 7, 2.5]
    batch = TraceBatch(
        addresses=array("q", [0, 1, 2, 0, 1, 2, 0]),
        values=produced,
        others=[10, 11],
        phase_runs=[(0, 0), (2, 4), (3, 4), (4, 9), (5, 0)],
        mems=[],
        tables=MachineTables(bytes(3), bytes([1, 1, 1]), bytes([1, 0, 1])),
    )
    pairs, runs = batch.candidates()
    assert len(pairs) == len(produced)
    assert pairs.values is produced  # the unsampled view copies no value
    assert all(
        _same_value(value, original) for (_, value), original in zip(pairs, produced)
    )
    assert [address for address, _ in pairs] == [0, 2, 0, 2, 0]
    assert runs == [(0, 0), (1, 4), (3, 0)]
    assert list(pairs[1:3]) == [(2, 3.0), (0, -(1 << 65))]
    merged = [1 << 70, 10, 3.0, -(1 << 65), 11, 7, 2.5]
    assert [record.value for record in batch.records()] == merged
    pairs, runs = batch.candidates(sample_every=3, offset=1)
    assert list(pairs) == [(2, 3.0), (2, 7)] and type(list(pairs)[0][1]) is float
    assert runs == [(0, 4), (1, 0)]


def test_batch_candidates_walk_the_callers_address_list():
    """A caller's converted address list is walked, not converted again."""

    class Counted(array):
        conversions = 0

        def tolist(self):
            self.conversions += 1
            return super().tolist()

    batch = TraceBatch(
        addresses=Counted("q", [0, 1, 2, 0, 1, 2]),
        values=[5, 6, 7, 8],
        others=[],
        phase_runs=[(0, 0), (3, 1)],
        mems=[],
        tables=MachineTables(bytes([1, 0, 1]), bytes([1, 0, 1]), bytes(3)),
    )
    expected = batch.candidates()
    assert batch.addresses.conversions == 1
    given = batch.addresses.tolist()
    assert batch.addresses.conversions == 2
    pairs, runs = batch.candidates(addresses=given)
    assert batch.addresses.conversions == 2
    assert (list(pairs), runs) == (list(expected[0]), expected[1])


def test_machine_tables_are_built_once_per_program():
    program = assemble(AWKWARD_ASM)
    tables = machine_tables(program)
    assert machine_tables(program) is tables
    assert tables.candidate_flags == bytes(program.candidate_mask)
    batch = next(trace_batches(program, AWKWARD_INPUTS))
    assert batch.candidate_flags is tables.candidate_flags
    # A copy of the program (as sent to a worker process) leaves the memo
    # behind and rebuilds an equal one.
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program and machine_tables(clone) == tables


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_matches_step_on_random_programs(seed):
    """The oracle pair, in-process, on a generated case."""
    assert _check_simulate_fast(generate_case(seed), 5_000) is None
