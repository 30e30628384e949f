"""Property tests for the packed value sidecar and the simulate path over it.

Three layers, matching how a value travels through the analysis stack:

* :class:`~repro.machine.ValueColumn` — packing a produced-value stream
  must round-trip exactly, floats staying floats (``3.0`` never collapses
  into ``3``) and bigints surviving beyond the int64 envelope.
* ``TraceBatch.records()`` — the per-record adapter over packed columns
  must reproduce the value stream the executor produced, and
  ``TraceBatch.candidates()`` — the candidate walk every batch consumer
  shares — must equal those records filtered by candidate flag and
  sampled global position.
* ``simulate_prediction_many`` — over seeded random programs, the
  inlined batch consumers and the shared fold must publish the same
  statistics, table contents and classifier states as
  ``PredictionEngine.step`` (the in-process mirror of the
  ``simulate-fast-vs-step`` oracle pair).
"""

from __future__ import annotations

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generator import generate_case
from repro.check.oracle import _check_simulate_fast
from repro.machine import ExecutionError, TraceBatch, ValueColumn, trace_batches
from repro.machine.batch import DEFAULT_CHUNK

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Produced values as the executor hands them over: mostly small ints,
#: with floats and the occasional bigint mixed in.
_VALUES = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX),
    st.integers(min_value=_INT64_MAX + 1, max_value=1 << 80),
    st.integers(min_value=-(1 << 80), max_value=_INT64_MIN - 1),
    st.floats(allow_nan=False),
    st.just(3.0),  # the canonical int-masquerade float
)


def _same_value(left, right) -> bool:
    """Exact identity: type-aware, NaN-tolerant."""
    if isinstance(left, float) != isinstance(right, float):
        return False
    if isinstance(left, float) and math.isnan(left):
        return isinstance(right, float) and math.isnan(right)
    return left == right


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, max_size=64))
def test_value_column_round_trips(values):
    column = ValueColumn.from_values(values)
    assert len(column) == len(values)
    assert all(
        _same_value(packed, original)
        for packed, original in zip(column.tolist(), values)
    )
    assert all(
        _same_value(column[position], original)
        for position, original in enumerate(values)
    )
    assert all(
        _same_value(packed, original)
        for packed, original in zip(column, values)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, max_size=64))
def test_value_column_escapes_exactly_the_unpackable(values):
    column = ValueColumn.from_values(values)
    for position, value in enumerate(values):
        packable = (
            isinstance(value, int)
            and not isinstance(value, bool)
            and _INT64_MIN <= value <= _INT64_MAX
        )
        assert (position in column.escapes) == (not packable)
    assert column.is_pure_int == (not column.escapes)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_batch_records_reproduce_produced_values(seed):
    """records() must re-interleave packed values with the None slots."""
    case = generate_case(seed)
    produced = []
    rebuilt = []
    try:
        for batch in trace_batches(
            case.program, case.inputs, max_instructions=5_000
        ):
            flags = batch.value_flags
            produced.extend(batch.values.tolist())
            rebuilt.extend(
                record.value
                for record in batch.records()
                if flags[record.address]
            )
    except ExecutionError:
        pass  # a faulting program still yields its prefix batches first
    assert len(produced) == len(rebuilt)
    assert all(_same_value(a, b) for a, b in zip(produced, rebuilt))


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


@pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_batch_candidates_match_filtered_records(chunk, seed):
    """candidates() == records() filtered by candidate flag and global
    position, with the offset carried across batches."""
    case = generate_case(seed)
    is_candidate = [
        instruction.is_prediction_candidate
        for instruction in case.program.instructions
    ]
    for k in (1, 2, 3, 7):
        found = []
        expected = []
        offset = 0
        try:
            for batch in trace_batches(
                case.program, case.inputs, max_instructions=5_000, chunk_size=chunk
            ):
                pairs, runs = batch.candidates(is_candidate, k, offset)
                _check_run_shape(runs, len(pairs))
                found.extend(
                    (address, value, phase)
                    for (address, value), phase in zip(
                        pairs, _pair_phases(runs, len(pairs))
                    )
                )
                expected.extend(
                    (record.address, record.value, record.phase)
                    for position, record in enumerate(batch.records(), offset)
                    if is_candidate[record.address] and position % k == 0
                )
                offset += len(batch)
        except ExecutionError:
            pass  # a faulting program still yields its prefix batches first
        assert len(found) == len(expected)
        for (address, value, phase), (e_address, e_value, e_phase) in zip(
            found, expected
        ):
            assert (address, phase) == (e_address, e_phase)
            assert _same_value(value, e_value)


def test_batch_candidates_keep_escaped_values_and_phases():
    """Floats and bigints come back as themselves, across phase runs."""
    produced = [1 << 70, 3.0, -(1 << 65), 7, 2.5]
    batch = TraceBatch(
        addresses=array("q", [0, 1, 2, 0, 1, 2, 0]),
        values=ValueColumn.from_values(produced),
        value_flags=bytes([1, 0, 1]),
        phase_runs=[(0, 0), (2, 4), (3, 4), (4, 9), (5, 0)],
        mems=[],
        mem_flags=bytes(3),
    )
    pairs, runs = batch.candidates([True, False, True])
    assert len(pairs) == len(produced)
    assert all(
        _same_value(value, original)
        for (_, value), original in zip(pairs, produced)
    )
    assert [address for address, _ in pairs] == [0, 2, 0, 2, 0]
    assert runs == [(0, 0), (1, 4), (3, 0)]
    pairs, runs = batch.candidates([True, False, True], sample_every=3, offset=1)
    assert pairs == [(2, 3.0), (2, 7)] and type(pairs[0][1]) is float
    assert runs == [(0, 4), (1, 0)]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_matches_step_on_random_programs(seed):
    """The oracle pair, in-process, on a generated case."""
    assert _check_simulate_fast(generate_case(seed), 5_000) is None
