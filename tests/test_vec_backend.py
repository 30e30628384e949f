"""Property tests for the packed value sidecar and the simulate path over it.

Three layers, matching how a value travels through the analysis stack:

* :class:`~repro.machine.ValueColumn` — packing a produced-value stream
  must round-trip exactly, floats staying floats (``3.0`` never collapses
  into ``3``) and bigints surviving beyond the int64 envelope.
* ``TraceBatch.records()`` — the per-record adapter over packed columns
  must reproduce the value stream the executor produced.
* ``simulate_prediction_many`` — over seeded random programs, the
  inlined batch consumers and the shared fold must publish the same
  statistics, table contents and classifier states as
  ``PredictionEngine.step`` (the in-process mirror of the
  ``simulate-fast-vs-step`` oracle pair).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generator import generate_case
from repro.check.oracle import _check_simulate_fast
from repro.machine import ExecutionError, ValueColumn, trace_batches

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


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_matches_step_on_random_programs(seed):
    """The oracle pair, in-process, on a generated case."""
    assert _check_simulate_fast(generate_case(seed), 5_000) is None
