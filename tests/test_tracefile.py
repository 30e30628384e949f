"""Tests for the text trace export (``save_trace`` / ``write_trace``).

Nothing in the package reads text traces back, so these tests parse
the exported lines themselves and hold them against a live
``trace_program`` walk.
"""

from __future__ import annotations

import gzip
import io

import pytest

from repro.check import profile_records
from repro.machine import (
    InstructionBudgetExceeded,
    TraceRecord,
    TraceStore,
    save_trace,
    trace_program,
    write_trace,
)
from repro.profiling import collect_profile, dumps_profile
from repro.workloads import get_workload


def _parse_value(text):
    if text == "-":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_lines(lines):
    """The exported body lines as ``TraceRecord`` objects."""
    assert lines[0] == "# repro-trace v1"
    assert lines[1].startswith("# program: ")
    records = []
    for line in lines[2:]:
        address, value, phase, mem_address = line.split()
        records.append(
            TraceRecord(
                int(address), _parse_value(value), int(phase), _parse_value(mem_address)
            )
        )
    return records


def as_tuples(records):
    return [
        (record.address, record.value, record.phase, record.mem_address)
        for record in records
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    workload = get_workload("129.compress")
    program = workload.compile()
    inputs = workload.input_set(0, scale=0.03)
    path = tmp_path_factory.mktemp("traces") / "run.trace"
    count = save_trace(program, path, inputs=inputs)
    return workload, program, inputs, path, count


class TestRoundTrip:
    def test_record_count_matches_live_run(self, traced):
        _workload, program, inputs, path, count = traced
        live = sum(1 for _ in trace_program(program, inputs))
        assert count == live
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == f"# program: {program.name}"
        assert len(lines) == live + 2

    def test_records_identical_to_live(self, traced):
        _workload, program, inputs, path, _count = traced
        stored = parse_lines(path.read_text(encoding="utf-8").splitlines())
        assert as_tuples(stored) == as_tuples(trace_program(program, inputs))

    def test_float_values_replay_exactly(self, tmp_path):
        workload = get_workload("107.mgrid")
        program = workload.compile()
        inputs = workload.input_set(0, scale=0.03)
        path = tmp_path / "fp.trace"
        save_trace(program, path, inputs=inputs)
        live = list(trace_program(program, inputs))
        assert any(isinstance(record.value, float) for record in live)
        lines = path.read_text(encoding="utf-8").splitlines()
        # Floats are written with ``repr``: exact, and never an int twin.
        assert [line.split()[1] for line in lines[2:]] == [
            "-" if record.value is None else repr(record.value) for record in live
        ]
        assert [r.value for r in parse_lines(lines)] == [r.value for r in live]

    def test_gzip_variant(self, tmp_path):
        workload = get_workload("129.compress")
        program = workload.compile()
        inputs = workload.input_set(1, scale=0.03)
        plain = tmp_path / "t.trace"
        packed = tmp_path / "t.trace.gz"
        save_trace(program, plain, inputs=inputs)
        save_trace(program, packed, inputs=inputs)
        assert packed.stat().st_size < plain.stat().st_size
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()


class TestOfflineProfiling:
    def test_profile_from_trace_matches_live_profile(self, traced):
        _workload, program, inputs, path, _count = traced
        live = collect_profile(program, inputs, run_label="r")
        offline = profile_records(
            program,
            parse_lines(path.read_text(encoding="utf-8").splitlines()),
            run_label="r",
        )
        assert dumps_profile(offline) == dumps_profile(live)


class TestWriters:
    def test_store_replay_writes_the_same_lines(self, traced):
        _workload, program, inputs, path, _count = traced
        store = TraceStore()
        for _batch in store.batches(program, inputs, chunk_size=7):
            pass
        buffer = io.StringIO()
        write_trace(store.batches(program, inputs), buffer, program.name)
        assert buffer.getvalue() == path.read_text(encoding="utf-8")

    def test_fault_leaves_no_file(self, tmp_path):
        program = get_workload("129.compress").compile()
        path = tmp_path / "part.trace"
        with pytest.raises(InstructionBudgetExceeded):
            save_trace(program, path, inputs=[1, 2, 3], max_instructions=20)
        assert list(tmp_path.iterdir()) == []
