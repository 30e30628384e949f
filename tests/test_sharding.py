"""Sharded multi-process capture against serial capture."""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.check.generator import generate_case
from repro.machine import capture_sharded, parallel_runs, sharding


def _fingerprint(directory: Path):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_sharded_store_is_byte_identical_to_serial(tmp_path):
    case = generate_case(42)
    input_sets = [
        list(case.inputs),
        list(reversed(case.inputs)),
        [value + 1 for value in case.inputs],
    ]
    serial_dir = tmp_path / "serial"
    sharded_dir = tmp_path / "sharded"
    serial = capture_sharded(
        case.program, input_sets, directory=serial_dir, jobs=1,
        max_instructions=5_000,
    )
    sharded = capture_sharded(
        case.program, input_sets, directory=sharded_dir, jobs=2,
        max_instructions=5_000,
    )
    assert _fingerprint(serial_dir) == _fingerprint(sharded_dir)
    assert [
        (result.key, result.records, result.error) for result in serial.results
    ] == [
        (result.key, result.records, result.error) for result in sharded.results
    ]
    assert sharded.jobs == 2 and serial.jobs == 1


def test_capture_sharded_is_idempotent(tmp_path):
    case = generate_case(43)
    first = capture_sharded(
        case.program, [list(case.inputs)], directory=tmp_path, jobs=1,
        max_instructions=5_000,
    )
    before = _fingerprint(tmp_path)
    second = capture_sharded(
        case.program, [list(case.inputs)], directory=tmp_path, jobs=1,
        max_instructions=5_000,
    )
    assert _fingerprint(tmp_path) == before
    assert first.results[0].records == second.results[0].records


def test_parallel_runs_match_serial_outcomes():
    cases = []
    for seed in (1, 2, 3, 4):
        case = generate_case(seed)
        cases.append((case.program, list(case.inputs)))
    serial = parallel_runs(cases, jobs=1, max_instructions=5_000)
    parallel = parallel_runs(cases, jobs=2, max_instructions=5_000)
    assert serial == parallel
    assert len(serial) == len(cases)


class _BreakingPool:
    """A stand-in pool that delivers one result, then breaks."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, function, payloads):
        yield function(payloads[0])
        raise BrokenProcessPool("worker died")


def test_broken_pool_degrades_to_in_process(tmp_path, monkeypatch):
    case = generate_case(44)
    input_sets = [list(case.inputs), [value + 1 for value in case.inputs]]
    cases = [(case.program, inputs) for inputs in input_sets]
    serial_dir = tmp_path / "serial"
    serial = capture_sharded(
        case.program, input_sets, directory=serial_dir, jobs=1,
        max_instructions=5_000,
    )
    serial_runs = parallel_runs(cases, jobs=1, max_instructions=5_000)
    monkeypatch.setattr(sharding, "ProcessPoolExecutor", _BreakingPool)
    broken_dir = tmp_path / "broken"
    broken = capture_sharded(
        case.program, input_sets, directory=broken_dir, jobs=2,
        max_instructions=5_000,
    )
    assert _fingerprint(broken_dir) == _fingerprint(serial_dir)
    assert broken.results == serial.results
    assert parallel_runs(cases, jobs=2, max_instructions=5_000) == serial_runs
