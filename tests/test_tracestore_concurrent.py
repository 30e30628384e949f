"""Concurrent-writer and crash-safety tests for the shared TraceStore.

The service daemon shares one on-disk store across tenants and worker
threads, and parallel experiment workers share it across processes.
These tests pin the publish contract: content-keyed write-to-temp +
atomic rename, duplicate publishes idempotent, and no torn or corrupt
entry ever observable as a hit.
"""

from __future__ import annotations

import multiprocessing

from repro.isa import assemble, disassemble
from repro.lang import compile_source
from repro.machine import TraceStore
from repro.machine.executor import DEFAULT_BUDGET
from repro.machine.tracestore import PackedTrace, trace_key

#: Prepended to a committed entry; no trace codec accepts it.
CORRUPTION_PREFIX = b"\x00corrupted\n"

SOURCE = """
int t[8];
void main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 8; i = i + 1) {
        t[i] = in() * 2;
        total = total + t[i];
    }
    out(total);
}
"""

INPUTS = [1, 2, 3, 4, 5, 6, 7, 8]


def build_program():
    return compile_source(SOURCE, name="demo")


def consume(store: TraceStore, program) -> list:
    """Drain one trace through the store; returns the flat record list."""
    records = []
    for batch in store.batches(program, INPUTS):
        records.extend(batch.records())
    return records


def committed_files(directory) -> list:
    return sorted(directory.glob("*/*.trace"))


def _capture_in_child(assembly: str, store_dir: str, barrier, queue) -> None:
    """One concurrent writer: capture the demo trace into the shared store."""
    program = assemble(assembly, name="demo")
    store = TraceStore(store_dir)
    barrier.wait(timeout=30)  # line both writers up on the same race
    records = consume(store, program)
    queue.put(len(records))


class TestConcurrentWriters:
    def test_two_processes_same_digest_race_free(self, tmp_path):
        program = build_program()
        assembly = disassemble(program)
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        queue = context.Queue()
        writers = [
            context.Process(
                target=_capture_in_child,
                args=(assembly, str(tmp_path), barrier, queue),
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        counts = [queue.get(timeout=120) for _ in writers]
        for writer in writers:
            writer.join(timeout=30)
            assert writer.exitcode == 0
        # Both writers saw the full trace...
        assert counts[0] == counts[1] > 0
        # ...and raced to exactly one committed entry, which decodes.
        files = committed_files(tmp_path)
        assert len(files) == 1
        packed = PackedTrace.from_bytes(files[0].read_bytes())
        assert packed.records == counts[0]
        assert packed.halted
        # No temp residue from the losing writer's publish.
        assert not list(tmp_path.glob("**/.trace-*.tmp"))
        # A fresh store replays the committed entry identically.
        replayed = consume(TraceStore(tmp_path), program)
        fresh = consume(TraceStore(None), program)
        assert replayed == fresh

    def test_duplicate_publish_is_idempotent(self, tmp_path):
        program = build_program()
        first_store = TraceStore(tmp_path)
        baseline = consume(first_store, program)
        (path,) = committed_files(tmp_path)
        stat = path.stat()
        blob = path.read_bytes()
        # A second writer that never saw the first entry captures and
        # publishes the same key: the existing entry must be left alone.
        second_store = TraceStore(tmp_path)
        key = trace_key(program, INPUTS, DEFAULT_BUDGET)
        duplicate = []
        for batch in second_store._capture_batches(
            key, program, list(INPUTS), DEFAULT_BUDGET, 4096
        ):
            duplicate.extend(batch.records())
        assert duplicate == baseline
        assert committed_files(tmp_path) == [path]
        assert path.read_bytes() == blob
        assert path.stat().st_mtime_ns == stat.st_mtime_ns

    def test_partial_write_crash_leaves_no_committed_entry(self, tmp_path):
        program = build_program()
        store = TraceStore(tmp_path)
        consume(store, program)
        (path,) = committed_files(tmp_path)
        # Crash model A: the writer died before the rename — only a temp
        # file exists.  The committed namespace is untouched; the stray
        # temp never shadows a key.
        committed = path.read_bytes()
        stray = path.parent / ".trace-dead-writer.tmp"
        stray.write_bytes(committed[: len(committed) // 2])
        fresh = TraceStore(tmp_path)
        assert fresh.fetch(program, INPUTS) is not None
        assert committed_files(tmp_path) == [path]
        # Crash model B: the committed entry itself is truncated (torn
        # by a crashed non-atomic writer).  A reader treats it as a miss,
        # drops it, and the next capture rewrites a good entry.
        path.write_bytes(committed[: len(committed) // 2])
        torn_reader = TraceStore(tmp_path)
        assert torn_reader.fetch(program, INPUTS) is None
        assert not path.exists(), "torn entry must be dropped, not served"
        recovered = consume(torn_reader, program)
        assert recovered == consume(TraceStore(None), program)
        assert PackedTrace.from_bytes(path.read_bytes()).records == len(recovered)

    def test_fault_injected_corruption_is_a_miss(self, tmp_path):
        # A committed entry with a prefix no codec accepts is a miss, and
        # the next capture rewrites a good entry in its place.
        program = build_program()
        store = TraceStore(tmp_path)
        baseline = consume(store, program)
        (path,) = committed_files(tmp_path)
        good = path.read_bytes()
        path.write_bytes(CORRUPTION_PREFIX + good)
        reader = TraceStore(tmp_path)
        assert reader.fetch(program, INPUTS) is None
        assert consume(reader, program) == baseline
        assert path.read_bytes() == good

    def test_threaded_readers_share_one_lru(self, tmp_path):
        import threading

        program = build_program()
        store = TraceStore(tmp_path)
        baseline = consume(store, program)
        results = []
        errors = []

        def reader():
            try:
                results.append(consume(store, program))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 8
        assert all(result == baseline for result in results)
