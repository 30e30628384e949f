"""Differential tests for the trace store and the batched fast paths.

The contract under test: every way of obtaining a trace — record-by-record
execution, columnar batches, capture into a :class:`TraceStore`, replay
from memory, replay from disk — yields the *same* record stream, and every
batched consumer (profiler, prediction simulator, shared probe groups)
produces results bit-identical to the record-at-a-time reference path.
"""

from __future__ import annotations

import json
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schemes import (
    AlwaysClassification,
    HardwareClassification,
    ProbeScheme,
    ProfileClassification,
)
from repro.core.simulate import PredictionEngine, simulate_prediction_many
from repro.isa import Directive, assemble
from repro.machine import (
    DivisionByZero,
    InstructionBudgetExceeded,
    PackedTrace,
    TraceStore,
    inputs_digest,
    program_digest,
    run_program,
    trace_key,
    trace_program,
)
from repro.machine.executor import address_typecode
from repro.machine.tracestore import _MEM_CODES, _pack, _unpack
from repro.telemetry import Telemetry, use_registry
from repro.predictors import LastValuePredictor, StridePredictor
from repro.profiling import collect_profiles
from repro.workloads import get_workload
from tests.test_vec_backend import _kind, _same_value

LOOP_ASM = """
.text
    li r1, 0
    li r2, 40
    in r4
loop:
    addi r1, r1, 1
    add r3, r1, r4
    mul r5, r3, r3
    st r5, gp, 8
    ld r6, gp, 8
    slt r7, r1, r2
    bnez r7, loop
    out r5
    halt
"""

FLOAT_ASM = """
.text
    fli r1, 1.5
    fin r2
    fli r4, 0.5
    li r5, 0
    li r6, 12
loop:
    fmul r3, r1, r2
    fadd r1, r3, r4
    addi r5, r5, 1
    slt r7, r5, r6
    bnez r7, loop
    out r1
    halt
"""

BIGINT_ASM = """
.text
    li r1, 1000003
    li r2, 0
    li r3, 6
loop:
    mul r1, r1, r1
    addi r2, r2, 1
    slt r4, r2, r3
    bnez r4, loop
    out r2
    halt
"""

DIVZERO_ASM = """
.text
    li r1, 10
    li r2, 2
    div r3, r1, r2
    li r2, 0
    div r3, r1, r2
    halt
"""


def records_of(batches):
    return [record for batch in batches for record in batch.records()]


def as_tuples(records):
    return [(r.address, r.value, r.phase, r.mem_address) for r in records]


class TestDigests:
    def test_directives_do_not_change_the_key(self):
        """Annotated binaries replay the base program's trace: the machine
        never reads directives, so they are excluded from the digest."""
        program = assemble(LOOP_ASM)
        address = sorted(program.candidate_addresses)[0]
        annotated = program.with_directives({address: Directive.STRIDE})
        assert annotated.directives() != program.directives()
        assert program_digest(annotated) == program_digest(program)
        assert trace_key(annotated, [3], 1000) == trace_key(program, [3], 1000)

    def test_distinct_executions_get_distinct_keys(self):
        program = assemble(LOOP_ASM)
        other = assemble(FLOAT_ASM)
        base = trace_key(program, [3], 1000)
        assert trace_key(program, [4], 1000) != base
        assert trace_key(program, [3], 999) != base
        assert trace_key(program, [3], None) != base
        assert trace_key(other, [3], 1000) != base

    def test_inputs_digest_is_type_exact(self):
        # 1 and 1.0 execute differently through cvt/fp ops; the digest
        # must not conflate them the way hash(1) == hash(1.0) would.
        assert inputs_digest([1]) != inputs_digest([1.0])


class TestCaptureReplayDifferential:
    def test_capture_memory_replay_and_disk_replay_are_identical(self, tmp_path):
        program = assemble(LOOP_ASM)
        fresh = as_tuples(trace_program(program, inputs=[3]))

        store = TraceStore(tmp_path)
        captured = as_tuples(records_of(store.batches(program, [3])))
        replayed = as_tuples(records_of(store.batches(program, [3])))
        # A brand-new store over the same directory must replay from disk.
        disk = as_tuples(records_of(TraceStore(tmp_path).batches(program, [3])))

        assert captured == fresh
        assert replayed == fresh
        assert disk == fresh

    def test_float_and_bigint_values_round_trip(self):
        for asm in (FLOAT_ASM, BIGINT_ASM):
            program = assemble(asm)
            inputs = [2.25] if asm is FLOAT_ASM else []
            fresh = as_tuples(trace_program(program, inputs=inputs))
            store = TraceStore(None)
            list(store.batches(program, inputs))
            replayed = as_tuples(records_of(store.batches(program, inputs)))
            assert replayed == fresh
            # Types too: 2.0 must come back float, not int.
            for (_, value, _, _), (_, fresh_value, _, _) in zip(replayed, fresh):
                assert type(value) is type(fresh_value)

    def test_integers_past_the_decimal_digit_limit_reach_disk(self, tmp_path):
        """Eleven squarings give an integer of ~12,000 decimal digits, more
        than ``int``'s default decimal conversion limit of 4,300."""
        program = assemble(BIGINT_ASM.replace("li r3, 6", "li r3, 11"))
        fresh = as_tuples(trace_program(program))
        assert max(abs(value) for _, value, _, _ in fresh if value) > 10**5000
        captured = as_tuples(records_of(TraceStore(tmp_path).batches(program, [])))
        disk = as_tuples(records_of(TraceStore(tmp_path).batches(program, [])))
        assert captured == fresh
        assert disk == fresh

    def test_stored_summary_matches_fresh_execution(self):
        """Outputs, instruction counts and telemetry agree with a fresh run."""
        program = assemble(LOOP_ASM)
        fresh = run_program(program, inputs=[3])

        registry = Telemetry()
        store = TraceStore(None)
        with use_registry(registry):
            list(store.batches(program, [3]))   # capture: real execution
            list(store.batches(program, [3]))   # replay: no execution
        packed = store.fetch(program, [3])
        assert packed.outputs == fresh.outputs
        assert packed.instruction_count == fresh.instruction_count
        assert packed.halted is fresh.halted

        counters = registry.snapshot()["counters"]
        assert counters["machine.instructions"] == fresh.instruction_count
        assert counters["machine.trace.captured_records"] == fresh.instruction_count
        assert counters["machine.trace.replayed_records"] == fresh.instruction_count
        assert counters["machine.trace.captures"] == 1
        assert counters["machine.trace.replays"] == 1

    def test_packed_trace_bytes_round_trip(self, tmp_path):
        program = assemble(FLOAT_ASM)
        store = TraceStore(None)
        list(store.batches(program, [2.25]))
        packed = store.fetch(program, [2.25])
        assert packed is not None
        clone = PackedTrace.from_bytes(packed.to_bytes())
        assert as_tuples(records_of(clone.replay(program))) == as_tuples(
            records_of(packed.replay(program))
        )


class TestErrorReplay:
    @pytest.mark.parametrize(
        "asm, inputs, budget, error_type",
        [
            (LOOP_ASM, [3], 50, InstructionBudgetExceeded),
            (DIVZERO_ASM, [], None, DivisionByZero),
        ],
    )
    def test_errored_traces_replay_prefix_and_error(
        self, asm, inputs, budget, error_type
    ):
        program = assemble(asm)

        def drain(batches):
            produced = []
            with pytest.raises(error_type) as excinfo:
                for batch in batches:
                    produced.extend(batch.records())
            return as_tuples(produced), str(excinfo.value)

        fresh_records, fresh_message = drain(
            trace_batches_via_executor(program, inputs, budget)
        )
        store = TraceStore(None)
        captured_records, captured_message = drain(
            store.batches(program, inputs, max_instructions=budget)
        )
        replayed_records, replayed_message = drain(
            store.batches(program, inputs, max_instructions=budget)
        )

        assert captured_records == fresh_records
        assert replayed_records == fresh_records
        assert captured_message == fresh_message
        assert replayed_message == fresh_message

    def test_abandoned_capture_commits_nothing(self):
        program = assemble(LOOP_ASM)
        store = TraceStore(None)
        batches = store.batches(program, [3], chunk_size=16)
        next(batches)
        batches.close()
        assert store.fetch(program, [3]) is None
        # The next request re-executes and, completing cleanly, commits.
        complete = as_tuples(records_of(store.batches(program, [3], chunk_size=16)))
        assert store.fetch(program, [3]) is not None
        assert complete == as_tuples(trace_program(program, inputs=[3]))


def trace_batches_via_executor(program, inputs, budget):
    from repro.machine import Executor

    return Executor(program, inputs=inputs, max_instructions=budget).run_batches()


class TestStoreEviction:
    def test_memory_lru_evicts_oldest(self):
        program = assemble(LOOP_ASM)
        store = TraceStore(None, max_entries=2)
        for value in (1, 2, 3):
            list(store.batches(program, [value]))
        assert store.fetch(program, [1]) is None
        assert store.fetch(program, [2]) is not None
        assert store.fetch(program, [3]) is not None

    def test_disk_backing_survives_memory_eviction(self, tmp_path):
        program = assemble(LOOP_ASM)
        store = TraceStore(tmp_path, max_entries=1)
        fresh = as_tuples(trace_program(program, inputs=[1]))
        list(store.batches(program, [1]))
        list(store.batches(program, [2]))  # evicts [1] from memory
        replayed = as_tuples(records_of(store.batches(program, [1])))
        assert replayed == fresh


def classification_grid(program, annotated):
    """The Figure 5.1-shaped engine grid: FSM probe + static thresholds."""
    engines = {
        "always": PredictionEngine(
            program, predictor=StridePredictor(), scheme=AlwaysClassification()
        ),
        "fsm": PredictionEngine(
            program,
            predictor=StridePredictor(),
            scheme=ProbeScheme(HardwareClassification()),
        ),
    }
    for label in ("p1", "p2"):
        engines[label] = PredictionEngine(
            program,
            predictor=StridePredictor(),
            scheme=ProbeScheme(ProfileClassification(annotated)),
        )
    return engines


def stats_fingerprint(stats):
    totals = (
        stats.executions,
        stats.attempts,
        stats.would_correct,
        stats.taken,
        stats.taken_correct,
        stats.allocations,
        stats.evictions,
    )
    per_address = {
        address: (
            entry.executions,
            entry.attempts,
            entry.would_correct,
            entry.taken,
            entry.taken_correct,
            entry.allocations,
        )
        for address, entry in stats.per_address.items()
    }
    return totals, per_address


def count_calls(monkeypatch, name):
    """Wrap ``repro.core.simulate.<name>``; return the list of non-None results."""
    import repro.core.simulate as simulate

    original = getattr(simulate, name)
    built = []

    def wrapper(*args):
        result = original(*args)
        if result is not None:
            built.append(result)
        return result

    monkeypatch.setattr(simulate, name, wrapper)
    return built


class TestBatchedConsumerDifferential:
    def setup_method(self):
        self.program = assemble(LOOP_ASM)
        address = sorted(self.program.candidate_addresses)[0]
        self.annotated = self.program.with_directives({address: Directive.STRIDE})

    def run_grid(self, monkeypatch=None, shared=True):
        if monkeypatch is not None:
            import repro.core.simulate as simulate

            monkeypatch.setattr(simulate, "_fast_stride_consumer", lambda engine: None)
        engines = classification_grid(self.program, self.annotated)
        if shared:
            results = simulate_prediction_many(self.program, [3], engines)
        else:
            results = {
                label: simulate_prediction_many(self.program, [3], {label: engine})[
                    label
                ]
                for label, engine in engines.items()
            }
        return {label: stats_fingerprint(stats) for label, stats in results.items()}

    def test_fast_path_matches_step_path(self, monkeypatch):
        with monkeypatch.context() as patch:
            inlined = count_calls(patch, "_fast_stride_consumer")
            fast = self.run_grid()
        # Every engine of the grid is eligible; without this the
        # comparison could silently pit the step path against itself.
        assert len(inlined) == 4
        with monkeypatch.context() as patch:
            slow = self.run_grid(monkeypatch=patch)
        assert fast == slow

    def test_shared_probe_group_matches_independent_runs(self, monkeypatch):
        with monkeypatch.context() as patch:
            followers = count_calls(patch, "_follower_finisher")
            shared = self.run_grid(shared=True)
        # "always", "p1" and "p2" fold from the FSM probe's accumulators.
        assert len(followers) == 3
        assert shared == self.run_grid(shared=False)

    def test_profiler_fast_path_matches_record_path(self, monkeypatch):
        import repro.profiling.collector as collector

        def profiles():
            return collect_profiles(
                self.program,
                [3],
                predictors={"S": StridePredictor(), "L": LastValuePredictor()},
            )

        walked = []
        kernel = collector.walk_take_all

        def counting_kernel(*args, **kwargs):
            walked.append(args[0])
            return kernel(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(collector, "walk_take_all", counting_kernel)
            fast = profiles()
        # Without this the comparison could pit the access path against itself.
        assert walked

        def access_only(predictor):
            rows = {}
            return rows, None, None, collector._generic_profiler(predictor, rows)

        monkeypatch.setattr(collector, "_profiler", access_only)
        slow = profiles()
        for name in fast:
            fast_instructions = fast[name].instructions
            slow_instructions = slow[name].instructions
            assert set(fast_instructions) == set(slow_instructions)
            for address, entry in fast_instructions.items():
                other = slow_instructions[address]
                assert (
                    entry.executions,
                    entry.attempts,
                    entry.correct,
                    entry.nonzero_stride_correct,
                ) == (
                    other.executions,
                    other.attempts,
                    other.correct,
                    other.nonzero_stride_correct,
                )

    def test_simulation_through_store_matches_direct_execution(self):
        store = TraceStore(None)
        engines_direct = classification_grid(self.program, self.annotated)
        engines_stored = classification_grid(self.program, self.annotated)
        direct = simulate_prediction_many(self.program, [3], engines_direct)
        # Capture pass, then a replay pass — both must match direct.
        simulate_prediction_many(
            self.program, [3], classification_grid(self.program, self.annotated),
            store=store,
        )
        stored = simulate_prediction_many(
            self.program, [3], engines_stored, store=store
        )
        assert {label: stats_fingerprint(s) for label, s in direct.items()} == {
            label: stats_fingerprint(s) for label, s in stored.items()
        }


def _rewrite_header(path, mutate):
    """Replace a stored trace's JSON header line with ``mutate(header)``."""
    blob = path.read_bytes()
    magic_end = blob.index(b"\n") + 1
    header_end = blob.index(b"\n", magic_end)
    header = mutate(json.loads(blob[magic_end:header_end]))
    path.write_bytes(
        blob[:magic_end] + json.dumps(header).encode() + blob[header_end:]
    )


def _set_first_batch(field, value):
    def mutate(header):
        header["batches"][0][field] = value
        return header

    return mutate


class TestMalformedHeader:
    """A stored trace whose header is valid JSON of the wrong shape is a
    corrupt entry: decoding raises ``ValueError``, the store drops the
    file and captures the run again."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda header: [1, 2],
            lambda header: {**header, "batches": 5},
            _set_first_batch("n", "x"),
            lambda header: {**header, "error": 5},
        ],
        ids=["list-header", "batches-not-a-list", "n-not-an-int", "error-not-a-pair"],
    )
    def test_wrong_shape_header_is_a_miss(self, tmp_path, mutate):
        program = assemble(LOOP_ASM)
        fresh = as_tuples(trace_program(program, inputs=[3]))
        list(TraceStore(tmp_path).batches(program, [3]))
        (path,) = tmp_path.glob("*/*.trace")
        _rewrite_header(path, mutate)
        registry = Telemetry()
        with use_registry(registry):
            again = as_tuples(records_of(TraceStore(tmp_path).batches(program, [3])))
        assert again == fresh
        assert registry.snapshot()["counters"]["machine.trace.captures"] == 1
        # The capture rewrote a well-formed entry in place of the bad one.
        assert PackedTrace.from_bytes(path.read_bytes()).records == len(fresh)



#: Integers at every typecode edge: int32, int64 and past int64.
INT_EDGES = [
    0,
    -1,
    (1 << 31) - 1,
    1 << 31,
    -(1 << 31),
    -(1 << 31) - 1,
    (1 << 63) - 1,
    1 << 63,
    -(1 << 63),
    -(1 << 63) - 1,
    -(1 << 100),
]
FLOAT_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 3.0, 5e-324]
MEM_EDGES = [0, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63]

ints = st.one_of(st.sampled_from(INT_EDGES), st.integers())
floats = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats())
value_columns = st.one_of(
    st.lists(st.integers(-(1 << 31), (1 << 31) - 1), max_size=20),
    st.lists(ints, max_size=20),
    st.lists(floats, max_size=20),
    st.lists(st.one_of(ints, floats), max_size=20),
    # Tagged columns whose int section needs 'q'.
    st.lists(st.one_of(st.sampled_from(INT_EDGES[3:9]), floats), max_size=20),
)
mem_columns = st.lists(
    st.one_of(st.sampled_from(MEM_EDGES), st.integers(min_value=0)), max_size=20
)


def holds(code):
    """The integers an array of typecode ``code`` holds."""
    bits = 8 * array(code).itemsize
    if code.isupper():
        return range(1 << bits)
    return range(-(1 << (bits - 1)), 1 << (bits - 1))


def expected_kind(values, codes=("i", "q")):
    """The kind ``_pack(values, codes)`` must give, found by a range scan."""
    if all(type(value) is int for value in values):
        return next(
            (code for code in codes if all(value in holds(code) for value in values)),
            "x",
        )
    if all(type(value) is float for value in values):
        return "d"
    return "x"


def assert_same_column(column, values):
    column = list(column)
    assert len(column) == len(values)
    assert all(_same_value(a, b) for a, b in zip(column, values)), (column, values)


def buffers(packed):
    """The buffers of a packed column: an array, or a tagged form's
    tags, ints and floats."""
    return [packed] if type(packed) is array else list(packed[:3])


class TestNarrowTypecodes:
    """Every stored column is held in its narrowest exact typecode and
    comes back from memory and from disk exactly."""

    @settings(max_examples=150, deadline=None)
    @given(values=value_columns, mems=mem_columns)
    def test_columns_round_trip_in_their_narrowest_typecode(self, values, mems):
        packed = _pack(values)
        assert _kind(packed) == expected_kind(values)
        if _kind(packed) == "x":
            int64s = [v for v in values if type(v) is int and v in holds("q")]
            assert packed[1].typecode == expected_kind(int64s)
        packed_mems = _pack(mems, _MEM_CODES)
        assert _kind(packed_mems) == expected_kind(mems, ("I", "q"))
        addresses = array("H", range(len(values) + 1))
        trace = PackedTrace(
            [(addresses, packed, _pack(values[::-1]), [(0, 0)], packed_mems)],
            len(addresses),
            len(addresses),
            [],
            True,
            None,
        )
        disk = PackedTrace.from_bytes(trace.to_bytes())
        for stored in (trace, disk):
            (batch,) = stored.batches
            assert batch[0] == addresses and batch[0].typecode == "H"
            assert_same_column(_unpack(batch[1]), values)
            assert_same_column(_unpack(batch[2]), values[::-1])
            assert_same_column(_unpack(batch[4]), mems)
            assert [_kind(batch[i]) for i in (1, 2, 4)] == [
                _kind(column) for column in (packed, trace.batches[0][2], packed_mems)
            ]
            if _kind(batch[1]) == "x":
                assert batch[1][1].typecode == packed[1].typecode

    def test_empty_columns_round_trip(self):
        empty = _pack([])
        assert _kind(empty) == "i" and len(empty) == 0
        trace = PackedTrace(
            [(array("B"), empty, _pack([]), [(0, 0)], _pack([], _MEM_CODES))],
            0,
            0,
            [],
            True,
            None,
        )
        (batch,) = PackedTrace.from_bytes(trace.to_bytes()).batches
        assert [len(batch[i]) for i in (0, 1, 2, 4)] == [0, 0, 0, 0]
        assert [_kind(batch[i]) for i in (0, 1, 2, 4)] == ["B", "i", "i", "I"]

    def test_address_typecode_is_the_narrowest_for_the_program_size(self):
        assert [address_typecode(n) for n in (1, 256, 257, 65_536, 65_537)] == [
            "B", "B", "H", "H", "I",
        ]
        batch = next(trace_batches_via_executor(assemble(LOOP_ASM), [3], None))
        assert batch.addresses.typecode == "B"

    def test_a_program_past_65536_instructions_keeps_every_address(self, tmp_path):
        size = 66_000
        program = assemble(
            ".text\n    li r1, 0\n"
            + "    addi r1, r1, 1\n" * size
            + "    out r1\n    halt\n"
        )
        expected = list(range(size + 3))
        live = list(trace_batches_via_executor(program, [], None))
        captured = list(TraceStore(tmp_path).batches(program, []))
        store = TraceStore(tmp_path)  # empty memory: a disk replay
        disk = list(store.batches(program, []))
        memory = list(store.batches(program, []))
        for batches in (live, captured, disk, memory):
            assert {batch.addresses.typecode for batch in batches} == {"I"}
            assert [a for batch in batches for a in batch.addresses] == expected
        assert store.fetch(program, []).outputs == [size]

    @pytest.mark.parametrize("square", [False, True], ids=["2**32", "2**64"])
    def test_effective_addresses_past_32_bits_round_trip(self, tmp_path, square):
        asm = (
            ".text\n    li r1, 4294967296\n"
            + ("    mul r1, r1, r1\n" if square else "")
            + "    st r1, r1, 0\n    ld r2, r1, 0\n    out r2\n    halt\n"
        )
        program = assemble(asm)
        fresh = as_tuples(trace_program(program))
        captured = as_tuples(records_of(TraceStore(tmp_path).batches(program, [])))
        disk = as_tuples(records_of(TraceStore(tmp_path).batches(program, [])))
        assert captured == fresh and disk == fresh
        (batch,) = TraceStore(tmp_path).fetch(program, []).batches
        assert _kind(batch[4]) == ("x" if square else "q")


def _set_version(blob):
    return blob.replace(b"# repro-trace-pack v3\n", b"# repro-trace-pack v2\n", 1)


def _set_addresses(field, value):
    def mutate(blob):
        magic_end = blob.index(b"\n") + 1
        header_end = blob.index(b"\n", magic_end)
        header = json.loads(blob[magic_end:header_end])
        header["batches"][0]["addresses"][field] = value
        return blob[:magic_end] + json.dumps(header).encode() + blob[header_end:]

    return mutate


class TestFormatV3:
    """A file of the older format, with an unknown typecode or with an
    item size this platform does not share, is a miss."""

    @pytest.mark.parametrize(
        "mutate",
        [_set_version, _set_addresses("k", "f"), _set_addresses("w", 8)],
        ids=["version-2", "unknown-typecode", "item-size-mismatch"],
    )
    def test_unreadable_file_is_a_miss(self, tmp_path, mutate):
        program = assemble(LOOP_ASM)
        fresh = as_tuples(trace_program(program, inputs=[3]))
        list(TraceStore(tmp_path).batches(program, [3]))
        (path,) = tmp_path.glob("*/*.trace")
        blob = path.read_bytes()
        path.write_bytes(mutate(blob))
        with pytest.raises(ValueError):
            PackedTrace.from_bytes(path.read_bytes())
        registry = Telemetry()
        with use_registry(registry):
            again = as_tuples(records_of(TraceStore(tmp_path).batches(program, [3])))
        assert again == fresh
        assert registry.snapshot()["counters"]["machine.trace.captures"] == 1
        assert path.read_bytes() == blob


class TestStoredBytes:
    def test_counter_sums_the_column_buffers_of_committed_captures(self):
        registry = Telemetry()
        store = TraceStore(None)
        runs = [(LOOP_ASM, [3]), (FLOAT_ASM, [2.25]), (BIGINT_ASM, [])]
        with use_registry(registry):
            for asm, inputs in runs:
                program = assemble(asm)
                list(store.batches(program, inputs, chunk_size=16))
                list(store.batches(program, inputs))  # a replay adds nothing
            abandoned = store.batches(assemble(LOOP_ASM), [4], chunk_size=16)
            next(abandoned)
            abandoned.close()  # nor does a capture that commits nothing
        expected = 0
        for asm, inputs in runs:
            for addresses, values, others, _runs, mems in store.fetch(
                assemble(asm), inputs
            ).batches:
                columns = [addresses] + buffers(values) + buffers(others) + buffers(mems)
                expected += sum(memoryview(column).nbytes for column in columns)
        counters = registry.snapshot()["counters"]
        assert counters["machine.trace.stored_bytes"] == expected > 0

    @pytest.mark.parametrize(
        "name, most", [("134.perl", 6.83), ("101.tomcatv", 9.97)]
    )
    def test_test_run_footprint_per_record(self, name, most):
        """Measured at 6.83 and 9.97 bytes per record (17.65 and 20.14
        with every column int64)."""
        workload = get_workload(name)
        program = workload.compile()
        inputs = workload.test_inputs(0.01)
        store = TraceStore(None)
        list(store.batches(program, inputs))
        packed = store.fetch(program, inputs)
        assert packed.stored_bytes() / packed.records <= most
