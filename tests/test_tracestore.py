"""Differential tests for the trace store and the batched fast paths.

The contract under test: every way of obtaining a trace — record-by-record
execution, columnar batches, capture into a :class:`TraceStore`, replay
from memory, replay from disk — yields the *same* record stream, and every
batched consumer (profiler, prediction simulator, shared probe groups)
produces results bit-identical to the record-at-a-time reference path.
"""

from __future__ import annotations

import pytest

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
from repro.telemetry import Telemetry, use_registry
from repro.predictors import LastValuePredictor, StridePredictor
from repro.profiling import collect_profiles

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

        fast = profiles()
        monkeypatch.setattr(collector, "_fast_stride_profiler", lambda *args: None)
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
