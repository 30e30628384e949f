"""The interpreter's per-instruction closures and the routes built on them.

Each program is translated once into closures; trace runs append batch
columns, training runs profile inside the closures, and each ILP run
schedules every lane of a table in one loop.  Each route is held to an
independent reference: the record-at-a-time :class:`Stepper`,
:func:`profile_records`, and one :class:`WindowScheduler` per label.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import profile_records
from repro.check.generator import CheckCase, generate_case
from repro.check.oracle import _check_batch_vs_record, _check_profile_inline
from repro.check.stepper import Stepper
from repro.isa import assemble
from repro.machine import Executor
from repro.machine.closures import checkout
from repro.machine.errors import DivisionByZero
from repro.predictors import LastValuePredictor, StridePredictor
from repro.profiling import collect_profile, collect_profiles, dumps_profile
from repro.telemetry import Telemetry, use_registry

# A phase change between candidates, a falling stride (the counter) and
# a held value, then a divide whose divisor reaches zero.
FAULTING_ASM = """
.text
    phase 1
    li r1, 4
    li r2, 100
loop:
    subi r1, r1, 1
    add r3, r3, r2
    phase 2
    div r4, r2, r1
    bnez r1, loop
    halt
"""


class TestInterpreter:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 5]))
    def test_batches_match_the_stepper(self, seed, chunk):
        case = generate_case(seed)
        for budget in (20_000, 40):
            assert _check_batch_vs_record(case, budget, small_chunk=chunk) is None

    def test_a_set_is_reused_and_released(self):
        case = generate_case(3)
        for _batch in Executor(case.program, case.inputs).run_batches():
            pass
        translation, closures = checkout(case.program, "trace")
        # The finished run left its set behind, with its cells cleared.
        assert all(cell.cell_contents is None for cell in closures.cells.values())
        assert not translation.free

    def test_interleaved_runs_of_one_program(self):
        case = generate_case(9)
        runs = [
            Executor(case.program, case.inputs).run_batches(chunk_size=5)
            for _ in range(2)
        ]
        # Batch by batch, so each run executes while the other is alive
        # and the second gets its own closure set.
        left, right = zip(*(
            (first.addresses.tolist(), second.addresses.tolist())
            for first, second in zip(*runs)
        ))
        assert left == right and len(left) > 1
        assert left == tuple(
            batch.addresses.tolist()
            for batch in Executor(case.program, case.inputs).run_batches(chunk_size=5)
        )


class TestProfileInline:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_profile_records(self, seed):
        assert _check_profile_inline(generate_case(seed), 20_000) is None

    def test_faulting_run_folds_up_to_the_fault(self):
        program = assemble(FAULTING_ASM)
        assert _check_profile_inline(CheckCase(0, program, ()), 1000) is None
        predictor = StridePredictor()
        with pytest.raises(DivisionByZero):
            collect_profiles(program, [], {"p": predictor}, max_instructions=1000)
        records = []
        with pytest.raises(DivisionByZero):
            records.extend(Stepper(program, [], 1000).run())
        # The divide retired three times before the fault; the fault is
        # not an execution.
        divides = [r for r in records if program[r.address].opcode.value == "div"]
        assert len(divides) == 3
        assert predictor.table.lookups == sum(
            program.candidate_mask[r.address] for r in records
        )

    def test_phase_split_counts(self):
        program = assemble(FAULTING_ASM.replace("div r4, r2, r1", "nop"))
        image = collect_profile(program)
        groups = {key[1] for key in image.group_detail}
        assert groups == {1, 2}
        reference = profile_records(program, list(Stepper(program).run()))
        assert dumps_profile(image) == dumps_profile(reference)

    @pytest.mark.parametrize(
        "predictors, store, sample_every",
        [
            ({"p": StridePredictor(entries=8)}, False, 1),
            ({"p": LastValuePredictor()}, False, 1),
            ({"s": StridePredictor(), "l": LastValuePredictor()}, False, 1),
            ({"p": StridePredictor()}, True, 1),
            ({"p": StridePredictor()}, False, 3),
        ],
        ids=["finite", "last-value", "two", "store", "sampled"],
    )
    def test_other_requests_walk_batches(self, predictors, store, sample_every):
        from repro.machine import TraceStore

        case = generate_case(4)
        registry = Telemetry()
        with use_registry(registry):
            collect_profiles(
                case.program,
                case.inputs,
                predictors,
                store=TraceStore() if store else None,
                sample_every=sample_every,
            )
        counters = registry.snapshot()["counters"]
        assert counters["profiling.runs"] == 1
        assert "profiling.runs.inline" not in counters

    def test_a_used_table_walks_batches(self):
        case = generate_case(4)
        predictor = StridePredictor()
        predictor.access(0, 1)
        registry = Telemetry()
        with use_registry(registry):
            collect_profiles(case.program, case.inputs, {"p": predictor})
        assert "profiling.runs.inline" not in registry.snapshot()["counters"]


# Every record shape the scheduling loop branches on: a store feeding a
# load, a call (writes ra, not a candidate), a candidate writing r0, a
# load into r0, branches and a return.
SHAPES_ASM = """
.text
    li r1, 8
loop:
    st r1, r1, 0
    ld r2, r1, 0
    add r0, r2, r1
    ld r0, r1, 1
    call body
    subi r1, r1, 1
    bnez r1, loop
    halt
body:
    mul r3, r2, r2
    jr ra
"""


class TestFusedLanes:
    def test_every_shape_on_mixed_lanes(self):
        from repro.core import HardwareClassification, PredictionEngine
        from repro.ilp import IlpConfig, WindowScheduler, measure_ilp_many

        program = assemble(SHAPES_ASM)
        loose = IlpConfig(window_size=2, track_memory_dependencies=False)
        configs = {"novp-loose": loose, "fsm-loose": loose}

        def engines():
            return {
                "novp": None,
                "novp-loose": None,
                "fsm": PredictionEngine(
                    program, StridePredictor(), HardwareClassification()
                ),
                "fsm-loose": PredictionEngine(
                    program, StridePredictor(), HardwareClassification()
                ),
            }

        results = measure_ilp_many(program, (), engines(), configs=configs)
        for label, engine in engines().items():
            scheduler = WindowScheduler(program, engine, configs.get(label))
            for record in Stepper(program).run():
                scheduler.feed(record)
            assert results[label] == scheduler.result(), label
