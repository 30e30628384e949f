"""Unit tests for the abstract ILP machine."""

from __future__ import annotations

import pytest

from repro.core import (
    AlwaysClassification,
    HardwareClassification,
    PredictionEngine,
)
from repro.isa import assemble
from repro.ilp import IlpConfig, measure_ilp, measure_ilp_many, ilp_increase
from repro.predictors import StridePredictor

SERIAL_CHAIN = """
.text
    li r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    halt
"""

INDEPENDENT = """
.text
    li r1, 1
    li r2, 2
    li r3, 3
    li r4, 4
    li r5, 5
    li r6, 6
    li r7, 7
    halt
"""

STRIDE_LOOP = """
.text
    li r1, 0
    li r2, 200
loop:
    addi r1, r1, 1
    mul r3, r1, r1
    add r4, r3, r1
    slt r5, r1, r2
    bnez r5, loop
    halt
"""


class TestDataflowScheduling:
    def test_independent_instructions_run_in_parallel(self):
        result = measure_ilp(assemble(INDEPENDENT))
        # All 7 li's issue at cycle 0 and complete at cycle 1 (+ halt).
        assert result.ilp > 3.0

    def test_serial_chain_is_serialized(self):
        result = measure_ilp(assemble(SERIAL_CHAIN))
        # Each addi depends on the previous one: ~1 instruction per cycle.
        assert result.ilp < 1.5

    def test_chain_slower_than_independent(self):
        chain = measure_ilp(assemble(SERIAL_CHAIN))
        parallel = measure_ilp(assemble(INDEPENDENT))
        assert parallel.ilp > chain.ilp

    def test_window_limits_ilp(self):
        wide = measure_ilp(assemble(INDEPENDENT), config=IlpConfig(window_size=40))
        narrow = measure_ilp(assemble(INDEPENDENT), config=IlpConfig(window_size=2))
        assert wide.ilp >= narrow.ilp

    def test_memory_dependence_honored(self):
        source = """
.text
    li r1, 7
    st r1, gp, 0
    ld r2, gp, 0
    addi r3, r2, 1
    halt
"""
        with_memory = measure_ilp(
            assemble(source), config=IlpConfig(track_memory_dependencies=True)
        )
        without_memory = measure_ilp(
            assemble(source), config=IlpConfig(track_memory_dependencies=False)
        )
        assert with_memory.cycles >= without_memory.cycles

    def test_instruction_count_matches_trace(self):
        from repro.machine import run_program

        program = assemble(STRIDE_LOOP)
        result = measure_ilp(program)
        assert result.instructions == run_program(program).instruction_count


class TestValuePredictionEffect:
    def make_engine(self, program, scheme=None):
        return PredictionEngine(
            program,
            predictor=StridePredictor(),
            scheme=scheme or AlwaysClassification(),
        )

    def test_prediction_collapses_serial_chain(self):
        program = assemble(STRIDE_LOOP)
        baseline = measure_ilp(program)
        predicted = measure_ilp(program, engine=self.make_engine(program))
        assert predicted.ilp > baseline.ilp
        assert predicted.taken_predictions > 0
        assert predicted.correct_predictions > 0

    def test_result_counters_consistent(self):
        program = assemble(STRIDE_LOOP)
        result = measure_ilp(program, engine=self.make_engine(program))
        assert (
            result.taken_predictions
            == result.correct_predictions + result.mispredictions
        )

    def test_misprediction_penalty_hurts(self):
        # An anti-predictable value stream: always take, often wrong.
        source = """
.text
    li r1, 1
    li r2, 120
    li r3, 0
loop:
    mul r4, r3, r3
    xori r3, r3, 1
    mul r5, r4, r4
    addi r1, r1, 1
    slt r6, r1, r2
    bnez r6, loop
    halt
"""
        program = assemble(source)
        cheap = measure_ilp(
            program,
            engine=self.make_engine(program),
            config=IlpConfig(misprediction_penalty=0),
        )
        costly = measure_ilp(
            program,
            engine=self.make_engine(program),
            config=IlpConfig(misprediction_penalty=10),
        )
        assert costly.cycles >= cheap.cycles

    def test_classified_never_worse_than_unclassified_on_noise(self):
        program = assemble(STRIDE_LOOP)
        unclassified = measure_ilp(program, engine=self.make_engine(program))
        classified = measure_ilp(
            program, engine=self.make_engine(program, HardwareClassification())
        )
        # The FSM avoids some predictions; on this highly predictable loop
        # both should still beat the baseline.
        baseline = measure_ilp(program)
        assert classified.ilp > baseline.ilp
        assert unclassified.ilp > baseline.ilp


class TestMultiConfig:
    def test_many_matches_single(self):
        program = assemble(STRIDE_LOOP)
        single_baseline = measure_ilp(program)
        single_predicted = measure_ilp(program, engine=self.engine(program))
        many = measure_ilp_many(
            program,
            (),
            engines={"novp": None, "vp": self.engine(program)},
        )
        assert many["novp"].cycles == single_baseline.cycles
        assert many["vp"].cycles == single_predicted.cycles

    @staticmethod
    def engine(program):
        return PredictionEngine(
            program, predictor=StridePredictor(), scheme=AlwaysClassification()
        )


class TestConfigValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            IlpConfig(window_size=0)

    def test_bad_penalty(self):
        with pytest.raises(ValueError):
            IlpConfig(misprediction_penalty=-1)

    def test_ilp_increase_helper(self):
        program = assemble(STRIDE_LOOP)
        baseline = measure_ilp(program)
        assert ilp_increase(baseline, baseline) == 0.0


class TestPerLabelConfigs:
    def test_configs_override_shared(self):
        from repro.isa import assemble

        program = assemble(STRIDE_LOOP)
        results = measure_ilp_many(
            program,
            (),
            engines={"narrow": None, "wide": None},
            config=IlpConfig(window_size=40),
            configs={"narrow": IlpConfig(window_size=2)},
        )
        assert results["narrow"].cycles >= results["wide"].cycles

    def test_configs_sweep_matches_individual_runs(self):
        from repro.isa import assemble

        program = assemble(STRIDE_LOOP)
        swept = measure_ilp_many(
            program,
            (),
            engines={"w4": None, "w64": None},
            configs={
                "w4": IlpConfig(window_size=4),
                "w64": IlpConfig(window_size=64),
            },
        )
        individual_w4 = measure_ilp(program, config=IlpConfig(window_size=4))
        individual_w64 = measure_ilp(program, config=IlpConfig(window_size=64))
        assert swept["w4"].cycles == individual_w4.cycles
        assert swept["w64"].cycles == individual_w64.cycles


MEMORY_CHAIN = """
.text
    li r1, 3
    mul r1, r1, r1
    mul r1, r1, r1
    mul r1, r1, r1
    mul r1, r1, r1
    st r1, gp, 0
    li r4, 1
    ld r2, gp, 0
    addi r3, r2, 1
    halt
"""


def _reference_results(program, engines, config=None, configs=None, **run_options):
    """One ``WindowScheduler.feed`` per record per label."""
    from repro.ilp import WindowScheduler
    from repro.machine import trace_program

    configs = configs or {}
    schedulers = {
        label: WindowScheduler(
            program, engine=engine, config=configs.get(label, config)
        )
        for label, engine in engines.items()
    }
    for record in trace_program(program, **run_options):
        for scheduler in schedulers.values():
            scheduler.feed(record)
    return {label: scheduler.result() for label, scheduler in schedulers.items()}


class TestBatchScheduler:
    @staticmethod
    def grid(program):
        from repro.predictors import HybridPredictor

        return {
            "novp": None,
            "stride": PredictionEngine(
                program, StridePredictor(), AlwaysClassification()
            ),
            "finite": PredictionEngine(
                program, StridePredictor(4, 2), HardwareClassification()
            ),
            "hybrid": PredictionEngine(
                program, HybridPredictor(), HardwareClassification()
            ),
        }

    @pytest.mark.parametrize(
        "config",
        [
            None,
            IlpConfig(window_size=3, misprediction_penalty=5),
            IlpConfig(track_memory_dependencies=False),
        ],
    )
    def test_matches_record_reference(self, config):
        program = assemble(STRIDE_LOOP)
        batch = measure_ilp_many(program, (), self.grid(program), config=config)
        assert batch == _reference_results(program, self.grid(program), config)

    def test_store_dependence_binds(self):
        program = assemble(MEMORY_CHAIN)
        tracked = measure_ilp(program)
        untracked = measure_ilp(
            program, config=IlpConfig(track_memory_dependencies=False)
        )
        # The load waits for the store, which waits for the mul chain.
        assert tracked.cycles > untracked.cycles
        for config in (IlpConfig(), IlpConfig(track_memory_dependencies=False)):
            assert measure_ilp(program, config=config) == _reference_results(
                program, {"only": None}, config
            )["only"]

    def test_replay_matches_capture_across_batch_boundaries(self):
        from repro.machine import TraceStore

        program = assemble(STRIDE_LOOP)
        store = TraceStore()
        # Capture in 5-record batches: replay hands the scheduler state
        # across every boundary.
        for _batch in store.batches(program, (), chunk_size=5):
            pass
        replayed = measure_ilp_many(program, (), self.grid(program), store=store)
        assert replayed == _reference_results(program, self.grid(program))

    def test_replay_does_not_execute(self):
        from repro.machine import TraceStore
        from repro.telemetry import Telemetry, use_registry

        program = assemble(STRIDE_LOOP)
        store = TraceStore()
        measure_ilp_many(program, (), self.grid(program), store=store)
        registry = Telemetry()
        with use_registry(registry):
            measure_ilp_many(program, (), self.grid(program), store=store)
        counters = registry.snapshot()["counters"]
        assert counters.get("machine.instructions", 0) == 0
        assert counters["machine.trace.replays"] == 1

    def test_budget_overrun_raises_like_reference(self):
        from repro.machine import InstructionBudgetExceeded

        program = assemble(STRIDE_LOOP)
        with pytest.raises(InstructionBudgetExceeded) as batch_error:
            measure_ilp_many(
                program, (), self.grid(program), max_instructions=100
            )
        with pytest.raises(InstructionBudgetExceeded) as record_error:
            _reference_results(program, self.grid(program), max_instructions=100)
        assert str(batch_error.value) == str(record_error.value)

    def test_engine_statistics_fold_on_error(self):
        from repro.machine import InstructionBudgetExceeded

        program = assemble(STRIDE_LOOP)
        batch_engines = self.grid(program)
        record_engines = self.grid(program)
        for engines, run in (
            (batch_engines, lambda e: measure_ilp_many(
                program, (), e, max_instructions=100)),
            (record_engines, lambda e: _reference_results(
                program, e, max_instructions=100)),
        ):
            with pytest.raises(InstructionBudgetExceeded):
                run(engines)
        for label, engine in batch_engines.items():
            if engine is not None:
                assert engine.stats == record_engines[label].stats

    def test_telemetry_published_once_per_call(self):
        from repro.telemetry import Telemetry, use_registry

        program = assemble(STRIDE_LOOP)
        registry = Telemetry()
        with use_registry(registry):
            results = measure_ilp_many(program, (), self.grid(program))
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["ilp.runs"] == 1
        assert counters["ilp.records"] == sum(
            result.instructions for result in results.values()
        )
        assert snapshot["timers"]["ilp.schedule"]["count"] == 1
        # Engine statistics stay out of the simulate counters.
        assert "core.candidates" not in counters
        assert "predictor.lookups" not in counters


class TestSharedEngineRejected:
    def test_measure_ilp_many_rejects_shared_engine(self):
        program = assemble(STRIDE_LOOP)
        engine = PredictionEngine(program, StridePredictor(), AlwaysClassification())
        with pytest.raises(ValueError, match="share one PredictionEngine"):
            measure_ilp_many(program, (), {"a": engine, "b": engine})

    def test_simulate_prediction_many_rejects_shared_engine(self):
        from repro.core import simulate_prediction_many

        program = assemble(STRIDE_LOOP)
        engine = PredictionEngine(program, StridePredictor(), AlwaysClassification())
        with pytest.raises(ValueError, match="share one PredictionEngine"):
            simulate_prediction_many(program, (), {"a": engine, "b": engine})

    def test_none_may_repeat(self):
        program = assemble(STRIDE_LOOP)
        results = measure_ilp_many(program, (), {"a": None, "b": None})
        assert results["a"] == results["b"]
