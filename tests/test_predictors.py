"""Unit tests for the prediction tables, predictors and FSM classifier."""

from __future__ import annotations

import pytest

from repro.isa import Directive
from repro.predictors import (
    FsmClassifier,
    HybridPredictor,
    LastValuePredictor,
    PredictionTable,
    SaturatingCounter,
    StridePredictor,
)


class TestPredictionTable:
    def test_infinite_table_never_evicts(self):
        table = PredictionTable(entries=None)
        for address in range(10000):
            table.insert(address, address)
        assert len(table) == 10000
        assert table.evictions == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PredictionTable(entries=10, ways=3)  # not a multiple
        with pytest.raises(ValueError):
            PredictionTable(entries=0, ways=2)
        with pytest.raises(ValueError):
            PredictionTable(entries=4, ways=0)

    def test_lru_eviction_within_set(self):
        # 4 entries, 2 ways -> 2 sets; addresses 0,2,4 map to set 0.
        table = PredictionTable(entries=4, ways=2)
        table.insert(0, "a")
        table.insert(2, "b")
        table.lookup(0)          # refresh 0; 2 becomes LRU
        evicted = table.insert(4, "c")
        assert evicted == 2
        assert 0 in table and 4 in table and 2 not in table

    def test_eviction_callback(self):
        table = PredictionTable(entries=2, ways=2)
        victims = []
        table.insert(0, "a")
        table.insert(2, "b")
        table.insert(4, "c", on_evict=victims.append)
        assert victims == [0]

    def test_peek_does_not_touch_lru(self):
        table = PredictionTable(entries=4, ways=2)
        table.insert(0, "a")
        table.insert(2, "b")
        table.peek(0)            # must NOT refresh 0
        evicted = table.insert(4, "c")
        assert evicted == 0

    def test_hit_statistics(self):
        table = PredictionTable(entries=4, ways=2)
        table.insert(1, "x")
        table.lookup(1)
        table.lookup(3)
        assert table.lookups == 2
        assert table.hits == 1

    def test_capacity_respected(self):
        table = PredictionTable(entries=8, ways=2)
        for address in range(100):
            table.insert(address, address)
        assert len(table) <= 8

    def test_deferred_entries_are_built_once_when_read(self):
        from collections import OrderedDict

        table = PredictionTable(entries=4, ways=2)
        table.insert(1, "old")
        built = []

        def build():
            built.append(True)
            return {0: OrderedDict([(2, "x")]), 1: OrderedDict([(3, "y")])}

        table.defer(build)
        assert built == []
        assert table.peek(2) == "x"
        assert sorted(table) == [(2, "x"), (3, "y")]
        assert 1 not in table
        assert built == [True]
        with pytest.raises(AttributeError):
            table.missing_attribute


class TestLastValuePredictor:
    def test_first_access_is_a_miss_that_allocates(self):
        predictor = LastValuePredictor()
        result = predictor.access(5, 10)
        assert not result.hit and result.allocated

    def test_repeated_value_predicted(self):
        predictor = LastValuePredictor()
        predictor.access(5, 10)
        result = predictor.access(5, 10)
        assert result.hit and result.correct
        assert result.predicted_value == 10

    def test_changed_value_mispredicted_then_learned(self):
        predictor = LastValuePredictor()
        predictor.access(5, 10)
        result = predictor.access(5, 20)
        assert result.hit and not result.correct
        result = predictor.access(5, 20)
        assert result.correct

    def test_never_reports_nonzero_stride(self):
        predictor = LastValuePredictor()
        for value in (1, 2, 3, 4):
            result = predictor.access(5, value)
        assert not result.nonzero_stride

    def test_allocate_false_keeps_table_empty(self):
        predictor = LastValuePredictor()
        result = predictor.access(5, 10, allocate=False)
        assert not result.hit and not result.allocated
        assert predictor.lookup_prediction(5) is None


class TestStridePredictor:
    def test_stride_sequence_predicted_from_third_access(self):
        predictor = StridePredictor()
        assert not predictor.access(7, 100).hit      # allocate
        first = predictor.access(7, 110)             # stride still 0
        assert first.hit and not first.correct
        for expected in (120, 130, 140):
            result = predictor.access(7, expected)
            assert result.correct and result.nonzero_stride

    def test_constant_sequence_is_zero_stride(self):
        predictor = StridePredictor()
        predictor.access(7, 5)
        predictor.access(7, 5)
        result = predictor.access(7, 5)
        assert result.correct and not result.nonzero_stride

    def test_stride_relearned_after_change(self):
        predictor = StridePredictor()
        for value in (0, 10, 20):
            predictor.access(7, value)
        result = predictor.access(7, 100)   # breaks the stride
        assert not result.correct
        result = predictor.access(7, 180)   # new stride 80
        assert result.correct

    def test_float_strides(self):
        predictor = StridePredictor()
        for value in (1.0, 1.5, 2.0):
            result = predictor.access(3, value)
        assert result.correct and result.nonzero_stride

    def test_lookup_prediction_is_pure(self):
        predictor = StridePredictor()
        predictor.access(7, 10)
        predictor.access(7, 20)
        assert predictor.lookup_prediction(7) == 30
        assert predictor.lookup_prediction(7) == 30  # unchanged

    def test_degenerates_to_last_value_on_first_hit(self):
        predictor = StridePredictor()
        predictor.access(9, 42)
        result = predictor.access(9, 42)
        assert result.correct  # freshly allocated entries have stride 0


class TestHybridPredictor:
    def test_routes_by_directive(self):
        hybrid = HybridPredictor(stride_entries=None, last_value_entries=None)
        hybrid.access(1, 10, Directive.STRIDE)
        hybrid.access(2, 99, Directive.LAST_VALUE)
        assert 1 in hybrid.stride.table
        assert 1 not in hybrid.last_value.table
        assert 2 in hybrid.last_value.table

    def test_stride_side_predicts_strides(self):
        hybrid = HybridPredictor()
        for value in (0, 7, 14):
            result = hybrid.access(1, value, Directive.STRIDE)
        assert result.correct and result.nonzero_stride

    def test_last_value_side_ignores_strides(self):
        hybrid = HybridPredictor()
        for value in (0, 7, 14):
            result = hybrid.access(1, value, Directive.LAST_VALUE)
        assert not result.correct

    def test_clear_resets_both(self):
        hybrid = HybridPredictor()
        hybrid.access(1, 1, Directive.STRIDE)
        hybrid.access(2, 2, Directive.LAST_VALUE)
        hybrid.clear()
        assert len(hybrid.stride.table) == 0
        assert len(hybrid.last_value.table) == 0


class TestSaturatingCounter:
    def test_saturates_at_both_ends(self):
        counter = SaturatingCounter(bits=2, initial=0)
        for _ in range(10):
            counter.increment()
        assert counter.value == 3
        for _ in range(10):
            counter.decrement()
        assert counter.value == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)
        with pytest.raises(ValueError):
            SaturatingCounter(bits=2, initial=4)


class TestFsmClassifier:
    def test_warmup_then_take(self):
        fsm = FsmClassifier()            # init 1, take at >= 2
        assert not fsm.should_take(5)
        fsm.record(5, True)
        assert fsm.should_take(5)

    def test_mispredictions_push_below_threshold(self):
        fsm = FsmClassifier()
        fsm.record(5, True)
        fsm.record(5, True)              # state 3
        fsm.record(5, False)
        assert fsm.should_take(5)        # state 2, still taking
        fsm.record(5, False)
        assert not fsm.should_take(5)    # state 1

    def test_eviction_resets_state(self):
        fsm = FsmClassifier()
        fsm.record(5, True)
        fsm.record(5, True)
        fsm.on_evict(5)
        assert fsm.state(5) == 1         # back to initial

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            FsmClassifier(bits=2, take_threshold=5)
        with pytest.raises(ValueError):
            FsmClassifier(bits=2, take_threshold=0)

    def test_counters_are_per_address(self):
        fsm = FsmClassifier()
        fsm.record(1, True)
        assert fsm.should_take(1)
        assert not fsm.should_take(2)

    def test_evict_then_inspect_then_take(self):
        # state() is a pure peek: probing an evicted address must not
        # resurrect its counter, so the next should_take/record sequence
        # starts from a genuinely fresh warm-up.
        fsm = FsmClassifier()
        fsm.record(5, True)
        fsm.record(5, True)              # state 3
        fsm.on_evict(5)
        assert fsm.state(5) == 1         # reads as initial...
        assert 5 not in fsm._counters    # ...without allocating
        assert not fsm.should_take(5)    # fresh counter, below threshold
        fsm.record(5, True)
        assert fsm.should_take(5)

    def test_state_never_allocates(self):
        fsm = FsmClassifier()
        assert fsm.state(9) == fsm.initial
        assert fsm._counters == {}
