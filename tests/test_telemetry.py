"""Tests for the telemetry registry, exporters, and pipeline wiring."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.telemetry import (
    NullTelemetry,
    Telemetry,
    enable,
    format_text,
    get_registry,
    set_registry,
    to_json,
    use_registry,
)
from repro.telemetry.registry import _NULL_INSTRUMENT, _NULL_SPAN


class TestInstruments:
    def test_counter_accumulates(self):
        registry = Telemetry()
        registry.counter("a").add()
        registry.counter("a").add(41)
        assert registry.counter("a").value == 42

    def test_gauge_last_value_wins(self):
        registry = Telemetry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5

    def test_timer_accumulates_seconds_and_count(self):
        registry = Telemetry()
        timer = registry.timer("t")
        timer.add(0.25)
        timer.add(0.75)
        assert timer.seconds == pytest.approx(1.0)
        assert timer.count == 2
        assert timer.mean == pytest.approx(0.5)

    def test_timer_context_manager(self):
        registry = Telemetry()
        with registry.timer("t").time():
            time.sleep(0.01)
        timer = registry.timer("t")
        assert timer.count == 1
        assert timer.seconds > 0.0

    def test_instruments_are_stable_identities(self):
        registry = Telemetry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.timer("y") is registry.timer("y")
        assert registry.gauge("z") is registry.gauge("z")


class TestSpans:
    def test_spans_nest_by_slash_path(self):
        registry = Telemetry()
        with registry.span("suite"):
            assert registry.current_path == "suite"
            with registry.span("execute"):
                assert registry.current_path == "suite/execute"
        assert registry.current_path == ""
        spans = registry.snapshot()["spans"]
        assert set(spans) == {"suite", "suite/execute"}
        assert spans["suite"]["seconds"] >= spans["suite/execute"]["seconds"]

    def test_repeated_spans_aggregate(self):
        registry = Telemetry()
        for _ in range(3):
            with registry.span("phase"):
                pass
        assert registry.snapshot()["spans"]["phase"]["count"] == 3

    def test_span_records_on_exception(self):
        registry = Telemetry()
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("x")
        assert registry.current_path == ""
        assert "boom" in registry.snapshot()["spans"]


class TestEventHooks:
    def test_hooks_fire_with_payload(self):
        registry = Telemetry()
        seen = []
        registry.on("job.done", lambda event, payload: seen.append((event, payload)))
        registry.emit("job.done", kind="profile", seconds=1.0)
        registry.emit("other.event", ignored=True)
        assert seen == [("job.done", {"kind": "profile", "seconds": 1.0})]

    def test_clear_keeps_hooks(self):
        registry = Telemetry()
        seen = []
        registry.counter("c").add(5)
        registry.on("e", lambda event, payload: seen.append(event))
        registry.clear()
        assert registry.snapshot()["counters"] == {}
        registry.emit("e")
        assert seen == ["e"]


class TestMerge:
    def test_merge_adds_counters_and_timers(self):
        worker = Telemetry()
        worker.counter("machine.instructions").add(100)
        worker.timer("machine.run").add(0.5)
        coordinator = Telemetry()
        coordinator.counter("machine.instructions").add(10)
        coordinator.timer("machine.run").add(0.1)
        coordinator.merge(worker.snapshot())
        assert coordinator.counter("machine.instructions").value == 110
        assert coordinator.timer("machine.run").seconds == pytest.approx(0.6)
        assert coordinator.timer("machine.run").count == 2

    def test_merge_gauges_take_incoming(self):
        worker = Telemetry()
        worker.gauge("g").set(9)
        coordinator = Telemetry()
        coordinator.gauge("g").set(1)
        coordinator.merge(worker.snapshot())
        assert coordinator.gauge("g").value == 9

    def test_merge_reroots_spans_under_prefix(self):
        worker = Telemetry()
        with worker.span("collect"):
            pass
        coordinator = Telemetry()
        coordinator.merge(worker.snapshot(), prefix="suite/execute")
        assert "suite/execute/collect" in coordinator.snapshot()["spans"]


class TestNullRegistry:
    def test_default_registry_is_null(self):
        registry = get_registry()
        assert isinstance(registry, Telemetry)
        if not registry.enabled:
            assert isinstance(registry, NullTelemetry)

    def test_null_instruments_are_shared_singletons(self):
        """The disabled cost is a dict-free lookup: no allocation per call."""
        registry = NullTelemetry()
        assert registry.counter("a") is registry.counter("b") is _NULL_INSTRUMENT
        assert registry.timer("t") is _NULL_INSTRUMENT
        assert registry.gauge("g") is _NULL_INSTRUMENT
        assert registry.span("s") is registry.span("other") is _NULL_SPAN

    def test_null_registry_records_nothing(self):
        registry = NullTelemetry()
        registry.counter("c").add(10)
        registry.gauge("g").set(5)
        registry.timer("t").add(1.0)
        with registry.span("s"):
            pass
        registry.emit("event", data=1)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "timers": {}, "spans": {}}

    def test_null_overhead_guard(self):
        """A null-registry instrument call must stay trivially cheap."""
        registry = NullTelemetry()
        started = time.perf_counter()
        for _ in range(100_000):
            registry.counter("machine.instructions").add(1)
        elapsed = time.perf_counter() - started
        # ~0.1 us/op on any plausible machine; the bound is deliberately
        # generous to stay robust under CI noise while still catching an
        # accidental allocation-per-call regression by an order of magnitude.
        assert elapsed < 2.0


class TestGlobalRegistry:
    def test_use_registry_scopes_and_restores(self):
        previous = get_registry()
        live = Telemetry()
        with use_registry(live) as installed:
            assert installed is live
            assert get_registry() is live
        assert get_registry() is previous

    def test_set_registry_returns_previous(self):
        previous = get_registry()
        live = Telemetry()
        try:
            assert set_registry(live) is previous
            assert get_registry() is live
        finally:
            set_registry(previous)

    def test_enable_is_idempotent(self):
        previous = get_registry()
        try:
            first = enable()
            assert first.enabled
            first.counter("kept").add(1)
            second = enable()
            assert second is first
            assert second.counter("kept").value == 1
        finally:
            set_registry(previous)


class TestExport:
    def test_to_json_round_trips_sorted(self):
        registry = Telemetry()
        registry.counter("b").add(2)
        registry.counter("a").add(1)
        payload = json.loads(to_json(registry))
        assert payload["counters"] == {"a": 1, "b": 2}
        assert to_json(registry) == to_json(registry.snapshot())

    def test_format_text_mentions_every_metric(self):
        registry = Telemetry()
        registry.counter("machine.instructions").add(5)
        registry.gauge("wall").set(1.25)
        registry.timer("run").add(0.5)
        with registry.span("suite"):
            pass
        text = format_text(registry)
        for fragment in ("machine.instructions", "wall", "run", "suite"):
            assert fragment in text

    def test_format_text_empty(self):
        assert format_text(Telemetry()) == "(no telemetry recorded)"


class TestPipelineWiring:
    def test_executor_counts_retired_instructions(self):
        from repro.isa import assemble
        from repro.machine import run_program

        program = assemble(
            """
.text
    li r1, 0
    li r2, 20
loop:
    addi r1, r1, 1
    slt r3, r1, r2
    bnez r3, loop
    halt
"""
        )
        with use_registry(Telemetry()) as registry:
            result = run_program(program)
        counters = registry.snapshot()["counters"]
        assert counters["machine.instructions"] == result.instruction_count
        assert registry.timer("machine.run").count == 1

    def test_profiling_and_prediction_metrics(self):
        from repro.core import HardwareScheme, evaluate_scheme, run_methodology

        source = """
void main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 30; i = i + 1) { total = total + i; }
    out(total);
}
"""
        with use_registry(Telemetry()) as registry:
            result = run_methodology(source, train_inputs=[[]])
            evaluate_scheme(HardwareScheme(result.program), [], entries=64)
        counters = registry.snapshot()["counters"]
        assert counters["profiling.runs"] == 1
        assert counters["profiling.records"] > 0
        assert counters["core.simulations"] == 1
        assert counters["predictor.lookups"] > 0

    def test_evaluate_scheme_accepts_explicit_registry(self):
        from repro.core import HardwareScheme, evaluate_scheme
        from repro.isa import assemble

        program = assemble(
            """
.text
    li r1, 0
    li r2, 10
loop:
    addi r1, r1, 1
    slt r3, r1, r2
    bnez r3, loop
    halt
"""
        )
        registry = Telemetry()
        evaluate_scheme(HardwareScheme(program), [], entries=64, telemetry=registry)
        assert registry.counter("machine.instructions").value > 0
        assert not get_registry().enabled or get_registry() is not registry

    def test_telemetry_does_not_change_table_output(self, tiny_context):
        from repro.experiments.runner import run_experiments

        plain = io.StringIO()
        run_experiments(["table-2.1"], tiny_context, stream=plain)
        instrumented = io.StringIO()
        with use_registry(Telemetry()):
            run_experiments(["table-2.1"], tiny_context, stream=instrumented)
        assert instrumented.getvalue() == plain.getvalue()


@pytest.mark.slow
class TestWorkerMerge:
    def test_parallel_counters_equal_serial(self):
        """Worker snapshots merged at the coordinator reproduce serial totals."""
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import run_experiments

        watched = ("machine.instructions", "profiling.records", "profiling.runs")
        totals = {}
        for jobs in (1, 2):
            context = ExperimentContext(scale=0.01, training_runs=2, cache_dir=None)
            with use_registry(Telemetry()) as registry:
                run_experiments(["fig-4.2"], context, stream=io.StringIO(), jobs=jobs)
            snapshot = registry.snapshot()
            totals[jobs] = {name: snapshot["counters"][name] for name in watched}
            assert "suite" in snapshot["spans"]
            assert "suite/execute" in snapshot["spans"]
        assert totals[1] == totals[2]
