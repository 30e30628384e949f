"""Lightweight, zero-dependency telemetry for the reproduction pipeline.

The paper's Phase-2 profiler is itself an observability tool; this
package gives the *pipeline* the same treatment: monotonic counters,
wall-clock timers, gauges, nesting spans and an event-hook registry,
with a process-global default registry that is a no-op until enabled.

Instrumented layers (all publish in bulk, never per record):

* ``machine.*`` — dynamic instructions retired and executor wall time
  (:mod:`repro.machine.executor`), from which simulated MIPS derives.
* ``predictor.*`` / ``core.*`` — table lookups/hits/evictions and
  classification outcomes of every engine walk (:mod:`repro.core.simulate`
  and the ILP model's engines).
* ``profiling.*`` — profile records collected and collection time
  (:mod:`repro.profiling.collector`).
* ``cache.*`` / ``runner.*`` — per-kind artifact-cache hits, misses,
  corrupt entries and stores, per-job compute time and queue latency
  (:mod:`repro.runner`).  Pool workers snapshot their registries and the
  coordinator merges them, so parallel runs roll up like serial ones.
  Degraded-run counters ride alongside: ``runner.cache.corrupt`` and
  ``runner.jobs_failed`` / ``runner.jobs_skipped``, plus per-job
  ``attempt:<kind>`` spans.  A pool job's metrics are merged only once
  its result decodes.
* ``experiments`` spans — per-phase (build/execute/emit) rollups
  (:mod:`repro.experiments.runner`).

Typical use::

    from repro.telemetry import Telemetry, use_registry

    registry = Telemetry()
    with use_registry(registry):
        run_experiments(["fig-5.1"], context)
    print(registry.snapshot()["counters"]["machine.instructions"])
"""

from .export import format_text, to_json
from .metrics import KNOWN_METRIC_PREFIXES, KNOWN_METRICS, is_known_metric
from .registry import (
    Counter,
    EventHook,
    Gauge,
    NullTelemetry,
    Span,
    Telemetry,
    Timer,
    enable,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "Counter",
    "EventHook",
    "Gauge",
    "KNOWN_METRICS",
    "KNOWN_METRIC_PREFIXES",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "Timer",
    "enable",
    "format_text",
    "get_registry",
    "is_known_metric",
    "set_registry",
    "to_json",
    "use_registry",
]
