"""``python -m repro bench`` — the pinned performance suite.

Runs a fixed micro/meso benchmark ladder against the current tree and
writes a ``BENCH_<rev>.json`` file in a stable schema
(:data:`SCHEMA_VERSION`), plus a human summary table:

* **executor** — a pinned arithmetic loop through the functional
  simulator; reports dynamic instructions, wall seconds and simulated
  MIPS.
* **predictor** — a pinned address/value stream against the finite
  512-entry 2-way stride table; reports table ops/sec and hit rate.
* **trace** — the pinned loop captured once into a
  :class:`~repro.machine.TraceStore` and replayed from packed batches;
  reports capture and replay records/sec and their ratio.
* **fuse** — streaming profile fusion: a seeded synthetic fleet of
  edge-run profile images is sketch-encoded and folded through
  :class:`~repro.profiling.fusion.MergeAccumulator`; reports fuse
  throughput (images/s) and the sketch wire size against the v1 text
  dump (bytes/image, compression ratio).
* **corpus** — the seeded mini-C generator
  (:mod:`repro.workloads.corpus`): generate + compile a pinned corpus
  slice; reports programs/sec and the mean static program size.
* **sampling** — sampled phase-2 profiling: one corpus program profiled
  in full and at the pinned sampling rate from the same captured trace;
  reports records/sec both ways and the sampled-path speedup.
* **analysis** — multi-scheme prediction simulation: a pinned
  all-integer trace replayed through a six-engine fig-5.1-style grid;
  reports records/sec.
* **suite** — one end-to-end experiment (``fig-5.1``) at small scale,
  cold cache then warm cache, with per-kind artifact-cache hit rates
  and the whole-pipeline simulated MIPS taken from the telemetry
  registry.

The JSON file seeds the repository's performance trajectory: future
perf-oriented PRs regress against the latest committed ``BENCH_*.json``,
and ``--baseline PATH`` turns that comparison into an exit status —
the run fails when ``suite.simulated_mips`` drops below
``--min-mips-ratio`` (a deliberately generous default, so only real
regressions trip CI, not machine-to-machine noise).  ``--smoke``
shrinks every knob for CI schema checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO

from .export import cache_summary
from .registry import Telemetry, use_registry

#: Stable schema identifier; bump on any incompatible payload change.
#: v2 added the ``trace`` section (trace-store capture/replay throughput).
#: v3 added the ``fuse`` section (streaming fusion throughput + sketch size).
#: v4 added the ``corpus`` section (generator throughput) and the
#: ``sampling`` section (sampled vs full profiling throughput).
#: v5 added the ``analysis`` section (vectorized vs pure multi-scheme
#: simulation throughput).
#: v6 reduced ``analysis`` to one timed pass through the only
#: simulation path (the backend flag and the ``vec_*``, ``pure_*`` and
#: ``speedup`` fields are gone).
SCHEMA_VERSION = "repro-bench/6"

#: Required ``metrics`` sections and the keys each must carry.
REQUIRED_METRICS = {
    "executor": ("instructions", "seconds", "mips"),
    "predictor": ("ops", "seconds", "ops_per_sec", "hit_rate", "evictions"),
    "trace": (
        "records",
        "capture_seconds",
        "capture_records_per_sec",
        "replay_seconds",
        "replay_records_per_sec",
        "replay_speedup",
    ),
    "fuse": (
        "images",
        "seconds",
        "images_per_sec",
        "text_bytes_per_image",
        "sketch_bytes_per_image",
        "compression_ratio",
    ),
    "corpus": (
        "programs",
        "seconds",
        "programs_per_sec",
        "mean_static_instructions",
    ),
    "sampling": (
        "records",
        "sample_every",
        "full_seconds",
        "full_records_per_sec",
        "sampled_seconds",
        "sampled_records_per_sec",
        "speedup",
    ),
    "analysis": ("records", "engines", "replays", "seconds", "records_per_sec"),
    "suite": ("experiment", "cold_seconds", "warm_seconds", "simulated_mips", "cache"),
}


class BenchSchemaError(ValueError):
    """A bench payload does not conform to :data:`SCHEMA_VERSION`."""


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """The pinned knobs of one bench run."""

    executor_iterations: int
    predictor_ops: int
    suite_experiment: str
    suite_scale: float
    suite_training_runs: int
    suite_jobs: int = 1
    trace_iterations: int = 50_000
    trace_replays: int = 5
    fuse_images: int = 300
    fuse_addresses: int = 128
    corpus_count: int = 48
    corpus_seed: int = 1997
    sampling_rate: int = 10
    analysis_iterations: int = 50_000
    analysis_replays: int = 3


#: The default (committed-trajectory) configuration.
FULL = BenchConfig(
    executor_iterations=50_000,
    predictor_ops=200_000,
    suite_experiment="fig-5.1",
    suite_scale=0.05,
    suite_training_runs=3,
)

#: The CI configuration: same shape, minutes smaller.
SMOKE = BenchConfig(
    executor_iterations=5_000,
    predictor_ops=20_000,
    suite_experiment="fig-5.1",
    suite_scale=0.01,
    suite_training_runs=1,
    trace_iterations=5_000,
    trace_replays=3,
    fuse_images=60,
    fuse_addresses=64,
    corpus_count=8,
    analysis_iterations=2_000,
    analysis_replays=1,
)

#: Pinned executor workload: {iterations} is substituted per config.
_EXECUTOR_ASM = """
.name bench-loop
.text
    li r1, 0
    li r2, {iterations}
loop:
    addi r1, r1, 1
    add r3, r1, r1
    mul r4, r3, r1
    sub r5, r4, r3
    and r6, r5, r4
    slt r7, r1, r2
    bnez r7, loop
    out r5
    halt
"""


def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = result.stdout.strip()
    return revision if result.returncode == 0 and revision else "unknown"


# -- sections ----------------------------------------------------------------


def bench_executor(iterations: int) -> Dict[str, Any]:
    """Time the functional simulator on the pinned arithmetic loop."""
    from ..isa import assemble
    from ..machine import run_program

    program = assemble(_EXECUTOR_ASM.format(iterations=iterations))
    started = time.perf_counter()
    result = run_program(program, max_instructions=None)
    seconds = time.perf_counter() - started
    return {
        "instructions": result.instruction_count,
        "seconds": seconds,
        "mips": result.instruction_count / seconds / 1e6 if seconds else 0.0,
    }


def bench_predictor(ops: int) -> Dict[str, Any]:
    """Time a pinned access stream against the finite stride table.

    Two phases, half the ops each, matching how the simulation drivers
    hit the table: a *resident* phase cycling 512 addresses (exactly
    table capacity, so steady-state accesses hit and the predict/update
    path is timed) followed by a *pressure* phase cycling 1024 addresses
    (twice capacity, so replacement is exercised and every access
    misses).  The blended hit rate lands near 50% — a stream that only
    thrashed would time nothing but allocation.
    """
    from ..predictors import StridePredictor

    predictor = StridePredictor(512, 2)
    resident = ops // 2
    stream = [
        (index % 512, (index % 512) * 3 + index // 512)
        for index in range(resident)
    ]
    stream += [
        (index % 1024, (index % 1024) * 3 + index // 1024)
        for index in range(resident, ops)
    ]
    access = predictor.access
    started = time.perf_counter()
    for address, value in stream:
        access(address, value)
    seconds = time.perf_counter() - started
    table = predictor.table
    return {
        "ops": ops,
        "seconds": seconds,
        "ops_per_sec": ops / seconds if seconds else 0.0,
        "hit_rate": 100.0 * table.hits / table.lookups if table.lookups else 0.0,
        "evictions": table.evictions,
    }


def bench_trace(iterations: int, replays: int) -> Dict[str, Any]:
    """Time trace capture once and batched replay many times.

    The pinned loop runs once through a memory-only
    :class:`~repro.machine.TraceStore` (execution plus packing), then the
    packed trace is replayed ``replays`` times as columnar batches.
    Replay records/sec is the number the trace/analyze split lives on:
    every consumer after the first walks packed batches instead of
    re-executing the program, so ``replay_speedup`` (replay throughput
    over capture throughput) is the per-consumer win.
    """
    from ..isa import assemble
    from ..machine import TraceStore

    program = assemble(_EXECUTOR_ASM.format(iterations=iterations))
    store = TraceStore(None)
    records = 0
    started = time.perf_counter()
    for batch in store.batches(program):
        records += len(batch)
    capture_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(replays):
        for batch in store.batches(program):
            pass
    replay_seconds = (time.perf_counter() - started) / replays
    capture_rate = records / capture_seconds if capture_seconds else 0.0
    replay_rate = records / replay_seconds if replay_seconds else 0.0
    return {
        "records": records,
        "replays": replays,
        "capture_seconds": capture_seconds,
        "capture_records_per_sec": capture_rate,
        "replay_seconds": replay_seconds,
        "replay_records_per_sec": replay_rate,
        "replay_speedup": replay_rate / capture_rate if capture_rate else 0.0,
    }


def _synthetic_fleet(images: int, addresses: int) -> "List[Any]":
    """A seeded fleet of edge-run profile images for the fuse section.

    Counts follow the shape real collector output has — executions in
    the thousands, attempts one training miss behind, accuracy bimodal
    (the paper's predictable/unpredictable split) — so the sketch codec
    is timed against realistic deltas rather than uniform noise.
    """
    import random

    from ..isa import Category
    from ..profiling.collector import InstructionProfile, ProfileImage

    rng = random.Random(1997)
    fleet = []
    for index in range(images):
        image = ProfileImage("bench-fuse", run_label=f"edge-{index}")
        for slot in range(addresses):
            address = slot * 2
            executions = 1_000 + rng.randrange(0, 4_000)
            attempts = executions - 1
            accuracy = 0.95 if slot % 3 else 0.15
            correct = int(attempts * accuracy)
            nonzero = correct if slot % 2 else 0
            image.instructions[address] = InstructionProfile(
                address, executions, attempts, correct, nonzero
            )
            category = Category.INT_LOAD if slot % 2 else Category.INT_ALU
            detail = image.group_detail.setdefault((category, 0), {})
            detail[address] = [executions, attempts, correct]
        fleet.append(image)
    return fleet


def bench_fuse(images: int, addresses: int) -> Dict[str, Any]:
    """Time streaming fusion of a synthetic fleet; size the sketch wire.

    Each image is serialized both ways — v1 text dump and compact
    sketch — then the sketch payloads are decoded and folded through a
    single :class:`~repro.profiling.fusion.MergeAccumulator`, which is
    exactly the fleet-aggregation path ``repro fuse`` and the service's
    ``fuse`` job run.  ``images_per_sec`` times decode+fold+result;
    ``compression_ratio`` is text bytes over sketch bytes at q=0.
    """
    from ..profiling import ProfileSketch, dumps_profile
    from ..profiling.fusion import MergeAccumulator
    from ..profiling.sketch import dumps_sketch, loads_sketch

    fleet = _synthetic_fleet(images, addresses)
    text_bytes = sum(len(dumps_profile(image).encode("utf-8")) for image in fleet)
    payloads = [dumps_sketch(ProfileSketch.from_image(image)) for image in fleet]
    sketch_bytes = sum(len(payload) for payload in payloads)
    started = time.perf_counter()
    accumulator = MergeAccumulator(run_label="bench-fuse")
    for payload in payloads:
        accumulator.fold(loads_sketch(payload).to_image())
    merged = accumulator.result()
    seconds = time.perf_counter() - started
    return {
        "images": images,
        "addresses": addresses,
        "merged_instructions": len(merged),
        "seconds": seconds,
        "images_per_sec": images / seconds if seconds else 0.0,
        "text_bytes_per_image": text_bytes / images if images else 0.0,
        "sketch_bytes_per_image": sketch_bytes / images if images else 0.0,
        "compression_ratio": text_bytes / sketch_bytes if sketch_bytes else 0.0,
    }


def bench_corpus(count: int, seed: int) -> Dict[str, Any]:
    """Time generating and compiling a pinned corpus slice.

    ``programs_per_sec`` covers the full pipeline a ``repro corpus``
    invocation pays per workload — grammar expansion, input-set
    derivation, and mini-C compilation — so a generator or compiler
    regression shows up here before it slows the sweep experiments.
    """
    from ..workloads.corpus import generate_corpus

    started = time.perf_counter()
    workloads = generate_corpus(seed, count)
    static_sizes = [len(workload.compile()) for workload in workloads]
    seconds = time.perf_counter() - started
    return {
        "programs": count,
        "seed": seed,
        "seconds": seconds,
        "programs_per_sec": count / seconds if seconds else 0.0,
        "mean_static_instructions": (
            sum(static_sizes) / len(static_sizes) if static_sizes else 0.0
        ),
    }


def bench_sampling(seed: int, sample_every: int) -> Dict[str, Any]:
    """Time full vs sampled profiling of one corpus program.

    The program's test run is captured once into a memory
    :class:`~repro.machine.TraceStore`; both profiling passes then
    replay the same packed batches, so the timed difference is purely
    the collector's sampled batch path against its full path.
    ``speedup`` is wall-time full/sampled — the payoff a profiling
    deployment buys by keeping every ``sample_every``-th record.
    """
    from ..machine import TraceStore
    from ..profiling import collect_profile
    from ..workloads.corpus import generate_corpus

    workload = generate_corpus(seed, 1)[0]
    program = workload.compile()
    inputs = workload.test_inputs()
    store = TraceStore(None)
    records = 0
    for batch in store.batches(program, inputs):
        records += len(batch)
    started = time.perf_counter()
    collect_profile(program, inputs, run_label="bench-full", store=store)
    full_seconds = time.perf_counter() - started
    started = time.perf_counter()
    sampled = collect_profile(
        program,
        inputs,
        run_label="bench-sampled",
        sample_every=sample_every,
        store=store,
    )
    sampled_seconds = time.perf_counter() - started
    kept = sum(profile.executions for profile in sampled.instructions.values())
    return {
        "records": records,
        "sample_every": sample_every,
        "sampled_candidate_records": kept,
        "full_seconds": full_seconds,
        "full_records_per_sec": records / full_seconds if full_seconds else 0.0,
        "sampled_seconds": sampled_seconds,
        "sampled_records_per_sec": (
            records / sampled_seconds if sampled_seconds else 0.0
        ),
        "speedup": full_seconds / sampled_seconds if sampled_seconds else 0.0,
    }


#: Pinned analysis workload: an all-integer loop whose candidate stream
#: mixes stride-predictable (counters, scaled indices), last-value
#: friendly (periodic masks/moduli) and hard (quadratic) addresses — the
#: value mix a fig-5.1 multi-scheme comparison walks.
_ANALYSIS_ASM = """
.name bench-analysis
.text
    li r1, 0
    li r2, {iterations}
    li r3, 0
loop:
    addi r1, r1, 1
    addi r3, r3, 3
    add r4, r1, r3
    shli r5, r1, 2
    andi r6, r1, 15
    modi r7, r1, 7
    mul r8, r1, r1
    sub r9, r4, r3
    xor r10, r6, r7
    slt r11, r1, r2
    bnez r11, loop
    out r4
    halt
"""


def _analysis_engines(program) -> "Dict[str, Any]":
    """A fresh fig-5.1-style engine grid (three predictors, two schemes)."""
    from ..core.schemes import AlwaysClassification, HardwareClassification
    from ..core.simulate import PredictionEngine
    from ..predictors import (
        LastValuePredictor,
        StridePredictor,
        TwoDeltaStridePredictor,
    )

    predictors = {
        "stride": StridePredictor,
        "lv": LastValuePredictor,
        "2d": TwoDeltaStridePredictor,
    }
    return {
        f"{name}/{scheme}": PredictionEngine(
            program,
            factory(),
            AlwaysClassification()
            if scheme == "always"
            else HardwareClassification(),
        )
        for name, factory in predictors.items()
        for scheme in ("always", "fsm")
    }


def bench_analysis(iterations: int, replays: int) -> Dict[str, Any]:
    """Time multi-scheme analysis over a replayed trace.

    The pinned loop is captured once into a memory
    :class:`~repro.machine.TraceStore`; each timed pass then replays the
    same packed batches through
    :func:`~repro.core.simulate.simulate_prediction_many` over a fresh
    six-engine grid, so the timing covers candidate extraction and the
    batch consumers, not execution.  ``seconds`` is the mean per pass.
    """
    from ..core.simulate import simulate_prediction_many
    from ..isa import assemble
    from ..machine import TraceStore

    program = assemble(_ANALYSIS_ASM.format(iterations=iterations))
    store = TraceStore(None)
    records = 0
    for batch in store.batches(program):
        records += len(batch)

    started = time.perf_counter()
    for _ in range(replays):
        simulate_prediction_many(program, (), _analysis_engines(program), store=store)
    seconds = (time.perf_counter() - started) / replays
    return {
        "records": records,
        "engines": 6,
        "replays": replays,
        "seconds": seconds,
        "records_per_sec": records / seconds if seconds else 0.0,
    }


def _run_suite_once(config: BenchConfig, cache_dir: str) -> Dict[str, Any]:
    """One full experiment pass under a fresh live registry."""
    from ..experiments.context import ExperimentContext
    from ..experiments.runner import run_experiments

    registry = Telemetry()
    with use_registry(registry):
        context = ExperimentContext(
            scale=config.suite_scale,
            training_runs=config.suite_training_runs,
            cache_dir=cache_dir,
        )
        started = time.perf_counter()
        run_experiments(
            [config.suite_experiment],
            context,
            stream=io.StringIO(),
            jobs=config.suite_jobs,
        )
        seconds = time.perf_counter() - started
    return {"seconds": seconds, "telemetry": registry.snapshot()}


def bench_suite(config: BenchConfig) -> Dict[str, Any]:
    """End-to-end experiment run, cold cache then warm cache."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold = _run_suite_once(config, cache_dir)
        warm = _run_suite_once(config, cache_dir)
    counters = cold["telemetry"].get("counters", {})
    timers = cold["telemetry"].get("timers", {})
    instructions = counters.get("machine.instructions", 0)
    machine_seconds = timers.get("machine.run", {}).get("seconds", 0.0)
    return {
        "experiment": config.suite_experiment,
        "cold_seconds": cold["seconds"],
        "warm_seconds": warm["seconds"],
        "simulated_mips": (
            instructions / machine_seconds / 1e6 if machine_seconds else 0.0
        ),
        "simulated_instructions": instructions,
        "cache": cache_summary(warm["telemetry"]),
        "telemetry": cold["telemetry"],
    }


# -- payload -----------------------------------------------------------------


def build_payload(config: BenchConfig, smoke: bool) -> Dict[str, Any]:
    """Run every section and assemble the schema-versioned payload."""
    suite = bench_suite(config)
    telemetry = suite.pop("telemetry")
    return {
        "schema": SCHEMA_VERSION,
        "revision": git_revision(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": smoke,
        "config": dataclasses.asdict(config),
        "metrics": {
            "executor": bench_executor(config.executor_iterations),
            "predictor": bench_predictor(config.predictor_ops),
            "trace": bench_trace(config.trace_iterations, config.trace_replays),
            "fuse": bench_fuse(config.fuse_images, config.fuse_addresses),
            "corpus": bench_corpus(config.corpus_count, config.corpus_seed),
            "sampling": bench_sampling(config.corpus_seed, config.sampling_rate),
            "analysis": bench_analysis(
                config.analysis_iterations, config.analysis_replays
            ),
            "suite": suite,
        },
        "telemetry": telemetry,
    }


def validate_payload(payload: Dict[str, Any]) -> None:
    """Raise :class:`BenchSchemaError` listing every schema violation."""
    problems: List[str] = []
    if payload.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    for key in ("revision", "created", "python", "platform", "config", "telemetry"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("missing or non-mapping 'metrics'")
        metrics = {}
    for section, keys in REQUIRED_METRICS.items():
        data = metrics.get(section)
        if not isinstance(data, dict):
            problems.append(f"missing metrics section {section!r}")
            continue
        for key in keys:
            if key not in data:
                problems.append(f"metrics.{section} missing {key!r}")
    cache = metrics.get("suite", {}).get("cache")
    if isinstance(cache, dict):
        for kind, entry in cache.items():
            if "hit_rate" not in entry:
                problems.append(f"metrics.suite.cache.{kind} missing 'hit_rate'")
    if problems:
        raise BenchSchemaError("; ".join(problems))


def summary_table(payload: Dict[str, Any]) -> str:
    """The human-readable roll-up printed after a bench run."""
    metrics = payload["metrics"]
    executor = metrics["executor"]
    predictor = metrics["predictor"]
    trace = metrics["trace"]
    fuse = metrics["fuse"]
    corpus = metrics["corpus"]
    sampling = metrics["sampling"]
    analysis = metrics["analysis"]
    suite = metrics["suite"]
    lines = [
        f"repro bench — revision {payload['revision']} "
        f"({'smoke' if payload.get('smoke') else 'full'}, "
        f"python {payload['python']})",
        f"  executor   {executor['instructions']:>12,} instr "
        f"{executor['seconds']:>8.3f}s  {executor['mips']:>8.3f} MIPS",
        f"  predictor  {predictor['ops']:>12,} ops   "
        f"{predictor['seconds']:>8.3f}s  {predictor['ops_per_sec']:>10,.0f} ops/s  "
        f"hit {predictor['hit_rate']:.1f}%",
        f"  trace      {trace['records']:>12,} recs  "
        f"capture {trace['capture_records_per_sec'] / 1e6:>6.3f} Mrec/s  "
        f"replay {trace['replay_records_per_sec'] / 1e6:>7.3f} Mrec/s  "
        f"({trace['replay_speedup']:.1f}x)",
        f"  fuse       {fuse['images']:>12,} imgs  "
        f"{fuse['seconds']:>8.3f}s  {fuse['images_per_sec']:>10,.0f} img/s  "
        f"sketch {fuse['sketch_bytes_per_image']:,.0f} B/img "
        f"({fuse['compression_ratio']:.1f}x)",
        f"  corpus     {corpus['programs']:>12,} progs "
        f"{corpus['seconds']:>8.3f}s  {corpus['programs_per_sec']:>10,.0f} prog/s  "
        f"mean {corpus['mean_static_instructions']:.0f} instr",
        f"  sampling   {sampling['records']:>12,} recs  "
        f"full {sampling['full_records_per_sec'] / 1e6:>6.3f} Mrec/s  "
        f"k={sampling['sample_every']} "
        f"{sampling['sampled_records_per_sec'] / 1e6:>6.3f} Mrec/s  "
        f"({sampling['speedup']:.1f}x)",
        f"  analysis   {analysis['records']:>12,} recs  "
        f"{analysis['seconds']:>8.3f}s  "
        f"{analysis['records_per_sec'] / 1e6:>7.3f} Mrec/s  "
        f"({analysis['engines']} engines)",
        f"  suite      {suite['experiment']:<12} cold {suite['cold_seconds']:>8.2f}s  "
        f"warm {suite['warm_seconds']:>7.2f}s  "
        f"simulated {suite['simulated_mips']:.3f} MIPS",
    ]
    for kind, entry in suite["cache"].items():
        lines.append(
            f"  cache      {kind:<12} {entry['hits']}/{entry['hits'] + entry['misses']} "
            f"hits ({entry['hit_rate']:.0f}%)"
            + (f", {entry['corrupt']} corrupt" if entry["corrupt"] else "")
        )
    return "\n".join(lines)


def _gated_analysis_fields(baseline: Dict[str, Any]) -> List[str]:
    """The baseline's ``analysis`` throughput fields the guard compares."""
    analysis = baseline.get("metrics", {}).get("analysis", {})
    return [key for key in analysis if key.endswith("_per_sec")]


def check_regression(
    payload: Dict[str, Any],
    baseline: Dict[str, Any],
    min_mips_ratio: float,
) -> List[str]:
    """Compare a fresh payload against a committed baseline payload.

    Returns a list of human-readable regression descriptions (empty when
    the run is acceptable).  Only rate metrics are compared — absolute
    wall times vary with suite scale and machine, but ``simulated_mips``
    is a throughput and transfers across configs.  ``min_mips_ratio``
    should stay generous (well below 1.0): the guard exists to catch
    order-of-magnitude regressions, not scheduler jitter between CI
    hosts.
    """
    problems: List[str] = []
    revision = baseline.get("revision", "unknown")
    new_mips = payload["metrics"]["suite"]["simulated_mips"]
    old_mips = baseline.get("metrics", {}).get("suite", {}).get("simulated_mips")
    if not old_mips:
        problems.append("baseline has no metrics.suite.simulated_mips to compare")
    elif new_mips < old_mips * min_mips_ratio:
        problems.append(
            f"suite.simulated_mips regressed: {new_mips:.3f} < "
            f"{min_mips_ratio:.2f} x baseline {old_mips:.3f} "
            f"(revision {revision})"
        )
    # Every throughput field of the analysis section is gated the same
    # way, each with its own failure report, so a lost fast path (e.g.
    # the inlined stride consumers or the shared fold silently falling
    # back to ``step``) can't hide behind the suite-level number.  Old
    # baselines predate the section; skip them.
    new_analysis = payload["metrics"].get("analysis", {})
    old_analysis = baseline.get("metrics", {}).get("analysis", {})
    for key in _gated_analysis_fields(baseline):
        old_value = old_analysis[key]
        new_value = new_analysis.get(key)
        if not old_value:
            continue
        if new_value is None:
            problems.append(f"analysis.{key} missing from this run")
        elif new_value < old_value * min_mips_ratio:
            problems.append(
                f"analysis.{key} regressed: {new_value:,.1f} < "
                f"{min_mips_ratio:.2f} x baseline {old_value:,.1f} "
                f"(revision {revision})"
            )
    return problems


def run_bench(
    *,
    smoke: bool = False,
    output: Optional[str] = None,
    config: Optional[BenchConfig] = None,
    stream: Optional[TextIO] = None,
) -> Dict[str, Any]:
    """Run the pinned suite, validate, write JSON, print the summary.

    Returns the payload.  ``config`` overrides the smoke/full presets
    (used by tests to shrink the suite further).
    """
    stream = stream or sys.stdout
    config = config or (SMOKE if smoke else FULL)
    payload = build_payload(config, smoke)
    validate_payload(payload)
    # Guard the schema contract: the payload must survive a JSON round trip.
    text = json.dumps(payload, indent=2, sort_keys=True)
    validate_payload(json.loads(text))
    path = Path(output) if output else Path(f"BENCH_{payload['revision']}.json")
    path.write_text(text + "\n", encoding="utf-8")
    print(summary_table(payload), file=stream)
    print(f"wrote {path}", file=stream)
    return payload


# -- CLI ---------------------------------------------------------------------


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the bench options on ``parser`` (shared with the repro CLI)."""
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        help="output JSON path (default: BENCH_<git-rev>.json in the cwd)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="minutes-smaller pinned suite for CI schema checks",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for the suite section (default 1 = serial)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed BENCH_*.json to regress against; the run exits "
        "non-zero if suite.simulated_mips falls below --min-mips-ratio "
        "times the baseline's",
    )
    parser.add_argument(
        "--min-mips-ratio",
        type=float,
        default=0.3,
        metavar="RATIO",
        help="lowest acceptable simulated-MIPS fraction of the baseline "
        "(default 0.3 — generous, so only real regressions fail CI)",
    )


def run_from_arguments(arguments: argparse.Namespace) -> int:
    config = SMOKE if arguments.smoke else FULL
    if arguments.jobs != 1:
        config = dataclasses.replace(config, suite_jobs=arguments.jobs)
    payload = run_bench(smoke=arguments.smoke, output=arguments.output, config=config)
    if arguments.baseline is not None:
        baseline = json.loads(Path(arguments.baseline).read_text(encoding="utf-8"))
        problems = check_regression(payload, baseline, arguments.min_mips_ratio)
        if problems:
            for problem in problems:
                print(f"bench regression: {problem}", file=sys.stderr)
            return 1
        old_mips = baseline["metrics"]["suite"]["simulated_mips"]
        new_mips = payload["metrics"]["suite"]["simulated_mips"]
        gated = 1 + len(_gated_analysis_fields(baseline))
        print(
            f"bench regression guard passed ({gated} gated fields): "
            f"{new_mips:.3f} MIPS vs baseline {old_mips:.3f} "
            f"(floor {arguments.min_mips_ratio:.2f}x)"
        )
    return 0


def bench_main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro bench`` delegates here)."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the pinned performance suite and write BENCH_<rev>.json.",
    )
    add_arguments(parser)
    return run_from_arguments(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(bench_main())
