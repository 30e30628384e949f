"""Tests for the parallel experiment engine (:mod:`repro.runner`).

Covers the load-bearing guarantees:

* ``--jobs N`` is byte-for-byte identical to a serial run,
* an unchanged configuration hits the content-addressed cache,
* cache keys change with the program text, the inputs and the scale,
  and a corrupt cache entry is discarded and recomputed, never trusted,
* a run with a failing job degrades: the job fails once, exactly its
  transitive dependents are skipped, everything else completes, and a
  pool that breaks mid-run finishes its lost jobs in-process.
"""

from __future__ import annotations

import inspect
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.experiments import shared
from repro.experiments.context import THRESHOLDS as PAPER_THRESHOLDS
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import run_experiments
from repro.runner import ArtifactCache, build_experiment_graph, keys
from repro.runner import executor
from repro.runner.executor import POOL_BROKE, execute_graph, resolve_jobs
from repro.runner.jobs import Job, JobGraph, job_id
from repro.runner.report import JobReport, RunReport
from repro.workloads import TABLE_4_1_NAMES
from repro.telemetry import Telemetry, use_registry

def make_context(**overrides) -> ExperimentContext:
    options = dict(scale=0.02, training_runs=2)
    options.update(overrides)
    return ExperimentContext(**options)


WORKLOAD = "129.compress"
PROFILE = ("profile", WORKLOAD, 0)


def key_of(cell, tmp_path, **overrides):
    return make_context(cache_dir=tmp_path, **overrides).key(cell)


#: Every disk-cached kind, and the inputs its key must digest.
KEY_INPUTS = [
    (PROFILE, {"scale", "program text"}),
    (("merged", WORKLOAD), {"scale", "training runs", "program text"}),
    (
        ("grid", WORKLOAD),
        {"scale", "training runs", "stride threshold", "program text"},
    ),
    (
        ("experiment", "fig-4.2"),
        {
            "scale", "training runs", "stride threshold", "program text",
            "experiment source",
        },
    ),
]

CONFIG_CHANGES = {
    "scale": {"scale": 0.03},
    "training runs": {"training_runs": 3},
    "stride threshold": {"stride_threshold": 40.0},
}


class TestKeys:
    def test_deterministic(self, tmp_path):
        assert key_of(PROFILE, tmp_path) == key_of(PROFILE, tmp_path)

    def test_scale_changes_key(self, tmp_path):
        assert key_of(PROFILE, tmp_path) != key_of(PROFILE, tmp_path, scale=0.03)

    def test_input_set_changes_key(self, tmp_path):
        assert key_of(PROFILE, tmp_path) != key_of(("profile", WORKLOAD, 1), tmp_path)

    def test_program_text_changes_key(self, monkeypatch, tmp_path):
        before = key_of(PROFILE, tmp_path)
        monkeypatch.setitem(keys._program_texts, WORKLOAD, "li r1, 0\nhalt")
        assert key_of(PROFILE, tmp_path) != before

    def test_training_run_count_changes_merged_key(self, tmp_path):
        merged = ("merged", WORKLOAD)
        assert key_of(merged, tmp_path) != key_of(merged, tmp_path, training_runs=3)

    @pytest.mark.parametrize(
        "cell, inputs", KEY_INPUTS, ids=[cell[0] for cell, _ in KEY_INPUTS]
    )
    def test_key_changes_with_exactly_its_inputs(
        self, cell, inputs, monkeypatch, tmp_path
    ):
        base = key_of(cell, tmp_path)
        assert base is not None
        changed = {
            name: key_of(cell, tmp_path, **overrides) != base
            for name, overrides in CONFIG_CHANGES.items()
        }
        with monkeypatch.context() as patch:
            patch.setitem(keys._program_texts, WORKLOAD, "li r1, 0\nhalt")
            changed["program text"] = key_of(cell, tmp_path) != base
        with monkeypatch.context() as patch:
            patch.setattr(inspect, "getsource", lambda module: "# edited\n")
            changed["experiment source"] = key_of(cell, tmp_path) != base
        assert {name for name, hit in changed.items() if hit} == inputs

    def test_uncached_cells_have_no_key(self, tmp_path):
        for cell in (("compile", WORKLOAD), ("annotate", WORKLOAD, 90.0)):
            assert key_of(cell, tmp_path) is None
        assert make_context().key(PROFILE) is None

    def test_grid_cell_is_held_and_stored_once(self, tmp_path):
        """``("grid", name)`` is one memo entry and one disk entry that
        both accessors read, and a fresh context reads it back from the
        disk."""
        context = make_context(cache_dir=tmp_path)
        first = shared.ilp_results(context, WORKLOAD)
        classify = shared.classification_accuracy_stats(context, WORKLOAD)
        assert shared.ilp_results(context, WORKLOAD) is first
        assert [cell for cell in context.memo if cell[0] == "grid"] == [
            ("grid", WORKLOAD)
        ]
        entries = [
            path for path in ArtifactCache(tmp_path).entries()
            if path.parent.parent.name == "grid"
        ]
        assert len(entries) == 1
        registry = Telemetry()
        with use_registry(registry):
            fresh = make_context(cache_dir=tmp_path)
            again = shared.ilp_results(fresh, WORKLOAD)
            again_classify = shared.classification_accuracy_stats(fresh, WORKLOAD)
        counters = registry.snapshot()["counters"]
        assert counters["cache.hit.grid"] == 1
        assert "cache.store.grid" not in counters
        assert again == first
        assert {label: stats.to_dict() for label, stats in again_classify.items()} == {
            label: stats.to_dict() for label, stats in classify.items()
        }


class TestArtifactCache:
    KEY = "ab" + "0" * 62

    def test_roundtrip_and_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("profile", self.KEY, "payload\n", "profile")
        assert cache.load("profile", self.KEY, "profile") == "payload\n"
        assert (tmp_path / "profile" / "ab" / f"{self.KEY}.profile").is_file()

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactCache(tmp_path).load("profile", self.KEY, "profile") is None

    def test_discard(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("merged", self.KEY, "x", "profile")
        assert ("merged", self.KEY) in cache
        cache.discard("merged", self.KEY, "profile")
        assert ("merged", self.KEY) not in cache
        assert cache.load("merged", self.KEY, "profile") is None

    def test_store_overwrites_atomically(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("grid", self.KEY, "old")
        cache.store("grid", self.KEY, "new")
        assert cache.load("grid", self.KEY) == "new"
        assert len(list(cache.entries())) == 1

    def test_unreadable_entry_treated_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store("profile", self.KEY, "ok", "profile")
        path.write_bytes(b"\xff\xfe garbage \xff")
        assert cache.load("profile", self.KEY, "profile") is None
        assert ("profile", self.KEY) not in cache


class TestGraph:
    def test_experiment_graph_shape(self):
        context = make_context()
        graph = build_experiment_graph(["fig-5.1"], context)
        kinds = {job.kind for job in graph.order()}
        assert {"compile", "profile", "annotate", "grid", "experiment"} <= kinds
        experiment = graph["experiment:fig-5.1"]
        dep_kinds = {graph[dep].kind for dep in experiment.deps}
        # fig-5.1 declares CELLS = ("grid",); the closure pulls in the
        # profile and annotate cells those simulations are built from.
        assert dep_kinds == {"profile", "annotate", "grid"}

    def test_finite_figures_read_the_grid_cells(self):
        graph = build_experiment_graph(["fig-5.3"], make_context())
        assert {job.kind for job in graph.order()} == {
            "compile", "profile", "annotate", "grid", "experiment"
        }
        deps = graph["experiment:fig-5.3"].deps
        grid_deps = [dep for dep in deps if graph[dep].kind == "grid"]
        assert grid_deps == [f"grid:{name}" for name in TABLE_4_1_NAMES]
        assert len(grid_deps) == 9

    def test_paper_cold_graph(self):
        """The twelve paper tables expand to 120 jobs in a pinned order."""
        graph = build_experiment_graph(PAPER_TABLES, ExperimentContext(scale=0.01))
        expected = [f"compile:{name}" for name in TABLE_4_1_NAMES]
        for name in TABLE_4_1_NAMES:
            expected += [f"profile:{name}:{run}" for run in range(5)]
            expected += [f"annotate:{name}:{th:g}" for th in PAPER_THRESHOLDS]
            expected += [f"grid:{name}"]
        expected += [f"experiment:{table}" for table in PAPER_TABLES]
        assert [job.job_id for job in graph.order()] == expected
        assert len(expected) == 120
        assert Counter(job.kind for job in graph.order()) == {
            "compile": 9, "profile": 45, "annotate": 45, "grid": 9, "experiment": 12,
        }
        assert graph[f"annotate:{WORKLOAD}:90"].label == (
            f"annotate({WORKLOAD}, th=90)"
        )
        assert graph[f"profile:{WORKLOAD}:4"].label == f"profile({WORKLOAD}, run 4)"

    def test_order_respects_dependencies(self):
        context = make_context()
        graph = build_experiment_graph(["fig-2.3", "fig-5.1"], context)
        seen = set()
        for job in graph.order():
            assert all(dep in seen for dep in job.deps), job.job_id
            seen.add(job.job_id)

    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == (os.cpu_count() or 1)


EXPERIMENT = "fig-4.2"

PAPER_TABLES = (
    "table-2.1", "fig-2.2", "fig-2.3", "fig-4.1", "fig-4.2", "fig-4.3",
    "fig-5.1", "fig-5.2", "table-5.1", "fig-5.3", "fig-5.4", "table-5.2",
)


def run_engine(jobs=1, cache_dir=None):
    context = make_context(cache_dir=cache_dir)
    graph = build_experiment_graph([EXPERIMENT], context)
    outcome = execute_graph(graph, context, jobs=jobs)
    return outcome, outcome.tables[EXPERIMENT].to_tsv()


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """One serial run with a fresh cache; the expensive shared baseline."""
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    outcome, tsv = run_engine(cache_dir=cache_dir)
    return cache_dir, outcome, tsv


class TestEngine:
    """End-to-end engine runs; tiny scale keeps each under ~10s."""

    def test_parallel_byte_identical_to_serial(self, warm_cache):
        _, _, serial = warm_cache
        _, pooled = run_engine(jobs=4)  # no cache: genuinely recomputed
        assert pooled == serial

    def test_cache_hit_on_unchanged_inputs(self, warm_cache):
        cache_dir, first_outcome, first = warm_cache
        assert first_outcome.cached_jobs == 0
        second_outcome, second = run_engine(cache_dir=cache_dir)
        assert second == first
        assert second_outcome.cached_jobs > 0
        # Every profile cell and the finished table come from the cache.
        cached_kinds = {
            entry.kind
            for entry in second_outcome.report.jobs
            if entry.status == "cached"
        }
        assert "profile" in cached_kinds and "experiment" in cached_kinds

    def test_run_experiments_parallel_output_matches_serial(
        self, warm_cache, tmp_path
    ):
        cache_dir, _, _ = warm_cache
        run_experiments(
            [EXPERIMENT], make_context(cache_dir=cache_dir),
            stream=io.StringIO(), output_dir=tmp_path / "serial",
        )
        run_experiments(
            [EXPERIMENT], make_context(cache_dir=cache_dir),
            stream=io.StringIO(), output_dir=tmp_path / "pooled", jobs=2,
        )
        stem = EXPERIMENT.replace(".", "_")
        serial_tsv = (tmp_path / "serial" / f"{stem}.tsv").read_text()
        pooled_tsv = (tmp_path / "pooled" / f"{stem}.tsv").read_text()
        assert serial_tsv == pooled_tsv

    def test_differential_serial_parallel(self):
        """Serial and parallel runs agree on tables and telemetry totals."""
        watched = (
            "machine.instructions",
            "profiling.records",
            "profiling.runs",
            "runner.jobs",
            "runner.jobs_cached",
        )
        totals, tsvs = [], []
        for jobs in (1, 2):
            registry = Telemetry()
            with use_registry(registry):
                outcome, tsv = run_engine(jobs=jobs)
            assert outcome.report.ok, outcome.report.format()
            counters = registry.snapshot()["counters"]
            totals.append({name: counters.get(name, 0) for name in watched})
            tsvs.append(tsv)
        assert tsvs[0] == tsvs[1]
        assert totals[0] == totals[1]

    def test_queue_wait_bounded_by_wall_clock(self):
        """Regression: summed ``runner.queue_wait`` must stay below wall time.

        Dispatch latency is charged per job from the moment capacity
        frees up, not from when the job became ready — the old
        finish-time accounting re-counted every other job's compute time
        and summed to hundreds of seconds inside a 30-second run.
        """
        registry = Telemetry()
        started = time.perf_counter()
        with use_registry(registry):
            run_engine(jobs=2)
        wall = time.perf_counter() - started
        timers = registry.snapshot().get("timers", {})
        waited = timers.get("runner.queue_wait", {}).get("seconds", 0.0)
        assert waited <= wall

    def test_corrupt_single_entry_mid_suite_counted(self, warm_cache):
        """One corrupt profile entry: counted, discarded, recomputed.

        Unlike the clobber-everything test below, this models the
        realistic mid-suite case — a single torn write in an otherwise
        warm cache — and pins the ``runner.cache.corrupt`` telemetry.
        """
        cache_dir, _, first = warm_cache
        cache = ArtifactCache(cache_dir)
        victim = next(
            path for path in cache.entries() if path.parent.parent.name == "profile"
        )
        victim.write_text("not a profile image", encoding="utf-8")
        registry = Telemetry()
        with use_registry(registry):
            outcome, again = run_engine(cache_dir=cache_dir)
        assert again == first
        snapshot = registry.snapshot()
        assert snapshot["counters"]["runner.cache.corrupt"] == 1
        # The rest of the warm cache was still honored.
        assert outcome.cached_jobs > 0
        assert outcome.report.ok

    def test_corrupt_cache_entry_recovered(self, warm_cache):
        # Runs after the cache-hit test (definition order); clobbering the
        # shared cache here is safe because recovery recomputes everything.
        cache_dir, _, first = warm_cache
        cache = ArtifactCache(cache_dir)
        corrupted = 0
        for path in cache.entries():
            path.write_text("not a valid payload {", encoding="utf-8")
            corrupted += 1
        assert corrupted > 0
        outcome, again = run_engine(cache_dir=cache_dir)
        assert again == first
        # The corrupt table entry was discarded, not served.
        record = outcome.record_for(f"experiment:{EXPERIMENT}")
        assert record is not None and record.status == "ok"


class TestCellCache:
    """Each cell is keyed, probed and stored by the context alone."""

    def test_cache_off_derives_no_key(self, monkeypatch):
        def refuse(parts):
            raise AssertionError("a cache key was derived without a cache")

        monkeypatch.setattr(keys, "_digest", refuse)
        outcome, _ = run_engine(jobs=1)
        assert outcome.report.ok, outcome.report.format()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_probes_and_stores_each_cell_once(self, tmp_path, jobs):
        context = make_context(cache_dir=tmp_path)
        graph = build_experiment_graph(["fig-5.1"], context)
        registry = Telemetry()
        with use_registry(registry):
            outcome = execute_graph(graph, context, jobs=jobs)
        assert outcome.report.ok, outcome.report.format()
        counters = registry.snapshot()["counters"]
        counts = {}
        for job in graph.order():
            counts[job.kind] = counts.get(job.kind, 0) + 1
        for kind in ("profile", "grid", "experiment"):
            assert counters[f"cache.miss.{kind}"] == counts[kind], kind
            assert counters[f"cache.store.{kind}"] == counts[kind], kind
        if jobs == 1:
            assert counters["cache.miss.merged"] == counts["compile"]
            assert counters["cache.store.merged"] == counts["compile"]


class TestDeadlockDiagnostic:
    """A malformed graph must fail with a diagnosis, not hang or baffle."""

    def test_cycle_names_unmet_deps(self):
        # A dependency cycle can't be built through JobGraph.add (it
        # validates deps), so poke the jobs table directly — exactly the
        # kind of malformed input the diagnostic exists for.
        graph = JobGraph()
        graph.jobs["profile:w:0"] = Job(
            "profile:w:0", "profile", "w", params=(0,), deps=("profile:w:1",)
        )
        graph.jobs["profile:w:1"] = Job(
            "profile:w:1", "profile", "w", params=(1,), deps=("profile:w:0",)
        )
        with pytest.raises(RuntimeError) as excinfo:
            execute_graph(graph, make_context())
        message = str(excinfo.value)
        assert "deadlock" in message
        assert "profile:w:0 (waiting on: profile:w:1)" in message
        assert "profile:w:1 (waiting on: profile:w:0)" in message
        assert "dependency cycle" in message


MISSING = "000.missing"  # not a registered workload: its profile job raises
GOOD = ("129.compress", "107.mgrid")


def degraded_graph() -> JobGraph:
    """Two workloads' compile → profile → annotate → grid chains, plus
    a profile job for an unregistered workload with its own chain.

    The missing workload's profile job raises ``KeyError`` wherever it
    runs — in the coordinator at ``jobs=1``, in a pool worker at ``2``.
    """
    graph = JobGraph()
    for workload in GOOD:
        graph.add(Job(job_id("compile", workload), "compile", workload, inline=True))
    chains = [(workload, (job_id("compile", workload),), 2) for workload in GOOD]
    chains.append((MISSING, (), 1))
    for workload, profile_deps, runs in chains:
        profiles = tuple(
            graph.add(
                Job(
                    job_id("profile", workload, run_index),
                    "profile",
                    workload,
                    params=(run_index,),
                    deps=profile_deps,
                )
            ).job_id
            for run_index in range(runs)
        )
        annotate = graph.add(
            Job(job_id("annotate", workload, 90.0), "annotate", workload,
                params=(90.0,), deps=profiles)
        )
        graph.add(
            Job(
                job_id("grid", workload), "grid", workload,
                deps=(annotate.job_id,),
            )
        )
    return graph


def statuses(report) -> dict:
    return {entry.job_id: entry.status for entry in report.jobs}


class TestDegradedRun:
    """One failing job: it fails once, its dependents skip, the rest run."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_and_skipped_sets_are_exact(self, jobs):
        graph = degraded_graph()
        outcome = execute_graph(graph, make_context(), jobs=jobs)
        report = outcome.report
        assert not report.ok and report.exit_code == 1
        victim = job_id("profile", MISSING, 0)
        skipped = {job_id("annotate", MISSING, 90.0), job_id("grid", MISSING)}
        assert [entry.job_id for entry in report.failed] == [victim]
        assert {entry.job_id for entry in report.skipped} == skipped
        assert set(graph.transitive_dependents(victim)) == skipped
        for entry_id, status in statuses(report).items():
            if entry_id != victim and entry_id not in skipped:
                assert status == "ok", entry_id
        failed = report.job(victim)
        assert failed.attempts == 1
        assert len(failed.causes) == 1 and failed.causes[0].startswith("KeyError:")
        assert MISSING in failed.causes[0]
        for entry_id in skipped:
            assert report.job(entry_id).attempts == 0
            assert report.job(entry_id).causes == (f"dependency {victim} failed",)
        assert all(job_id("grid", workload) in outcome.values for workload in GOOD)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_probe_failure_fails_its_job(self, jobs, tmp_path):
        # With a cache the coordinator derives the victim's disk key
        # before launching it, and the profile key raises for an
        # unregistered workload: the job fails, the run still degrades.
        expected = execute_graph(degraded_graph(), make_context(), jobs=jobs).report
        report = execute_graph(
            degraded_graph(), make_context(cache_dir=tmp_path), jobs=jobs
        ).report
        assert not report.ok
        assert statuses(report) == statuses(expected)
        victim = report.job(job_id("profile", MISSING, 0))
        assert victim.causes[0].startswith("KeyError:")


class _BreakingPool:
    """A stand-in process pool that delivers one result, then breaks.

    The first submission runs in-process; the next comes back lost, as
    an in-flight job does when a worker dies, and every later
    submission raises like a real broken pool.
    """

    instances = []

    def __init__(self, max_workers):
        self.submitted = 0
        self.instances.append(self)

    def submit(self, function, *args):
        self.submitted += 1
        future = Future()
        if self.submitted == 1:
            future.set_result(function(*args))
        elif self.submitted == 2:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            raise BrokenProcessPool("pool is broken")
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenPool:
    def test_broken_pool_finishes_in_process(self, monkeypatch):
        serial = execute_graph(
            build_experiment_graph([EXPERIMENT], make_context()), make_context()
        )
        _BreakingPool.instances.clear()
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _BreakingPool)
        context = make_context()
        graph = build_experiment_graph([EXPERIMENT], context)
        broken = execute_graph(graph, context, jobs=2)
        # One pool, never rebuilt, and it saw exactly its two jobs.
        assert [pool.submitted for pool in _BreakingPool.instances] == [2]
        assert broken.tables[EXPERIMENT].to_tsv() == serial.tables[EXPERIMENT].to_tsv()
        assert statuses(broken.report) == statuses(serial.report)
        assert broken.report.ok
        pool_jobs = [job.job_id for job in graph.order() if not job.inline]
        lost = [entry.job_id for entry in broken.report.jobs if entry.causes]
        assert lost == [pool_jobs[1]]
        assert broken.report.job(pool_jobs[1]).causes == (POOL_BROKE,)


def test_serial_import_loads_no_process_pool():
    """The runner loads ``multiprocessing`` only when it builds a pool.

    Checked in a fresh interpreter, since this test process has built
    pools already.  A serial run would pay the import's memory for
    nothing.
    """
    script = (
        "import sys\n"
        "import repro.experiments.runner\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'multiprocessing'\n"
        "             or name == 'concurrent.futures.process'))\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source_root},
        check=True,
    )
    assert result.stdout.strip() == "[]"


class TestRunReport:
    def report(self) -> RunReport:
        return RunReport(
            jobs=[
                JobReport("compile:w", "compile", "compile(w)", "ok", 1, 0.1),
                JobReport(
                    "profile:w:0",
                    "profile",
                    "profile(w, run 0)",
                    "failed",
                    1,
                    3.5,
                    causes=("KeyError: unknown workload 'w'",),
                ),
                JobReport(
                    "grid:w",
                    "grid",
                    "grid(w)",
                    "skipped",
                    0,
                    0.0,
                    causes=("dependency profile:w:0 failed",),
                ),
            ]
        )

    def test_counts_and_status(self):
        report = self.report()
        assert report.counts() == {"ok": 1, "cached": 0, "failed": 1, "skipped": 1}
        assert not report.ok
        assert report.exit_code == 1
        assert [entry.job_id for entry in report.failed] == ["profile:w:0"]
        assert [entry.job_id for entry in report.skipped] == ["grid:w"]
        assert report.job("compile:w").status == "ok"
        assert report.job("missing") is None

    def test_format_names_failures_and_causes(self):
        text = self.report().format()
        assert text.splitlines()[0] == (
            "run report: 3 jobs — 1 ok, 0 cached, 1 failed, 1 skipped"
        )
        assert "profile:w:0 — 3.50s" in text
        assert "KeyError: unknown workload 'w'" in text
        assert "grid:w — dependency profile:w:0 failed" in text

    def test_json_schema(self):
        payload = json.loads(self.report().to_json())
        assert payload["schema"] == "repro-run/2"
        assert set(payload) == {"schema", "counts", "jobs"}
        assert payload["counts"]["failed"] == 1
        assert payload["jobs"][1]["causes"] == ["KeyError: unknown workload 'w'"]
        assert set(payload["jobs"][0]) == {
            "job_id", "kind", "label", "status", "attempts", "seconds", "causes",
        }

    def test_empty_run_is_ok(self):
        report = RunReport()
        assert report.ok and report.exit_code == 0
